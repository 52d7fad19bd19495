//! `benchmark agree SET_A SET_B [SET…]`: do sets of results agree within
//! the bounds `BENCHMARK.json` fixes?
//!
//! Each set is a `results.jsonl` file written by `run`/`trace` (one JSON
//! object per run). Every later set is compared with the first:
//!
//! - an end-to-end metric fails when its median is worse than the first
//!   set's by more than the metric's bound (a share of that median);
//! - a per-layer metric with unit `count` is a deterministic count and
//!   fails unless it reads the same in every run of the same workload
//!   and seed, in every set.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use serde_json::Value;

use crate::stats::{median, quartiles};

struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &PathBuf) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc: Value =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("{}:{}: no '{k}'", path.display(), n + 1))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.as_object().unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
        runs.push(Run {
            workload: field("workload")?.as_str().unwrap_or("").to_string(),
            seed: field("seed")?.as_u64().unwrap_or(0),
            metrics,
        });
    }
    Ok(runs)
}

/// `(name, better, bound)` of every end-to-end metric and the names of
/// every count-type per-layer metric.
fn catalogue(spec: &Value) -> (Vec<(String, String, f64)>, Vec<String>) {
    let list = |k: &str| {
        spec.get(k)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let text = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let e2e = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            (text(m, "name"), text(m, "better"), bound)
        })
        .collect();
    let counts = list("per_layer")
        .iter()
        .filter(|m| text(m, "unit") == "count")
        .map(|m| text(m, "name"))
        .collect();
    (e2e, counts)
}

fn cell(values: &[f64]) -> String {
    if values.is_empty() {
        return "-".to_string();
    }
    let (q1, q3) = quartiles(values);
    format!(
        "{:.6} [{:.6}, {:.6}] n={}",
        median(values),
        q1,
        q3,
        values.len()
    )
}

/// Print the comparison table; `Ok(true)` when every row agrees.
pub fn agree(files: &[PathBuf], spec: &Value) -> Result<bool, String> {
    if files.len() < 2 {
        return Err("agree needs at least two result sets".to_string());
    }
    let sets: Vec<Vec<Run>> = files.iter().map(load).collect::<Result<_, _>>()?;
    let (e2e, counts) = catalogue(spec);
    let workloads: BTreeSet<&str> = sets.iter().flatten().map(|r| r.workload.as_str()).collect();
    let values = |set: &[Run], w: &str, m: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.get(m).copied())
            .collect()
    };
    let mut ok = true;
    println!(
        "{:<20} {:<32} {:<8} {:<48} verdict",
        "workload", "metric", "set", "median [q1, q3]"
    );
    for w in &workloads {
        for (m, better, bound) in &e2e {
            let base = values(&sets[0], w, m);
            if base.is_empty() {
                continue;
            }
            let m0 = median(&base);
            println!("{w:<20} {m:<32} {:<8} {:<48}", "A", cell(&base));
            for (i, set) in sets.iter().enumerate().skip(1) {
                let vals = values(set, w, m);
                let mi = median(&vals);
                let worse = if better == "lower" {
                    (mi - m0) / m0
                } else {
                    (m0 - mi) / m0
                };
                let pass = !vals.is_empty() && worse <= *bound;
                ok &= pass;
                println!(
                    "{w:<20} {m:<32} {:<8} {:<48} {:+.2}% (bound {:.0}%) {}",
                    set_name(i),
                    cell(&vals),
                    -100.0 * worse,
                    100.0 * bound,
                    if pass { "ok" } else { "FAIL" }
                );
            }
        }
        for m in &counts {
            let mut by_seed: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
            for r in sets.iter().flatten().filter(|r| r.workload == *w) {
                if let Some(v) = r.metrics.get(m) {
                    by_seed.entry(r.seed).or_default().insert(v.to_bits());
                }
            }
            if by_seed.is_empty() {
                continue;
            }
            let pass = by_seed.values().all(|bits| bits.len() == 1);
            ok &= pass;
            for (i, set) in sets.iter().enumerate() {
                println!(
                    "{w:<20} {m:<32} {:<8} {:<48} {}",
                    set_name(i),
                    cell(&values(set, w, m)),
                    match (i, pass) {
                        (0, _) => "",
                        (_, true) => "identical",
                        (_, false) => "FAIL (differs)",
                    }
                );
            }
        }
    }
    println!(
        "agree: {}",
        if ok {
            "all metrics within bounds"
        } else {
            "FAIL"
        }
    );
    Ok(ok)
}

fn set_name(i: usize) -> String {
    match u8::try_from(i).ok().filter(|i| *i < 26) {
        Some(i) => char::from(b'A' + i).to_string(),
        None => format!("#{i}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_and_counts_decide_agreement() {
        let spec: Value = serde_json::from_str(
            r#"{"end_to_end": [{"name": "exp_per_s", "unit": "exp/s", "better": "higher", "bound": 0.1}],
                "per_layer": [{"name": "vexec.golden_dyn_insts_per_exp", "unit": "count", "better": "lower"}]}"#,
        )
        .unwrap();
        let dir = PathBuf::from(".bench_work").join(format!("agree-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |eps: f64, dyn_insts: f64| {
            format!(
                r#"{{"workload": "w", "seed": 42, "metrics": {{"exp_per_s": {{"value": {eps}, "unit": "exp/s"}}, "vexec.golden_dyn_insts_per_exp": {{"value": {dyn_insts}, "unit": "count"}}}}}}"#
            ) + "\n"
        };
        let write = |name: &str, lines: &[String]| {
            let p = dir.join(name);
            std::fs::write(&p, lines.concat()).unwrap();
            p
        };
        let a = write("a.jsonl", &[line(100.0, 7.0), line(104.0, 7.0)]);
        let b = write("b.jsonl", &[line(95.0, 7.0), line(97.0, 7.0)]);
        let slow = write("slow.jsonl", &[line(80.0, 7.0)]);
        let drift = write("drift.jsonl", &[line(102.0, 8.0)]);
        assert!(agree(&[a.clone(), b], &spec).unwrap());
        assert!(!agree(&[a.clone(), slow], &spec).unwrap());
        assert!(!agree(&[a, drift], &spec).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(".bench_work");
    }
}

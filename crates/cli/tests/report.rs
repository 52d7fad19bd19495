//! End-to-end analytics contract, driven through the real binary:
//!
//! - `report diff` on two stores produced by the same study key and
//!   seeds reports zero significant cells and zero drift — the
//!   determinism contract, checked statistically.
//! - `report html` emits one self-contained file: heatmap and diff
//!   sections present, no scripts, no external fetches.
//! - `bench --record` writes a parseable throughput report.
//! - `results summary` / `trace summarize` behave on empty and
//!   single-shard stores.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use vulfi_orch::DiffReport;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_cli_report_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vulfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args(args)
        .output()
        .expect("spawn vulfi binary")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?})\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Run the standard small study into `store` (optionally tracing).
fn run_study(store: &str, trace: Option<&str>) {
    let mut args = vec![
        "study",
        "--bench",
        "vector sum",
        "--experiments",
        "12",
        "--campaigns",
        "5",
        "--seed",
        "7",
        "--shard-size",
        "5",
        "--store",
        store,
    ];
    if let Some(t) = trace {
        args.extend(["--trace", t]);
    }
    assert_ok(&vulfi(&args), "vulfi study");
}

#[test]
fn diff_of_twin_stores_reports_zero_significant_cells() {
    let a = temp_dir("twin_a");
    let b = temp_dir("twin_b");
    let (a_s, b_s) = (a.to_str().unwrap(), b.to_str().unwrap());
    run_study(a_s, None);
    run_study(b_s, None);

    let json = vulfi(&["report", "diff", a_s, b_s, "--json"]);
    assert_ok(&json, "vulfi report diff --json");
    let d: DiffReport = serde_json::from_str(stdout(&json).trim()).unwrap();
    assert_eq!(d.cells.len(), 1, "one comparable cell");
    assert_eq!(
        d.significant, 0,
        "identical seeds cannot differ significantly"
    );
    assert_eq!(d.drift, 0, "identical stores cannot drift");
    let c = &d.cells[0];
    assert_eq!(c.key_a, c.key_b, "same inputs hash to the same study key");
    assert_eq!((c.sdc_a, c.n_a), (c.sdc_b, c.n_b));
    assert!(!c.significant && !c.drift);
    assert!(c.p > 0.99, "identical proportions: p ≈ 1, got {}", c.p);
    assert!(
        c.lo_a <= c.rate_a && c.rate_a <= c.hi_a,
        "Wilson bounds bracket the rate"
    );

    // The human-readable table agrees.
    let text = vulfi(&["report", "diff", a_s, b_s]);
    assert_ok(&text, "vulfi report diff");
    let t = stdout(&text);
    assert!(t.contains("1 cell(s) compared, 0 significant"), "{t}");
    assert!(!t.contains("DRIFT"), "{t}");
}

#[test]
fn html_report_is_self_contained_and_complete() {
    let store = temp_dir("html_store");
    let trace = temp_dir("html_trace");
    let twin = temp_dir("html_twin");
    let out = temp_dir("html_out").join("report.html");
    let (store_s, trace_s, twin_s) = (
        store.to_str().unwrap(),
        trace.to_str().unwrap(),
        twin.to_str().unwrap(),
    );
    run_study(store_s, Some(trace_s));
    run_study(twin_s, None);

    let r = vulfi(&[
        "report",
        "html",
        "--store",
        store_s,
        "--trace",
        trace_s,
        "--diff-store",
        twin_s,
        "-o",
        out.to_str().unwrap(),
    ]);
    assert_ok(&r, "vulfi report html");
    let html = std::fs::read_to_string(&out).expect("report written");

    for id in [
        "studies",
        "diff",
        "heatmap",
        "occupancy",
        "propagation",
        "metrics",
    ] {
        assert!(
            html.contains(&format!("id=\"{id}\"")),
            "missing section {id}"
        );
    }
    // Real content, not placeholders: the studied workload appears in
    // the study table, heatmap, and occupancy profile.
    assert!(html.contains("vector sum"));
    assert!(html.contains("lane × bit SDC density"));
    assert!(html.contains("0 drifted") || html.contains("drifted"));
    // Self-contained: nothing executable, nothing fetched.
    for needle in ["<script", "http://", "https://", "<link", "@import", "url("] {
        assert!(!html.contains(needle), "external reference: {needle}");
    }
    assert!(html.contains("<svg"), "charts are inline SVG");
}

#[test]
fn bench_record_writes_parseable_throughput_report() {
    let out = temp_dir("bench").join("BENCH_report.json");
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    let r = vulfi(&[
        "bench",
        "--bench",
        "vector sum",
        "--experiments",
        "10",
        "--seed",
        "3",
        "--record",
        "-o",
        out.to_str().unwrap(),
    ]);
    assert_ok(&r, "vulfi bench --record");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let benches = doc.get("benches").and_then(|v| v.as_array()).unwrap();
    assert_eq!(benches.len(), 1);
    let b = &benches[0];
    assert_eq!(b.get("name").and_then(|v| v.as_str()), Some("vector sum"));
    assert_eq!(b.get("experiments").and_then(|v| v.as_u64()), Some(10));
    assert!(b.get("exp_per_sec").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert!(b.get("dyn_insts").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(b.get("wall_ns").and_then(|v| v.as_u64()).unwrap() > 0);
}

#[test]
fn summaries_handle_empty_and_single_shard_stores() {
    // Empty stores: both summary commands succeed and say so.
    let empty_store = temp_dir("empty_store");
    let empty_trace = temp_dir("empty_trace");
    let rs = vulfi(&[
        "results",
        "summary",
        "--store",
        empty_store.to_str().unwrap(),
    ]);
    assert_ok(&rs, "results summary on empty store");
    assert!(stdout(&rs).contains("no studies under"), "{}", stdout(&rs));
    let ts = vulfi(&[
        "trace",
        "summarize",
        "--trace",
        empty_trace.to_str().unwrap(),
    ]);
    assert_ok(&ts, "trace summarize on empty store");
    assert!(
        stdout(&ts).contains("no trace spans under"),
        "{}",
        stdout(&ts)
    );
    // Diffing two empty stores is clean, not an error.
    let d = vulfi(&[
        "report",
        "diff",
        empty_store.to_str().unwrap(),
        empty_trace.to_str().unwrap(),
    ]);
    assert_ok(&d, "report diff on empty stores");
    assert!(
        stdout(&d).contains("no comparable studies"),
        "{}",
        stdout(&d)
    );

    // Single-shard store: one campaign-sized shard per campaign.
    let one = temp_dir("single_shard");
    let one_trace = temp_dir("single_shard_trace");
    let (one_s, one_trace_s) = (one.to_str().unwrap(), one_trace.to_str().unwrap());
    assert_ok(
        &vulfi(&[
            "study",
            "--bench",
            "vector sum",
            "--experiments",
            "10",
            "--campaigns",
            "4",
            "--seed",
            "5",
            "--shard-size",
            "100",
            "--store",
            one_s,
            "--trace",
            one_trace_s,
        ]),
        "single-shard study",
    );
    let rs = vulfi(&["results", "summary", "--store", one_s]);
    assert_ok(&rs, "results summary on single-shard store");
    assert!(stdout(&rs).contains("vector sum"), "{}", stdout(&rs));
    let ts = vulfi(&["trace", "summarize", "--trace", one_trace_s]);
    assert_ok(&ts, "trace summarize on single-shard store");
    assert!(stdout(&ts).contains("vector sum"), "{}", stdout(&ts));
    let hm = vulfi(&["report", "heatmap", "--trace", one_trace_s]);
    assert_ok(&hm, "report heatmap on single-shard store");
    assert!(
        stdout(&hm).contains("most vulnerable sites"),
        "{}",
        stdout(&hm)
    );
}

/// The committed fixture under `tests/fixtures/reports/`: a store with
/// two complete traced studies of "vector sum" (AVX pure-data
/// single-bit-flip, SSE control `multi-bit-burst:2`, 12 × 4, seed 7) and
/// one partial study, plus their trace root, where one trace shard was
/// appended twice as a resumed run would. The `.out`, `.json` and
/// `.html` files beside them are the recorded outputs of each report.
fn reports_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/reports")
}

#[test]
fn report_outputs_match_the_committed_fixtures() {
    let fixtures = reports_fixture();
    let store = fixtures.join("store");
    let trace = fixtures.join("trace");
    let (s, t) = (store.to_str().unwrap(), trace.to_str().unwrap());
    let cases: [(&[&str], &str); 8] = [
        (&["trace", "summarize", "--trace", t], "trace-summarize.out"),
        (
            &["trace", "summarize", "--trace", t, "--json"],
            "trace-summarize.json",
        ),
        (&["report", "heatmap", "--trace", t], "report-heatmap.out"),
        (
            &["report", "heatmap", "--trace", t, "--json"],
            "report-heatmap.json",
        ),
        (
            &[
                "report",
                "heatmap",
                "--trace",
                t,
                "--model",
                "multi-bit-burst",
            ],
            "report-heatmap-burst.out",
        ),
        (&["results", "summary", "--store", s], "results-summary.out"),
        (
            &["results", "summary", "--store", s, "--json"],
            "results-summary.json",
        ),
        (&["report", "diff", s, s], "report-diff.out"),
    ];
    for (args, file) in cases {
        let out = vulfi(args);
        assert_ok(&out, &format!("vulfi {}", args.join(" ")));
        let want = std::fs::read_to_string(fixtures.join(file)).unwrap();
        assert_eq!(stdout(&out), want, "{file}: output moved");
    }
    // At `--top 1000` nothing is cut from the analysis join, so the
    // whole page is fixed.
    let html = temp_dir("fixture_html").join("report.html");
    let out = vulfi(&[
        "report",
        "html",
        "--store",
        s,
        "--trace",
        t,
        "--top",
        "1000",
        "-o",
        html.to_str().unwrap(),
    ]);
    assert_ok(&out, "vulfi report html --top 1000");
    let want = std::fs::read_to_string(fixtures.join("report-html.html")).unwrap();
    assert!(
        std::fs::read_to_string(&html).unwrap() == want,
        "report-html.html: output moved"
    );
}

/// Run a traced `vector sum` study of `category` under `model` into
/// `store` and `trace`.
fn traced_study(store: &Path, trace: &Path, category: &str, model: &str) {
    assert_ok(
        &vulfi(&[
            "study",
            "--bench",
            "vector sum",
            "--category",
            category,
            "--model",
            model,
            "--experiments",
            "12",
            "--campaigns",
            "4",
            "--seed",
            "7",
            "--store",
            store.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]),
        "traced study",
    );
}

#[test]
fn engine_model_spans_count_by_category_but_not_by_site_or_lane() {
    // The same value-model study traced alone and next to a mask-corrupt
    // study: the mask fault touches no instrumented site, so the
    // heatmap must not change, while the summary counts its spans.
    let dir = temp_dir("engine_spans");
    let (alone, mixed) = (dir.join("alone"), dir.join("mixed"));
    traced_study(&dir.join("s1"), &alone, "pure-data", "single-bit-flip");
    traced_study(&dir.join("s2"), &mixed, "pure-data", "single-bit-flip");
    traced_study(&dir.join("s2"), &mixed, "control", "mask-corrupt");
    let heatmap = |root: &Path| {
        let out = vulfi(&[
            "report",
            "heatmap",
            "--trace",
            root.to_str().unwrap(),
            "--top",
            "1000",
            "--json",
        ]);
        assert_ok(&out, "vulfi report heatmap --json");
        stdout(&out)
    };
    assert_eq!(
        heatmap(&mixed),
        heatmap(&alone),
        "engine spans in the heatmap"
    );

    let out = vulfi(&[
        "trace",
        "summarize",
        "--trace",
        mixed.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&out, "vulfi trace summarize --json");
    let s: vulfi_orch::TraceSummary = serde_json::from_str(stdout(&out).trim()).unwrap();
    let control = s.categories.iter().find(|c| c.category == "control");
    assert_eq!(control.map(|c| c.spans), Some(48), "{s:?}");
    assert_eq!(s.spans, 96);
}

/// The cells of each `<tr><td>` row inside `<section id="ID">`.
fn html_rows(html: &str, id: &str) -> Vec<Vec<String>> {
    let start = html.find(&format!("<section id=\"{id}\">")).unwrap();
    let end = start + html[start..].find("</section>").unwrap();
    html[start..end]
        .lines()
        .filter(|l| l.starts_with("<tr><td>"))
        .map(|l| {
            l.trim_start_matches("<tr><td>")
                .trim_end_matches("</td></tr>")
                .split("</td><td>")
                .map(|c| {
                    // Drop inline markup such as the flag `<span>`.
                    let mut text = String::new();
                    let mut in_tag = false;
                    for ch in c.chars() {
                        match ch {
                            '<' => in_tag = true,
                            '>' => in_tag = false,
                            _ if !in_tag => text.push(ch),
                            _ => {}
                        }
                    }
                    text
                })
                .collect()
        })
        .collect()
}

#[test]
fn html_analysis_joins_every_injected_site_whatever_the_top() {
    // 20 × 4 injections of "vector sum" land on more than 10 sites, so
    // the default `--top 10` would cut them from the join.
    let store = temp_dir("analysis_store");
    let trace = temp_dir("analysis_trace");
    let (s, t) = (store.to_str().unwrap(), trace.to_str().unwrap());
    assert_ok(
        &vulfi(&[
            "study",
            "--bench",
            "vector sum",
            "--experiments",
            "20",
            "--campaigns",
            "4",
            "--seed",
            "7",
            "--store",
            s,
            "--trace",
            t,
        ]),
        "traced study",
    );
    let out = vulfi(&["report", "heatmap", "--trace", t, "--top", "1000", "--json"]);
    assert_ok(&out, "vulfi report heatmap --json");
    let maps: Vec<vulfi_orch::WorkloadHeatmap> = serde_json::from_str(stdout(&out).trim()).unwrap();
    assert_eq!(maps.len(), 1);
    assert!(maps[0].sites.len() > 10, "{} sites", maps[0].sites.len());
    let injected: u64 = maps[0].sites.iter().map(|r| r.injections).sum();
    assert_eq!(injected, 80, "every experiment injected once");

    let html = temp_dir("analysis_out").join("report.html");
    let out = vulfi(&[
        "report",
        "html",
        "--store",
        s,
        "--trace",
        t,
        "-o",
        html.to_str().unwrap(),
    ]);
    assert_ok(&out, "vulfi report html");
    let rows = html_rows(&std::fs::read_to_string(&html).unwrap(), "analysis");
    let mut joined = 0;
    for row in &rows {
        let site: u32 = row[0].parse().unwrap();
        let want = maps[0]
            .sites
            .iter()
            .find(|r| r.site_id == site)
            .map_or(0, |r| r.injections);
        assert_eq!(row[5], want.to_string(), "site {site}: {row:?}");
        joined += want;
    }
    assert_eq!(joined, injected, "the join covers every injected span");
}

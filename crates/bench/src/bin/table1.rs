//! Regenerates **Table I** of the paper: the benchmark list with language,
//! test inputs, target ISA, and average dynamic instruction count.
//!
//! ```text
//! cargo run --release -p vulfi-bench --bin table1 [--paper] [--only NAME]
//! ```
//!
//! Absolute counts differ from the paper (scaled inputs, interpreter
//! substrate); the *structure* — two rows per benchmark, AVX vs SSE counts
//! of the same order — is the reproduction target.

use vbench::study_benchmarks;
use vulfi::campaign::measure_dyn_insts;
use vulfi::workload::Workload;
use vulfi_bench::{isas, HarnessOpts, TextTable};

fn main() {
    let opts = HarnessOpts::from_env();
    let mut table = TextTable::new(&[
        "Suite",
        "Benchmark",
        "Language",
        "Test input",
        "Target",
        "Avg dynamic instr count",
    ]);
    let mut json_rows = Vec::new();
    for isa in isas() {
        for w in study_benchmarks(isa, opts.scale) {
            if !opts.selected(w.name()) {
                continue;
            }
            let mut total = 0u64;
            for input in 0..w.num_inputs() {
                total +=
                    measure_dyn_insts(&w, input).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            }
            let avg = total as f64 / w.num_inputs() as f64;
            let display = if avg >= 1e6 {
                format!("{:.1} M", avg / 1e6)
            } else {
                format!("{:.1} k", avg / 1e3)
            };
            table.row(vec![
                w.suite.to_string(),
                w.name().to_string(),
                w.language.to_string(),
                w.input_desc.clone(),
                isa.name().to_string(),
                display,
            ]);
            json_rows.push(serde_json::json!({
                "suite": w.suite,
                "benchmark": w.name(),
                "isa": isa.name(),
                "avg_dyn_insts": avg,
            }));
        }
    }
    println!("Table I: benchmarks and average dynamic instruction counts");
    println!("{}", table.render());
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
}

//! Regenerates **Figure 12** of the paper: the error-detection study on
//! the three micro-benchmarks (vector copy, dot product, vector sum) with
//! the foreach loop-invariant detectors inserted.
//!
//! Per (micro-benchmark × category) cell it reports, like the paper's bar
//! chart:
//! - **Avg overhead** — detector cost, measured as the dynamic-instruction
//!   ratio of golden runs with vs without the detector block (the paper
//!   measured wall clock on native code; ≈8% there);
//! - **SDC** — the SDC rate over `--experiments` injections (paper: 2000);
//! - **SDC detection rate** — the share of SDC runs the detector flagged.
//!
//! ```text
//! cargo run --release -p vulfi-bench --bin fig12 [--paper] [--json] \
//!     [--store DIR] [--jobs N]
//! ```
//!
//! Each cell's campaign runs through the persistent orchestration store
//! as a one-campaign study (campaign 0's seed is the study seed, so the
//! experiments are bit-identical to the old in-memory `run_campaign`);
//! killed runs resume and finished cells are cache hits.
//!
//! Shape expectations from §IV-E: pure-data → **zero** detections;
//! control → highest SDC (up to ~96% for vector sum) with ~50-57%
//! detection; address → lower SDC because crashes dominate.

use detectors::{DetectorConfig, WithDetectors};
use vbench::micro_benchmarks;
use vir::analysis::SiteCategory;
use vulfi::campaign::{measure_dyn_insts, prepare};
use vulfi::workload::Workload;
use vulfi::StudyConfig;
use vulfi_bench::{clear_progress, isas, open_store, pct, stderr_progress, HarnessOpts, TextTable};
use vulfi_orch::{run_study_persistent, RunOptions};

fn main() {
    let opts = HarnessOpts::from_env();
    let store = open_store(&opts);
    // One campaign per cell: campaign 0's seed equals the study seed, so
    // this reproduces `run_campaign(.., opts.study.seed)` exactly.
    let cell_cfg = StudyConfig {
        experiments_per_campaign: opts.micro_experiments,
        min_campaigns: 1,
        max_campaigns: 1,
        ..opts.study
    };
    let (mut reused, mut executed) = (0usize, 0usize);
    let mut table = TextTable::new(&[
        "Micro-benchmark",
        "Category",
        "Target",
        "Avg overhead",
        "SDC",
        "SDC detection rate",
        "Crash",
    ]);
    let mut json_rows = Vec::new();
    for isa in isas() {
        for w in micro_benchmarks(isa, opts.scale) {
            if !opts.selected(w.name()) {
                continue;
            }
            let wd = WithDetectors::new(&w, DetectorConfig::default()).expect("detector pass");

            // Detector overhead: dynamic instructions with/without the
            // detector block, averaged over the input family.
            let mut with = 0u64;
            let mut without = 0u64;
            for input in 0..w.num_inputs() {
                without += measure_dyn_insts(&w, input).unwrap();
                with += measure_dyn_insts(&wd, input).unwrap();
            }
            let overhead = 100.0 * (with as f64 - without as f64) / without as f64;

            for cat in SiteCategory::ALL {
                let prog = prepare(&wd, cat).expect("instrumentation");
                let out = run_study_persistent(
                    &prog,
                    &wd,
                    w.name(),
                    isa.name(),
                    &cell_cfg,
                    &store,
                    RunOptions {
                        hook: stderr_progress(),
                        ..RunOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{} {cat}: {e}", w.name()));
                clear_progress();
                reused += out.reused_shards;
                executed += out.executed_shards;
                let c = out.result.expect("one-campaign study completes");
                table.row(vec![
                    w.name().to_string(),
                    cat.to_string(),
                    isa.name().to_string(),
                    pct(overhead),
                    pct(c.counts.sdc_rate()),
                    pct(c.counts.sdc_detection_rate()),
                    pct(c.counts.crash_rate()),
                ]);
                json_rows.push(serde_json::json!({
                    "micro": w.name(),
                    "isa": isa.name(),
                    "category": cat.name(),
                    "overhead_pct": overhead,
                    "sdc_pct": c.counts.sdc_rate(),
                    "sdc_detection_pct": c.counts.sdc_detection_rate(),
                    "crash_pct": c.counts.crash_rate(),
                    "experiments": c.counts.total(),
                }));
            }
        }
    }
    println!(
        "Figure 12: invariant-detector study on the micro-benchmarks \
         ({} experiments per cell)",
        opts.micro_experiments
    );
    println!("{}", table.render());
    println!("Expected shape (paper §IV-E): pure-data detection = 0;");
    println!("control has the highest SDC and detection rates; address crashes most.");
    println!(
        "Store {}: {reused} shard(s) reused, {executed} executed.",
        opts.store
    );
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
}

//! Regenerates **Figure 11** of the paper: the fault-injection study —
//! SDC / Benign / Crash fractions for every benchmark × fault-site
//! category × ISA, with the paper's campaign statistics (±3 pp @95%
//! stopping rule).
//!
//! ```text
//! cargo run --release -p vulfi-bench --bin fig11 [--paper] [--only NAME] [--json] \
//!     [--store DIR] [--jobs N]
//! ```
//!
//! Every study runs through the persistent orchestration store
//! (`--store`, default `results/store`): a killed run resumes from the
//! shards already on disk, and re-rendering a finished table executes
//! nothing. Results are bit-identical to the in-memory
//! `vulfi::run_study` regardless of sharding, threads, or interruptions.
//!
//! Shape expectations from §IV-D, re-checked by the summary this binary
//! prints:
//! - Stencil and Blackscholes show the highest SDC rates; Swaptions and
//!   ConjugateGradient the lowest.
//! - The address category produces the most crashes.
//! - Sorting / Stencil / Chebyshev also show significant address-category
//!   SDC.

use vbench::study_benchmarks;
use vir::analysis::SiteCategory;
use vulfi::campaign::prepare;
use vulfi::workload::Workload;
use vulfi::{StudyReport, SuiteReport};
use vulfi_bench::{clear_progress, isas, open_store, pct, stderr_progress, HarnessOpts, TextTable};
use vulfi_orch::{run_study_persistent, RunOptions};

fn main() {
    let opts = HarnessOpts::from_env();
    let store = open_store(&opts);
    let (mut reused, mut executed) = (0usize, 0usize);
    let mut table = TextTable::new(&[
        "Benchmark",
        "Category",
        "Target",
        "SDC",
        "Benign",
        "Crash",
        "±95%",
        "Campaigns",
    ]);
    let mut report = SuiteReport::new(format!(
        "experiments_per_campaign={}, max_campaigns={}, seed={}",
        opts.study.experiments_per_campaign, opts.study.max_campaigns, opts.study.seed
    ));

    for isa in isas() {
        for w in study_benchmarks(isa, opts.scale) {
            if !opts.selected(w.name()) {
                continue;
            }
            for cat in SiteCategory::ALL {
                let prog = prepare(&w, cat).expect("instrumentation");
                let out = run_study_persistent(
                    &prog,
                    &w,
                    w.name(),
                    isa.name(),
                    &opts.study,
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
                let study = out.result.expect("uncapped run completes its study");
                let c = &study.counts;
                table.row(vec![
                    w.name().to_string(),
                    cat.to_string(),
                    isa.name().to_string(),
                    pct(c.sdc_rate()),
                    pct(c.benign_rate()),
                    pct(c.crash_rate()),
                    format!("{:.2}", study.summary.margin_95),
                    format!(
                        "{}{}",
                        study.summary.campaigns,
                        if study.converged { "" } else { " (cap)" }
                    ),
                ]);
                report.push(StudyReport::new(w.name(), isa.name(), &study));
            }
        }
    }

    println!("Figure 11: fault-injection outcomes per benchmark x category x ISA");
    println!("{}", table.render());

    // Derived narrative checks (§IV-D).
    println!("SDC ranking (paper: Stencil/Blackscholes top, Swaptions/CG bottom):");
    for (n, r) in report.sdc_ranking() {
        println!("  {:18} {}", n, pct(r));
    }
    println!("Average crash rate per category (paper: address highest):");
    for (cat, r) in report.crash_by_category() {
        println!("  {:9} {}", cat.name(), pct(r));
    }
    println!(
        "Store {}: {reused} shard(s) reused, {executed} executed.",
        opts.store
    );
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&report).unwrap());
    }
}

//! Compilation-aware detector synthesis (paper §III) — a miniature of the
//! Fig. 12 detection study.
//!
//! 1. Compile the dot-product micro-benchmark and show the foreach CFG the
//!    ISPC-style code generator produced.
//! 2. Run the foreach loop-invariant detector pass; print the inserted
//!    `foreach_fullbody_check_invariants` block (paper Fig. 7).
//! 3. Measure the detector's dynamic-instruction overhead.
//! 4. Run fault-injection campaigns per category with the detector live,
//!    reporting SDC and SDC-detection rates (paper Fig. 12's bars).
//!
//! ```text
//! cargo run --release --example detector_synthesis
//! ```

use detectors::{DetectorConfig, WithDetectors};
use spmdc::VectorIsa;
use vbench::{micro_benchmark, Scale};
use vir::analysis::SiteCategory;
use vulfi::campaign::measure_dyn_insts;
use vulfi::workload::Workload;

fn main() {
    let w = micro_benchmark("dot product", VectorIsa::Avx, Scale::Test).unwrap();

    // Show the foreach loop structure the detector keys on.
    let f = w.module().function(w.entry()).unwrap();
    println!("=== foreach blocks emitted by the SPMD-C compiler ===");
    for b in &f.blocks {
        println!("  %{}", b.name);
    }
    let loops = detectors::find_foreach_loops(f);
    println!(
        "\nmatched {} foreach full-body loop(s); stride Vl = {}",
        loops.len(),
        loops[0].vl
    );

    // Insert the invariants detector and show the new block.
    let wd = WithDetectors::new(&w, DetectorConfig::default()).expect("detector pass");
    println!("\n=== detector block inserted (paper Figs. 7-8) ===");
    let printed = vir::printer::print_module(wd.module());
    for chunk in printed.split("\n\n") {
        // print only the function containing the check call
        if chunk.contains("check_invariants") {
            for line in chunk
                .lines()
                .skip_while(|l| !l.contains("foreach_fullbody_check_invariants"))
                .take(3)
            {
                println!("{line}");
            }
        }
    }

    // Overhead.
    let plain = measure_dyn_insts(&w, 0).unwrap();
    let with = measure_dyn_insts(&wd, 0).unwrap();
    println!(
        "\ndetector overhead: {} -> {} dynamic instructions (+{:.2}%)",
        plain,
        with,
        100.0 * (with - plain) as f64 / plain as f64
    );

    // Detection study per category.
    println!("\n=== detection study (1000 experiments per category) ===");
    println!(
        "{:<10} {:>7} {:>10} {:>19}",
        "category", "SDC", "Crash", "SDC detection rate"
    );
    for cat in SiteCategory::ALL {
        let prog = vulfi::prepare(&wd, cat).expect("instrumentation");
        let c = vulfi::run_campaign(&prog, &wd, 1000, 0x2016).expect("campaign");
        println!(
            "{:<10} {:>6.1}% {:>9.1}% {:>18.1}%",
            cat.name(),
            c.counts.sdc_rate(),
            c.counts.crash_rate(),
            c.counts.sdc_detection_rate()
        );
    }
    println!(
        "\nPaper shape check (§IV-E): pure-data detection must be exactly 0\n\
         (loop-iterator faults can never be pure-data, Fig. 2); control has\n\
         the highest SDC and detection rates; address mostly crashes."
    );
}

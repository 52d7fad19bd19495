//! Regenerates **Figure 10** of the paper: the composition of vector vs
//! scalar instructions among the candidate fault sites, per fault-site
//! category (pure-data / control / address), per benchmark, per ISA.
//!
//! ```text
//! cargo run --release -p vulfi-bench --bin fig10 [--only NAME] [--json]
//! ```
//!
//! Paper headline to reproduce: a significant share of pure-data and
//! control sites are vector instructions (paper: 67% and 43% averaged over
//! the nine benchmarks), while the address category skews scalar because
//! IR-level address arithmetic is scalar even in vector code.

use vbench::study_benchmarks;
use vexec::InstMix;
use vir::analysis::SiteCategory;
use vulfi::sites::{category_mix, enumerate_sites};
use vulfi::workload::{observed_golden_run, Workload};
use vulfi_bench::{isas, pct, HarnessOpts, TextTable};

fn main() {
    let opts = HarnessOpts::from_env();
    let mut table = TextTable::new(&[
        "Benchmark",
        "Category",
        "Target",
        "Scalar",
        "Vector",
        "Vector %",
    ]);
    let mut json_rows = Vec::new();
    // Running averages over benchmarks (the paper's 67% / 43% numbers).
    let mut avg: [(f64, u32); 3] = [(0.0, 0); 3];
    for isa in isas() {
        for w in study_benchmarks(isa, opts.scale) {
            if !opts.selected(w.name()) {
                continue;
            }
            let f = w.module().function(w.entry()).expect("entry exists");
            let sites = enumerate_sites(f);
            for (i, (cat, mix)) in category_mix(&sites).iter().enumerate() {
                table.row(vec![
                    w.name().to_string(),
                    cat.to_string(),
                    isa.name().to_string(),
                    mix.scalar.to_string(),
                    mix.vector.to_string(),
                    pct(mix.vector_pct()),
                ]);
                json_rows.push(serde_json::json!({
                    "benchmark": w.name(),
                    "isa": isa.name(),
                    "category": cat.name(),
                    "scalar": mix.scalar,
                    "vector": mix.vector,
                    "vector_pct": mix.vector_pct(),
                }));
                avg[i].0 += mix.vector_pct();
                avg[i].1 += 1;
            }
        }
    }
    println!("Figure 10: vector/scalar composition of candidate fault sites");
    println!("{}", table.render());

    // Dynamic complement (a capability beyond the paper's static view):
    // share of *executed* instructions that are vector instructions.
    let mut dyn_table = TextTable::new(&["Benchmark", "Target", "Dyn instrs", "Dyn vector %"]);
    for isa in isas() {
        for w in study_benchmarks(isa, opts.scale) {
            if !opts.selected(w.name()) {
                continue;
            }
            let (_, _, mix) = observed_golden_run(&w, 0, InstMix::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            dyn_table.row(vec![
                w.name().to_string(),
                isa.name().to_string(),
                mix.total.to_string(),
                pct(mix.vector_pct()),
            ]);
        }
    }
    println!("Dynamic instruction mix (executed instructions, input 0):");
    println!("{}", dyn_table.render());
    println!("Averages across benchmarks (paper: pure-data 67%, control 43%, address low):");
    for (i, cat) in SiteCategory::ALL.iter().enumerate() {
        let (sum, n) = avg[i];
        if n > 0 {
            println!("  {:9} : {}", cat.name(), pct(sum / n as f64));
        }
    }
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
}

//! Property test: the merged study result is a pure function of the
//! study config — shard size and thread count must never leak into it.

use proptest::prelude::*;
use std::sync::OnceLock;

use vir::analysis::SiteCategory;
use vulfi::{prepare, run_study, Prepared, StudyConfig, StudyResult};
use vulfi_orch::{run_study_persistent, set_jobs, RunOptions, Store};

fn workload() -> &'static vbench::SpmdWorkload {
    static W: OnceLock<vbench::SpmdWorkload> = OnceLock::new();
    W.get_or_init(|| {
        vbench::micro_benchmark("dot product", spmdc::VectorIsa::Sse4, vbench::Scale::Test).unwrap()
    })
}

fn prog() -> &'static Prepared {
    static P: OnceLock<Prepared> = OnceLock::new();
    P.get_or_init(|| prepare(workload(), SiteCategory::PureData).unwrap())
}

fn bits(r: &StudyResult) -> (Vec<u64>, u64, bool) {
    (
        r.samples.iter().map(|x| x.to_bits()).collect(),
        r.counts.sdc << 32 | r.counts.crash << 16 | r.counts.benign,
        r.converged,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn merged_result_ignores_shard_size_and_threads(
        shard_size in 1usize..40,
        jobs in 1usize..5,
        seed in 0u64..4,
    ) {
        let cfg = StudyConfig {
            experiments_per_campaign: 8,
            target_margin: 50.0,
            min_campaigns: 4,
            max_campaigns: 4,
            seed: 0x5EED_0000 + seed,
            ..StudyConfig::default()
        };
        let reference = run_study(prog(), workload(), &cfg).unwrap();

        set_jobs(jobs);
        let dir = std::env::temp_dir().join(format!(
            "vulfi_orch_prop_{}_{}_{}_{}",
            std::process::id(), shard_size, jobs, seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let out = run_study_persistent(
            prog(),
            workload(),
            "dot product",
            "sse",
            &cfg,
            &store,
            RunOptions { shard_size, max_shards: None, hook: None, trace: None },
        )
        .unwrap();
        set_jobs(0);
        let merged = out.result.expect("all shards ran; study must be complete");
        prop_assert_eq!(bits(&merged), bits(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

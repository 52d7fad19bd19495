//! One golden run per input for a whole persistent study: however finely
//! it is sharded and however many threads run the shards, the study's
//! golden set runs each drawn input's golden run exactly once.

use std::sync::atomic::{AtomicU64, Ordering};

use vexec::{Memory, Trap};
use vir::analysis::SiteCategory;
use vir::Module;
use vulfi::{prepare, SetupResult, StudyConfig, Workload};
use vulfi_orch::{run_study_persistent, set_jobs, RunOptions, Store};

/// Counts `setup` calls: one per golden run.
struct CountingWorkload {
    inner: vbench::SpmdWorkload,
    setups: AtomicU64,
}

impl Workload for CountingWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn entry(&self) -> &str {
        self.inner.entry()
    }
    fn module(&self) -> &Module {
        self.inner.module()
    }
    fn num_inputs(&self) -> u64 {
        self.inner.num_inputs()
    }
    fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
        self.setups.fetch_add(1, Ordering::SeqCst);
        self.inner.setup(mem, input)
    }
}

#[test]
fn shard_size_one_study_runs_each_golden_once() {
    let w = CountingWorkload {
        inner: vbench::study_benchmark("Blackscholes", spmdc::VectorIsa::Sse4, vbench::Scale::Test)
            .unwrap(),
        setups: AtomicU64::new(0),
    };
    assert!(w.num_inputs() > 1, "the study must have several inputs");
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let cfg = StudyConfig {
        experiments_per_campaign: 6,
        target_margin: 50.0,
        min_campaigns: 4,
        max_campaigns: 4,
        seed: 0x601D,
        ..StudyConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("vulfi_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    set_jobs(2);
    let opts = RunOptions {
        shard_size: 1,
        ..RunOptions::default()
    };
    let out = run_study_persistent(&prog, &w, "Blackscholes", "sse", &cfg, &store, opts).unwrap();
    set_jobs(0);
    assert_eq!(out.executed_shards, 24);
    let shards = store.study(&out.key).shards().unwrap();
    let experiments: Vec<_> = shards.iter().flat_map(|s| &s.experiments).collect();
    assert_eq!(experiments.len(), 24);
    // A faulty run forks from its input's post-setup golden checkpoint,
    // so every setup call is a golden run.
    let golden = w.setups.load(Ordering::SeqCst);
    let inputs: std::collections::BTreeSet<u64> = experiments.iter().map(|e| e.input).collect();
    assert!(golden <= w.num_inputs(), "{golden} golden runs");
    assert_eq!(
        golden,
        inputs.len() as u64,
        "one golden run per drawn input"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

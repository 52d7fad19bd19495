//! Chaos harness: the fault injector must survive the faults it
//! injects — and the ones the world injects into *it*.
//!
//! Three adversaries, all bounded and deterministic:
//!
//! 1. A workload that panics inside the engine for some inputs: the
//!    study must absorb it as a recorded Crash outcome, stay resumable,
//!    and still merge bit-identically to an uninterrupted run.
//! 2. A killer/corrupter that stops the runner mid-study, then truncates
//!    or byte-flips `shards.jsonl` between resumes: every resume either
//!    reproduces the uninterrupted study bit-for-bit or fails loudly and
//!    is healed by fsck — merged results are never silently altered.
//! 3. A panicking progress observer: reporting is best-effort and must
//!    not take the study down with it.

use std::path::PathBuf;
use std::sync::Mutex;

use proptest::prelude::*;
use vir::analysis::SiteCategory;
use vulfi::workload::{SetupResult, Workload};
use vulfi::{prepare, run_study, StudyConfig, StudyResult};
use vulfi_orch::{merge, run_shard, run_study_persistent, RunOptions, ShardJob, Store};

/// Serialises tests that touch process-global state (the strict flag and
/// the engine-fault log).
static GLOBALS_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn workload() -> vbench::SpmdWorkload {
    vbench::micro_benchmark("vector sum", spmdc::VectorIsa::Avx, vbench::Scale::Test).unwrap()
}

fn cfg() -> StudyConfig {
    StudyConfig {
        experiments_per_campaign: 12,
        target_margin: 50.0,
        min_campaigns: 4,
        max_campaigns: 5,
        seed: 0x000C_4A05,
        ..StudyConfig::default()
    }
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bit-identical comparison of two study results.
fn assert_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.category, b.category);
    assert_eq!(a.converged, b.converged);
    assert_eq!(a.counts, b.counts);
    let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(
        bits(&a.samples),
        bits(&b.samples),
        "sample rates must match bit-for-bit"
    );
    assert_eq!(a.summary.mean.to_bits(), b.summary.mean.to_bits());
    assert_eq!(a.summary.std_dev.to_bits(), b.summary.std_dev.to_bits());
    assert_eq!(a.summary.margin_95.to_bits(), b.summary.margin_95.to_bits());
    assert_eq!(a.summary.campaigns, b.summary.campaigns);
}

/// A real workload that panics inside `setup` for one of its inputs —
/// the stand-in for any engine panic on malformed faulted state.
struct PanicWorkload {
    inner: vbench::SpmdWorkload,
}

impl Workload for PanicWorkload {
    fn name(&self) -> &str {
        "panicky vector sum"
    }
    fn entry(&self) -> &str {
        self.inner.entry()
    }
    fn module(&self) -> &vir::Module {
        self.inner.module()
    }
    fn num_inputs(&self) -> u64 {
        self.inner.num_inputs()
    }
    fn setup(&self, mem: &mut vexec::Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
        if input == 1 {
            panic!("chaos: deliberate engine panic on input 1");
        }
        self.inner.setup(mem, input)
    }
}

#[test]
fn panicking_experiments_stay_contained_resumable_and_bit_identical() {
    let _g = gate();
    vulfi::drain_engine_faults();
    let w = PanicWorkload { inner: workload() };
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();

    // Uninterrupted single-process reference: the panics are contained
    // as Crash outcomes and the study completes.
    let reference = run_study(&prog, &w, &cfg).unwrap();
    assert!(
        reference.counts.crash > 0,
        "panicking experiments must be counted as crashes: {:?}",
        reference.counts
    );
    let faults = vulfi::drain_engine_faults();
    assert!(!faults.is_empty(), "absorbed panics must be logged");
    for f in &faults {
        assert_eq!(f.workload, "panicky vector sum");
        assert_eq!(f.input, 1);
        assert!(f.experiment.is_some(), "campaign provenance must be kept");
        assert!(f.message.contains("chaos: deliberate"), "{}", f.message);
    }

    // Kill after 2 shards, then resume: same result, bit for bit.
    let store = Store::open(temp_store("panic")).unwrap();
    let first = run_study_persistent(
        &prog,
        &w,
        w.name(),
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            max_shards: Some(2),
            hook: None,
            trace: None,
        },
    )
    .unwrap();
    assert!(first.result.is_none());
    let second = run_study_persistent(
        &prog,
        &w,
        w.name(),
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            max_shards: None,
            hook: None,
            trace: None,
        },
    )
    .unwrap();
    assert_identical(&second.result.unwrap(), &reference);
    vulfi::drain_engine_faults();
}

/// `run_shard` reports exactly the panics its own experiments contained,
/// and adds exactly those to the metrics registry, even while another
/// thread (a second serve worker, say) records unrelated engine faults
/// into the process-wide log.
#[test]
fn run_shard_counts_only_its_own_engine_faults() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let _g = gate();
    let w = PanicWorkload { inner: workload() };
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let job = ShardJob {
        campaign: 1,
        start: 0,
        end: cfg.experiments_per_campaign,
    };
    let seed = vulfi::campaign_seed(cfg.seed, job.campaign);
    // Every experiment that draws input 1 panics in setup; no other does.
    let panicking = vulfi::run_experiment_range(&prog, &w, seed, job.start..job.end)
        .unwrap()
        .iter()
        .filter(|e| e.input == 1)
        .count() as u64;
    assert!(
        panicking > 0,
        "the shard must contain panicking experiments"
    );

    let registry = vulfi_orch::metrics::global();
    let stop = AtomicBool::new(false);
    let recorded = AtomicU64::new(0);
    let wait_past = |n: u64| {
        while recorded.load(Ordering::SeqCst) <= n {
            std::thread::yield_now();
        }
    };
    let (faults, registry_delta, log_delta) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                vulfi::record_engine_fault(vulfi::EngineFault {
                    workload: "unrelated".into(),
                    experiment: None,
                    input: 0,
                    message: "chaos: another worker's panic".into(),
                });
                recorded.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        wait_past(0);
        let registry_before = registry.snapshot().engine_faults;
        let log_before = vulfi::engine_faults().len();
        let seen = recorded.load(Ordering::SeqCst);
        let golden = vulfi::GoldenSet::new(&w, false);
        let (rec, _, faults) = run_shard(&prog, &w, &cfg, job, &golden).unwrap();
        // Make sure unrelated faults landed inside the measured window.
        wait_past(seen);
        let registry_delta = registry.snapshot().engine_faults - registry_before;
        let log_delta = vulfi::engine_faults().len() - log_before;
        stop.store(true, Ordering::SeqCst);
        assert_eq!(rec.experiments.len(), job.end - job.start);
        (faults, registry_delta, log_delta as u64)
    });
    assert_eq!(faults, panicking, "run_shard's count");
    assert_eq!(registry_delta, panicking, "metrics registry delta");
    assert!(
        log_delta > panicking,
        "a log diff would have counted the unrelated faults too"
    );
    vulfi::drain_engine_faults();
}

#[test]
fn strict_mode_aborts_instead_of_recording() {
    let _g = gate();
    let w = PanicWorkload { inner: workload() };
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    vulfi::set_strict(true);
    let result = run_study(&prog, &w, &cfg);
    vulfi::set_strict(false);
    let err = result.expect_err("strict mode must abort");
    assert!(err.0.contains("strict mode"), "{err}");
    vulfi::drain_engine_faults();
}

#[test]
fn panicking_progress_observer_does_not_lose_the_study() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();

    let store = Store::open(temp_store("observer")).unwrap();
    let out = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            max_shards: None,
            hook: Some(Box::new(|_| panic!("chaos: observer down"))),
            trace: None,
        },
    )
    .unwrap();
    assert_identical(&out.result.unwrap(), &reference);
}

/// Tiny deterministic RNG for the chaos schedule (xorshift64*).
struct Chaos(u64);

impl Chaos {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Kill the runner mid-study, then truncate or byte-flip the shard log,
/// every round, for many rounds: each resume must either reproduce the
/// reference bit-identically or fail loudly and be healed by fsck.
#[test]
fn kill_corrupt_fsck_resume_loop_always_converges_bit_identically() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();

    let store = Store::open(temp_store("killloop")).unwrap();
    let key = vulfi_orch::study_key(&prog, "vector sum", "avx", &cfg);
    let log = store.root().join(&key.0).join("shards.jsonl");
    let mut chaos = Chaos(0xDEAD_05EC);
    let mut repairs = 0usize;

    for round in 0..12 {
        // Partial progress, "killed" after a couple of shards.
        let partial = run_study_persistent(
            &prog,
            &w,
            "vector sum",
            "avx",
            &cfg,
            &store,
            RunOptions {
                shard_size: 5,
                max_shards: Some(2),
                hook: None,
                trace: None,
            },
        );
        // The previous round's corruption may only surface now — that is
        // the loud path; anything else must have succeeded.
        if let Err(e) = partial {
            assert!(e.0.contains("fsck"), "unexpected failure: {e}");
            let report = store.fsck(true).unwrap();
            assert!(report.studies.iter().any(|s| s.quarantined.is_some()));
            repairs += 1;
        }

        // Corrupt the log: truncate the tail, flip one byte, or leave it.
        // Round 0 always flips a byte of the first record while a second
        // one follows it (its partial run stored two shards): that is
        // mid-file damage the reader must refuse, so every run of this
        // test takes the fsck path at least once, whatever the log's
        // length and line order.
        if log.is_file() {
            let mut bytes = std::fs::read(&log).unwrap();
            if !bytes.is_empty() {
                match if round == 0 { 3 } else { chaos.below(3) } {
                    0 => {
                        let cut = 1 + chaos.below(40.min(bytes.len() as u64 - 1)) as usize;
                        bytes.truncate(bytes.len() - cut);
                    }
                    1 => {
                        let pos = chaos.below(bytes.len() as u64) as usize;
                        bytes[pos] ^= 1 << chaos.below(8);
                    }
                    3 => {
                        let first = bytes.iter().position(|&b| b != b'\n').unwrap();
                        let len = bytes[first..].iter().position(|&b| b == b'\n').unwrap();
                        assert!(
                            bytes[first + len..].iter().any(|&b| b != b'\n'),
                            "round 0 stores two records"
                        );
                        let pos = first + chaos.below(len as u64) as usize;
                        bytes[pos] ^= 1 << chaos.below(8);
                    }
                    _ => {}
                }
                std::fs::write(&log, &bytes).unwrap();
            }
        }

        // Recover: loud error → fsck heals; then resume to completion.
        if store.study(&key).shards().is_err() {
            let report = store.fsck(true).unwrap();
            assert!(report.studies.iter().any(|s| s.quarantined.is_some()));
            repairs += 1;
        }
        let out = run_study_persistent(
            &prog,
            &w,
            "vector sum",
            "avx",
            &cfg,
            &store,
            RunOptions {
                shard_size: 5,
                max_shards: None,
                hook: None,
                trace: None,
            },
        )
        .unwrap();
        assert_identical(
            out.result
                .as_ref()
                .unwrap_or_else(|| panic!("round {round}: study must complete after recovery")),
            &reference,
        );
    }
    // The schedule is deterministic; make sure it actually exercised the
    // quarantine path, not just torn tails.
    assert!(repairs > 0, "chaos schedule never hit the fsck path");
}

/// The operational event log under the same adversary as the shard
/// store: a writer killed mid-append (torn tail), random byte flips,
/// and fsck-driven recovery — every reopen must keep accepting events,
/// every readable state must summarize to internally-consistent
/// lifecycles, and corruption must either vanish (torn tail) or fail
/// loudly and be healed by `fsck`.
#[test]
fn ops_log_survives_kill_corrupt_fsck_resume_loop() {
    use vulfi_orch::{OpsEvent, OpsKind, OpsLog};

    let root = temp_store("opslog");
    let mut chaos = Chaos(0x0B5E_7A11);
    let mut repairs = 0usize;

    for round in 0..12u64 {
        // Reopen (a "new daemon"): heals torn tails, never refuses to
        // start over mid-file corruption.
        let log = OpsLog::open(&root).unwrap();
        if log.events().is_err() {
            // Last round's flip landed mid-file: loud, then healed.
            let report = Store::open(&root).unwrap().fsck(true).unwrap();
            assert!(
                report
                    .studies
                    .iter()
                    .any(|s| s.key.0 == "ops" && s.quarantined.is_some()),
                "repair must quarantine"
            );
            repairs += 1;
        }

        // One full job lifecycle lands durably.
        let key = format!("study{round}");
        log.append(OpsEvent::new(OpsKind::Submitted).job(round).key(&key))
            .unwrap();
        log.append(OpsEvent::new(OpsKind::Started).job(round).key(&key))
            .unwrap();
        log.append(
            OpsEvent::new(OpsKind::ShardDone)
                .job(round)
                .key(&key)
                .worker("w0")
                .shard(0, 0, 5)
                .wall_ns(1_000_000),
        )
        .unwrap();
        log.append(OpsEvent::new(OpsKind::Merged).job(round).key(&key))
            .unwrap();
        log.append(OpsEvent::new(OpsKind::Completed).job(round).key(&key))
            .unwrap();

        // The fold must see this round's lifecycle and never produce an
        // inconsistent one from whatever survived earlier rounds.
        let s = log.summarize().unwrap();
        let j = s
            .jobs
            .iter()
            .find(|j| j.job == round)
            .expect("freshly appended lifecycle must fold");
        assert_eq!(j.outcome, "completed");
        assert!(j.merged);
        for j in &s.jobs {
            assert!(
                j.shards >= u64::from(!j.workers.is_empty()),
                "workers imply shards: {j:?}"
            );
        }

        // Chaos: torn trailing append (killed writer), a flipped byte,
        // or nothing.
        let path = log.path();
        let mut bytes = std::fs::read(&path).unwrap();
        match chaos.below(3) {
            0 => bytes.extend_from_slice(b"\n{\"unix_ms\":1,\"kind\":\"Subm"),
            1 => {
                let pos = chaos.below(bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << chaos.below(8);
            }
            _ => {}
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    // The deterministic schedule must exercise the quarantine path.
    assert!(repairs > 0, "chaos schedule never hit the fsck path");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One random mutation (truncation or bit flip at an arbitrary
    /// offset) of a complete study's shard log: the store must never
    /// silently change the merged result. Either the surviving records
    /// still merge bit-identically, or reading fails loudly and
    /// fsck + resume reproduces the reference exactly.
    #[test]
    fn random_corruption_is_loud_or_harmless(
        case_seed in 0u64..1000,
        flip in 0u64..2,
    ) {
        let w = workload();
        let cfg = StudyConfig {
            experiments_per_campaign: 8,
            target_margin: 50.0,
            min_campaigns: 4,
            max_campaigns: 4,
            seed: 0x0BAD_C0DE,
            ..StudyConfig::default()
        };
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let reference = run_study(&prog, &w, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!(
            "vulfi_chaos_prop_{}_{}_{}",
            std::process::id(), case_seed, flip
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let opts = || RunOptions { shard_size: 3, max_shards: None, hook: None, trace: None };
        run_study_persistent(&prog, &w, "vector sum", "avx", &cfg, &store, opts()).unwrap();

        let key = vulfi_orch::study_key(&prog, "vector sum", "avx", &cfg);
        let log = store.root().join(&key.0).join("shards.jsonl");
        let mut bytes = std::fs::read(&log).unwrap();
        let mut chaos = Chaos(0x9E37_79B9 ^ case_seed);
        if flip == 0 {
            let pos = chaos.below(bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << chaos.below(8);
        } else {
            let cut = 1 + chaos.below(bytes.len() as u64 - 1) as usize;
            bytes.truncate(bytes.len() - cut);
        }
        std::fs::write(&log, &bytes).unwrap();

        match store.study(&key).shards() {
            Ok(recs) => {
                // Readable after corruption (at worst a skipped torn
                // tail): whatever merges must already be the reference,
                // never a silently altered result.
                if let Some(r) = merge(&cfg, prog.category, &recs) {
                    assert_identical(&r, &reference);
                }
            }
            Err(e) => {
                prop_assert!(e.0.contains("fsck"), "loud error must point at fsck: {}", e);
                store.fsck(true).unwrap();
            }
        }
        let out = run_study_persistent(&prog, &w, "vector sum", "avx", &cfg, &store, opts()).unwrap();
        assert_identical(&out.result.unwrap(), &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! End-to-end orchestration tests: kill/resume equivalence, thread- and
//! shard-size-independence, and store crash tolerance.

use std::path::PathBuf;

use vir::analysis::SiteCategory;
use vulfi::{prepare, run_study, StudyConfig, StudyResult};
use vulfi_orch::{plan_shards, run_study_persistent, set_jobs, RunOptions, ShardRecord, Store};

fn workload() -> vbench::SpmdWorkload {
    vbench::micro_benchmark("vector sum", spmdc::VectorIsa::Avx, vbench::Scale::Test).unwrap()
}

fn cfg() -> StudyConfig {
    StudyConfig {
        experiments_per_campaign: 12,
        target_margin: 50.0,
        min_campaigns: 4,
        max_campaigns: 5,
        seed: 0xABCD,
        ..StudyConfig::default()
    }
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_orch_test_{name}_{}", std::process::id()));
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

#[test]
fn killed_study_resumes_and_matches_uninterrupted_run() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();

    // The uninterrupted reference, straight through vulfi::run_study.
    let reference = run_study(&prog, &w, &cfg).unwrap();

    let store = Store::open(temp_store("resume")).unwrap();
    let total = plan_shards(&cfg, 5).len();

    // "Kill" the study after 2 shards.
    let first = run_study_persistent(
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
    )
    .unwrap();
    assert_eq!(first.executed_shards, 2);
    assert_eq!(first.pending_shards, total - 2);
    assert!(
        first.result.is_none(),
        "partial study must not produce a result"
    );

    // Resume: only the missing shards may execute.
    let second = run_study_persistent(
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
    assert_eq!(
        second.reused_shards, 2,
        "resume must reuse the stored shards"
    );
    assert_eq!(second.executed_shards, total - 2);
    assert_eq!(second.pending_shards, 0);
    assert_identical(&second.result.unwrap(), &reference);

    // Third run: everything cached, nothing executes.
    let third = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        RunOptions::default(),
    )
    .unwrap();
    assert_eq!(third.executed_shards, 0);
    assert_identical(&third.result.unwrap(), &reference);
}

#[test]
fn result_is_independent_of_threads_and_shard_size() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::Control).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();

    for (jobs, shard_size, tag) in [(1, 3, "t1s3"), (4, 50, "t4s50"), (2, 1, "t2s1")] {
        set_jobs(jobs);
        let store = Store::open(temp_store(tag)).unwrap();
        let out = run_study_persistent(
            &prog,
            &w,
            "vector sum",
            "avx",
            &cfg,
            &store,
            RunOptions {
                shard_size,
                max_shards: None,
                hook: None,
                trace: None,
            },
        )
        .unwrap();
        assert_identical(&out.result.unwrap(), &reference);
    }
    set_jobs(0);
}

#[test]
fn progress_callback_reports_monotone_counts() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let store = Store::open(temp_store("progress")).unwrap();

    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&seen);
    let out = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 6,
            max_shards: None,
            hook: Some(vulfi_orch::progress_hook(move |snap| {
                sink.lock().unwrap().push((snap.done, snap.counts.total()));
            })),
            trace: None,
        },
    )
    .unwrap();

    let seen = seen.lock().unwrap().clone();
    assert_eq!(
        seen.len(),
        out.executed_shards + 1,
        "one callback per shard plus the final snapshot"
    );
    let total = (cfg.experiments_per_campaign * cfg.max_campaigns) as u64;
    for window in seen.windows(2) {
        assert!(window[0].0 <= window[1].0, "done must never decrease");
    }
    assert_eq!(
        seen.last().unwrap().0,
        total,
        "stream always ends with done == total on a completed study"
    );
    assert_eq!(out.progress.done, total);
    assert!(out.progress.experiments_per_sec > 0.0);
    assert!(out.dyn_insts > 0);
}

/// A hook that declines `Start` (how `vulfi serve` drains on shutdown)
/// leaves those shards pending; every shard it let start is appended
/// once, `Finished` comes once, and a resume completes the study
/// bit-identically.
#[test]
fn hook_holds_shards_back_for_a_resume() {
    use std::sync::{Arc, Mutex};
    use vulfi_orch::RunEvent;

    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();
    let store = Store::open(temp_store("hook")).unwrap();
    let total = plan_shards(&cfg, 5).len();

    // (started, appended, finished events)
    let seen = Arc::new(Mutex::new((Vec::new(), Vec::new(), 0usize)));
    let sink = Arc::clone(&seen);
    let first = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            hook: Some(Box::new(move |ev| {
                let mut s = sink.lock().unwrap();
                match ev {
                    RunEvent::Start(_) if s.0.len() == 3 => return false,
                    RunEvent::Start(job) => s.0.push((job.campaign, job.start)),
                    RunEvent::Appended { record, .. } => s.1.push((record.campaign, record.start)),
                    RunEvent::Finished(_) => s.2 += 1,
                }
                true
            })),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(first.executed_shards, 3);
    assert_eq!(first.pending_shards, total - 3);
    assert!(first.result.is_none());
    let (mut started, mut appended, finished) = seen.lock().unwrap().clone();
    started.sort();
    appended.sort();
    assert_eq!(started, appended, "each started shard is appended once");
    assert_eq!(finished, 1);

    let second = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        RunOptions {
            shard_size: 5,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(second.executed_shards, total - 3);
    assert_identical(&second.result.unwrap(), &reference);
}

#[test]
fn store_skips_truncated_trailing_line() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let store = Store::open(temp_store("truncated")).unwrap();

    // Write two shards, then simulate a kill mid-append.
    run_study_persistent(
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
    )
    .unwrap();
    let key = vulfi_orch::study_key(&prog, "vector sum", "avx", &cfg);
    let log = store.root().join(&key.0).join("shards.jsonl");
    let mut text = std::fs::read_to_string(&log).unwrap();
    let records: Vec<ShardRecord> = store.study(&key).shards().unwrap();
    assert_eq!(records.len(), 2);
    text.push_str("{\"campaign\": 3, \"start\": 0, \"end\": 5, \"experi");
    std::fs::write(&log, &text).unwrap();
    assert_eq!(
        store.study(&key).shards().unwrap().len(),
        2,
        "truncated line must be skipped, not fatal"
    );

    // And the resumed run still completes and matches the reference.
    let reference = run_study(&prog, &w, &cfg).unwrap();
    let out = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        RunOptions::default(),
    )
    .unwrap();
    assert_identical(&out.result.unwrap(), &reference);
}

//! End-to-end tracing contract:
//!
//! 1. Tracing is *purely observational* — a traced study lands in the
//!    same content-addressed key and merges bit-identically to an
//!    untraced one, and the trace summary's outcome counts match the
//!    study's.
//! 2. Trace shards inherit the store's crash-tolerance — kills tear at
//!    most one line (healed on resume), corruption is loud and
//!    quarantined by fsck, and summaries are never silently skewed.

use std::path::PathBuf;

use vir::analysis::SiteCategory;
use vulfi::{prepare, run_study, StudyConfig, StudyResult};
use vulfi_orch::{rollup, run_study_persistent, RunOptions, Store, TraceStore};

fn workload() -> vbench::SpmdWorkload {
    vbench::micro_benchmark("vector sum", spmdc::VectorIsa::Avx, vbench::Scale::Test).unwrap()
}

fn cfg() -> StudyConfig {
    StudyConfig {
        experiments_per_campaign: 12,
        target_margin: 50.0,
        min_campaigns: 4,
        max_campaigns: 5,
        seed: 0x7ACE_5EED,
        ..StudyConfig::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_trace_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.category, b.category);
    assert_eq!(a.converged, b.converged);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.summary.mean.to_bits(), b.summary.mean.to_bits());
    assert_eq!(a.summary.margin_95.to_bits(), b.summary.margin_95.to_bits());
}

fn opts(trace: Option<PathBuf>, max_shards: Option<usize>) -> RunOptions {
    RunOptions {
        shard_size: 5,
        max_shards,
        hook: None,
        trace,
    }
}

#[test]
fn traced_study_is_bit_identical_with_matching_summary() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();

    // Untraced persistent run.
    let plain_store = Store::open(temp_dir("plain")).unwrap();
    let plain = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &plain_store,
        opts(None, None),
    )
    .unwrap();

    // Traced persistent run in a fresh store.
    let traced_store = Store::open(temp_dir("traced")).unwrap();
    let trace_root = temp_dir("traced_sidecar");
    let traced = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &traced_store,
        opts(Some(trace_root.clone()), None),
    )
    .unwrap();

    // Same key, same bits, same counts.
    assert_eq!(
        plain.key, traced.key,
        "tracing must not change the study key"
    );
    assert_identical(plain.result.as_ref().unwrap(), &reference);
    assert_identical(traced.result.as_ref().unwrap(), &reference);

    // The sidecar is clean and self-describing.
    let tstore = TraceStore::open(&trace_root).unwrap();
    assert!(
        !tstore.fsck(false).unwrap().dirty(),
        "fresh trace log must fsck clean"
    );
    let summary = rollup(&tstore, None).unwrap().summary;
    assert_eq!(summary.studies, 1);
    // The runner executes the full plan (the stopping rule may converge
    // on a prefix of it): one span per *persisted* experiment.
    let planned = (cfg.max_campaigns * cfg.experiments_per_campaign) as u64;
    assert_eq!(summary.spans as u64, planned, "one span per experiment");
    assert_eq!(summary.categories.len(), 1);
    let c = &summary.categories[0];
    assert_eq!(c.category, "pure-data");

    // Outcome counts must match the untraced run's persisted
    // experiments exactly.
    let mut want = (0u64, 0u64, 0u64);
    for shard in plain_store.study(&plain.key).shards().unwrap() {
        for e in &shard.experiments {
            match e.outcome {
                vulfi::Outcome::Sdc => want.0 += 1,
                vulfi::Outcome::Benign => want.1 += 1,
                vulfi::Outcome::Crash => want.2 += 1,
            }
        }
    }
    assert_eq!(
        (c.sdc, c.benign, c.crash),
        want,
        "trace summary outcome counts must match the untraced run's"
    );
    // This workload produces SDCs at Scale::Test, so propagation
    // percentiles and SDC-prone sites must both materialize.
    assert!(reference.counts.sdc > 0, "{:?}", reference.counts);
    let p = c
        .propagation
        .as_ref()
        .expect("SDCs imply propagation samples");
    assert!(p.samples > 0 && p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.max);
    assert!(!summary.top_sdc_sites.is_empty());
    for site in &summary.top_sdc_sites {
        assert!(site.sdc > 0 && site.sdc <= site.total);
        assert_ne!(site.opcode, "?", "site provenance must resolve");
        assert_eq!(site.workload, "vector sum");
    }
}

#[test]
fn trace_log_survives_kill_and_corruption() {
    let w = workload();
    let cfg = cfg();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let reference = run_study(&prog, &w, &cfg).unwrap();

    let store = Store::open(temp_dir("chaos_store")).unwrap();
    let trace_root = temp_dir("chaos_sidecar");

    // "Kill" after two shards, then tear the trace log's tail the way a
    // real kill mid-append would.
    let first = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        opts(Some(trace_root.clone()), Some(2)),
    )
    .unwrap();
    assert!(first.result.is_none());
    let tlog_path = trace_root.join(&first.key.0).join("traces.jsonl");
    let mut bytes = std::fs::read(&tlog_path).unwrap();
    bytes.extend_from_slice(b"{\"campaign\":9,\"start\":99,\"torn\":");
    std::fs::write(&tlog_path, &bytes).unwrap();

    // Resume trims the torn trace line and completes bit-identically.
    let out = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        opts(Some(trace_root.clone()), None),
    )
    .unwrap();
    assert_identical(out.result.as_ref().unwrap(), &reference);
    let tstore = TraceStore::open(&trace_root).unwrap();
    assert!(
        !tstore.fsck(false).unwrap().dirty(),
        "resume must heal the torn tail"
    );
    let full = rollup(&tstore, None).unwrap().summary;
    let planned = (cfg.max_campaigns * cfg.experiments_per_campaign) as u64;
    assert_eq!(full.spans as u64, planned);

    // Now flip a byte mid-log: reading and summarizing must fail loudly,
    // naming the repair command — never a silently skewed summary.
    let mut bytes = std::fs::read(&tlog_path).unwrap();
    let pos = bytes.iter().position(|b| *b == b'"').unwrap();
    bytes[pos + 1] ^= 0x20;
    std::fs::write(&tlog_path, &bytes).unwrap();
    let err = rollup(&tstore, None).unwrap_err();
    assert!(err.0.contains("vulfi fsck"), "{err}");

    // fsck quarantines the damaged log and salvages intact shards; the
    // summary then reflects exactly the surviving spans.
    let report = tstore.fsck(true).unwrap();
    assert!(report.needs_repair());
    assert!(report.studies[0].quarantined.is_some());
    assert!(
        report.studies[0].valid > 0,
        "intact records must be salvaged"
    );
    let salvaged = rollup(&tstore, None).unwrap().summary;
    assert!(salvaged.spans > 0);
    assert!(salvaged.spans <= full.spans);
    assert!(
        !tstore.fsck(false).unwrap().dirty(),
        "post-repair log is clean"
    );

    // Losing trace spans never touches the *results*: the study still
    // merges bit-identically.
    let again = run_study_persistent(
        &prog,
        &w,
        "vector sum",
        "avx",
        &cfg,
        &store,
        opts(Some(trace_root), None),
    )
    .unwrap();
    assert_identical(again.result.as_ref().unwrap(), &reference);
}

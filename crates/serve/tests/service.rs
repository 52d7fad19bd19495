//! End-to-end service tests: a real daemon on an ephemeral port, driven
//! through the JSON API, checked for bit-identity against the in-process
//! orchestrator.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Value;
use vulfi::StudySpec;
use vulfi_serve::{Client, Daemon, ServeConfig};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(store: &Path, workers: usize) -> (Client, std::thread::JoinHandle<()>) {
    let daemon = Daemon::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store: store.to_path_buf(),
        workers,
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().unwrap().to_string();
    let t = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (Client::new(addr), t)
}

fn spec_doc(experiments: u64, campaigns: u64) -> Value {
    serde_json::json!({
        "bench": "vector sum",
        "experiments": experiments,
        "campaigns": campaigns,
        "shard_size": 5u64,
    })
}

/// Poll `GET /studies/:key` until the merged result appears.
fn wait_complete(client: &Client, key: &str, timeout: Duration) -> Value {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, doc) = client.get(&format!("/studies/{key}")).expect("status poll");
        assert_eq!(status, 200, "status poll failed: {doc:?}");
        if let Some(state) = doc.get("state").and_then(|v| v.as_str()) {
            assert_ne!(state, "failed", "job failed: {doc:?}");
        }
        if doc.get("result").is_some() {
            return doc;
        }
        assert!(Instant::now() < deadline, "study never completed: {doc:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Poll `GET /jobs` until every job reaches the expected terminal state
/// (the merged result lands in the store a beat before the queue append).
fn wait_jobs_completed(client: &Client, n: usize, timeout: Duration) -> Vec<Value> {
    let deadline = Instant::now() + timeout;
    loop {
        let (_, doc) = client.get("/jobs").expect("jobs poll");
        let jobs = doc.get("jobs").and_then(|v| v.as_array()).unwrap().to_vec();
        if jobs.len() == n
            && jobs
                .iter()
                .all(|j| j.get("state").and_then(|v| v.as_str()) == Some("completed"))
        {
            return jobs;
        }
        assert!(
            Instant::now() < deadline,
            "jobs never all completed: {jobs:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The reference result: the same spec through the in-process
/// orchestrator into a separate store. Each call gets its own store:
/// tests run concurrently, and `temp_store` empties the directory it
/// names.
fn reference_result(spec: &StudySpec) -> vulfi::StudyResult {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let store = vulfi_orch::Store::open(temp_store(&format!("reference{n}"))).unwrap();
    let category = spec.site_category().unwrap();
    let cfg = spec.study_config().unwrap();
    vulfi_serve::with_workload(spec, |w| {
        let mut prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
        prog.model = cfg.model;
        let out = vulfi_orch::run_study_persistent(
            &prog,
            w,
            w.name(),
            &spec.isa,
            &cfg,
            &store,
            vulfi_orch::RunOptions {
                shard_size: spec.shard_size,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
        out.result.ok_or_else(|| "reference incomplete".to_string())
    })
    .expect("reference study")
}

/// Render a result the way the status endpoint does, for byte-for-byte
/// comparison.
fn result_doc(r: &vulfi::StudyResult) -> Value {
    serde_json::json!({
        "mean_sdc": r.summary.mean,
        "margin_95": r.summary.margin_95,
        "campaigns": r.summary.campaigns as u64,
        "converged": r.converged,
        "samples": r.samples.clone(),
        "counts": serde_json::to_value(&r.counts).unwrap(),
    })
}

#[test]
fn submitted_study_completes_and_matches_in_process_run() {
    let store = temp_store("e2e");
    let (client, daemon) = start_daemon(&store, 2);

    // Health and an empty job table come up before any submission.
    let (status, doc) = client.get("/healthz").unwrap();
    assert_eq!(
        (status, doc.get("ok").and_then(|v| v.as_bool())),
        (200, Some(true))
    );
    let (_, jobs) = client.get("/jobs").unwrap();
    assert_eq!(
        jobs.get("jobs").and_then(|v| v.as_array()).unwrap().len(),
        0
    );

    let (status, doc) = client
        .post("/studies", &spec_doc(10, 2), &[("X-Vulfi-Tenant", "alice")])
        .unwrap();
    assert_eq!(status, 202, "{doc:?}");
    let key = doc.get("key").and_then(|v| v.as_str()).unwrap().to_string();
    assert!(doc.get("job").and_then(|v| v.as_u64()).is_some());

    let final_doc = wait_complete(&client, &key, Duration::from_secs(60));

    // Bit-identity with the in-process orchestrator on the same spec.
    let spec = StudySpec {
        bench: "vector sum".to_string(),
        experiments: 10,
        campaigns: 2,
        shard_size: 5,
        ..StudySpec::default()
    };
    let reference = reference_result(&spec);
    assert_eq!(
        serde_json::to_string(final_doc.get("result").unwrap()).unwrap(),
        serde_json::to_string(&result_doc(&reference)).unwrap(),
        "service result must be byte-identical to vulfi study"
    );

    // The tenant and terminal state are visible in the job table.
    let jobs = wait_jobs_completed(&client, 1, Duration::from_secs(30));
    assert_eq!(
        jobs[0].get("tenant").and_then(|v| v.as_str()),
        Some("alice")
    );

    // The report endpoint serves the analytics cell for the same key.
    let (status, report) = client.get(&format!("/studies/{key}/report")).unwrap();
    assert_eq!(status, 200, "{report:?}");
    let cell = report.get("cell").unwrap();
    assert_eq!(cell.get("key").and_then(|v| v.as_str()), Some(key.as_str()));
    assert_eq!(
        cell.get("experiments").and_then(|v| v.as_u64()),
        Some(20),
        "{cell:?}"
    );

    // Metrics speak Prometheus, including the new operational
    // histograms fed by the worker loop.
    let (status, text) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("vulfi_experiments_total"), "{text}");
    assert!(text.contains("vulfi_shard_duration_seconds"), "{text}");
    assert!(text.contains("vulfi_queue_wait_seconds"), "{text}");

    // The ops event slice for this study covers its whole lifecycle.
    let (status, events) = client.get(&format!("/studies/{key}/events")).unwrap();
    assert_eq!(status, 200, "{events:?}");
    let text = serde_json::to_string(&events).unwrap();
    for kind in [
        "Submitted",
        "Started",
        "LeaseGranted",
        "ShardDone",
        "Merged",
        "Completed",
    ] {
        assert!(text.contains(kind), "missing {kind} in {text}");
    }

    // The dashboard renders the finished job without any scripts.
    let (status, html) = client.get_text("/dashboard").unwrap();
    assert_eq!(status, 200);
    assert!(html.contains("id=\"jobs\""), "{html}");
    assert!(html.contains("vector sum"), "{html}");
    assert!(html.contains("alice"), "{html}");
    assert!(!html.contains("<script"), "{html}");

    // Graceful shutdown drains the daemon and removes the address file.
    let (status, _) = client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    assert_eq!(status, 200);
    daemon.join().unwrap();
    assert!(!store.join("serve.addr").exists());
}

#[test]
fn submitted_fault_model_executes_and_matches_in_process_run() {
    let store = temp_store("model");
    let (client, daemon) = start_daemon(&store, 2);

    let doc = serde_json::json!({
        "bench": "vector sum",
        "experiments": 8u64,
        "campaigns": 2u64,
        "shard_size": 4u64,
        "model": "memory-cell",
    });
    let (status, resp) = client.post("/studies", &doc, &[]).unwrap();
    assert_eq!(status, 202, "{resp:?}");
    let key = resp
        .get("key")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();

    // Non-default models live under their own key — no collision with
    // the default-model study of the same spec.
    let (_, default_resp) = client.post("/studies", &spec_doc(8, 2), &[]).unwrap();
    assert_ne!(
        default_resp.get("key").and_then(|v| v.as_str()),
        Some(key.as_str()),
        "memory-cell must not share the default model's key"
    );

    // `wait_complete` asserts the job never fails: the worker's shard
    // runner rejects a prepared program whose model contradicts the
    // config, so a worker that forgot to carry the model over dies here.
    let final_doc = wait_complete(&client, &key, Duration::from_secs(60));

    let spec = StudySpec {
        bench: "vector sum".to_string(),
        experiments: 8,
        campaigns: 2,
        shard_size: 4,
        model: "memory-cell".to_string(),
        ..StudySpec::default()
    };
    let reference = reference_result(&spec);
    assert_eq!(
        serde_json::to_string(final_doc.get("result").unwrap()).unwrap(),
        serde_json::to_string(&result_doc(&reference)).unwrap(),
        "service must execute the submitted fault model, bit-identical to in-process"
    );

    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();
}

#[test]
fn resubmitting_a_completed_study_is_a_cache_hit() {
    let store = temp_store("cachehit");
    let (client, daemon) = start_daemon(&store, 1);
    let (_, first) = client.post("/studies", &spec_doc(10, 2), &[]).unwrap();
    let key = first
        .get("key")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();
    wait_complete(&client, &key, Duration::from_secs(60));

    // Same spec → same key, and the queue completes it without re-running
    // anything (all shards already stored).
    let (status, second) = client.post("/studies", &spec_doc(10, 2), &[]).unwrap();
    assert_eq!(status, 202);
    assert_eq!(
        second.get("key").and_then(|v| v.as_str()),
        Some(key.as_str())
    );
    wait_complete(&client, &key, Duration::from_secs(30));
    wait_jobs_completed(&client, 2, Duration::from_secs(30));

    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();
}

#[test]
fn interrupted_daemon_resumes_to_an_identical_result() {
    let store = temp_store("resume");
    // A single slow-ish worker and many shards give the stop a window to
    // land mid-study; the assertions below hold either way.
    let (client, daemon) = start_daemon(&store, 1);
    let (status, doc) = client.post("/studies", &spec_doc(25, 4), &[]).unwrap();
    assert_eq!(status, 202, "{doc:?}");
    let key = doc.get("key").and_then(|v| v.as_str()).unwrap().to_string();

    // Let the worker get going, then pull the plug gracefully: the
    // in-flight shard lands, the job stays Running in the queue.
    std::thread::sleep(Duration::from_millis(30));
    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();

    // A fresh daemon over the same store re-queues the orphan and runs
    // only what is missing.
    let (client, daemon) = start_daemon(&store, 2);
    let final_doc = wait_complete(&client, &key, Duration::from_secs(60));

    let spec = StudySpec {
        bench: "vector sum".to_string(),
        experiments: 25,
        campaigns: 4,
        shard_size: 5,
        ..StudySpec::default()
    };
    let reference = reference_result(&spec);
    assert_eq!(
        serde_json::to_string(final_doc.get("result").unwrap()).unwrap(),
        serde_json::to_string(&result_doc(&reference)).unwrap(),
        "restart must not change the merged result"
    );

    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();
}

#[test]
fn pruned_submission_discharges_without_execution() {
    let store = temp_store("pruned");
    let (client, daemon) = start_daemon(&store, 2);

    let (status, doc) = client
        .post(
            "/studies",
            &serde_json::json!({
                "bench": "vector sum",
                "experiments": 20u64,
                "campaigns": 5u64,
                "shard_size": 10u64,
                "prune": true,
            }),
            &[],
        )
        .unwrap();
    assert_eq!(status, 202, "{doc:?}");
    let key = doc.get("key").and_then(|v| v.as_str()).unwrap().to_string();
    wait_complete(&client, &key, Duration::from_secs(60));
    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();

    // The workers built per-worker prune contexts and left synthetic
    // Benign records (injection None, dynamic sites seen) in the store.
    let st = vulfi_orch::Store::open(&store).unwrap();
    let done = st
        .study(&vulfi_orch::StudyKey(key))
        .shards()
        .expect("stored shards");
    let discharged = done
        .iter()
        .flat_map(|s| &s.experiments)
        .filter(|e| e.injection.is_none() && e.dynamic_sites > 0)
        .count();
    assert!(
        discharged > 0,
        "a pruned serve study must discharge some injections"
    );
}

#[test]
fn bad_submissions_are_rejected_with_reasons() {
    let store = temp_store("badsubmit");
    let (client, daemon) = start_daemon(&store, 1);

    let cases: Vec<(Value, &str)> = vec![
        (serde_json::json!({}), "bench"),
        (
            serde_json::json!({"bench": "no such bench"}),
            "unknown benchmark",
        ),
        (
            serde_json::json!({"bench": "vector sum", "isa": "mips"}),
            "mips",
        ),
        (
            serde_json::json!({"bench": "vector sum", "expermients": 10u64}),
            "unknown spec field",
        ),
        (
            serde_json::json!({"bench": "vector sum", "experiments": 0u64}),
            "positive",
        ),
        (
            serde_json::json!({"bench": "vector sum", "prune": "yes"}),
            "boolean",
        ),
        (
            serde_json::json!({"bench": "vector sum", "prune": true, "model": "memory-cell"}),
            "single-bit-flip",
        ),
    ];
    for (body, needle) in cases {
        let (status, doc) = client.post("/studies", &body, &[]).unwrap();
        assert_eq!(status, 400, "{body:?} → {doc:?}");
        let err = Client::error_of(&doc);
        assert!(err.contains(needle), "{body:?} → {err}");
    }

    let (status, _) = client.get("/studies/deadbeef").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.get("/no/such/route").unwrap();
    assert_eq!(status, 404);

    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();
}

/// The `:key` segment is joined onto the store path, so anything but the
/// 32-lowercase-hex shape a study key renders must 404 on every route
/// that takes it — `..` named the store's parent directory, which here
/// holds a real study manifest.
#[test]
fn malformed_study_keys_are_not_found() {
    let root = temp_store("traversal");
    let key = "0123456789abcdef0123456789abcdef";
    vulfi_orch::Store::open(&root)
        .unwrap()
        .study(&vulfi_orch::StudyKey(key.to_string()))
        .write_manifest(&vulfi_orch::Manifest {
            key: vulfi_orch::StudyKey(key.to_string()),
            workload: "vector sum".to_string(),
            isa: "avx".to_string(),
            category: vir::analysis::SiteCategory::PureData,
            entry: "main".to_string(),
            cfg: vulfi::StudyConfig::default(),
            total_shards: 1,
            complete: false,
        })
        .unwrap();
    // The daemon's store sits inside that study's directory.
    let (client, daemon) = start_daemon(&root.join(key).join("store"), 1);

    let short = &key[..31];
    let upper = key.to_uppercase();
    for bad in ["..", "%2e%2e", short, upper.as_str()] {
        for route in ["", "/report", "/events"] {
            let path = format!("/studies/{bad}{route}");
            let (status, doc) = client.get(&path).unwrap();
            assert_eq!(status, 404, "GET {path} → {doc:?}");
        }
    }

    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// A submit of more than 1,000,000 experiments (`experiments ×
/// campaigns`) is refused before anything is planned: at 2,000,000 × 1
/// and shard size 1 the plan alone grew the daemon by ~50 MB.
#[test]
fn oversized_submission_is_refused_naming_the_bound() {
    let store = temp_store("oversized");
    let (client, daemon) = start_daemon(&store, 1);
    let body = serde_json::json!({
        "bench": "vector sum",
        "experiments": 2_000_000u64,
        "campaigns": 1u64,
        "shard_size": 1u64,
    });
    let (status, doc) = client.post("/studies", &body, &[]).unwrap();
    assert_eq!(status, 400, "{doc:?}");
    let err = Client::error_of(&doc);
    assert!(err.contains("1000000"), "{err}");
    let (status, doc) = client.get("/jobs").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        doc.get("jobs")
            .and_then(|j| j.as_array())
            .map(<[Value]>::len),
        Some(0),
        "{doc:?}"
    );

    client
        .post("/shutdown", &serde_json::json!({}), &[])
        .unwrap();
    daemon.join().unwrap();
}

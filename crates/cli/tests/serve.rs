//! Service-level chaos and CLI contract tests, driven through the real
//! binary:
//!
//! - `vulfi serv` (the canonical typo) exits non-zero with a suggestion
//!   and the usage text on stderr;
//! - a daemon `kill -9`'d mid-campaign, then restarted over the same
//!   store, completes the study to a result **byte-identical** to a
//!   plain `vulfi study` of the same spec, and the store passes fsck.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use vulfi_serve::Client;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_cli_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vulfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args(args)
        .output()
        .expect("spawn vulfi binary")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?})\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// A spawned `vulfi serve` that is killed and reaped when dropped, so a
/// test that fails before `vulfi shutdown` leaves no daemon running.
struct Daemon(Child);

impl std::ops::Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Both fail harmlessly once the daemon has exited and been reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `vulfi serve` on an ephemeral port and wait for it to publish
/// its address in `<store>/serve.addr`.
fn spawn_daemon(store: &Path, workers: &str) -> (Daemon, String) {
    let addr_file = store.join("serve.addr");
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            store.to_str().unwrap(),
            "--workers",
            workers,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vulfi serve");
    let child = Daemon(child);
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(a) = std::fs::read_to_string(&addr_file) {
            if !a.trim().is_empty() {
                break a.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

#[test]
fn serv_typo_exits_nonzero_with_suggestion_and_usage() {
    let out = vulfi(&["serv"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'serv'"), "{stderr}");
    assert!(stderr.contains("did you mean 'serve'?"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // A plain bogus command still errors with usage, minus a suggestion.
    let out = vulfi(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");

    // The lease TTL went with the lease board: the flag is unknown.
    let out = vulfi(&["serve", "--lease-ttl-ms", "5"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --lease-ttl-ms"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// The dashboard must render zero-JS HTML before, during, and after a
/// study, and the ops event stream must reconstruct the job's full
/// lifecycle (submit → lease → shards → merge) from the log alone —
/// both over HTTP and through `vulfi events summarize` offline.
#[test]
fn dashboard_and_ops_events_reconstruct_the_lifecycle() {
    let store = temp_dir("dashboard");
    let (mut daemon, addr) = spawn_daemon(&store, "2");
    let client = Client::new(addr.clone());

    // Idle dashboard: self-contained, auto-refreshing, no scripts.
    let (status, html) = client.get_text("/dashboard").expect("idle dashboard");
    assert_eq!(status, 200, "{html}");
    assert!(html.contains("id=\"jobs\""), "{html}");
    assert!(html.contains("id=\"active\""), "{html}");
    assert!(html.contains("id=\"metrics\""), "{html}");
    assert!(html.contains("http-equiv=\"refresh\""), "{html}");
    assert!(!html.contains("<script"), "dashboard must be zero-JS");
    assert!(
        !html.contains("http://"),
        "dashboard must be self-contained"
    );

    // Run a small study to completion.
    let (status, doc) = client
        .post(
            "/studies",
            &serde_json::json!({
                "bench": "Blackscholes",
                "experiments": 10u64,
                "campaigns": 2u64,
                "shard_size": 5u64,
            }),
            &[("X-Vulfi-Tenant", "dash")],
        )
        .expect("submit");
    assert_eq!(status, 202, "{doc:?}");
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .expect("submit returns key")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "study never completed");
        let (_, s) = client.get(&format!("/studies/{key}")).expect("status");
        if s.get("result").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Dashboard now shows the job row.
    let (status, html) = client.get_text("/dashboard").expect("dashboard");
    assert_eq!(status, 200);
    assert!(html.contains("Blackscholes"), "{html}");
    assert!(html.contains(&key[..12]), "{html}");
    assert!(html.contains("dash"), "tenant must be shown: {html}");

    // The served study fed the same shard metrics as `vulfi study`.
    let (status, text) = client.get_text("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let appends = vulfi_orch::parse_prometheus(&text)
        .expect("metrics parse as Prometheus text")
        .into_iter()
        .find(|s| s.name == "vulfi_shard_appends_total")
        .expect("shard append counter present");
    assert_eq!(appends.value, 4.0, "{text}");

    // Machine-readable slice of the ops log for this study.
    let (status, doc) = client
        .get(&format!("/studies/{key}/events"))
        .expect("events endpoint");
    assert_eq!(status, 200, "{doc:?}");
    let text = serde_json::to_string(&doc).unwrap();
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

    let out = vulfi(&["shutdown", "--addr", &addr]);
    assert_ok(&out, "vulfi shutdown");
    daemon.wait().expect("daemon exit");

    // Offline reconstruction from the log alone.
    let out = vulfi(&["events", "summarize", "--store", store.to_str().unwrap()]);
    assert_ok(&out, "events summarize");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(stdout.contains("merged"), "{stdout}");
    assert!(stdout.contains("worker"), "{stdout}");

    let out = vulfi(&[
        "events",
        "summarize",
        "--store",
        store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&out, "events summarize --json");
    let s: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("summary JSON");
    let jobs = s
        .get("jobs")
        .and_then(|v| v.as_array())
        .expect("jobs array");
    let job = jobs
        .iter()
        .find(|j| j.get("key").and_then(|k| k.as_str()) == Some(key.as_str()))
        .expect("summarized job for the study key");
    assert_eq!(
        job.get("outcome").and_then(|v| v.as_str()),
        Some("completed")
    );
    assert_eq!(job.get("tenant").and_then(|v| v.as_str()), Some("dash"));
    assert_eq!(job.get("experiments").and_then(|v| v.as_u64()), Some(20));
    assert!(job.get("shards").and_then(|v| v.as_u64()).unwrap_or(0) >= 4);

    // Tail renders one line per event; fsck reports a healthy log.
    let out = vulfi(&["events", "tail", "--store", store.to_str().unwrap()]);
    assert_ok(&out, "events tail");
    assert!(String::from_utf8_lossy(&out.stdout).contains("completed"));
    let out = vulfi(&["fsck", "--store", store.to_str().unwrap()]);
    assert_ok(&out, "vulfi fsck");
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read fixture") {
        let entry = entry.expect("fixture entry");
        let dest = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), &dest).expect("copy fixture file");
        }
    }
}

/// A store left by a daemon that still sampled telemetry and ran alert
/// rules (the committed `legacy_store` fixture) passes `vulfi fsck`, and
/// a daemon started on a copy of it completes a new study. `GET /alerts`
/// is not a route.
#[test]
fn legacy_store_passes_fsck_and_serves_a_new_study() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../orch/tests/fixtures/legacy_store");
    let store = temp_dir("legacy");
    copy_tree(&fixture, &store);
    let out = vulfi(&["fsck", "--store", store.to_str().unwrap()]);
    assert_ok(&out, "vulfi fsck on the legacy store");
    assert!(String::from_utf8_lossy(&out.stdout).contains("telemetry"));

    let (mut daemon, addr) = spawn_daemon(&store, "2");
    let client = Client::new(addr.clone());
    let (status, _) = client.get_text("/alerts").expect("GET /alerts");
    assert_eq!(status, 404);
    let (status, doc) = client
        .post(
            "/studies",
            &serde_json::json!({
                "bench": "vector sum",
                "experiments": 6u64,
                "campaigns": 2u64,
                "seed": 7u64,
            }),
            &[],
        )
        .expect("submit");
    assert_eq!(status, 202, "{doc:?}");
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .expect("submit returns key")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "study never completed");
        let (_, s) = client.get(&format!("/studies/{key}")).expect("status");
        if s.get("result").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = vulfi(&["shutdown", "--addr", &addr]);
    assert_ok(&out, "vulfi shutdown");
    daemon.wait().expect("daemon exit");

    let out = vulfi(&["fsck", "--store", store.to_str().unwrap()]);
    assert_ok(&out, "vulfi fsck after the new study");
    let out = vulfi(&[
        "events",
        "summarize",
        "--store",
        store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&out, "events summarize --json");
    let s: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("summary JSON");
    let outcomes: Vec<&str> = s
        .get("jobs")
        .and_then(|v| v.as_array())
        .expect("jobs array")
        .iter()
        .filter_map(|j| j.get("outcome").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(outcomes, ["completed", "completed"]);
}

/// The acceptance test for the service: kill -9 the daemon while workers
/// hold leased shards mid-campaign, restart over the same store, and the
/// completed study must merge bit-identically to `vulfi study`.
#[test]
fn killed_daemon_resumes_to_bit_identical_study() {
    let serve_store = temp_dir("chaos_serve");
    let study_store = temp_dir("chaos_study");

    let (mut daemon, addr) = spawn_daemon(&serve_store, "2");
    let client = Client::new(addr);

    // Enough shards (40) that the kill below lands mid-campaign.
    let (status, doc) = client
        .post(
            "/studies",
            &serde_json::json!({
                "bench": "Blackscholes",
                "experiments": 25u64,
                "campaigns": 8u64,
                "shard_size": 5u64,
            }),
            &[("X-Vulfi-Tenant", "chaos")],
        )
        .expect("submit");
    assert_eq!(status, 202, "{doc:?}");
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .expect("submit returns key")
        .to_string();

    // Wait until at least one shard has landed but the study is not
    // done, then SIGKILL the daemon — workers die holding leases, with
    // in-flight shards lost and the queue job stuck Running.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed_midway = false;
    loop {
        assert!(Instant::now() < deadline, "study never made progress");
        let (_, s) = client.get(&format!("/studies/{key}")).expect("status");
        let covered = s.get("covered").and_then(|v| v.as_u64()).unwrap_or(0);
        let total = s.get("total").and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        if covered > 0 && covered < total {
            daemon.kill().expect("SIGKILL daemon");
            killed_midway = true;
            break;
        }
        if s.get("result").is_some() {
            // The study outran the poll loop; the restart below still
            // exercises recovery of a completed store.
            daemon.kill().expect("SIGKILL daemon");
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.wait().expect("reap killed daemon");

    // A fresh daemon over the same store re-queues the orphaned job and
    // re-runs exactly the missing shards.
    let (mut daemon, addr) = spawn_daemon(&serve_store, "2");
    let client = Client::new(addr.clone());
    let deadline = Instant::now() + Duration::from_secs(120);
    let service_result = loop {
        assert!(
            Instant::now() < deadline,
            "restarted daemon never finished the study"
        );
        let (_, s) = client
            .get(&format!("/studies/{key}"))
            .expect("status after restart");
        assert_ne!(
            s.get("state").and_then(|v| v.as_str()),
            Some("failed"),
            "{s:?}"
        );
        if let Some(r) = s.get("result") {
            break r.clone();
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    eprintln!("killed_midway={killed_midway}");

    // Reference: the same spec through `vulfi study` into a fresh store.
    let study_out = vulfi(&[
        "study",
        "--bench",
        "Blackscholes",
        "--experiments",
        "25",
        "--campaigns",
        "8",
        "--shard-size",
        "5",
        "--store",
        study_store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&study_out, "reference vulfi study");
    let reference: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&study_out.stdout)).expect("study JSON");

    // Same content-addressed key, and an identical merged result.
    assert_eq!(
        reference.get("key").and_then(|v| v.as_str()),
        Some(key.as_str()),
        "HTTP submission and CLI study must derive the same study key"
    );
    for field in [
        "mean_sdc",
        "margin_95",
        "samples",
        "counts",
        "campaigns",
        "converged",
    ] {
        let service = service_result
            .get(field)
            .unwrap_or_else(|| panic!("service result missing {field}"));
        let cli = reference
            .get(field)
            .unwrap_or_else(|| panic!("study output missing {field}"));
        assert_eq!(
            serde_json::to_string(service).unwrap(),
            serde_json::to_string(cli).unwrap(),
            "result field '{field}' diverged after kill + restart"
        );
    }

    // Byte-level check over the stores themselves: the summary documents
    // must be identical, proving the shard merge (not just the rendered
    // numbers) converged to the same state.
    let a = vulfi(&[
        "results",
        "summary",
        "--store",
        serve_store.to_str().unwrap(),
        "--json",
    ]);
    let b = vulfi(&[
        "results",
        "summary",
        "--store",
        study_store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&a, "results summary (service store)");
    assert_ok(&b, "results summary (study store)");
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "service store and study store must summarize byte-identically"
    );

    // Graceful shutdown via the CLI, then the store must pass fsck (the
    // kill left at most a healed torn tail behind).
    let out = vulfi(&["shutdown", "--addr", &addr]);
    assert_ok(&out, "vulfi shutdown");
    let status = daemon.wait().expect("daemon exit");
    assert!(
        status.success(),
        "daemon exited {status:?} after graceful shutdown"
    );
    let fsck = vulfi(&["fsck", "--store", serve_store.to_str().unwrap()]);
    assert_ok(&fsck, "vulfi fsck after chaos");
}

/// `GET /studies/:key/report` reads only the requested study: one
/// corrupt shard log in the store fails its own report loudly and
/// leaves every other study's report alone. Unknown and partial keys
/// are 404. The store is a copy of the report fixture (two complete
/// studies and one partial).
#[test]
fn a_corrupt_study_does_not_break_other_studies_reports() {
    const HEALTHY: &str = "ed4da38fe988d8a71e7f6e6575a37988";
    const CORRUPT: &str = "666484195defb86d81b4369041e87df0";
    const PARTIAL: &str = "df3a08c5664cf578153e7500f872afd1";
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/reports/store");
    let store = temp_dir("report_isolation");
    copy_tree(&fixture, &store);
    let log = store.join(CORRUPT).join("shards.jsonl");
    let mut bytes = std::fs::read(&log).unwrap();
    let body = bytes.iter().position(|&b| b == b'{').unwrap();
    bytes[body + 10] ^= 0x01;
    std::fs::write(&log, &bytes).unwrap();

    let (mut daemon, addr) = spawn_daemon(&store, "1");
    let client = Client::new(addr.clone());
    let (status, doc) = client.get(&format!("/studies/{HEALTHY}/report")).unwrap();
    assert_eq!(status, 200, "{doc:?}");
    let cell = doc.get("cell").expect("report carries the cell");
    assert_eq!(cell.get("key").and_then(|v| v.as_str()), Some(HEALTHY));
    assert_eq!(cell.get("experiments").and_then(|v| v.as_u64()), Some(48));
    let (status, doc) = client.get(&format!("/studies/{CORRUPT}/report")).unwrap();
    assert_eq!(status, 500, "{doc:?}");
    assert!(Client::error_of(&doc).contains("fsck"), "{doc:?}");
    for key in [PARTIAL, "deadbeef"] {
        let (status, doc) = client.get(&format!("/studies/{key}/report")).unwrap();
        assert_eq!(status, 404, "{key}: {doc:?}");
    }
    assert_ok(&vulfi(&["shutdown", "--addr", &addr]), "vulfi shutdown");
    daemon.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&store);
}

//! End-to-end CLI observability contract, driven through the real
//! binary:
//!
//! - `study --json` streams one machine-readable `ProgressSnapshot` per
//!   line on stderr and always ends with `done == total`.
//! - `--metrics-out` writes Prometheus text that round-trips through
//!   the exposition parser with the exact experiment count.
//! - `vulfi trace summarize` / `vulfi fsck --trace` succeed against the
//!   sidecar the study just wrote.
//! - `vulfi profile --hotspots` reports the same instruction mix, lane
//!   occupancy, hotspot counts and folded stacks as the committed
//!   fixtures in `tests/fixtures/profile/` (wall times aside).

use std::path::PathBuf;
use std::process::{Command, Output};

use vulfi_orch::{parse_prometheus, ProgressSnapshot, TraceSummary};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_cli_obs_{name}_{}", std::process::id()));
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

#[test]
fn study_json_stream_metrics_and_trace_tools() {
    let store = temp_dir("store");
    let trace = temp_dir("trace");
    let metrics = temp_dir("metrics").join("study.prom");
    std::fs::create_dir_all(metrics.parent().unwrap()).unwrap();
    let store_s = store.to_str().unwrap();
    let trace_s = trace.to_str().unwrap();
    let metrics_s = metrics.to_str().unwrap();

    // 5 campaigns x 12 experiments = 60, sharded by 5.
    let out = vulfi(&[
        "study",
        "--bench",
        "vector sum",
        "--experiments",
        "12",
        "--campaigns",
        "5",
        "--seed",
        "7",
        "--shard-size",
        "5",
        "--store",
        store_s,
        "--trace",
        trace_s,
        "--metrics-out",
        metrics_s,
        "--json",
    ]);
    assert_ok(&out, "vulfi study --json");

    // Every stderr line is a parseable ProgressSnapshot; the stream
    // ends with completion, so a consumer always sees done == total.
    let stderr = String::from_utf8(out.stderr).unwrap();
    let snaps: Vec<ProgressSnapshot> = stderr
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .unwrap_or_else(|e| panic!("progress line not a ProgressSnapshot: {e:?}\n{l}"))
        })
        .collect();
    assert!(
        snaps.len() >= 2,
        "expected at least one per-shard snapshot plus the final one, got {}",
        snaps.len()
    );
    for w in snaps.windows(2) {
        assert!(w[0].done <= w[1].done, "done must never decrease");
    }
    let last = snaps.last().unwrap();
    assert_eq!(last.total, 60);
    assert_eq!(last.done, last.total, "stream must end with done == total");
    assert_eq!(last.counts.total(), 60);

    // The study's own stdout JSON document still parses independently
    // of the progress stream.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc: serde_json::Value = serde_json::from_str(stdout.trim()).unwrap();
    assert_eq!(
        doc.get("workload").and_then(|v| v.as_str()),
        Some("vector sum")
    );

    // --metrics-out round-trips through the Prometheus parser and the
    // experiment counter agrees with the study size.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let samples = parse_prometheus(&text).expect("metrics file must parse as Prometheus text");
    let executed: f64 = samples
        .iter()
        .filter(|s| s.name == "vulfi_experiments_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(executed, 60.0, "experiment counter must match the plan");
    let appends = samples
        .iter()
        .find(|s| s.name == "vulfi_shard_appends_total")
        .expect("shard append counter present");
    assert!(appends.value >= 12.0, "12 shards were appended");
    let durations = samples
        .iter()
        .find(|s| s.name == "vulfi_shard_duration_seconds_count")
        .expect("shard duration histogram present");
    // 5 campaigns of 12 split 5 + 5 + 2: every executed shard is timed
    // once, by the same runner that counts its append.
    assert_eq!(durations.value, 15.0, "every executed shard is timed once");
    assert_eq!(durations.value, appends.value);
    assert!(
        samples
            .iter()
            .any(|s| s.name == "vulfi_shard_append_latency_seconds_bucket"),
        "latency histogram present"
    );

    // `trace summarize` reads the sidecar the study just wrote: the
    // human form names percentiles, the JSON form is a TraceSummary
    // covering one span per experiment.
    let human = vulfi(&["trace", "summarize", "--trace", trace_s]);
    assert_ok(&human, "vulfi trace summarize");
    let text = String::from_utf8(human.stdout).unwrap();
    assert!(text.contains("p50"), "summary names percentiles:\n{text}");
    assert!(text.contains("vector sum"), "summary names the workload");

    let json = vulfi(&[
        "trace",
        "summarize",
        "--trace",
        trace_s,
        "--json",
        "--top",
        "3",
    ]);
    assert_ok(&json, "vulfi trace summarize --json");
    let summary: TraceSummary =
        serde_json::from_str(String::from_utf8(json.stdout).unwrap().trim()).unwrap();
    assert_eq!(summary.studies, 1);
    assert_eq!(summary.spans, 60);
    assert!(summary.top_sdc_sites.len() <= 3);

    // And the sidecar fscks clean through the CLI.
    let fsck = vulfi(&["fsck", "--trace", trace_s]);
    assert_ok(&fsck, "vulfi fsck");
}

#[test]
fn profile_output_matches_the_committed_fixtures() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/profile");
    let dir = temp_dir("profile");
    std::fs::create_dir_all(&dir).unwrap();
    for (bench, isa, case) in [
        ("vector sum", "avx", "vector-sum.avx"),
        ("vector sum", "sse", "vector-sum.sse"),
        ("Blackscholes", "avx", "blackscholes.avx"),
    ] {
        let folded = dir.join(format!("{case}.folded"));
        let out = vulfi(&[
            "profile",
            "--bench",
            bench,
            "--isa",
            isa,
            "--hotspots",
            "-o",
            folded.to_str().unwrap(),
        ]);
        assert_ok(&out, "vulfi profile --hotspots");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let want = std::fs::read_to_string(fixtures.join(format!("{case}.out"))).unwrap();
        assert_eq!(stdout, want, "{case}: profile output moved");
        let got = std::fs::read_to_string(&folded).unwrap();
        let want = std::fs::read_to_string(fixtures.join(format!("{case}.folded"))).unwrap();
        assert_eq!(got, want, "{case}: folded stacks moved");
    }
}

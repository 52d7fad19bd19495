//! Exit-code contract of the real binary, pinned by subprocess tests:
//!
//! - `vulfi fsck` (over `--store` or `--trace`) exits **non-zero** when a
//!   log is corrupt and `--repair` was not given, zero after repair.
//! - `vulfi gauntlet run` exits non-zero on an invariant breach and on
//!   a partial store without `--resume`; a SIGKILLed gauntlet resumed
//!   with `--resume` merges to the bit-identical verdicts of an
//!   uninterrupted run in a fresh store.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_cli_exit_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vulfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args(args)
        .output()
        .expect("spawn vulfi binary")
}

fn context(out: &Output) -> String {
    format!(
        "status {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    )
}

fn assert_exit(out: &Output, want: i32, what: &str) {
    assert_eq!(out.status.code(), Some(want), "{what}: {}", context(out));
}

/// Flip one byte in the middle of the *first* line of `log` — a
/// non-tail corruption, which fsck must treat as loud (a torn tail
/// could be an interrupted writer and is tolerated).
fn corrupt_first_line(log: &Path) {
    let mut bytes = std::fs::read(log).unwrap();
    let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    let target = first_nl / 2;
    bytes[target] ^= 0x01;
    std::fs::write(log, &bytes).unwrap();
}

fn find_log(root: &Path, file: &str) -> PathBuf {
    for entry in std::fs::read_dir(root).unwrap() {
        let p = entry.unwrap().path().join(file);
        if p.is_file() {
            return p;
        }
    }
    panic!("no {file} under {}", root.display());
}

#[test]
fn store_fsck_exit_codes_pin_corruption_policy() {
    let store = temp_dir("store_fsck");
    let store_s = store.to_str().unwrap();
    let out = vulfi(&[
        "study",
        "--bench",
        "vector sum",
        "--experiments",
        "8",
        "--campaigns",
        "4",
        "--seed",
        "11",
        "--shard-size",
        "4",
        "--store",
        store_s,
    ]);
    assert_exit(&out, 0, "seed study");

    assert_exit(&vulfi(&["fsck", "--store", store_s]), 0, "clean fsck");

    corrupt_first_line(&find_log(&store, "shards.jsonl"));
    assert_exit(
        &vulfi(&["fsck", "--store", store_s]),
        1,
        "fsck must fail loudly on corruption without --repair",
    );
    assert_exit(
        &vulfi(&["fsck", "--store", store_s, "--repair"]),
        0,
        "fsck --repair quarantines and succeeds",
    );
    assert_exit(
        &vulfi(&["fsck", "--store", store_s]),
        0,
        "store is clean after repair",
    );
}

#[test]
fn trace_fsck_exit_codes_pin_corruption_policy() {
    let store = temp_dir("trace_fsck_store");
    let trace = temp_dir("trace_fsck_trace");
    let store_s = store.to_str().unwrap();
    let trace_s = trace.to_str().unwrap();
    let out = vulfi(&[
        "study",
        "--bench",
        "vector sum",
        "--experiments",
        "8",
        "--campaigns",
        "4",
        "--seed",
        "11",
        "--shard-size",
        "4",
        "--store",
        store_s,
        "--trace",
        trace_s,
    ]);
    assert_exit(&out, 0, "seed traced study");

    assert_exit(&vulfi(&["fsck", "--trace", trace_s]), 0, "clean trace fsck");

    corrupt_first_line(&find_log(&trace, "traces.jsonl"));
    assert_exit(
        &vulfi(&["fsck", "--trace", trace_s]),
        1,
        "trace fsck must fail loudly on corruption without --repair",
    );
    assert_exit(
        &vulfi(&["fsck", "--trace", trace_s, "--repair"]),
        0,
        "trace fsck --repair quarantines and succeeds",
    );
}

const GAUNTLET_SCENARIO: &str = r#"
name = "exit-code-gauntlet"
models = ["single-bit-flip", "stuck-at:3=1", "memory-cell"]
isas = ["avx"]
benches = ["vector sum"]
categories = ["pure-data"]
experiments = 10
campaigns = 4
seed = 13
shard_size = 2

[invariants]
crash_rate_max = 90.0
"#;

fn write_scenario(dir: &Path, name: &str, text: &str) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p.to_str().unwrap().to_string()
}

#[test]
fn gauntlet_breach_exits_nonzero_and_pass_exits_zero() {
    let dir = temp_dir("gauntlet_breach");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    let pass = write_scenario(&dir, "pass.toml", GAUNTLET_SCENARIO);
    let fail = write_scenario(
        &dir,
        "fail.toml",
        &GAUNTLET_SCENARIO.replace("crash_rate_max = 90.0", "sdc_rate_max = 0.0"),
    );

    let out = vulfi(&["gauntlet", "run", &pass, "--store", store_s]);
    assert_exit(&out, 0, "passing gauntlet");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("0 breaches: PASS"), "{stdout}");

    // Same cells, impossible invariant: cache hits, but verdict FAIL.
    let out = vulfi(&["gauntlet", "run", &fail, "--store", store_s, "--resume"]);
    assert_exit(&out, 1, "breached gauntlet must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("FAIL (sdc_rate_max)"), "{stdout}");
}

#[test]
fn gauntlet_killed_and_resumed_matches_uninterrupted_run() {
    let dir = temp_dir("gauntlet_kill");
    let killed_store = dir.join("killed");
    let clean_store = dir.join("clean");
    let scenario = write_scenario(&dir, "kill.toml", GAUNTLET_SCENARIO);

    // SIGKILL the runner mid-gauntlet. If the process wins the race and
    // finishes first, the resume below is a pure cache hit — the
    // comparison still holds, the test just exercises less.
    let mut child = Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args([
            "gauntlet",
            "run",
            &scenario,
            "--store",
            killed_store.to_str().unwrap(),
            "--jobs",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn gauntlet");
    std::thread::sleep(std::time::Duration::from_millis(120));
    let _ = child.kill();
    let _ = child.wait();

    let resumed = vulfi(&[
        "gauntlet",
        "run",
        &scenario,
        "--store",
        killed_store.to_str().unwrap(),
        "--resume",
        "--json",
    ]);
    assert_exit(&resumed, 0, "resumed gauntlet");

    let clean = vulfi(&[
        "gauntlet",
        "run",
        &scenario,
        "--store",
        clean_store.to_str().unwrap(),
        "--json",
    ]);
    assert_exit(&clean, 0, "uninterrupted gauntlet");

    // The JSON verdicts carry every per-cell tally (key, n, sdc, benign,
    // crash, rates, invariant arithmetic) — bit-identical merges mean
    // byte-identical documents.
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "kill -9 + --resume must reproduce the uninterrupted verdicts"
    );
}

/// Each command accepts only the flags its usage line lists: an
/// unlisted flag exits 1 naming the command and its usage, instead of
/// being silently ignored. Flags and commands that no longer exist are
/// unknown.
#[test]
fn flags_are_checked_against_each_commands_usage() {
    let out = vulfi(&["study", "--workers", "2"]);
    assert_exit(&out, 1, "study --workers");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`vulfi study` does not take --workers"),
        "{stderr}"
    );
    assert!(
        stderr.contains("usage: vulfi study --bench NAME"),
        "{stderr}"
    );

    let dir = temp_dir("flags");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("x.spmd");
    std::fs::write(
        &src,
        "export void scale(uniform float a[], uniform int n) {\n\
         \x20   foreach (i = 0 ... n) { a[i] = a[i] * 2.0f; }\n}\n",
    )
    .unwrap();
    let src = src.to_str().unwrap();
    let out = vulfi(&["instrument", src, "--isa", "sse", "--category", "control"]);
    assert_exit(&out, 0, "instrument --isa");
    assert!(String::from_utf8_lossy(&out.stdout).contains("@vulfi.inject"));
    let vir = dir.join("x.vir");
    let out = vulfi(&["detect", src, "--isa", "sse", "-o", vir.to_str().unwrap()]);
    assert_exit(&out, 0, "detect -o");
    assert!(vir.is_file());

    // The resource limits live on `vulfi campaign` only: the study key
    // does not hash them, so a limited study would share a store
    // directory with an unlimited one.
    for (args, label) in [
        (
            &["study", "--bench", "vector sum", "--mem-limit-mb", "1"][..],
            "vulfi study",
        ),
        (
            &[
                "gauntlet",
                "run",
                "scenarios/smoke.toml",
                "--wall-limit-ms",
                "5",
            ][..],
            "vulfi gauntlet run",
        ),
    ] {
        let out = vulfi(args);
        assert_exit(&out, 1, &args.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{label}` does not take")),
            "{stderr}"
        );
    }

    for flag in ["--rules", "--telemetry-interval-ms"] {
        let out = vulfi(&["serve", flag, "1"]);
        assert_exit(&out, 1, flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
    let out = vulfi(&["alerts", "check"]);
    assert_exit(&out, 1, "alerts check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'alerts'"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every front door derives the same study key for one spec: `vulfi
/// study --json`, a one-cell `vulfi gauntlet run --json`, and the
/// daemon's submit-time `realize_key` all yield one pinned key, so a
/// study stored through any of them stays reachable from all of them.
#[test]
fn study_gauntlet_and_submit_derive_the_pinned_key() {
    const PINNED: &str = "7bbaa1d54116876493f48a7be974fdcb";
    let dir = temp_dir("pinned_key");
    std::fs::create_dir_all(&dir).unwrap();
    let store = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let study_store = store("study");
    let mut args = vec![
        "study",
        "--bench",
        "vector sum",
        "--store",
        &study_store,
        "--json",
    ];
    args.extend(
        "--isa sse --category control --detectors --model multi-bit-burst:2 \
         --experiments 10 --campaigns 4 --seed 7 --shard-size 5"
            .split_whitespace(),
    );
    let out = vulfi(&args);
    assert_exit(&out, 0, "study --json");
    let doc: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("key").and_then(|k| k.as_str()), Some(PINNED));

    let scenario = dir.join("cell.toml");
    std::fs::write(
        &scenario,
        "name = \"pinned\"\nmodels = [\"multi-bit-burst:2\"]\nisas = [\"sse\"]\n\
         benches = [\"vector sum\"]\ncategories = [\"control\"]\nexperiments = 10\n\
         campaigns = 4\nseed = 7\nshard_size = 5\ndetectors = true\n\n\
         [invariants]\nsdc_rate_max = 100.0\n",
    )
    .unwrap();
    let gauntlet_store = store("gauntlet");
    let out = vulfi(&[
        "gauntlet",
        "run",
        scenario.to_str().unwrap(),
        "--store",
        &gauntlet_store,
        "--json",
    ]);
    assert_exit(&out, 0, "gauntlet run --json");
    let doc: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let cells = doc.get("cells").and_then(|c| c.as_array()).unwrap();
    assert_eq!(cells.len(), 1, "{doc:?}");
    assert_eq!(cells[0].get("key").and_then(|k| k.as_str()), Some(PINNED));

    let spec = vulfi::StudySpec {
        bench: "vector sum".to_string(),
        isa: "sse".to_string(),
        category: "control".to_string(),
        experiments: 10,
        campaigns: 4,
        seed: 7,
        shard_size: 5,
        detectors: true,
        model: "multi-bit-burst:2".to_string(),
        ..vulfi::StudySpec::default()
    };
    let serve_store = vulfi_orch::Store::open(dir.join("serve")).unwrap();
    let key = vulfi_serve::realize_key(&spec, &serve_store).unwrap();
    assert_eq!(key.0, PINNED);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A command whose stdout is closed ends quietly, as `cat` does in
/// `cat big | head -c 0`: no panic and no backtrace on stderr.
#[test]
fn a_closed_stdout_ends_a_command_without_a_panic() {
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/reports/trace");
    let cases: [&[&str]; 2] = [
        &["list"],
        &[
            "report",
            "heatmap",
            "--json",
            "--trace",
            trace.to_str().unwrap(),
        ],
    ];
    for args in cases {
        // The read end is gone before the child starts, so its first
        // write to stdout fails however quickly it runs.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_vulfi"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn vulfi binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "vulfi {args:?}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "vulfi {args:?}: {stderr}");
    }
}

/// A study asks for at most 1,000,000 experiments (`experiments ×
/// campaigns`): planning and merging allocate a slot for each before
/// anything runs.
#[test]
fn oversized_study_is_refused_naming_the_bound() {
    let store = temp_dir("oversized");
    let out = vulfi(&[
        "study",
        "--bench",
        "vector sum",
        "--experiments",
        "2000000",
        "--campaigns",
        "1",
        "--shard-size",
        "1",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert_exit(&out, 1, "study 2,000,000 x 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1000000"), "{stderr}");
    let stored = std::fs::read_dir(&store).map_or(0, |d| d.count());
    assert_eq!(stored, 0, "nothing planned or stored");
}

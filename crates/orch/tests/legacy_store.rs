//! Stores written by daemons that still ran the telemetry sampler and
//! the alert engine must keep opening and passing fsck.
//!
//! The committed fixture `tests/fixtures/legacy_store` is the store such
//! a daemon left behind: `vulfi serve --rules R --telemetry-interval-ms
//! 100`, where `R` held one always-firing `exp_s_below 1e9` rule, then
//! one `vector sum` study of 12 experiments x 2 campaigns, then a clean
//! shutdown. It holds `telemetry/series.jsonl` and an ops log with an
//! `alert-firing` event.

use std::path::{Path, PathBuf};

use vulfi_orch::{summarize_events, OpsKind, OpsLog, Store, StudyFsck};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_store")
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), &dest).unwrap();
        }
    }
}

fn telemetry_row(root: &Path, repair: bool) -> StudyFsck {
    let report = Store::open(root).unwrap().fsck(repair).unwrap();
    report
        .studies
        .into_iter()
        .find(|s| s.key.0 == "telemetry")
        .expect("fsck has a telemetry row")
}

#[test]
fn legacy_store_fixture_passes_fsck_and_decodes() {
    let report = Store::open(fixture()).unwrap().fsck(false).unwrap();
    assert!(!report.dirty(), "{:?}", report.studies);
    let keys: Vec<&str> = report.studies.iter().map(|s| s.key.0.as_str()).collect();
    assert!(keys.contains(&"telemetry"), "{keys:?}");
    assert!(keys.contains(&"ops") && keys.contains(&"queue"), "{keys:?}");
    let telemetry = report.studies.iter().find(|s| s.key.0 == "telemetry");
    assert!(telemetry.unwrap().valid > 0);

    let dir = std::env::temp_dir().join(format!("vulfi_legacy_ops_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&fixture(), &dir);
    let events = OpsLog::open(&dir).unwrap().events().unwrap();
    let lines = std::fs::read_to_string(dir.join("events/ops.jsonl")).unwrap();
    let records = lines.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(events.len(), records, "every ops line decodes");
    assert!(events.iter().any(|e| e.kind == OpsKind::AlertFiring));

    let summary = summarize_events(&events);
    assert_eq!(summary.jobs.len(), 1);
    assert_eq!(summary.jobs[0].outcome, "completed");
    assert!(summary.jobs[0].merged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_legacy_series_is_reported_and_repaired() {
    let dir = std::env::temp_dir().join(format!("vulfi_legacy_fsck_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&fixture(), &dir);
    let series = dir.join("telemetry/series.jsonl");

    // Flip the case of the first byte of the middle record's first key,
    // inside the checksummed JSON rather than the CRC suffix.
    let mut bytes = std::fs::read(&series).unwrap();
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i] == b'{' && (i == 0 || bytes[i - 1] == b'\n'))
        .collect();
    assert!(starts.len() >= 3, "fixture series has several records");
    let pos = starts[starts.len() / 2] + 2;
    bytes[pos] ^= 0x20;
    std::fs::write(&series, &bytes).unwrap();

    let row = telemetry_row(&dir, false);
    assert!(row.needs_repair(), "{row:?}");
    assert_eq!(row.corrupt.len(), 1, "{row:?}");

    let row = telemetry_row(&dir, true);
    let quarantined = row.quarantined.expect("repair quarantines");
    assert_eq!(
        quarantined,
        dir.join("telemetry/series.quarantine/series.0.jsonl")
    );
    assert!(quarantined.is_file());

    let report = Store::open(&dir).unwrap().fsck(false).unwrap();
    assert!(!report.dirty(), "{:?}", report.studies);
    let row = telemetry_row(&dir, false);
    assert_eq!(row.valid, starts.len() - 1, "every other record salvaged");
    let _ = std::fs::remove_dir_all(&dir);
}

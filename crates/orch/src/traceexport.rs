//! Causal span export: stitch ops events and per-experiment traces
//! into a parent/child span tree and emit Chrome trace-event JSON.
//!
//! The tree has four layers, one per orchestration layer:
//!
//! ```text
//! request     submit → terminal      (one per job, from the ops log)
//! └─ job      start → merge          (the active-study window)
//!    └─ shard start → durable append (one per ShardDone event)
//!       └─ experiment               (spans from the trace store)
//! ```
//!
//! Two sources, same output shape:
//!
//! - **Served campaigns** have an ops log: spans carry real wall-clock
//!   timestamps, shards land on per-worker tracks, and experiment spans
//!   from a trace store (when one is given) are laid out inside their
//!   shard's window.
//! - **Local traced studies** have no ops log, only trace shards. The
//!   exporter synthesizes the request/job scaffolding on a relative
//!   timeline starting at 0 — the causal nesting is real (it is how the
//!   runner executed), only the absolute clock is absent.
//!
//! Output is the Chrome trace-event format (`{"traceEvents": [...]}`,
//! complete `"ph": "X"` duration events, microsecond timestamps),
//! loadable in Perfetto or chrome://tracing. [`validate_chrome`]
//! re-parses an export and proves the per-layer counts and the
//! parent/child containment — `vulfi trace export` runs it on its own
//! output before reporting success.

use serde::Serialize as _;

use crate::events::{OpsEvent, OpsKind};
use crate::key::StudyKey;
use crate::tracestore::{TraceShard, TraceStore};
use crate::OrchError;
use vulfi::Outcome;

/// One complete (`ph = "X"`) span. Timestamps and durations are
/// microseconds, as the trace-event format specifies.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeSpan {
    pub name: String,
    /// Layer: `request`, `job`, `shard`, or `experiment`.
    pub cat: String,
    pub ts_us: f64,
    pub dur_us: f64,
    /// Process track: one per job (served) or per study (local).
    pub pid: u64,
    /// Thread track: 0 for request/job scaffolding, 1+N for worker N.
    pub tid: u64,
    pub args: serde_json::Value,
}

fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::Sdc => "sdc",
        Outcome::Benign => "benign",
        Outcome::Crash => "crash",
    }
}

fn short_key(k: &str) -> &str {
    &k[..12.min(k.len())]
}

/// Lay one shard's experiment spans back-to-back inside the shard's
/// window, compressing uniformly if their summed wall time exceeds it
/// (tracing overhead can make the parts exceed the measured whole;
/// containment is the invariant worth keeping).
fn experiment_spans(
    shard: &TraceShard,
    shard_ts_us: f64,
    shard_dur_us: f64,
    pid: u64,
    tid: u64,
    out: &mut Vec<ChromeSpan>,
) {
    let sum_us: f64 = shard
        .traces
        .iter()
        .map(|t| (t.wall_ns as f64 / 1000.0).max(0.001))
        .sum();
    let scale = if sum_us > shard_dur_us && sum_us > 0.0 {
        shard_dur_us / sum_us
    } else {
        1.0
    };
    let mut cursor = shard_ts_us;
    for t in &shard.traces {
        let dur = (t.wall_ns as f64 / 1000.0).max(0.001) * scale;
        out.push(ChromeSpan {
            name: format!("exp {}", t.index),
            cat: "experiment".to_string(),
            ts_us: cursor,
            dur_us: dur,
            pid,
            tid,
            args: serde_json::json!({
                "outcome": outcome_name(t.outcome),
                "campaign": shard.campaign as u64,
                "index": t.index as u64,
            }),
        });
        cursor += dur;
    }
}

/// Build the span tree from an ops log, attaching experiment spans from
/// `traces` where a traced shard matches a `ShardDone` event's
/// coordinates.
pub fn spans_from_ops(
    events: &[OpsEvent],
    traces: Option<&TraceStore>,
) -> Result<Vec<ChromeSpan>, OrchError> {
    let mut spans = Vec::new();
    let mut jobs: Vec<u64> = events.iter().filter_map(|e| e.job).collect();
    jobs.sort_unstable();
    jobs.dedup();
    // Stable worker → thread-track mapping across the whole log.
    let mut workers: Vec<String> = events.iter().filter_map(|e| e.worker.clone()).collect();
    workers.sort();
    workers.dedup();
    let worker_tid = |w: &Option<String>| match w
        .as_deref()
        .and_then(|w| workers.iter().position(|x| x == w))
    {
        Some(i) => i as u64 + 1,
        None => 1,
    };

    for job in jobs {
        let evs: Vec<&OpsEvent> = events.iter().filter(|e| e.job == Some(job)).collect();
        let key = evs.iter().find_map(|e| e.key.clone());
        let pid = job + 1; // pid 0 renders oddly in viewers
        let first_ms = evs.iter().map(|e| e.unix_ms).min().unwrap_or(0);
        let last_ms = evs.iter().map(|e| e.unix_ms).max().unwrap_or(first_ms);
        let submitted_ms = evs
            .iter()
            .find(|e| e.kind == OpsKind::Submitted)
            .map(|e| e.unix_ms)
            .unwrap_or(first_ms);
        let terminal_ms = evs
            .iter()
            .find(|e| matches!(e.kind, OpsKind::Completed | OpsKind::Failed))
            .map(|e| e.unix_ms)
            .unwrap_or(last_ms);
        let req_ts = submitted_ms as f64 * 1000.0;
        let req_dur = ((terminal_ms.saturating_sub(submitted_ms)) as f64 * 1000.0).max(4.0);
        spans.push(ChromeSpan {
            name: match &key {
                Some(k) => format!("request job {job} ({})", short_key(k)),
                None => format!("request job {job}"),
            },
            cat: "request".to_string(),
            ts_us: req_ts,
            dur_us: req_dur,
            pid,
            tid: 0,
            args: serde_json::json!({"job": job, "key": key.to_value()}),
        });

        let started_ms = evs
            .iter()
            .find(|e| e.kind == OpsKind::Started)
            .map(|e| e.unix_ms)
            .unwrap_or(submitted_ms);
        let merged_ms = evs
            .iter()
            .find(|e| e.kind == OpsKind::Merged)
            .map(|e| e.unix_ms)
            .unwrap_or(terminal_ms);
        // Keep the job window strictly inside the request window.
        let job_ts = (started_ms as f64 * 1000.0).max(req_ts + 1.0);
        let job_end = (merged_ms as f64 * 1000.0).min(req_ts + req_dur - 1.0);
        let job_dur = (job_end - job_ts).max(2.0);
        spans.push(ChromeSpan {
            name: format!("job {job}"),
            cat: "job".to_string(),
            ts_us: job_ts,
            dur_us: job_dur,
            pid,
            tid: 0,
            args: serde_json::json!({"job": job}),
        });

        let shards = traces
            .zip(key.as_ref())
            .map(|(store, k)| store.study(&StudyKey(k.clone())))
            .filter(|log| log.exists())
            .map(|log| log.shards())
            .transpose()?
            .unwrap_or_default();
        for ev in evs.iter().filter(|e| e.kind == OpsKind::ShardDone) {
            let (Some(c), Some(a), Some(b)) = (ev.campaign, ev.start, ev.end) else {
                continue;
            };
            let end_us = ev.unix_ms as f64 * 1000.0;
            let dur_us = (ev.wall_ns.unwrap_or(0) as f64 / 1000.0).max(1.0);
            let ts_us = end_us - dur_us;
            let tid = worker_tid(&ev.worker);
            spans.push(ChromeSpan {
                name: format!("shard {c}:{a}..{b}"),
                cat: "shard".to_string(),
                ts_us,
                dur_us,
                pid,
                tid,
                args: serde_json::json!({
                    "campaign": c, "start": a, "end": b,
                    "worker": ev.worker.to_value(),
                }),
            });
            if let Some(shard) = shards
                .iter()
                .find(|s| s.campaign as u64 == c && s.start as u64 == a && s.end as u64 == b)
            {
                experiment_spans(shard, ts_us, dur_us, pid, tid, &mut spans);
            }
        }
    }
    Ok(spans)
}

/// Build the span tree from a trace store alone (a local traced study,
/// no ops log). Timestamps are synthetic — a relative timeline from 0,
/// one process track per study — but the request → job → shard →
/// experiment nesting mirrors how the runner executed.
pub fn spans_from_traces(store: &TraceStore) -> Result<Vec<ChromeSpan>, OrchError> {
    let mut spans = Vec::new();
    for (i, key) in store.studies()?.iter().enumerate() {
        let log = store.study(key);
        if !log.exists() {
            continue;
        }
        let mut shards = log.shards()?;
        shards.sort_by_key(|s| (s.campaign, s.start));
        if shards.is_empty() {
            continue;
        }
        let pid = i as u64 + 1;
        let req_ts = 0.0;
        let job_ts = 1.0;
        let mut cursor = 2.0f64;
        let mut shard_spans = Vec::new();
        for shard in &shards {
            let dur_us: f64 = shard
                .traces
                .iter()
                .map(|t| (t.wall_ns as f64 / 1000.0).max(0.001))
                .sum::<f64>()
                .max(1.0);
            shard_spans.push(ChromeSpan {
                name: format!("shard {}:{}..{}", shard.campaign, shard.start, shard.end),
                cat: "shard".to_string(),
                ts_us: cursor,
                dur_us,
                pid,
                tid: 0,
                args: serde_json::json!({
                    "campaign": shard.campaign as u64,
                    "start": shard.start as u64,
                    "end": shard.end as u64,
                }),
            });
            experiment_spans(shard, cursor, dur_us, pid, 0, &mut spans);
            cursor += dur_us + 1.0;
        }
        let job_dur = cursor - job_ts;
        let first = &shards[0];
        spans.push(ChromeSpan {
            name: format!(
                "request {} ({} {} {})",
                short_key(&key.0),
                first.workload,
                first.isa,
                first.model
            ),
            cat: "request".to_string(),
            ts_us: req_ts,
            dur_us: job_dur + 2.0,
            pid,
            tid: 0,
            args: serde_json::json!({"key": key.0.clone()}),
        });
        spans.push(ChromeSpan {
            name: format!("job {}", short_key(&key.0)),
            cat: "job".to_string(),
            ts_us: job_ts,
            dur_us: job_dur,
            pid,
            tid: 0,
            args: serde_json::json!({"key": key.0.clone()}),
        });
        spans.extend(shard_spans);
    }
    Ok(spans)
}

/// Render spans as Chrome trace-event JSON: an object with a
/// `traceEvents` array of complete (`ph = "X"`) duration events.
pub fn render_chrome(spans: &[ChromeSpan]) -> Result<String, OrchError> {
    let events: Vec<serde_json::Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name.clone(),
                "cat": s.cat.clone(),
                "ph": "X",
                "ts": s.ts_us,
                "dur": s.dur_us,
                "pid": s.pid,
                "tid": s.tid,
                "args": s.args.clone(),
            })
        })
        .collect();
    serde_json::to_string_pretty(&serde_json::json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }))
    .map_err(|e| OrchError(format!("encode chrome trace: {e}")))
}

/// Per-layer span counts of a validated export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCounts {
    pub request: u64,
    pub job: u64,
    pub shard: u64,
    pub experiment: u64,
}

impl LayerCounts {
    /// Does every layer have at least one complete span?
    pub fn complete(&self) -> bool {
        self.request > 0 && self.job > 0 && self.shard > 0 && self.experiment > 0
    }
}

/// Re-parse an export and prove the tree: every `job` span must nest
/// (by time containment, same pid) inside a `request` span, every
/// `shard` inside a `job`, every `experiment` inside a `shard`.
/// Returns the per-layer counts on success.
pub fn validate_chrome(text: &str) -> Result<LayerCounts, String> {
    let doc: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    struct Ev {
        cat: String,
        ts: f64,
        end: f64,
        pid: u64,
    }
    let mut parsed = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| {
            ev.get(k)
                .ok_or_else(|| format!("traceEvents[{i}]: missing '{k}'"))
        };
        if field("ph")?.as_str() != Some("X") {
            return Err(format!("traceEvents[{i}]: expected complete event ph=X"));
        }
        let ts = field("ts")?
            .as_f64()
            .ok_or_else(|| format!("traceEvents[{i}]: ts not a number"))?;
        let dur = field("dur")?
            .as_f64()
            .ok_or_else(|| format!("traceEvents[{i}]: dur not a number"))?;
        parsed.push(Ev {
            cat: field("cat")?
                .as_str()
                .ok_or_else(|| format!("traceEvents[{i}]: cat not a string"))?
                .to_string(),
            ts,
            end: ts + dur,
            pid: field("pid")?
                .as_u64()
                .ok_or_else(|| format!("traceEvents[{i}]: pid not a number"))?,
        });
    }
    let mut counts = LayerCounts::default();
    for ev in &parsed {
        match ev.cat.as_str() {
            "request" => counts.request += 1,
            "job" => counts.job += 1,
            "shard" => counts.shard += 1,
            "experiment" => counts.experiment += 1,
            other => return Err(format!("unknown span layer '{other}'")),
        }
    }
    const EPS: f64 = 1e-6;
    for (child, parent) in [
        ("job", "request"),
        ("shard", "job"),
        ("experiment", "shard"),
    ] {
        for c in parsed.iter().filter(|e| e.cat == child) {
            let nested = parsed.iter().any(|p| {
                p.cat == parent && p.pid == c.pid && p.ts <= c.ts + EPS && c.end <= p.end + EPS
            });
            if !nested {
                return Err(format!(
                    "{child} span at ts={} (pid {}) nests inside no {parent} span",
                    c.ts, c.pid
                ));
            }
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{OpsEvent, OpsKind};
    use std::path::PathBuf;
    use vulfi::ExperimentTrace;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("vulfi_traceexport_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn trace(index: usize, wall_ns: u64) -> ExperimentTrace {
        ExperimentTrace {
            index,
            outcome: Outcome::Benign,
            detected: false,
            input: 0,
            injection: None,
            golden_dyn_insts: 100,
            faulty_dyn_insts: 100,
            dyn_inst_delta: 0,
            propagation: None,
            trap: None,
            wall_ns,
        }
    }

    fn shard(campaign: usize, start: usize, end: usize) -> TraceShard {
        TraceShard {
            campaign,
            start,
            end,
            workload: "W".to_string(),
            category: "pure-data".to_string(),
            isa: "avx".to_string(),
            model: "single-bit-flip".to_string(),
            traces: (start..end).map(|i| trace(i, 2000)).collect(),
        }
    }

    #[test]
    fn synthetic_export_from_traces_alone_has_all_four_layers() {
        let dir = tmpdir("synthetic");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("k1".to_string()));
        log.append_shard(&shard(0, 0, 3)).unwrap();
        log.append_shard(&shard(0, 3, 6)).unwrap();
        log.append_shard(&shard(1, 0, 3)).unwrap();

        let spans = spans_from_traces(&store).unwrap();
        let json = render_chrome(&spans).unwrap();
        let counts = validate_chrome(&json).unwrap();
        assert_eq!(counts.request, 1);
        assert_eq!(counts.job, 1);
        assert_eq!(counts.shard, 3);
        assert_eq!(counts.experiment, 9);
        assert!(counts.complete());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ops_export_nests_real_timestamps_and_attaches_experiments() {
        let dir = tmpdir("ops");
        let store = TraceStore::open(&dir).unwrap();
        store
            .study(&StudyKey("deadbeef".to_string()))
            .append_shard(&shard(0, 0, 5))
            .unwrap();

        let mk = |kind, ms: u64| {
            let mut e = OpsEvent::new(kind).job(3).key("deadbeef");
            e.unix_ms = ms;
            e
        };
        let mut done = mk(OpsKind::ShardDone, 1_500).worker("w0").shard(0, 0, 5);
        done.wall_ns = Some(400_000_000); // 400 ms shard
        let events = vec![
            mk(OpsKind::Submitted, 1_000),
            mk(OpsKind::Started, 1_050),
            mk(OpsKind::LeaseGranted, 1_060).worker("w0").shard(0, 0, 5),
            done,
            mk(OpsKind::Merged, 1_600),
            mk(OpsKind::Completed, 1_700),
        ];
        let spans = spans_from_ops(&events, Some(&store)).unwrap();
        let json = render_chrome(&spans).unwrap();
        let counts = validate_chrome(&json).unwrap();
        assert_eq!((counts.request, counts.job), (1, 1));
        assert_eq!(counts.shard, 1);
        assert_eq!(counts.experiment, 5);

        // Real clock: the request span starts at submit time in µs.
        let req = spans.iter().find(|s| s.cat == "request").unwrap();
        assert_eq!(req.ts_us, 1_000_000.0);
        // The shard lands on worker w0's thread track.
        let sh = spans.iter().find(|s| s.cat == "shard").unwrap();
        assert_eq!(sh.tid, 1);
        assert_eq!(sh.dur_us, 400_000.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ops_export_without_traces_still_yields_three_layers() {
        let mk = |kind, ms: u64| {
            let mut e = OpsEvent::new(kind).job(1).key("cafe");
            e.unix_ms = ms;
            e
        };
        let mut done = mk(OpsKind::ShardDone, 2_000).worker("w1").shard(0, 0, 4);
        done.wall_ns = Some(100_000_000);
        let events = vec![
            mk(OpsKind::Submitted, 1_000),
            mk(OpsKind::Started, 1_100),
            done,
            mk(OpsKind::Completed, 2_100),
        ];
        let spans = spans_from_ops(&events, None).unwrap();
        let json = render_chrome(&spans).unwrap();
        let counts = validate_chrome(&json).unwrap();
        assert_eq!((counts.request, counts.job, counts.shard), (1, 1, 1));
        assert_eq!(counts.experiment, 0);
        assert!(!counts.complete(), "no trace store, no experiment layer");
    }

    #[test]
    fn oversubscribed_experiments_are_compressed_into_their_shard() {
        // Experiments totalling 10 ms inside a 1 ms shard window must
        // scale down, not spill out.
        let mut s = shard(0, 0, 5);
        for t in &mut s.traces {
            t.wall_ns = 2_000_000;
        }
        let mut spans = vec![ChromeSpan {
            name: "shard 0:0..5".to_string(),
            cat: "shard".to_string(),
            ts_us: 100.0,
            dur_us: 1000.0,
            pid: 1,
            tid: 0,
            args: serde_json::json!({}),
        }];
        experiment_spans(&s, 100.0, 1000.0, 1, 0, &mut spans);
        // Wrap in request/job so validation passes.
        for (cat, ts, dur) in [("request", 0.0, 2000.0), ("job", 50.0, 1900.0)] {
            spans.push(ChromeSpan {
                name: cat.to_string(),
                cat: cat.to_string(),
                ts_us: ts,
                dur_us: dur,
                pid: 1,
                tid: 0,
                args: serde_json::json!({}),
            });
        }
        let counts = validate_chrome(&render_chrome(&spans).unwrap()).unwrap();
        assert_eq!(counts.experiment, 5);
    }

    #[test]
    fn validator_rejects_broken_nesting_and_garbage() {
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{}").is_err());
        // A shard with no containing job span fails containment.
        let orphan = render_chrome(&[ChromeSpan {
            name: "shard".to_string(),
            cat: "shard".to_string(),
            ts_us: 0.0,
            dur_us: 10.0,
            pid: 1,
            tid: 0,
            args: serde_json::json!({}),
        }])
        .unwrap();
        let err = validate_chrome(&orphan).unwrap_err();
        assert!(err.contains("nests inside no job"), "{err}");
    }
}

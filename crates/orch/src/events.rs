//! Operational event log for the injection service.
//!
//! Where the job queue (`queue.rs`) is the *authoritative* state machine
//! the daemon folds its job table from, the ops log is the *narrative*:
//! one append-only, CRC-checksummed JSONL stream
//! (`<store>/events/ops.jsonl`, sharing the [`CheckedLog`] machinery
//! with the shard, trace, and queue logs) recording everything the
//! service did and when — job lifecycle, shard starts, per-shard
//! durations, merges, fsck actions, engine faults. Every event carries
//! its correlation IDs (job id, study key, worker id, shard range) so
//! the full submit → start → shards → merge lifecycle of any job can be
//! reconstructed from the log alone (`vulfi events summarize`), long
//! after the daemon and its TTY output are gone.
//!
//! The log is observability, not state: nothing replays it to make
//! decisions, so a quarantined ops log never blocks a study. It heals
//! torn tails on open like every other `CheckedLog`, and `vulfi fsck`
//! checks and repairs it with the other logs under the store.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::store::CheckedLog;
use crate::OrchError;

/// What happened. Unit variants only — everything else is correlation
/// payload on [`OpsEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OpsKind {
    /// A study was submitted (job + key + tenant in `detail`).
    Submitted,
    /// The daemon promoted the job to the active study.
    Started,
    /// A runner thread started a shard range. The name predates the
    /// single runner and stays so that old and new logs decode alike.
    LeaseGranted,
    /// A dead daemon's job went back to the queue.
    Requeued,
    /// A runner thread durably appended one executed shard (`wall_ns` is
    /// the shard's execution time).
    ShardDone,
    /// All shards landed and merged into the study result.
    Merged,
    Completed,
    Failed,
    /// An fsck pass ran (`detail` says what it found/repaired).
    Fsck,
    /// An engine panic was absorbed during this study.
    EngineFault,
    /// Legacy, decode-only: an alert rule started firing. Daemons that
    /// ran an alert engine logged it; nothing emits it now. It stays so
    /// that their ops logs still decode and pass `vulfi fsck`.
    AlertFiring,
    /// Legacy, decode-only: a firing alert rule resolved. Nothing emits
    /// it now; kept for the same reason as [`OpsKind::AlertFiring`].
    AlertResolved,
}

impl OpsKind {
    pub fn name(&self) -> &'static str {
        match self {
            OpsKind::Submitted => "submitted",
            OpsKind::Started => "started",
            OpsKind::LeaseGranted => "lease-granted",
            OpsKind::Requeued => "requeued",
            OpsKind::ShardDone => "shard-done",
            OpsKind::Merged => "merged",
            OpsKind::Completed => "completed",
            OpsKind::Failed => "failed",
            OpsKind::Fsck => "fsck",
            OpsKind::EngineFault => "engine-fault",
            OpsKind::AlertFiring => "alert-firing",
            OpsKind::AlertResolved => "alert-resolved",
        }
    }
}

/// One checksummed line of the ops log. Correlation fields are optional
/// because not every event has every coordinate; an event carries all
/// the IDs known at its emit site.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OpsEvent {
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    pub kind: OpsKind,
    /// Queue job id.
    pub job: Option<u64>,
    /// Content-addressed study key.
    pub key: Option<String>,
    /// Worker id (`w0`, `w1`, …) within its daemon.
    pub worker: Option<String>,
    /// Shard coordinates (`ShardDone` / `LeaseGranted`).
    pub campaign: Option<u64>,
    pub start: Option<u64>,
    pub end: Option<u64>,
    /// Event duration where one is meaningful: shard execution time on
    /// `ShardDone`, queue wait on `Started`.
    pub wall_ns: Option<u64>,
    /// Free-form context (tenant, error text, fsck findings).
    pub detail: Option<String>,
}

impl OpsEvent {
    pub fn new(kind: OpsKind) -> OpsEvent {
        OpsEvent {
            unix_ms: now_unix_ms(),
            kind,
            job: None,
            key: None,
            worker: None,
            campaign: None,
            start: None,
            end: None,
            wall_ns: None,
            detail: None,
        }
    }

    pub fn job(mut self, id: u64) -> OpsEvent {
        self.job = Some(id);
        self
    }

    pub fn key(mut self, key: &str) -> OpsEvent {
        self.key = Some(key.to_string());
        self
    }

    pub fn worker(mut self, worker: &str) -> OpsEvent {
        self.worker = Some(worker.to_string());
        self
    }

    pub fn shard(mut self, campaign: u64, start: u64, end: u64) -> OpsEvent {
        self.campaign = Some(campaign);
        self.start = Some(start);
        self.end = Some(end);
        self
    }

    pub fn wall_ns(mut self, ns: u64) -> OpsEvent {
        self.wall_ns = Some(ns);
        self
    }

    pub fn detail(mut self, detail: impl Into<String>) -> OpsEvent {
        self.detail = Some(detail.into());
        self
    }

    /// One human-readable line (for `vulfi events tail`).
    pub fn render_line(&self) -> String {
        let mut s = format!("{:>13}  {:13}", self.unix_ms, self.kind.name());
        if let Some(j) = self.job {
            s.push_str(&format!("  job {j}"));
        }
        if let Some(k) = &self.key {
            s.push_str(&format!("  {}", &k[..12.min(k.len())]));
        }
        if let Some(w) = &self.worker {
            s.push_str(&format!("  {w}"));
        }
        if let (Some(c), Some(a), Some(b)) = (self.campaign, self.start, self.end) {
            s.push_str(&format!("  shard {c}:{a}..{b}"));
        }
        if let Some(ns) = self.wall_ns {
            s.push_str(&format!("  {:.2}ms", ns as f64 / 1e6));
        }
        if let Some(d) = &self.detail {
            s.push_str(&format!("  ({d})"));
        }
        s
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is
/// before it); the timestamp of every ops and queue event.
pub(crate) fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The ops log's checked log under `store_root`; nothing is created.
pub(crate) fn checked_log(store_root: &Path) -> CheckedLog {
    let dir = store_root.join("events");
    CheckedLog::new(dir.join("ops.jsonl"), dir.join("ops.quarantine"))
}

/// The operational event log, layered on a store directory.
pub struct OpsLog {
    log: CheckedLog,
}

impl OpsLog {
    /// Open the ops log under `store_root/events` (created on the first
    /// append), healing a torn tail left by a killed daemon.
    pub fn open(store_root: impl AsRef<Path>) -> Result<OpsLog, OrchError> {
        let log = OpsLog {
            log: checked_log(store_root.as_ref()),
        };
        // Mid-file corruption must not make the log unopenable — the
        // daemon still has to start. Reads stay loud and point at
        // `vulfi fsck --repair`.
        let _ = log.log.heal::<OpsEvent>();
        Ok(log)
    }

    pub fn path(&self) -> PathBuf {
        self.log.path().to_path_buf()
    }

    /// Durably append one event.
    pub fn append(&self, ev: OpsEvent) -> Result<(), OrchError> {
        self.log.append(&ev)
    }

    /// Every event, oldest first.
    pub fn events(&self) -> Result<Vec<OpsEvent>, OrchError> {
        self.log.records()
    }

    /// The most recent `n` events, oldest of them first.
    pub fn tail(&self, n: usize) -> Result<Vec<OpsEvent>, OrchError> {
        let mut evs = self.events()?;
        let skip = evs.len().saturating_sub(n);
        Ok(evs.split_off(skip))
    }

    /// Fold the log into per-job lifecycles.
    pub fn summarize(&self) -> Result<OpsSummary, OrchError> {
        Ok(summarize_events(&self.events()?))
    }
}

/// Reconstructed lifecycle of one job, folded from the ops log alone.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobLifecycle {
    pub job: u64,
    pub key: Option<String>,
    /// Tenant, when the submit event carried one.
    pub tenant: Option<String>,
    pub submitted_unix_ms: u64,
    /// Queue wait (submit → start), when both events are present.
    pub queue_wait_ms: Option<u64>,
    pub leases: u64,
    pub requeues: u64,
    pub shards: u64,
    /// Experiments covered by this job's `ShardDone` events.
    pub experiments: u64,
    /// Total shard execution time (sum of `ShardDone.wall_ns`).
    pub shard_wall_ns: u64,
    /// Distinct workers that executed shards for this job.
    pub workers: Vec<String>,
    pub engine_faults: u64,
    pub merged: bool,
    /// Terminal state as told by the log: "completed", "failed", or
    /// "in-flight" when no terminal event has landed (yet).
    pub outcome: String,
    pub error: Option<String>,
    pub finished_unix_ms: Option<u64>,
}

/// Whole-log rollup.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OpsSummary {
    pub events: u64,
    pub jobs: Vec<JobLifecycle>,
    /// Fsck events are store-wide, not per-job.
    pub fsck_actions: u64,
}

/// Pure fold: the summary is a function of the event list, nothing else.
pub fn summarize_events(events: &[OpsEvent]) -> OpsSummary {
    let mut jobs: Vec<JobLifecycle> = Vec::new();
    let mut fsck_actions = 0u64;
    for ev in events {
        if ev.kind == OpsKind::Fsck {
            fsck_actions += 1;
            continue;
        }
        let Some(id) = ev.job else { continue };
        let job = match jobs.iter_mut().find(|j| j.job == id) {
            Some(j) => j,
            None => {
                jobs.push(JobLifecycle {
                    job: id,
                    key: None,
                    tenant: None,
                    submitted_unix_ms: ev.unix_ms,
                    queue_wait_ms: None,
                    leases: 0,
                    requeues: 0,
                    shards: 0,
                    experiments: 0,
                    shard_wall_ns: 0,
                    workers: Vec::new(),
                    engine_faults: 0,
                    merged: false,
                    outcome: "in-flight".to_string(),
                    error: None,
                    finished_unix_ms: None,
                });
                jobs.last_mut().expect("just pushed")
            }
        };
        if job.key.is_none() {
            job.key = ev.key.clone();
        }
        match ev.kind {
            OpsKind::Submitted => {
                job.submitted_unix_ms = ev.unix_ms;
                job.tenant = ev.detail.clone();
            }
            OpsKind::Started => {
                job.queue_wait_ms = Some(ev.unix_ms.saturating_sub(job.submitted_unix_ms));
            }
            OpsKind::LeaseGranted => job.leases += 1,
            OpsKind::Requeued => job.requeues += 1,
            OpsKind::ShardDone => {
                job.shards += 1;
                if let (Some(s), Some(e)) = (ev.start, ev.end) {
                    job.experiments += e.saturating_sub(s);
                }
                job.shard_wall_ns += ev.wall_ns.unwrap_or(0);
                if let Some(w) = &ev.worker {
                    if !job.workers.contains(w) {
                        job.workers.push(w.clone());
                    }
                }
            }
            OpsKind::Merged => job.merged = true,
            OpsKind::Completed => {
                job.outcome = "completed".to_string();
                job.finished_unix_ms = Some(ev.unix_ms);
            }
            OpsKind::Failed => {
                job.outcome = "failed".to_string();
                job.error = ev.detail.clone();
                job.finished_unix_ms = Some(ev.unix_ms);
            }
            OpsKind::EngineFault => job.engine_faults += 1,
            OpsKind::Fsck => unreachable!("handled above"),
            // Legacy store-wide events; they never carried a job.
            OpsKind::AlertFiring | OpsKind::AlertResolved => {}
        }
    }
    OpsSummary {
        events: events.len() as u64,
        jobs,
        fsck_actions,
    }
}

impl OpsSummary {
    /// Distinct workers across every job.
    pub fn workers(&self) -> Vec<String> {
        let set: BTreeSet<&String> = self.jobs.iter().flat_map(|j| &j.workers).collect();
        set.into_iter().cloned().collect()
    }
}

impl JobLifecycle {
    /// Multi-line human rendering of one lifecycle.
    pub fn render(&self) -> String {
        let key = self
            .key
            .as_deref()
            .map(|k| k[..12.min(k.len())].to_string())
            .unwrap_or_else(|| "?".to_string());
        let wait = match self.queue_wait_ms {
            Some(ms) => format!("{ms}ms"),
            None => "?".to_string(),
        };
        let mut s = format!(
            "job {:>3}  {}  {}  queue-wait {}  {} lease(s), {} shard(s) / {} experiment(s) \
             on {} worker(s), {:.1}ms shard time",
            self.job,
            key,
            self.outcome,
            wait,
            self.leases,
            self.shards,
            self.experiments,
            self.workers.len(),
            self.shard_wall_ns as f64 / 1e6,
        );
        if self.merged {
            s.push_str(", merged");
        }
        if self.requeues > 0 {
            s.push_str(&format!(", {} requeue(s)", self.requeues));
        }
        if self.engine_faults > 0 {
            s.push_str(&format!(", {} engine fault(s)", self.engine_faults));
        }
        if let Some(e) = &self.error {
            s.push_str(&format!("\n         error: {e}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vulfi_ops_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn full_lifecycle(log: &OpsLog) {
        log.append(
            OpsEvent::new(OpsKind::Submitted)
                .job(1)
                .key("deadbeef")
                .detail("alice"),
        )
        .unwrap();
        log.append(OpsEvent::new(OpsKind::Started).job(1).key("deadbeef"))
            .unwrap();
        for (i, w) in ["w0", "w1", "w0"].iter().enumerate() {
            log.append(
                OpsEvent::new(OpsKind::LeaseGranted)
                    .job(1)
                    .key("deadbeef")
                    .worker(w)
                    .shard(0, i as u64 * 5, (i as u64 + 1) * 5),
            )
            .unwrap();
            log.append(
                OpsEvent::new(OpsKind::ShardDone)
                    .job(1)
                    .key("deadbeef")
                    .worker(w)
                    .shard(0, i as u64 * 5, (i as u64 + 1) * 5)
                    .wall_ns(1_000_000),
            )
            .unwrap();
        }
        log.append(OpsEvent::new(OpsKind::Merged).job(1).key("deadbeef"))
            .unwrap();
        log.append(OpsEvent::new(OpsKind::Completed).job(1).key("deadbeef"))
            .unwrap();
    }

    #[test]
    fn summarize_reconstructs_the_full_lifecycle() {
        let root = temp_root("lifecycle");
        let log = OpsLog::open(&root).unwrap();
        full_lifecycle(&log);

        let s = log.summarize().unwrap();
        assert_eq!(s.events, 10);
        assert_eq!(s.jobs.len(), 1);
        let j = &s.jobs[0];
        assert_eq!(j.job, 1);
        assert_eq!(j.key.as_deref(), Some("deadbeef"));
        assert_eq!(j.tenant.as_deref(), Some("alice"));
        assert!(j.queue_wait_ms.is_some(), "submit → start wait known");
        assert_eq!((j.leases, j.shards, j.experiments), (3, 3, 15));
        assert_eq!(j.shard_wall_ns, 3_000_000);
        assert_eq!(j.workers, vec!["w0".to_string(), "w1".to_string()]);
        assert!(j.merged);
        assert_eq!(j.outcome, "completed");
        assert!(j.finished_unix_ms.is_some());
        assert_eq!(s.workers(), vec!["w0".to_string(), "w1".to_string()]);

        let line = j.render();
        assert!(line.contains("3 shard(s) / 15 experiment(s)"), "{line}");
        assert!(line.contains("merged"), "{line}");
    }

    #[test]
    fn tail_returns_most_recent_events() {
        let root = temp_root("tail");
        let log = OpsLog::open(&root).unwrap();
        full_lifecycle(&log);
        let t = log.tail(2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].kind, OpsKind::Merged);
        assert_eq!(t[1].kind, OpsKind::Completed);
        assert!(t[1].render_line().contains("completed"));
        // Asking for more than exists returns everything.
        assert_eq!(log.tail(1000).unwrap().len(), 10);
    }

    #[test]
    fn failed_job_and_fsck_actions_are_summarized() {
        let root = temp_root("failed");
        let log = OpsLog::open(&root).unwrap();
        log.append(OpsEvent::new(OpsKind::Submitted).job(7).key("cafe"))
            .unwrap();
        log.append(
            OpsEvent::new(OpsKind::Failed)
                .job(7)
                .key("cafe")
                .detail("boom"),
        )
        .unwrap();
        log.append(OpsEvent::new(OpsKind::Fsck).detail("quarantined 1 log"))
            .unwrap();
        log.append(OpsEvent::new(OpsKind::EngineFault).job(7).detail("panic"))
            .unwrap();
        // Legacy alert events decode and belong to no job.
        log.append(OpsEvent::new(OpsKind::AlertFiring).detail("high-sdc value 9.1"))
            .unwrap();
        log.append(OpsEvent::new(OpsKind::AlertResolved).detail("high-sdc value 1.2"))
            .unwrap();
        let s = log.summarize().unwrap();
        assert_eq!(s.events, 6);
        assert_eq!(s.fsck_actions, 1);
        assert_eq!(s.jobs.len(), 1);
        let j = &s.jobs[0];
        assert_eq!(j.outcome, "failed");
        assert_eq!(j.error.as_deref(), Some("boom"));
        assert_eq!(j.engine_faults, 1);
        assert!(j.render().contains("error: boom"));
    }

    #[test]
    fn torn_tail_is_healed_on_open_and_fsck_reports_corruption() {
        let root = temp_root("torn");
        let path = {
            let log = OpsLog::open(&root).unwrap();
            full_lifecycle(&log);
            log.path()
        };
        // Killed writer: half a trailing line vanishes on reopen.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"unix_ms\":1,\"kind\":\"Shar");
        std::fs::write(&path, &bytes).unwrap();
        let log = OpsLog::open(&root).unwrap();
        assert_eq!(log.events().unwrap().len(), 10);

        // Mid-file corruption: loud until repaired, then salvaged.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = log.events().unwrap_err();
        assert!(err.0.contains("vulfi fsck"), "{err}");
        let report = crate::Store::open(&root).unwrap().fsck(true).unwrap();
        assert!(report
            .studies
            .iter()
            .any(|s| s.key.0 == "ops" && s.quarantined.is_some()));
        assert!(log.events().unwrap().len() < 10, "corrupt line dropped");
    }
}

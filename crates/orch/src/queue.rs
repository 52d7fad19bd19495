//! Persistent job queue for the injection service, layered on the store
//! directory.
//!
//! The queue is an append-only event log (`<store>/queue/events.jsonl`)
//! sharing the CRC'd [`CheckedLog`](crate::store) machinery with the
//! shard and trace stores: every state change appends one checksummed
//! line, the current job table is a pure fold over the log (replayed
//! once on open, then advanced by each append), and a torn trailing line
//! (killed daemon) is healed on open exactly like a torn shard. Nothing
//! is ever rewritten in place, so a queue that survived a `kill -9`
//! replays to exactly the state its last completed append described.
//! Mid-file corruption makes [`JobQueue::open`] refuse the store; `vulfi
//! fsck --repair` ([`crate::Store::fsck`]) quarantines the log to
//! `queue/events.quarantine/` and salvages the intact events.
//!
//! Recovery contract: a job observed in `Running` state at daemon
//! startup was owned by a dead incarnation; [`JobQueue::recover`]
//! re-queues it. This is always safe — shards the dead daemon persisted
//! are reused via the content-addressed store, and the deterministic
//! scheduler re-runs only what is missing.

use std::path::{Path, PathBuf};

use vulfi::StudySpec;

use crate::events::now_unix_ms;
use crate::store::CheckedLog;
use crate::OrchError;

/// Lifecycle states of a submitted study job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobState {
    /// Waiting for workers.
    Queued,
    /// Workers are executing (or a dead daemon never finished — see
    /// [`JobQueue::recover`]).
    Running,
    Completed,
    Failed,
}

impl JobState {
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }
}

/// One checksummed line of the queue log.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct QueueEvent {
    job: u64,
    kind: EventKind,
    /// Full spec (on `Submitted` events only).
    spec: Option<StudySpec>,
    /// Content-addressed study key (on `Started` events, once the
    /// worker has compiled the workload and derived it).
    key: Option<String>,
    /// Failure reason (on `Failed` events).
    error: Option<String>,
    /// Submitting tenant (on `Submitted` events; informational).
    tenant: Option<String>,
    /// Wall-clock milliseconds since the Unix epoch (informational).
    unix_ms: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
enum EventKind {
    Submitted,
    Started,
    Completed,
    Failed,
    /// A dead daemon's `Running` job pushed back to `Queued`.
    Requeued,
}

/// Folded view of one job.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobRecord {
    pub id: u64,
    pub spec: StudySpec,
    pub state: JobState,
    /// Known once a worker has started (and on completed/failed jobs).
    pub key: Option<String>,
    pub error: Option<String>,
    pub tenant: Option<String>,
    pub submitted_unix_ms: u64,
    pub updated_unix_ms: u64,
}

/// The queue's checked log under `store_root`; nothing is created.
pub(crate) fn checked_log(store_root: &Path) -> CheckedLog {
    let dir = store_root.join("queue");
    CheckedLog::new(dir.join("events.jsonl"), dir.join("events.quarantine"))
}

/// The persistent queue: the log plus its folded job table. Every
/// mutation is one durable append, folded into the table only once it is
/// durable; every read is served from the table, so a status poll costs
/// no log replay however long the log grows. Callers serialize access
/// (the daemon holds it under a mutex).
pub struct JobQueue {
    log: CheckedLog,
    /// The fold of every event in `log`, in submission order.
    jobs: Vec<JobRecord>,
}

impl JobQueue {
    /// Open the queue under `store_root/queue` (created on the first
    /// append), healing a torn tail left by a killed daemon, and fold the
    /// log into the job table. A corrupt log is refused; `vulfi fsck
    /// --repair` heals it.
    pub fn open(store_root: impl AsRef<Path>) -> Result<JobQueue, OrchError> {
        let log = checked_log(store_root.as_ref());
        let mut jobs = Vec::new();
        for ev in log.heal::<QueueEvent>()?.0 {
            fold(&mut jobs, ev);
        }
        Ok(JobQueue { log, jobs })
    }

    pub fn path(&self) -> PathBuf {
        self.log.path().to_path_buf()
    }

    /// Durably enqueue `spec` under its content-addressed study key;
    /// returns the new job id.
    pub fn submit(
        &mut self,
        spec: &StudySpec,
        key: &str,
        tenant: Option<&str>,
    ) -> Result<u64, OrchError> {
        let id = self.next_id();
        self.append(QueueEvent {
            job: id,
            kind: EventKind::Submitted,
            spec: Some(spec.clone()),
            key: Some(key.to_string()),
            error: None,
            tenant: tenant.map(str::to_string),
            unix_ms: now_unix_ms(),
        })?;
        Ok(id)
    }

    /// A worker began executing `job` under the given study key.
    pub fn started(&mut self, job: u64, key: &str) -> Result<(), OrchError> {
        self.append_kind(job, EventKind::Started, Some(key.to_string()), None)
    }

    pub fn completed(&mut self, job: u64) -> Result<(), OrchError> {
        self.append_kind(job, EventKind::Completed, None, None)
    }

    pub fn failed(&mut self, job: u64, error: &str) -> Result<(), OrchError> {
        self.append_kind(job, EventKind::Failed, None, Some(error.to_string()))
    }

    /// Re-queue every `Running` job (dead-daemon recovery). Returns the
    /// ids pushed back to `Queued`.
    pub fn recover(&mut self) -> Result<Vec<u64>, OrchError> {
        let orphans: Vec<u64> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect();
        for &id in &orphans {
            self.append_kind(id, EventKind::Requeued, None, None)?;
        }
        Ok(orphans)
    }

    /// The folded job table, in submission order.
    pub fn jobs(&self) -> Result<Vec<JobRecord>, OrchError> {
        Ok(self.jobs.clone())
    }

    /// The latest job submitted under study `key`: the same key can be
    /// submitted repeatedly, and the newest submission wins.
    pub fn latest_for_key(&self, key: &str) -> Option<&JobRecord> {
        self.jobs
            .iter()
            .rev()
            .find(|j| j.key.as_deref() == Some(key))
    }

    /// Oldest queued job, if any.
    pub fn next_queued(&self) -> Result<Option<JobRecord>, OrchError> {
        Ok(self
            .jobs
            .iter()
            .find(|j| j.state == JobState::Queued)
            .cloned())
    }

    fn next_id(&self) -> u64 {
        self.jobs.iter().map(|j| j.id + 1).max().unwrap_or(1)
    }

    fn append_kind(
        &mut self,
        job: u64,
        kind: EventKind,
        key: Option<String>,
        error: Option<String>,
    ) -> Result<(), OrchError> {
        self.append(QueueEvent {
            job,
            kind,
            spec: None,
            key,
            error,
            tenant: None,
            unix_ms: now_unix_ms(),
        })
    }

    fn append(&mut self, ev: QueueEvent) -> Result<(), OrchError> {
        self.log.append(&ev)?;
        fold(&mut self.jobs, ev);
        Ok(())
    }
}

/// The fold step: apply one event to the job table. Events for an
/// unknown job, and submissions without a spec, change nothing.
fn fold(jobs: &mut Vec<JobRecord>, ev: QueueEvent) {
    if ev.kind == EventKind::Submitted {
        if let Some(spec) = ev.spec {
            jobs.push(JobRecord {
                id: ev.job,
                spec,
                state: JobState::Queued,
                key: ev.key,
                error: None,
                tenant: ev.tenant,
                submitted_unix_ms: ev.unix_ms,
                updated_unix_ms: ev.unix_ms,
            });
        }
        return;
    }
    let Some(job) = jobs.iter_mut().find(|j| j.id == ev.job) else {
        return;
    };
    job.updated_unix_ms = ev.unix_ms;
    match ev.kind {
        EventKind::Started => {
            job.state = JobState::Running;
            if ev.key.is_some() {
                job.key = ev.key;
            }
        }
        EventKind::Completed => job.state = JobState::Completed,
        EventKind::Failed => {
            job.state = JobState::Failed;
            job.error = ev.error;
        }
        EventKind::Requeued => job.state = JobState::Queued,
        EventKind::Submitted => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vulfi_queue_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(bench: &str) -> StudySpec {
        StudySpec {
            bench: bench.to_string(),
            ..StudySpec::default()
        }
    }

    #[test]
    fn submit_run_complete_lifecycle() {
        let root = temp_root("lifecycle");
        let mut q = JobQueue::open(&root).unwrap();
        assert!(q.jobs().unwrap().is_empty());
        assert!(q.next_queued().unwrap().is_none());

        let a = q
            .submit(&spec("vector sum"), "aaaa", Some("alice"))
            .unwrap();
        let b = q.submit(&spec("dot product"), "bbbb", Some("bob")).unwrap();
        assert_ne!(a, b);
        assert_eq!(q.next_queued().unwrap().unwrap().id, a, "FIFO");

        q.started(a, "deadbeef").unwrap();
        assert_eq!(q.next_queued().unwrap().unwrap().id, b);
        q.completed(a).unwrap();
        q.started(b, "cafef00d").unwrap();
        q.failed(b, "boom").unwrap();

        let jobs = q.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].state, JobState::Completed);
        assert_eq!(jobs[0].key.as_deref(), Some("deadbeef"));
        assert_eq!(jobs[0].tenant.as_deref(), Some("alice"));
        assert_eq!(jobs[1].state, JobState::Failed);
        assert_eq!(jobs[1].error.as_deref(), Some("boom"));

        let again = q.submit(&spec("vector sum"), "deadbeef", None).unwrap();
        assert_eq!(q.latest_for_key("deadbeef").unwrap().id, again);
        assert_eq!(q.latest_for_key("cafef00d").unwrap().id, b);
        assert!(q.latest_for_key("missing").is_none());
    }

    #[test]
    fn queue_survives_reopen_and_recovers_orphans() {
        let root = temp_root("reopen");
        let id = {
            let mut q = JobQueue::open(&root).unwrap();
            let id = q.submit(&spec("vector sum"), "deadbeef", None).unwrap();
            q.started(id, "deadbeef").unwrap();
            id
        };
        // "Daemon restart": the running job must be re-queued, with its
        // spec intact.
        let mut q = JobQueue::open(&root).unwrap();
        assert_eq!(q.recover().unwrap(), vec![id]);
        let job = q.next_queued().unwrap().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(job.spec.bench, "vector sum");
        // Ids keep advancing after a reopen.
        let next = q.submit(&spec("dot product"), "cafef00d", None).unwrap();
        assert!(next > id);
        // Recovery is idempotent: nothing running now.
        assert!(q.recover().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_healed_on_open() {
        let root = temp_root("torn");
        let path = {
            let mut q = JobQueue::open(&root).unwrap();
            q.submit(&spec("vector sum"), "deadbeef", None).unwrap();
            q.path()
        };
        // Simulate a killed writer: append half a line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"job\":2,\"kind\":\"Subm");
        std::fs::write(&path, &bytes).unwrap();

        let q = JobQueue::open(&root).unwrap();
        let jobs = q.jobs().unwrap();
        assert_eq!(jobs.len(), 1, "torn event dropped, intact one kept");
        assert_eq!(jobs[0].spec.bench, "vector sum");
    }

    #[test]
    fn corrupt_log_is_refused_until_store_fsck_repairs_it() {
        let root = temp_root("corrupt");
        let path = {
            let mut q = JobQueue::open(&root).unwrap();
            q.submit(&spec("vector sum"), "aaaa", None).unwrap();
            q.submit(&spec("dot product"), "bbbb", None).unwrap();
            q.path()
        };
        // Flip one byte in the FIRST record's JSON body.
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes.iter().position(|b| *b == b'"').unwrap();
        bytes[pos + 1] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();

        let err = JobQueue::open(&root)
            .err()
            .expect("corrupt queue must be refused");
        assert!(err.0.contains("vulfi fsck --repair"), "{err}");

        let store = crate::Store::open(&root).unwrap();
        let queue_row = |r: &crate::FsckReport| {
            r.studies
                .iter()
                .find(|s| s.key.0 == "queue")
                .cloned()
                .expect("fsck reports the queue log")
        };
        assert!(queue_row(&store.fsck(false).unwrap()).needs_repair());
        let repaired = queue_row(&store.fsck(true).unwrap());
        assert_eq!(
            repaired.quarantined.as_deref(),
            Some(
                root.join("queue/events.quarantine/events.0.jsonl")
                    .as_path()
            )
        );

        // The surviving job replays from the salvaged log.
        let jobs = JobQueue::open(&root).unwrap().jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].spec.bench, "dot product");
        assert!(!store.fsck(false).unwrap().dirty());
    }
}

//! Persistent trace shards: per-experiment spans written next to the
//! result store, with the *same* crash-tolerance contract.
//!
//! Layout under the trace root (a sibling of the result store, chosen
//! by `vulfi study --trace <dir>`):
//!
//! ```text
//! <trace-root>/<study-key>/
//!   traces.jsonl        # one checksummed JSON line per traced shard
//!   traces.quarantine/  # corrupt logs moved aside by fsck --repair
//! ```
//!
//! Every line is a [`TraceShard`] in the store's checksummed format
//! (`{json}\tcrc32=xxxxxxxx`, leading-newline appends, torn-tail
//! recovery, fsck quarantine + salvage) via the shared
//! [`CheckedLog`](crate::store) engine — a kill tears at most the
//! in-flight line, a flipped byte is detected rather than summarized,
//! and `vulfi fsck --repair` salvages every intact record.
//!
//! Shards are **self-describing** (workload, category, ISA, model), so
//! the reports need only the trace root. `load_spans` is their one
//! reader: every experiment's span exactly once, re-executed shards
//! deduplicated last-write-wins. Only the Chrome export reads shards
//! itself: its timeline shows a re-executed shard twice, as it ran.

use std::fs;
use std::path::{Path, PathBuf};

use std::collections::BTreeMap;

use vulfi::ExperimentTrace;

use crate::key::StudyKey;
use crate::store::{CheckedLog, FsckReport, StudyFsck};
use crate::OrchError;

/// One traced shard: the spans of a contiguous run of experiments of
/// one campaign, plus enough study identity to be read standalone.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceShard {
    pub campaign: usize,
    /// Experiment index range `[start, end)` within the campaign.
    pub start: usize,
    pub end: usize,
    pub workload: String,
    /// §II-C category the study injected (`pure-data`/`control`/`address`).
    pub category: String,
    pub isa: String,
    /// Fault model the study injected (full parameterized name, e.g.
    /// `multi-bit-burst:2`).
    pub model: String,
    pub traces: Vec<ExperimentTrace>,
}

// Manual serde: trace logs written before the fault model existed have
// no `model` key; read them as single-bit-flip instead of erroring.
impl serde::Serialize for TraceShard {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("campaign".to_string(), self.campaign.to_value()),
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("category".to_string(), self.category.to_value()),
            ("isa".to_string(), self.isa.to_value()),
            ("model".to_string(), self.model.to_value()),
            ("traces".to_string(), self.traces.to_value()),
        ])
    }
}

impl serde::Deserialize for TraceShard {
    fn from_value(v: &serde::Value) -> Result<TraceShard, serde::DeError> {
        Ok(TraceShard {
            campaign: serde::field(v, "campaign")?,
            start: serde::field(v, "start")?,
            end: serde::field(v, "end")?,
            workload: serde::field(v, "workload")?,
            category: serde::field(v, "category")?,
            isa: serde::field(v, "isa")?,
            model: match v.get("model") {
                Some(m) => String::from_value(m)?,
                None => vulfi::FaultModel::default().name(),
            },
            traces: serde::field(v, "traces")?,
        })
    }
}

/// A directory of per-study trace logs.
pub struct TraceStore {
    root: PathBuf,
}

impl TraceStore {
    /// Open (creating if needed) a trace store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<TraceStore, OrchError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| OrchError(format!("create trace store {}: {e}", root.display())))?;
        Ok(TraceStore { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn study(&self, key: &StudyKey) -> TraceLog {
        TraceLog {
            dir: self.root.join(&key.0),
        }
    }

    /// Keys of every study directory holding a trace log (or the
    /// quarantined remains of one).
    pub fn studies(&self) -> Result<Vec<StudyKey>, OrchError> {
        let mut keys = Vec::new();
        let entries = fs::read_dir(&self.root)
            .map_err(|e| OrchError(format!("read trace store {}: {e}", self.root.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| OrchError(format!("read trace store entry: {e}")))?;
            let p = entry.path();
            if p.join("traces.jsonl").is_file() || p.join("traces.quarantine").is_dir() {
                keys.push(StudyKey(entry.file_name().to_string_lossy().into_owned()));
            }
        }
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keys)
    }

    /// Check (and with `repair`, heal) every study's trace log.
    pub fn fsck(&self, repair: bool) -> Result<FsckReport, OrchError> {
        let mut report = FsckReport::default();
        for key in self.studies()? {
            report.studies.push(self.study(&key).fsck(repair)?);
        }
        Ok(report)
    }
}

/// One study's trace log.
pub struct TraceLog {
    dir: PathBuf,
}

impl TraceLog {
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn log(&self) -> CheckedLog {
        CheckedLog::new(
            self.dir.join("traces.jsonl"),
            self.dir.join("traces.quarantine"),
        )
    }

    pub fn exists(&self) -> bool {
        self.dir.join("traces.jsonl").is_file()
    }

    /// Append one traced shard as a single checksummed JSONL line (see
    /// `CheckedLog::append` for the crash-safety contract).
    pub fn append_shard(&self, shard: &TraceShard) -> Result<(), OrchError> {
        self.log().append(shard)
    }

    /// All fully-written trace shards. A torn trailing line is skipped;
    /// earlier corruption is an error pointing at `vulfi fsck` —
    /// a summary computed over silently-dropped spans would be skewed
    /// without a trace.
    pub fn shards(&self) -> Result<Vec<TraceShard>, OrchError> {
        self.log().records()
    }

    /// Heal a torn trailing line left by a killed writer; called by the
    /// runner on every resumed traced study.
    pub fn trim_torn_tail(&self) -> Result<bool, OrchError> {
        self.log().heal::<TraceShard>().map(|(_, trimmed)| trimmed)
    }

    /// Check this study's trace log; with `repair`, quarantine a
    /// damaged log and salvage every checksum-valid shard. Unlike the
    /// result store there is no manifest to invalidate: traces are an
    /// observability sidecar, and lost spans simply vanish from
    /// summaries (loudly, via the fsck report).
    pub fn fsck(&self, repair: bool) -> Result<StudyFsck, OrchError> {
        let key = StudyKey(
            self.dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
        );
        self.log().fsck::<TraceShard>(key, repair)
    }
}

/// One experiment's span with the identity of the study that ran it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StudySpan {
    pub workload: String,
    pub category: String,
    pub isa: String,
    pub model: String,
    pub trace: ExperimentTrace,
}

/// The one reader of a trace root for the reports (`trace summarize`,
/// `report heatmap|html`): the number of study logs read, and each
/// experiment's span exactly once in `(study key, campaign, experiment)`
/// order. A resumed run may re-execute a shard whose spans were already
/// written; the last write wins, so counts match one clean execution.
/// `model` keeps only studies of one fault model, by full name
/// (`multi-bit-burst:2`) or bare kind (`multi-bit-burst`, every width).
pub(crate) fn load_spans(
    store: &TraceStore,
    model: Option<&str>,
) -> Result<(usize, Vec<StudySpan>), OrchError> {
    let keys = store.studies()?;
    let mut spans = BTreeMap::new();
    for (study, key) in keys.iter().enumerate() {
        for shard in store.study(key).shards()? {
            let kind = shard.model.split(':').next().unwrap_or_default();
            if model.is_some_and(|want| want != shard.model && want != kind) {
                continue;
            }
            for trace in shard.traces {
                let at = (study, shard.campaign, trace.index);
                let span = StudySpan {
                    workload: shard.workload.clone(),
                    category: shard.category.clone(),
                    isa: shard.isa.clone(),
                    model: shard.model.clone(),
                    trace,
                };
                spans.insert(at, span);
            }
        }
    }
    Ok((keys.len(), spans.into_values().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::{rollup, PropagationPercentiles};
    use serde::{Deserialize as _, Serialize as _};
    use vulfi::Outcome;

    fn span(
        index: usize,
        outcome: Outcome,
        site: u32,
        propagation: Option<u64>,
    ) -> ExperimentTrace {
        ExperimentTrace {
            index,
            outcome,
            detected: false,
            input: 0,
            injection: Some(vulfi::TraceInjection {
                site_id: site,
                opcode: "fmul".to_string(),
                categories: vec!["pure-data".to_string()],
                lane: 0,
                bit: 3,
                occurrence: 1,
                at_dyn_inst: 10,
            }),
            golden_dyn_insts: 100,
            faulty_dyn_insts: 100,
            dyn_inst_delta: 0,
            propagation,
            trap: None,
            wall_ns: 1000,
        }
    }

    fn shard(campaign: usize, start: usize, traces: Vec<ExperimentTrace>) -> TraceShard {
        TraceShard {
            campaign,
            start,
            end: start + traces.len(),
            workload: "W".to_string(),
            category: "pure-data".to_string(),
            isa: "avx".to_string(),
            model: "single-bit-flip".to_string(),
            traces,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vulfi-tracestore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = TraceStore::open(&dir).unwrap();
        let key = StudyKey("k1".to_string());
        let log = store.study(&key);
        log.append_shard(&shard(0, 0, vec![span(0, Outcome::Sdc, 1, Some(5))]))
            .unwrap();
        log.append_shard(&shard(0, 1, vec![span(1, Outcome::Benign, 2, None)]))
            .unwrap();
        let shards = log.shards().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].traces[0].outcome, Outcome::Sdc);
        assert_eq!(store.studies().unwrap(), vec![key]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_model_shard_lines_read_as_single_bit_flip() {
        // A shard serialized without the `model` key (the on-disk shape
        // before fault models existed) must still deserialize.
        let mut legacy = shard(2, 5, vec![span(5, Outcome::Sdc, 1, None)]);
        legacy.model = "multi-bit-burst:2".to_string();
        let v = legacy.to_value();
        let stripped = serde::Value::Object(
            v.as_object()
                .unwrap()
                .iter()
                .filter(|(k, _)| k != "model")
                .cloned()
                .collect(),
        );
        let back = TraceShard::from_value(&stripped).unwrap();
        assert_eq!(back.model, "single-bit-flip");
        assert_eq!(back.campaign, 2);
        assert_eq!(back.traces.len(), 1);
        // And with the key present it round-trips exactly.
        assert_eq!(TraceShard::from_value(&v).unwrap(), legacy);
    }

    #[test]
    fn torn_tail_skipped_and_trimmed() {
        let dir = tmpdir("torn");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("k".to_string()));
        log.append_shard(&shard(0, 0, vec![span(0, Outcome::Crash, 3, None)]))
            .unwrap();
        // Simulate a killed writer: a half-written line with no newline.
        let path = log.dir().join("traces.jsonl");
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"campaign\":1,\"start\":");
        fs::write(&path, bytes).unwrap();

        let shards = log.shards().unwrap();
        assert_eq!(shards.len(), 1, "torn tail must be skipped, not fatal");
        assert!(log.trim_torn_tail().unwrap());
        assert!(!log.trim_torn_tail().unwrap(), "second trim is a no-op");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_loud_and_repairable() {
        let dir = tmpdir("corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("k".to_string()));
        log.append_shard(&shard(0, 0, vec![span(0, Outcome::Sdc, 1, Some(2))]))
            .unwrap();
        log.append_shard(&shard(0, 1, vec![span(1, Outcome::Benign, 1, None)]))
            .unwrap();
        // Flip a byte in the FIRST record's JSON body.
        let path = log.dir().join("traces.jsonl");
        let mut bytes = fs::read(&path).unwrap();
        let pos = bytes.iter().position(|b| *b == b'"').unwrap();
        bytes[pos + 1] ^= 0x20;
        fs::write(&path, bytes).unwrap();

        let err = log.shards().unwrap_err();
        assert!(
            err.0.contains("vulfi fsck"),
            "error must point at the fsck command: {err}"
        );

        let report = store.fsck(true).unwrap();
        assert!(report.needs_repair());
        let study = &report.studies[0];
        assert_eq!(study.valid, 1, "intact record salvaged");
        assert!(study.quarantined.is_some());
        // After repair the log reads cleanly with the surviving shard.
        let shards = log.shards().unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].start, 1);
        // And a re-check is clean.
        assert!(!store.fsck(false).unwrap().dirty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summarize_dedupes_and_ranks() {
        let dir = tmpdir("summarize");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("k".to_string()));
        log.append_shard(&shard(
            0,
            0,
            vec![
                span(0, Outcome::Sdc, 7, Some(10)),
                span(1, Outcome::Benign, 7, None),
                span(2, Outcome::Sdc, 9, Some(100)),
                span(3, Outcome::Crash, 9, Some(1)),
            ],
        ))
        .unwrap();
        // A resumed run re-executed experiments 2..4: same coordinates,
        // must not double-count.
        log.append_shard(&shard(
            0,
            2,
            vec![
                span(2, Outcome::Sdc, 9, Some(100)),
                span(3, Outcome::Crash, 9, Some(1)),
            ],
        ))
        .unwrap();

        let (studies, spans) = load_spans(&store, None).unwrap();
        assert_eq!(studies, 1);
        let order: Vec<usize> = spans.iter().map(|s| s.trace.index).collect();
        assert_eq!(order, [0, 1, 2, 3], "each experiment once, in order");
        assert!(load_spans(&store, Some("memory-cell"))
            .unwrap()
            .1
            .is_empty());

        let s = rollup(&store, None).unwrap().summary;
        assert_eq!(s.studies, 1);
        assert_eq!(s.spans, 4, "duplicates deduplicated by coordinates");
        assert_eq!(s.injected, 4);
        assert_eq!(s.categories.len(), 1);
        let c = &s.categories[0];
        assert_eq!(c.category, "pure-data");
        assert_eq!((c.sdc, c.benign, c.crash), (2, 1, 1));
        let p = c.propagation.as_ref().unwrap();
        assert_eq!(p.samples, 3);
        assert_eq!(p.p50, 10);
        assert_eq!(p.max, 100);
        // Site 9: 1 SDC of 2 injections; site 7: 1 SDC of 2. Tie on sdc
        // and total breaks toward the lower site id.
        assert_eq!(s.top_sdc_sites.len(), 2);
        assert_eq!(s.top_sdc_sites[0].site_id, 7);
        assert_eq!(s.top_sdc_sites[0].sdc, 1);
        assert_eq!(s.top_sdc_sites[0].total, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = PropagationPercentiles::of((1..=100).collect()).unwrap();
        assert_eq!(p.p50, 50);
        assert_eq!(p.p90, 90);
        assert_eq!(p.p99, 99);
        assert_eq!(p.max, 100);
        let one = PropagationPercentiles::of(vec![42]).unwrap();
        assert_eq!((one.p50, one.p90, one.p99, one.max), (42, 42, 42, 42));
        assert!(PropagationPercentiles::of(vec![]).is_none());
    }
}

//! In-memory spans around the benchmark's calls into the system,
//! written at exit as Chrome trace-event JSON (loads in Perfetto and
//! `chrome://tracing`), plus per-layer self time.
//!
//! A span's layer is its category. Self time is the span's duration
//! minus the part its children on the same track cover. Same-track
//! children never overlap: the benchmark records its own spans from one
//! thread, and spans rebuilt from a daemon's ops log sit on their own
//! tracks, since the daemon works while the client waits.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::{json, Value};

pub struct Span {
    pub cat: &'static str,
    pub name: String,
    /// Shared by every span of one cell or one served study.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
    /// Track in the viewer: 0 for the benchmark's thread; spans rebuilt
    /// from a daemon's ops log use 1 for the daemon and 2.. for its
    /// workers.
    pub tid: u64,
}

/// Span recorder. Disabled (the untraced run) it records nothing.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    unix0_ms: f64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let unix0_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        Tracer {
            enabled,
            t0: Instant::now(),
            unix0_ms,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_us = start.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.push(cat, name.into(), id, parent, start_us, dur_us, 0)
    }

    /// Record a span known only by wall-clock milliseconds (rebuilt from
    /// the daemon's ops log).
    #[allow(clippy::too_many_arguments)]
    pub fn record_unix_ms(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
        start_unix_ms: u64,
        end_unix_ms: u64,
        tid: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_us = (start_unix_ms as f64 - self.unix0_ms) * 1e3;
        let dur_us = end_unix_ms.saturating_sub(start_unix_ms) as f64 * 1e3;
        self.push(cat, name.into(), id, parent, start_us, dur_us, tid)
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        cat: &'static str,
        name: String,
        id: u64,
        parent: Option<usize>,
        start_us: f64,
        dur_us: f64,
        tid: u64,
    ) -> Option<usize> {
        self.spans.push(Span {
            cat,
            name,
            id,
            parent,
            start_us,
            dur_us,
            tid,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time (µs) and span count per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].tid == s.tid {
                    child_us[p] += s.dur_us;
                }
            }
        }
        let mut layers: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            let e = layers.entry(s.cat).or_default();
            e.0 += (s.dur_us - c).max(0.0);
            e.1 += 1;
        }
        layers
    }

    /// Write the spans as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    fn chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let parent = match s.parent {
                    Some(p) => Value::from(p as u64),
                    None => Value::Null,
                };
                json!({
                    "name": s.name.clone(),
                    "cat": s.cat,
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.dur_us,
                    "pid": 1u64,
                    "tid": s.tid,
                    "args": json!({ "id": s.id, "parent": parent }),
                })
            })
            .collect();
        let doc = json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ms" });
        serde_json::to_string(&doc).expect("a Value tree always renders")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_export_parses() {
        let mut t = Tracer::new(true);
        let a = t.t0;
        let ms = |n| a + Duration::from_millis(n);
        let root = t.record("orch", "study", 1, None, ms(0), ms(10));
        t.record("store", "read", 1, root, ms(2), ms(5));
        let layers = t.self_time_by_layer();
        assert!((layers["orch"].0 - 7_000.0).abs() < 1e-6);
        assert!((layers["store"].0 - 3_000.0).abs() < 1e-6);

        let doc: Value = serde_json::from_str(&t.chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);

        let mut off = Tracer::new(false);
        assert!(off.record("orch", "x", 0, None, ms(0), ms(1)).is_none());
        assert!(off.spans.is_empty());
    }
}

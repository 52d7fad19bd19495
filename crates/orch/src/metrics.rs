//! Lock-cheap metrics registry aggregated across rayon workers.
//!
//! Every hot-path record is a single relaxed atomic increment — no
//! locks, no allocation — so the registry can sit inside the shard
//! runner and the store's retry loop without perturbing throughput.
//! Label sets are fixed at compile time (the §II-C site categories ×
//! the three outcomes; fixed histogram buckets), which is what makes
//! the lock-free layout possible.
//!
//! Two exports, both rendered from one consistent [`MetricsSnapshot`]:
//!
//! - [`render_prometheus`] — Prometheus text exposition format
//!   (`vulfi_experiments_total{category="pure-data",outcome="sdc"} 42`),
//!   with cumulative histogram buckets and `+Inf`;
//! - [`render_json`] — the same snapshot as JSON, for tooling that
//!   would rather not parse the text format.
//!
//! [`parse_prometheus`] is a minimal exposition-format parser used by
//! the round-trip tests (and available to downstream tooling).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use vir::analysis::SiteCategory;
use vulfi::{FaultModel, Outcome, MODEL_KINDS};

/// Upper bounds (inclusive) for shard-append latency, in nanoseconds:
/// 100µs, 1ms, 10ms, 100ms, 1s, 10s; +Inf implicit.
const LATENCY_BOUNDS_NS: [u64; 6] = [
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Upper bounds (inclusive) for propagation distance, in dynamic
/// instructions: 1, 10, 100, 1k, 10k, 100k, 1M; +Inf implicit.
const PROPAGATION_BOUNDS: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Upper bounds (inclusive) for shard execution time, in nanoseconds:
/// 1ms, 10ms, 100ms, 1s, 10s, 30s; +Inf implicit. Shards are whole
/// experiment batches, so the scale sits well above append latency.
const SHARD_DURATION_BOUNDS_NS: [u64; 6] = [
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    30_000_000_000,
];

/// Upper bounds (inclusive) for job queue wait, in nanoseconds:
/// 10ms, 100ms, 1s, 10s, 60s, 600s; +Inf implicit.
const QUEUE_WAIT_BOUNDS_NS: [u64; 6] = [
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    60_000_000_000,
    600_000_000_000,
];

const OUTCOMES: [Outcome; 3] = [Outcome::Sdc, Outcome::Benign, Outcome::Crash];

fn category_index(c: SiteCategory) -> usize {
    SiteCategory::ALL.iter().position(|x| *x == c).unwrap_or(0)
}

fn outcome_index(o: Outcome) -> usize {
    OUTCOMES.iter().position(|x| *x == o).unwrap_or(0)
}

fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::Sdc => "sdc",
        Outcome::Benign => "benign",
        Outcome::Crash => "crash",
    }
}

/// Fixed-bucket histogram over `u64` observations. One atomic add per
/// observation; bucket counts are per-bucket (cumulated only at render
/// time, as the Prometheus exposition requires).
struct Histogram {
    bounds: &'static [u64],
    /// `bounds.len() + 1` buckets; the last is the +Inf overflow.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot with bounds scaled by `scale` (e.g. ns → seconds).
    fn snapshot(&self, scale: f64) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.iter().map(|b| *b as f64 * scale).collect(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed) as f64 * scale,
        }
    }
}

/// The registry. One process-global instance lives behind
/// [`global`]; tests construct their own.
pub struct Metrics {
    /// `[category][outcome]` experiment counts.
    experiments: [[AtomicU64; 3]; 3],
    /// `[fault-model kind][outcome]` experiment counts (gauntlet cells
    /// running different models share one registry, so per-model rows
    /// are what makes `GET /metrics` show which model is progressing).
    by_model: [[AtomicU64; 3]; 7],
    shard_appends: AtomicU64,
    engine_faults: AtomicU64,
    /// Faulty-run dynamic instructions actually interpreted, from each
    /// run's fork checkpoint to its end or reconvergence.
    faulty_dyn_insts_executed: AtomicU64,
    /// Experiments whose faulty run stopped at a reconvergence.
    reconverged: AtomicU64,
    store_retries: AtomicU64,
    append_latency: Histogram,
    /// Per-category propagation-distance histograms.
    propagation: [Histogram; 3],
    /// Whole-shard execution time, observed by `run_shard` (every
    /// driver's one execution path), excluding the append.
    shard_duration: Histogram,
    /// Submit → start wait of served jobs.
    queue_wait: Histogram,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            experiments: Default::default(),
            by_model: Default::default(),
            shard_appends: AtomicU64::new(0),
            engine_faults: AtomicU64::new(0),
            faulty_dyn_insts_executed: AtomicU64::new(0),
            reconverged: AtomicU64::new(0),
            store_retries: AtomicU64::new(0),
            append_latency: Histogram::new(&LATENCY_BOUNDS_NS),
            propagation: [
                Histogram::new(&PROPAGATION_BOUNDS),
                Histogram::new(&PROPAGATION_BOUNDS),
                Histogram::new(&PROPAGATION_BOUNDS),
            ],
            shard_duration: Histogram::new(&SHARD_DURATION_BOUNDS_NS),
            queue_wait: Histogram::new(&QUEUE_WAIT_BOUNDS_NS),
        }
    }

    /// Count one finished experiment of `category` with `outcome`.
    pub fn inc_experiment(&self, category: SiteCategory, outcome: Outcome) {
        self.experiments[category_index(category)][outcome_index(outcome)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one finished experiment under `model` with `outcome`.
    pub fn inc_experiment_model(&self, model: FaultModel, outcome: Outcome) {
        self.by_model[model.kind_index()][outcome_index(outcome)].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one shard append and record its latency.
    pub fn observe_shard_append(&self, latency_ns: u64) {
        self.shard_appends.fetch_add(1, Ordering::Relaxed);
        self.append_latency.observe(latency_ns);
    }

    /// Count engine faults (panics contained by the experiment runner).
    pub fn add_engine_faults(&self, n: u64) {
        self.engine_faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Count what a range's faulty runs executed: `insts` interpreted
    /// dynamic instructions, and `reconverged` runs that stopped early.
    pub fn add_faulty_runs(&self, insts: u64, reconverged: u64) {
        self.faulty_dyn_insts_executed
            .fetch_add(insts, Ordering::Relaxed);
        self.reconverged.fetch_add(reconverged, Ordering::Relaxed);
    }

    /// Count one retried store I/O operation.
    pub fn inc_store_retries(&self) {
        self.store_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fault's propagation distance, in dynamic instructions.
    pub fn observe_propagation(&self, category: SiteCategory, distance: u64) {
        self.propagation[category_index(category)].observe(distance);
    }

    /// Record one whole shard's execution time.
    pub fn observe_shard_duration(&self, duration_ns: u64) {
        self.shard_duration.observe(duration_ns);
    }

    /// Record one served job's submit → start queue wait.
    pub fn observe_queue_wait(&self, wait_ns: u64) {
        self.queue_wait.observe(wait_ns);
    }

    /// A consistent-enough copy of every series (individual loads are
    /// relaxed; exactness across concurrent writers is not required for
    /// monitoring output).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut experiments = Vec::new();
        for (ci, cat) in SiteCategory::ALL.iter().enumerate() {
            for (oi, out) in OUTCOMES.iter().enumerate() {
                experiments.push(ExperimentCell {
                    category: cat.name().to_string(),
                    outcome: outcome_name(*out).to_string(),
                    count: self.experiments[ci][oi].load(Ordering::Relaxed),
                });
            }
        }
        let mut by_model = Vec::new();
        for (mi, kind) in MODEL_KINDS.iter().enumerate() {
            for (oi, out) in OUTCOMES.iter().enumerate() {
                by_model.push(ModelCell {
                    model: kind.to_string(),
                    outcome: outcome_name(*out).to_string(),
                    count: self.by_model[mi][oi].load(Ordering::Relaxed),
                });
            }
        }
        MetricsSnapshot {
            experiments,
            by_model,
            shard_appends: self.shard_appends.load(Ordering::Relaxed),
            engine_faults: self.engine_faults.load(Ordering::Relaxed),
            faulty_dyn_insts_executed: self.faulty_dyn_insts_executed.load(Ordering::Relaxed),
            reconverged: self.reconverged.load(Ordering::Relaxed),
            store_retries: self.store_retries.load(Ordering::Relaxed),
            append_latency_seconds: self.append_latency.snapshot(1e-9),
            shard_duration_seconds: self.shard_duration.snapshot(1e-9),
            queue_wait_seconds: self.queue_wait.snapshot(1e-9),
            propagation_insts: SiteCategory::ALL
                .iter()
                .enumerate()
                .map(|(ci, cat)| CategoryHistogram {
                    category: cat.name().to_string(),
                    histogram: self.propagation[ci].snapshot(1.0),
                })
                .collect(),
        }
    }
}

/// The process-global registry shared by the shard runner, the store's
/// retry loop, and the CLI exporter.
pub fn global() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::new)
}

/// Point-in-time copy of one histogram. `counts` has one more entry
/// than `bounds`: the final +Inf overflow bucket.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub sum: f64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentCell {
    pub category: String,
    pub outcome: String,
    pub count: u64,
}

/// One `model × outcome` experiment-count cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelCell {
    pub model: String,
    pub outcome: String,
    pub count: u64,
}

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CategoryHistogram {
    pub category: String,
    pub histogram: HistogramSnapshot,
}

/// Point-in-time copy of every series in the registry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    pub experiments: Vec<ExperimentCell>,
    /// Per-fault-model outcome counts (all seven kinds, zeros included,
    /// so series never appear or vanish between scrapes).
    pub by_model: Vec<ModelCell>,
    pub shard_appends: u64,
    pub engine_faults: u64,
    pub faulty_dyn_insts_executed: u64,
    pub reconverged: u64,
    pub store_retries: u64,
    pub append_latency_seconds: HistogramSnapshot,
    pub shard_duration_seconds: HistogramSnapshot,
    pub queue_wait_seconds: HistogramSnapshot,
    pub propagation_insts: Vec<CategoryHistogram>,
}

impl MetricsSnapshot {
    /// Total experiments across every category × outcome cell.
    pub fn experiments_total(&self) -> u64 {
        self.experiments.iter().map(|c| c.count).sum()
    }
}

/// Format a bucket bound the way Prometheus clients expect (no
/// trailing zeros beyond what `{}` prints; `+Inf` handled by caller).
fn fmt_bound(b: f64) -> String {
    format!("{b}")
}

fn push_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        cumulative += c;
        let le = if i < h.bounds.len() {
            fmt_bound(h.bounds[i])
        } else {
            "+Inf".to_string()
        };
        let sep = if labels.is_empty() { "" } else { "," };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{brace} {}\n", h.sum));
    out.push_str(&format!("{name}_count{brace} {cumulative}\n"));
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn render_prometheus(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("# TYPE vulfi_experiments_total counter\n");
    for cell in &s.experiments {
        out.push_str(&format!(
            "vulfi_experiments_total{{category=\"{}\",outcome=\"{}\"}} {}\n",
            cell.category, cell.outcome, cell.count
        ));
    }
    out.push_str("# TYPE vulfi_experiments_by_model_total counter\n");
    for cell in &s.by_model {
        out.push_str(&format!(
            "vulfi_experiments_by_model_total{{model=\"{}\",outcome=\"{}\"}} {}\n",
            cell.model, cell.outcome, cell.count
        ));
    }
    out.push_str("# TYPE vulfi_shard_appends_total counter\n");
    out.push_str(&format!("vulfi_shard_appends_total {}\n", s.shard_appends));
    out.push_str("# TYPE vulfi_engine_faults_total counter\n");
    out.push_str(&format!("vulfi_engine_faults_total {}\n", s.engine_faults));
    out.push_str("# TYPE vulfi_faulty_dyn_insts_executed_total counter\n");
    out.push_str(&format!(
        "vulfi_faulty_dyn_insts_executed_total {}\n",
        s.faulty_dyn_insts_executed
    ));
    out.push_str("# TYPE vulfi_reconverged_experiments_total counter\n");
    out.push_str(&format!(
        "vulfi_reconverged_experiments_total {}\n",
        s.reconverged
    ));
    out.push_str("# TYPE vulfi_store_retries_total counter\n");
    out.push_str(&format!("vulfi_store_retries_total {}\n", s.store_retries));
    out.push_str("# TYPE vulfi_shard_append_latency_seconds histogram\n");
    push_histogram(
        &mut out,
        "vulfi_shard_append_latency_seconds",
        "",
        &s.append_latency_seconds,
    );
    out.push_str("# TYPE vulfi_shard_duration_seconds histogram\n");
    push_histogram(
        &mut out,
        "vulfi_shard_duration_seconds",
        "",
        &s.shard_duration_seconds,
    );
    out.push_str("# TYPE vulfi_queue_wait_seconds histogram\n");
    push_histogram(
        &mut out,
        "vulfi_queue_wait_seconds",
        "",
        &s.queue_wait_seconds,
    );
    out.push_str("# TYPE vulfi_propagation_distance_insts histogram\n");
    for ch in &s.propagation_insts {
        push_histogram(
            &mut out,
            "vulfi_propagation_distance_insts",
            &format!("category=\"{}\"", ch.category),
            &ch.histogram,
        );
    }
    out
}

/// Render a snapshot as JSON.
pub fn render_json(s: &MetricsSnapshot) -> Result<String, crate::OrchError> {
    serde_json::to_string_pretty(s).map_err(|e| crate::OrchError(format!("encode metrics: {e}")))
}

/// One sample parsed from the Prometheus text format.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl PromSample {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal parser for the Prometheus text exposition format: enough to
/// round-trip everything [`render_prometheus`] emits (names, label
/// sets, `+Inf`, float values). Comment (`#`) and blank lines are
/// skipped; anything else malformed is an error.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}: {raw:?}", lineno + 1);
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("expected `series value`"))?;
        let value = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse::<f64>().map_err(|_| err("bad value"))?
        };
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label pair"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((k.trim().to_string(), v.to_string()));
                }
                labels.sort();
                (name.to_string(), labels)
            }
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(samples: &'a [PromSample], name: &str, labels: &[(&str, &str)]) -> &'a PromSample {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels.iter().all(|(k, v)| s.label(k) == Some(*v))
                    && s.labels.len() == labels.len()
            })
            .unwrap_or_else(|| panic!("no sample {name} {labels:?}"))
    }

    #[test]
    fn counters_and_histograms_land_in_snapshot() {
        let m = Metrics::new();
        m.inc_experiment(SiteCategory::PureData, Outcome::Sdc);
        m.inc_experiment(SiteCategory::PureData, Outcome::Sdc);
        m.inc_experiment(SiteCategory::Control, Outcome::Crash);
        m.observe_shard_append(2_000_000); // 2 ms → second bucket boundary region
        m.add_engine_faults(3);
        m.inc_store_retries();
        m.observe_propagation(SiteCategory::PureData, 5);
        m.observe_propagation(SiteCategory::PureData, 50_000_000); // +Inf bucket

        let s = m.snapshot();
        assert_eq!(s.experiments_total(), 3);
        let sdc = s
            .experiments
            .iter()
            .find(|c| c.category == "pure-data" && c.outcome == "sdc")
            .unwrap();
        assert_eq!(sdc.count, 2);
        assert_eq!(s.shard_appends, 1);
        assert_eq!(s.engine_faults, 3);
        assert_eq!(s.store_retries, 1);
        assert_eq!(s.append_latency_seconds.count(), 1);
        let pd = &s.propagation_insts[0];
        assert_eq!(pd.category, "pure-data");
        assert_eq!(pd.histogram.count(), 2);
        // 5 lands in the `le=10` bucket (index 1); the huge value in +Inf.
        assert_eq!(pd.histogram.counts[1], 1);
        assert_eq!(*pd.histogram.counts.last().unwrap(), 1);
        assert_eq!(pd.histogram.sum, 50_000_005.0);
    }

    #[test]
    fn per_model_counters_label_by_kind() {
        let m = Metrics::new();
        m.inc_experiment_model(FaultModel::SingleBitFlip, Outcome::Sdc);
        m.inc_experiment_model(FaultModel::MultiBitBurst { width: 4 }, Outcome::Crash);
        m.inc_experiment_model(FaultModel::MultiBitBurst { width: 2 }, Outcome::Crash);

        let s = m.snapshot();
        // Every kind × outcome cell is present, zeros included.
        assert_eq!(s.by_model.len(), MODEL_KINDS.len() * 3);
        let cell = |model: &str, outcome: &str| {
            s.by_model
                .iter()
                .find(|c| c.model == model && c.outcome == outcome)
                .unwrap()
                .count
        };
        assert_eq!(cell("single-bit-flip", "sdc"), 1);
        // Parameterized variants of one kind share a row.
        assert_eq!(cell("multi-bit-burst", "crash"), 2);
        assert_eq!(cell("memory-cell", "benign"), 0);

        let samples = parse_prometheus(&render_prometheus(&s)).unwrap();
        let p = find(
            &samples,
            "vulfi_experiments_by_model_total",
            &[("model", "multi-bit-burst"), ("outcome", "crash")],
        );
        assert_eq!(p.value, 2.0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let h = Histogram::new(&PROPAGATION_BOUNDS);
        h.observe(10); // exactly on a bound → that bucket
        h.observe(11); // just past → next bucket
        let s = h.snapshot(1.0);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[2], 1);
    }

    #[test]
    fn prometheus_text_round_trips_through_parser() {
        let m = Metrics::new();
        m.inc_experiment(SiteCategory::PureData, Outcome::Sdc);
        m.inc_experiment(SiteCategory::Address, Outcome::Benign);
        m.observe_shard_append(500_000);
        m.observe_shard_append(3_000_000_000); // 3 s
        m.inc_store_retries();
        m.add_faulty_runs(1_200, 1);
        m.add_faulty_runs(800, 0);
        m.observe_propagation(SiteCategory::Control, 123);
        m.observe_shard_duration(5_000_000_000); // 5 s shard
        m.observe_queue_wait(50_000_000); // 50 ms wait

        let snap = m.snapshot();
        let text = render_prometheus(&snap);
        let samples = parse_prometheus(&text).unwrap();

        // Counters round-trip exactly.
        let c = find(
            &samples,
            "vulfi_experiments_total",
            &[("category", "pure-data"), ("outcome", "sdc")],
        );
        assert_eq!(c.value, 1.0);
        let c = find(&samples, "vulfi_store_retries_total", &[]);
        assert_eq!(c.value, 1.0);
        let c = find(&samples, "vulfi_faulty_dyn_insts_executed_total", &[]);
        assert_eq!(c.value, 2_000.0);
        let c = find(&samples, "vulfi_reconverged_experiments_total", &[]);
        assert_eq!(c.value, 1.0);

        // Histogram: buckets are cumulative, +Inf equals _count, _sum in
        // seconds.
        let inf = find(
            &samples,
            "vulfi_shard_append_latency_seconds_bucket",
            &[("le", "+Inf")],
        );
        assert_eq!(inf.value, 2.0);
        let count = find(&samples, "vulfi_shard_append_latency_seconds_count", &[]);
        assert_eq!(count.value, 2.0);
        let sum = find(&samples, "vulfi_shard_append_latency_seconds_sum", &[]);
        assert!((sum.value - 3.0005).abs() < 1e-9, "{}", sum.value);
        // The 3 s observation exceeds the 1 s bound but not 10 s.
        let b1s = find(
            &samples,
            "vulfi_shard_append_latency_seconds_bucket",
            &[("le", "1")],
        );
        assert_eq!(b1s.value, 1.0);

        // The 5 s shard exceeds the 1 s bound but not 10 s; the 50 ms
        // wait lands under 100 ms.
        let d = find(
            &samples,
            "vulfi_shard_duration_seconds_bucket",
            &[("le", "10")],
        );
        assert_eq!(d.value, 1.0);
        let d = find(
            &samples,
            "vulfi_shard_duration_seconds_bucket",
            &[("le", "1")],
        );
        assert_eq!(d.value, 0.0);
        let w = find(
            &samples,
            "vulfi_queue_wait_seconds_bucket",
            &[("le", "0.1")],
        );
        assert_eq!(w.value, 1.0);
        let w = find(&samples, "vulfi_queue_wait_seconds_count", &[]);
        assert_eq!(w.value, 1.0);

        // Per-category propagation histogram carries its label through.
        let p = find(
            &samples,
            "vulfi_propagation_distance_insts_count",
            &[("category", "control")],
        );
        assert_eq!(p.value, 1.0);

        // Every non-comment line parsed (nothing silently skipped).
        let expected = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .count();
        assert_eq!(samples.len(), expected);
    }

    #[test]
    fn json_render_parses_back() {
        let m = Metrics::new();
        m.inc_experiment(SiteCategory::Control, Outcome::Crash);
        let snap = m.snapshot();
        let json = render_json(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("metric_no_value\n").is_err());
        assert!(parse_prometheus("m{unterminated 1\n").is_err());
        assert!(parse_prometheus("m{k=unquoted} 1\n").is_err());
        assert!(parse_prometheus("m nanvalue\n").is_err());
    }
}

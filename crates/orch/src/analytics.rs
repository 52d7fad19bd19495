//! Offline resiliency analytics over the result and trace stores.
//!
//! Everything here is *read-only*: the inputs are the checksummed shard
//! logs (`store`) and trace sidecars (`tracestore`) a finished — or
//! half-finished — evaluation left behind, and the outputs are the
//! comparisons the paper actually publishes. A report reads and tallies
//! each store once; only printing truncates:
//!
//! - **study cells** ([`load_cells`], one: [`load_study`]): each stored
//!   study merged through the deterministic stopping rule into one
//!   (workload × category × ISA) cell with Wilson-scored SDC proportions;
//! - **study diffing** ([`diff_stores`]): cell-by-cell comparison of two
//!   stores (AVX vs SSE, pre/post a detector pass, two protocols) with a
//!   two-proportion z-test and drift detection for resumed runs of the
//!   same study key;
//! - **the trace roll-up** ([`rollup`]): one pass over every span yields
//!   `trace summarize`'s category rows and, per workload, the lane × bit
//!   SDC-density grid and the full site tally (opcode, §II-C categories
//!   against dynamic outcomes) behind `report heatmap` and `report html`;
//! - **lane occupancy** ([`OccupancyProfile`]): the dynamic
//!   mask-occupancy histogram of a golden run, for explaining vector SDC
//!   rates the way the paper's §IV discussion does (masked-off lanes
//!   absorb faults);
//! - **rendered reports** ([`render_html`]): one self-contained HTML
//!   file — inline SVG, zero scripts, zero external fetches.

use std::collections::BTreeMap;

use vulfi::{two_proportion_z_test, wilson_interval_95, Outcome};

use crate::key::StudyKey;
use crate::plan::{covered_experiments, merge};
use crate::store::Store;
use crate::tracestore::{load_spans, TraceStore};
use crate::OrchError;

/// One stored study merged into a comparable cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StudyCell {
    pub key: String,
    pub workload: String,
    pub isa: String,
    pub category: String,
    pub sdc: u64,
    pub benign: u64,
    pub crash: u64,
    pub detected: u64,
    pub sdc_detected: u64,
    /// Experiments the stopping rule actually counted.
    pub experiments: u64,
    /// Experiment-level SDC proportion, percent.
    pub sdc_rate: f64,
    /// Wilson 95% bounds on the SDC proportion, percent.
    pub wilson_lo: f64,
    pub wilson_hi: f64,
    /// Campaign-mean SDC rate ± margin (the paper's §IV-D statistic).
    pub mean_sdc: f64,
    pub margin_95: f64,
    pub campaigns: usize,
    pub converged: bool,
}

/// A stored study the stopping rule cannot merge yet.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialStudy {
    pub key: String,
    pub workload: String,
    pub isa: String,
    pub category: String,
    /// Experiments stored so far, of `total`.
    pub covered: u64,
    pub total: u64,
}

impl PartialStudy {
    /// `workload [isa] category (key prefix)`, as the reports list it.
    pub fn label(&self) -> String {
        format!(
            "{} [{}] {} ({})",
            self.workload,
            self.isa,
            self.category,
            self.key.get(..12).unwrap_or(&self.key)
        )
    }
}

/// One stored study, merged into a cell or still partial.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredStudy {
    Complete(StudyCell),
    Partial(PartialStudy),
}

/// Read and merge one stored study. Only this study's manifest and
/// shard log are read, so damage elsewhere in the store cannot fail it.
pub fn load_study(store: &Store, key: &StudyKey) -> Result<StoredStudy, OrchError> {
    let study = store.study(key);
    let m = study.read_manifest()?;
    let shards = study.shards()?;
    let category = m.category.name().to_string();
    let Some(r) = merge(&m.cfg, m.category, &shards) else {
        return Ok(StoredStudy::Partial(PartialStudy {
            key: key.0.clone(),
            workload: m.workload,
            isa: m.isa,
            category,
            covered: covered_experiments(&shards, &m.cfg) as u64,
            total: (m.cfg.max_campaigns * m.cfg.experiments_per_campaign) as u64,
        }));
    };
    let n = r.counts.total();
    let (lo, hi) = wilson_interval_95(r.counts.sdc, n);
    Ok(StoredStudy::Complete(StudyCell {
        key: key.0.clone(),
        workload: m.workload,
        isa: m.isa,
        category,
        sdc: r.counts.sdc,
        benign: r.counts.benign,
        crash: r.counts.crash,
        detected: r.counts.detected,
        sdc_detected: r.counts.sdc_detected,
        experiments: n,
        sdc_rate: r.counts.sdc_rate(),
        wilson_lo: 100.0 * lo,
        wilson_hi: 100.0 * hi,
        mean_sdc: r.summary.mean,
        margin_95: r.summary.margin_95,
        campaigns: r.summary.campaigns,
        converged: r.converged,
    }))
}

/// Merge every complete study in `store` into cells, sorted by
/// workload, category and ISA; the second list holds the studies still
/// partial, in key order (excluded rather than silently skewed).
pub fn load_cells(store: &Store) -> Result<(Vec<StudyCell>, Vec<PartialStudy>), OrchError> {
    let mut cells = Vec::new();
    let mut partial = Vec::new();
    for key in store.studies()? {
        match load_study(store, &key)? {
            StoredStudy::Complete(cell) => cells.push(cell),
            StoredStudy::Partial(p) => partial.push(p),
        }
    }
    cells.sort_by(|a, b| {
        a.workload
            .cmp(&b.workload)
            .then(a.category.cmp(&b.category))
            .then(a.isa.cmp(&b.isa))
    });
    Ok((cells, partial))
}

/// One matched pair of cells across two stores.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiffCell {
    pub workload: String,
    pub category: String,
    pub isa_a: String,
    pub isa_b: String,
    pub key_a: String,
    pub key_b: String,
    pub sdc_a: u64,
    pub n_a: u64,
    pub rate_a: f64,
    pub lo_a: f64,
    pub hi_a: f64,
    pub sdc_b: u64,
    pub n_b: u64,
    pub rate_b: f64,
    pub lo_b: f64,
    pub hi_b: f64,
    /// `rate_b - rate_a`, percentage points.
    pub delta: f64,
    pub z: f64,
    pub p: f64,
    /// Two-sided p < 0.05.
    pub significant: bool,
    /// Same study key on both sides but different merged counts — a
    /// resumed run drifted from its twin, which determinism forbids.
    pub drift: bool,
}

/// The full comparison of two stores.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiffReport {
    pub cells: Vec<DiffCell>,
    /// Cells present only in store A / only in store B.
    pub only_a: Vec<String>,
    pub only_b: Vec<String>,
    /// Partial (unmergeable) studies excluded from each side.
    pub partial_a: Vec<String>,
    pub partial_b: Vec<String>,
    pub significant: u64,
    pub drift: u64,
}

fn cell_label(c: &StudyCell) -> String {
    format!("{} [{}] {}", c.workload, c.isa, c.category)
}

/// Pair up two stores' cells and test each pair for a significant SDC
/// difference.
///
/// Cells join on (workload, category, ISA). Cells left unmatched fall
/// back to a (workload, category) join when that is unambiguous — the
/// AVX-vs-SSE comparison, where the ISA is exactly what differs.
pub fn diff_stores(a: &Store, b: &Store) -> Result<DiffReport, OrchError> {
    let (cells_a, partial_a) = load_cells(a)?;
    let (cells_b, partial_b) = load_cells(b)?;
    Ok(diff_cells(cells_a, cells_b, &partial_a, &partial_b))
}

fn diff_cells(
    cells_a: Vec<StudyCell>,
    cells_b: Vec<StudyCell>,
    partial_a: &[PartialStudy],
    partial_b: &[PartialStudy],
) -> DiffReport {
    let mut used_b = vec![false; cells_b.len()];
    let mut pairs: Vec<(StudyCell, StudyCell)> = Vec::new();
    let mut only_a = Vec::new();

    // Pass 1: exact (workload, category, isa) join.
    let mut unmatched_a = Vec::new();
    for ca in cells_a {
        let hit = (0..cells_b.len()).find(|&i| {
            !used_b[i]
                && cells_b[i].workload == ca.workload
                && cells_b[i].category == ca.category
                && cells_b[i].isa == ca.isa
        });
        match hit {
            Some(i) => {
                used_b[i] = true;
                pairs.push((ca, cells_b[i].clone()));
            }
            None => unmatched_a.push(ca),
        }
    }
    // Pass 2: (workload, category) join for the leftovers, only when
    // unambiguous on both sides.
    for ca in unmatched_a {
        let candidates: Vec<usize> = cells_b
            .iter()
            .enumerate()
            .filter(|(i, cb)| {
                !used_b[*i] && cb.workload == ca.workload && cb.category == ca.category
            })
            .map(|(i, _)| i)
            .collect();
        if candidates.len() == 1 {
            used_b[candidates[0]] = true;
            pairs.push((ca, cells_b[candidates[0]].clone()));
        } else {
            only_a.push(cell_label(&ca));
        }
    }
    let only_b: Vec<String> = cells_b
        .iter()
        .zip(&used_b)
        .filter(|(_, used)| !**used)
        .map(|(c, _)| cell_label(c))
        .collect();

    let mut cells = Vec::new();
    let mut significant = 0u64;
    let mut drift = 0u64;
    for (ca, cb) in pairs {
        let t = two_proportion_z_test(ca.sdc, ca.experiments, cb.sdc, cb.experiments);
        let is_sig = t.p < 0.05;
        let is_drift = ca.key == cb.key
            && (ca.sdc != cb.sdc
                || ca.benign != cb.benign
                || ca.crash != cb.crash
                || ca.experiments != cb.experiments);
        significant += is_sig as u64;
        drift += is_drift as u64;
        cells.push(DiffCell {
            workload: ca.workload,
            category: ca.category,
            isa_a: ca.isa,
            isa_b: cb.isa,
            key_a: ca.key,
            key_b: cb.key,
            sdc_a: ca.sdc,
            n_a: ca.experiments,
            rate_a: ca.sdc_rate,
            lo_a: ca.wilson_lo,
            hi_a: ca.wilson_hi,
            sdc_b: cb.sdc,
            n_b: cb.experiments,
            rate_b: cb.sdc_rate,
            lo_b: cb.wilson_lo,
            hi_b: cb.wilson_hi,
            delta: cb.sdc_rate - ca.sdc_rate,
            z: t.z,
            p: t.p,
            significant: is_sig,
            drift: is_drift,
        });
    }
    cells.sort_by(|x, y| {
        x.p.partial_cmp(&y.p)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.workload.cmp(&y.workload))
            .then(x.category.cmp(&y.category))
    });
    DiffReport {
        cells,
        only_a,
        only_b,
        partial_a: partial_a.iter().map(PartialStudy::label).collect(),
        partial_b: partial_b.iter().map(PartialStudy::label).collect(),
        significant,
        drift,
    }
}

/// Render a diff as a significance-annotated text table.
pub fn render_diff_text(r: &DiffReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<9} {:>5}/{:<5} {:>18} {:>5}/{:<5} {:>18} {:>7} {:>7} {:>7}  flags\n",
        "workload",
        "category",
        "sdcA",
        "nA",
        "A% [wilson95]",
        "sdcB",
        "nB",
        "B% [wilson95]",
        "Δpp",
        "z",
        "p"
    ));
    for c in &r.cells {
        let mut flags = String::new();
        if c.significant {
            flags.push_str("SIGNIFICANT ");
        }
        if c.drift {
            flags.push_str("DRIFT ");
        }
        out.push_str(&format!(
            "{:<22} {:<9} {:>5}/{:<5} {:>5.1} [{:4.1},{:4.1}] {:>5}/{:<5} {:>5.1} [{:4.1},{:4.1}] {:>+7.1} {:>7.2} {:>7.4}  {}\n",
            c.workload,
            c.category,
            c.sdc_a,
            c.n_a,
            c.rate_a,
            c.lo_a,
            c.hi_a,
            c.sdc_b,
            c.n_b,
            c.rate_b,
            c.lo_b,
            c.hi_b,
            c.delta,
            c.z,
            c.p,
            flags.trim_end()
        ));
    }
    out.push_str(&format!(
        "{} cell(s) compared, {} significant at p<0.05, {} drifted\n",
        r.cells.len(),
        r.significant,
        r.drift
    ));
    for s in &r.only_a {
        out.push_str(&format!("only in A: {s}\n"));
    }
    for s in &r.only_b {
        out.push_str(&format!("only in B: {s}\n"));
    }
    for s in &r.partial_a {
        out.push_str(&format!("partial in A (excluded): {s}\n"));
    }
    for s in &r.partial_b {
        out.push_str(&format!("partial in B (excluded): {s}\n"));
    }
    out
}

/// One (lane, bit) cell of a vulnerability grid.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LaneBitCell {
    pub lane: u32,
    pub bit: u32,
    pub injections: u64,
    pub sdc: u64,
}

/// One static site joined against its dynamic outcomes.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SiteRow {
    pub site_id: u32,
    pub opcode: String,
    /// §II-C categories of the site's forward slice.
    pub categories: Vec<String>,
    pub injections: u64,
    pub sdc: u64,
    pub crash: u64,
    /// SDC share of this site's injections, percent.
    pub sdc_rate: f64,
}

/// Site × lane × bit vulnerability surface of one workload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadHeatmap {
    pub workload: String,
    /// Grid extents: observed lanes are `0..lanes`, bits `0..bits`.
    pub lanes: u32,
    pub bits: u32,
    /// Sparse grid cells, lane-major; cells that saw no injection are
    /// omitted.
    pub grid: Vec<LaneBitCell>,
    /// Sites ranked by SDC count (then injections, then id).
    pub sites: Vec<SiteRow>,
}

/// Propagation-distance percentiles (nearest-rank) over the spans that
/// recorded a propagation distance.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PropagationPercentiles {
    pub samples: usize,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl PropagationPercentiles {
    /// Nearest-rank percentiles of `samples` (need not be sorted).
    pub fn of(mut samples: Vec<u64>) -> Option<PropagationPercentiles> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = |q: f64| {
            let n = samples.len();
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        Some(PropagationPercentiles {
            samples: samples.len(),
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: *samples.last().unwrap(),
        })
    }
}

/// Aggregates for one §II-C category.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CategorySummary {
    pub category: String,
    pub spans: usize,
    pub sdc: u64,
    pub benign: u64,
    pub crash: u64,
    /// `None` when no span in this category recorded a propagation
    /// distance.
    pub propagation: Option<PropagationPercentiles>,
}

/// One static site ranked by how often its faults became SDCs.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SiteSdcSummary {
    pub workload: String,
    pub site_id: u32,
    pub opcode: String,
    /// Experiments that injected this site and ended in SDC.
    pub sdc: u64,
    /// All experiments that injected this site.
    pub total: u64,
}

/// `vulfi trace summarize`'s document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceSummary {
    pub studies: usize,
    /// Deduplicated spans (one per experiment coordinate).
    pub spans: usize,
    /// Spans whose experiment actually injected a fault.
    pub injected: usize,
    pub categories: Vec<CategorySummary>,
    /// Top-N sites by SDC count (ties broken by total injections, then
    /// site id). Sites that never produced an SDC are omitted.
    pub top_sdc_sites: Vec<SiteSdcSummary>,
}

/// A trace root tallied once; each report cuts its own top N when it
/// prints. Engine-model spans (`mask-corrupt`, `address-line`,
/// `memory-cell`) count in the category rows and propagation but in no
/// site row or lane × bit cell: the engine corrupts a mask, a pointer or
/// a memory cell, not the site its injection record names.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRollup {
    /// `trace summarize`'s document, every SDC-prone site ranked.
    pub summary: TraceSummary,
    /// One per workload with a value-model injection: its lane × bit
    /// grid and every injected site, ranked.
    pub heatmaps: Vec<WorkloadHeatmap>,
}

/// Read a trace root once (`load_spans`) and tally every span once;
/// `model` filters as `load_spans` does.
pub fn rollup(store: &TraceStore, model: Option<&str>) -> Result<TraceRollup, OrchError> {
    let (studies, spans) = load_spans(store, model)?;
    let mut categories: BTreeMap<&str, (CategorySummary, Vec<u64>)> = BTreeMap::new();
    type Tally<'a> = (
        BTreeMap<(u32, u32), LaneBitCell>,
        BTreeMap<(u32, &'a str), SiteRow>,
    );
    let mut workloads: BTreeMap<&str, Tally> = BTreeMap::new();
    // Opcode of each (workload, site id) at its first span: the summary's
    // label for a site id several modules of one workload share.
    let mut labels: BTreeMap<(&str, u32), &str> = BTreeMap::new();
    let mut injected = 0;
    for span in &spans {
        let t = &span.trace;
        let (c, samples) = categories.entry(&span.category).or_default();
        c.spans += 1;
        *match t.outcome {
            Outcome::Sdc => &mut c.sdc,
            Outcome::Benign => &mut c.benign,
            Outcome::Crash => &mut c.crash,
        } += 1;
        samples.extend(t.propagation);
        let Some(inj) = &t.injection else { continue };
        injected += 1;
        if vulfi::FaultModel::parse(&span.model).is_ok_and(|m| m.engine_model().is_some()) {
            continue;
        }
        let sdc = (t.outcome == Outcome::Sdc) as u64;
        let (grid, sites) = workloads.entry(&span.workload).or_default();
        let cell = grid.entry((inj.lane, inj.bit)).or_default();
        cell.injections += 1;
        cell.sdc += sdc;
        // Site ids are per instrumented module: rows key on the opcode too.
        let row = sites
            .entry((inj.site_id, &inj.opcode))
            .or_insert_with(|| SiteRow {
                site_id: inj.site_id,
                opcode: inj.opcode.clone(),
                categories: inj.categories.clone(),
                ..Default::default()
            });
        row.injections += 1;
        row.sdc += sdc;
        row.crash += (t.outcome == Outcome::Crash) as u64;
        labels
            .entry((&span.workload, inj.site_id))
            .or_insert(&inj.opcode);
    }

    let mut heatmaps = Vec::new();
    // The summary's sites: rows summed per (workload, site id).
    let mut top: BTreeMap<(&str, u32), SiteSdcSummary> = BTreeMap::new();
    for (workload, (grid, sites)) in workloads {
        let mut sites: Vec<SiteRow> = sites.into_values().collect();
        for row in &mut sites {
            row.sdc_rate = 100.0 * row.sdc as f64 / row.injections as f64;
            let site = top
                .entry((workload, row.site_id))
                .or_insert_with(|| SiteSdcSummary {
                    workload: workload.to_string(),
                    site_id: row.site_id,
                    opcode: labels[&(workload, row.site_id)].to_string(),
                    ..Default::default()
                });
            site.sdc += row.sdc;
            site.total += row.injections;
        }
        sites.sort_by(|a, b| {
            (b.sdc, b.injections, a.site_id).cmp(&(a.sdc, a.injections, b.site_id))
        });
        heatmaps.push(WorkloadHeatmap {
            workload: workload.to_string(),
            lanes: grid.keys().map(|&(lane, _)| lane + 1).max().unwrap_or(0),
            bits: grid.keys().map(|&(_, bit)| bit + 1).max().unwrap_or(0),
            grid: grid
                .into_iter()
                .map(|((lane, bit), c)| LaneBitCell { lane, bit, ..c })
                .collect(),
            sites,
        });
    }
    let mut top: Vec<SiteSdcSummary> = top.into_values().filter(|s| s.sdc > 0).collect();
    top.sort_by(|a, b| {
        (b.sdc, b.total, a.site_id, &a.workload).cmp(&(a.sdc, a.total, b.site_id, &b.workload))
    });
    let categories = categories
        .into_iter()
        .map(|(category, (c, samples))| CategorySummary {
            category: category.to_string(),
            propagation: PropagationPercentiles::of(samples),
            ..c
        });
    let summary = TraceSummary {
        studies,
        spans: spans.len(),
        injected,
        categories: categories.collect(),
        top_sdc_sites: top,
    };
    Ok(TraceRollup { summary, heatmaps })
}

/// Render heatmaps as text: a site ranking plus a lane-row density strip.
pub fn render_heatmap_text(maps: &[WorkloadHeatmap]) -> String {
    let mut out = String::new();
    for m in maps {
        out.push_str(&format!(
            "{}: {} grid cell(s) over {} lane(s) x {} bit(s)\n",
            m.workload,
            m.grid.len(),
            m.lanes,
            m.bits
        ));
        for lane in 0..m.lanes {
            let (inj, sdc) = m
                .grid
                .iter()
                .filter(|c| c.lane == lane)
                .fold((0u64, 0u64), |(i, s), c| (i + c.injections, s + c.sdc));
            if inj == 0 {
                continue;
            }
            out.push_str(&format!(
                "  lane {:>2}: {:>5} injection(s), {:>4} SDC ({:.1}%)\n",
                lane,
                inj,
                sdc,
                100.0 * sdc as f64 / inj as f64
            ));
        }
        out.push_str("  most vulnerable sites:\n");
        for s in &m.sites {
            out.push_str(&format!(
                "    site {:>4} {:<12} [{}] SDC {}/{} ({:.1}%), {} crash(es)\n",
                s.site_id,
                s.opcode,
                s.categories.join(","),
                s.sdc,
                s.injections,
                s.sdc_rate,
                s.crash
            ));
        }
    }
    if maps.is_empty() {
        out.push_str("no injected trace spans\n");
    }
    out
}

/// One bucket of the mask-occupancy histogram.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OccupancyBucket {
    pub active_lanes: u32,
    pub insts: u64,
}

/// Lane-occupancy profile of one workload's golden run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OccupancyProfile {
    pub workload: String,
    pub isa: String,
    pub total: u64,
    pub vector: u64,
    pub vector_pct: f64,
    pub lanes_active: u64,
    pub lanes_total: u64,
    pub avg_active_lanes: f64,
    /// Active fraction of all vector lane slots, percent.
    pub lane_utilization_pct: f64,
    pub hist: Vec<OccupancyBucket>,
}

impl OccupancyProfile {
    pub fn from_mix(workload: &str, isa: &str, mix: &vexec::InstMix) -> OccupancyProfile {
        OccupancyProfile {
            workload: workload.to_string(),
            isa: isa.to_string(),
            total: mix.total,
            vector: mix.vector,
            vector_pct: mix.vector_pct(),
            lanes_active: mix.lanes_active,
            lanes_total: mix.lanes_total,
            avg_active_lanes: mix.avg_active_lanes(),
            lane_utilization_pct: 100.0 * mix.lane_utilization(),
            hist: mix
                .occupancy_histogram()
                .into_iter()
                .map(|(active_lanes, insts)| OccupancyBucket {
                    active_lanes,
                    insts,
                })
                .collect(),
        }
    }
}

/// One metrics-snapshot row for the HTML report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricRow {
    pub name: String,
    pub value: f64,
}

/// One site of a workload's static vulnerability report, joined with
/// the observed injection outcomes for the same site id from the trace
/// heatmaps (zeros when tracing never hit the site).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnalysisSiteRow {
    pub site_id: u32,
    pub value: String,
    pub opcode: String,
    /// Feeding class the analyzer assigned (`store-feeding`, ...).
    pub class: String,
    /// Share of the site's (lane, bit) coordinates proven benign.
    pub predicted_benign_pct: f64,
    pub injections: u64,
    pub sdc: u64,
    /// Observed SDC share of the site's traced injections, percent.
    pub observed_sdc_pct: f64,
}

/// One workload's predicted-vs-observed join for the HTML report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnalysisCell {
    pub workload: String,
    pub function: String,
    pub total_bits: u64,
    pub benign_bits: u64,
    pub sites: Vec<AnalysisSiteRow>,
}

/// Join static vulnerability reports (keyed by workload name) with the
/// observed per-site outcomes of the matching trace heatmap. Sites the
/// tracer never injected keep zero counts — a predicted-benign site
/// *should* accumulate injections with no SDCs, which is exactly what
/// the section lets a reader eyeball.
pub fn analysis_cells(
    reports: &[(String, vulfi::VulnReport)],
    heatmaps: &[WorkloadHeatmap],
) -> Vec<AnalysisCell> {
    reports
        .iter()
        .map(|(workload, rep)| {
            let observed: std::collections::HashMap<u32, &SiteRow> = heatmaps
                .iter()
                .filter(|m| &m.workload == workload)
                .flat_map(|m| &m.sites)
                .map(|s| (s.site_id, s))
                .collect();
            AnalysisCell {
                workload: workload.clone(),
                function: rep.function.clone(),
                total_bits: rep.total_bits(),
                benign_bits: rep.benign_bits(),
                sites: rep
                    .sites
                    .iter()
                    .map(|s| {
                        let o = observed.get(&s.id);
                        AnalysisSiteRow {
                            site_id: s.id,
                            value: s.value.clone(),
                            opcode: s.opcode.clone(),
                            class: s.class.clone(),
                            predicted_benign_pct: 100.0 * s.benign_fraction(),
                            injections: o.map(|r| r.injections).unwrap_or(0),
                            sdc: o.map(|r| r.sdc).unwrap_or(0),
                            observed_sdc_pct: o.map(|r| r.sdc_rate).unwrap_or(0.0),
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Everything [`render_html`] can include. Empty slices and `None`
/// render as explicit "no data" sections rather than disappearing.
pub struct ReportInputs<'a> {
    pub title: &'a str,
    pub cells: &'a [StudyCell],
    pub partial: &'a [PartialStudy],
    pub diff: Option<&'a DiffReport>,
    /// Heatmap and propagation sections.
    pub traces: Option<&'a TraceRollup>,
    /// Site rows printed per heatmap.
    pub top_sites: usize,
    pub occupancy: &'a [OccupancyProfile],
    pub metrics: &'a [MetricRow],
    /// Static-analysis joins (`vulfi report html` over traced studies).
    pub analysis: &'a [AnalysisCell],
    /// Gauntlet verdicts (`vulfi gauntlet report`).
    pub gauntlet: Option<&'a crate::scenario::GauntletReport>,
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// An inline-SVG horizontal bar with a Wilson-interval whisker, scaled
/// to `max` percent.
fn sdc_bar(rate: f64, lo: f64, hi: f64, max: f64) -> String {
    const W: f64 = 260.0;
    let x = |v: f64| (W * (v / max.max(1e-9)).clamp(0.0, 1.0)).round();
    format!(
        "<svg width=\"{W}\" height=\"14\" role=\"img\">\
         <rect x=\"0\" y=\"2\" width=\"{}\" height=\"10\" fill=\"#c0392b\"/>\
         <line x1=\"{}\" y1=\"7\" x2=\"{}\" y2=\"7\" stroke=\"#2c3e50\" stroke-width=\"2\"/>\
         </svg>",
        x(rate),
        x(lo),
        x(hi)
    )
}

fn heatmap_table(m: &WorkloadHeatmap) -> String {
    let mut cells: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    for c in &m.grid {
        cells.insert((c.lane, c.bit), (c.injections, c.sdc));
    }
    let peak = m.grid.iter().map(|c| c.sdc).max().unwrap_or(0).max(1) as f64;
    let mut html = String::from("<table class=\"heat\"><tr><th>lane\\bit</th>");
    for b in 0..m.bits {
        html.push_str(&format!("<th>{b}</th>"));
    }
    html.push_str("</tr>");
    for lane in 0..m.lanes {
        html.push_str(&format!("<tr><th>{lane}</th>"));
        for bit in 0..m.bits {
            match cells.get(&(lane, bit)) {
                Some(&(inj, sdc)) => {
                    let alpha = (sdc as f64 / peak * 0.9 + 0.05).min(1.0);
                    html.push_str(&format!(
                        "<td style=\"background:rgba(192,57,43,{alpha:.2})\" \
                         title=\"lane {lane} bit {bit}: {sdc} SDC / {inj} injection(s)\">{sdc}</td>"
                    ));
                }
                None => html.push_str("<td class=\"empty\"></td>"),
            }
        }
        html.push_str("</tr>");
    }
    html.push_str("</table>");
    html
}

/// Render one self-contained HTML report: no scripts, no external
/// stylesheets, no fetches — inline SVG and CSS only.
pub fn render_html(inp: &ReportInputs) -> String {
    let mut h = String::new();
    h.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    h.push_str(&format!("<title>{}</title>\n", esc(inp.title)));
    h.push_str(
        "<style>\
         body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:1080px;color:#222}\
         h1{font-size:1.5em} h2{margin-top:2em;border-bottom:1px solid #ddd}\
         table{border-collapse:collapse;margin:.8em 0} td,th{border:1px solid #ccc;\
         padding:.25em .6em;text-align:right} th{background:#f4f4f4}\
         td:first-child,th:first-child{text-align:left}\
         .heat td{min-width:1.6em;text-align:center} .heat .empty{background:#fafafa}\
         .sig{color:#c0392b;font-weight:bold} .drift{color:#8e44ad;font-weight:bold}\
         .muted{color:#888}\
         </style></head><body>\n",
    );
    h.push_str(&format!("<h1>{}</h1>\n", esc(inp.title)));

    // Fig. 11/12-shaped study table.
    h.push_str("<section id=\"studies\"><h2>Studies</h2>\n");
    if inp.cells.is_empty() {
        h.push_str("<p class=\"muted\">no complete studies in the store</p>\n");
    } else {
        let max = inp.cells.iter().map(|c| c.wilson_hi).fold(1.0f64, f64::max);
        h.push_str(
            "<table><tr><th>workload</th><th>ISA</th><th>category</th><th>SDC</th>\
             <th>n</th><th>SDC %</th><th>Wilson 95%</th><th>mean ± margin</th>\
             <th>detect %</th><th></th></tr>\n",
        );
        for c in inp.cells {
            let det = if c.sdc > 0 && c.detected > 0 {
                format!("{:.1}", 100.0 * c.sdc_detected as f64 / c.sdc as f64)
            } else {
                "–".to_string()
            };
            h.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{:.1}</td><td>[{:.1}, {:.1}]</td><td>{:.1} ± {:.1}{}</td><td>{}</td><td>{}</td></tr>\n",
                esc(&c.workload),
                esc(&c.isa),
                esc(&c.category),
                c.sdc,
                c.experiments,
                c.sdc_rate,
                c.wilson_lo,
                c.wilson_hi,
                c.mean_sdc,
                c.margin_95,
                if c.converged { "" } else { " (capped)" },
                det,
                sdc_bar(c.sdc_rate, c.wilson_lo, c.wilson_hi, max),
            ));
        }
        h.push_str("</table>\n");
    }
    for p in inp.partial {
        h.push_str(&format!(
            "<p class=\"muted\">partial (excluded): {}</p>\n",
            esc(&p.label())
        ));
    }
    h.push_str("</section>\n");

    // Gauntlet verdicts.
    h.push_str("<section id=\"gauntlet\"><h2>Gauntlet verdicts</h2>\n");
    match inp.gauntlet {
        None => h.push_str(
            "<p class=\"muted\">no gauntlet run (render with \
             <code>vulfi gauntlet report</code>)</p>\n",
        ),
        Some(g) => {
            h.push_str(&format!(
                "<p>scenario <strong>{}</strong>: {} cells, {} breaches — \
                 <span class=\"{}\">{}</span></p>\n",
                esc(&g.scenario),
                g.cells.len(),
                g.breaches(),
                if g.passed() { "" } else { "sig" },
                if g.passed() { "PASS" } else { "FAIL" },
            ));
            h.push_str(
                "<table><tr><th>bench</th><th>ISA</th><th>category</th><th>model</th>\
                 <th>n</th><th>SDC %</th><th>crash</th><th>verdict</th></tr>\n",
            );
            for c in &g.cells {
                let verdict = if c.passed() {
                    "PASS".to_string()
                } else {
                    let names: Vec<&str> = c
                        .invariants
                        .iter()
                        .filter(|i| i.breached)
                        .map(|i| i.name.as_str())
                        .collect();
                    format!("<span class=\"sig\">FAIL ({})</span>", names.join(", "))
                };
                h.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                     <td>{:.1}</td><td>{}</td><td>{}</td></tr>\n",
                    esc(&c.bench),
                    esc(&c.isa),
                    esc(&c.category),
                    esc(&c.model),
                    c.experiments,
                    c.sdc_rate,
                    c.crash,
                    verdict,
                ));
            }
            h.push_str("</table>\n");
            for c in &g.cells {
                for i in c.invariants.iter().filter(|i| i.breached) {
                    h.push_str(&format!(
                        "<p class=\"sig\">breach: {}/{}/{}/{}: {} {} \
                         (observed {:.1}%, 95% CI [{:.1}, {:.1}])</p>\n",
                        esc(&c.bench),
                        esc(&c.isa),
                        esc(&c.category),
                        esc(&c.model),
                        esc(&i.name),
                        i.threshold,
                        i.observed,
                        i.lo,
                        i.hi
                    ));
                }
            }
        }
    }
    h.push_str("</section>\n");

    // Diff section.
    h.push_str("<section id=\"diff\"><h2>Study diff</h2>\n");
    match inp.diff {
        None => h.push_str(
            "<p class=\"muted\">no comparison store given (re-run with \
             <code>--diff-store DIR</code>)</p>\n",
        ),
        Some(d) => {
            h.push_str(&format!(
                "<p>{} cell(s) compared — <span class=\"sig\">{} significant</span> at \
                 p&lt;0.05, <span class=\"drift\">{} drifted</span></p>\n",
                d.cells.len(),
                d.significant,
                d.drift
            ));
            h.push_str(
                "<table><tr><th>workload</th><th>category</th><th>A</th><th>B</th>\
                 <th>A % [95%]</th><th>B % [95%]</th><th>Δpp</th><th>z</th><th>p</th>\
                 <th>verdict</th></tr>\n",
            );
            for c in &d.cells {
                let verdict = if c.drift {
                    "<span class=\"drift\">DRIFT</span>"
                } else if c.significant {
                    "<span class=\"sig\">significant</span>"
                } else {
                    "—"
                };
                h.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{} ({}/{})</td><td>{} ({}/{})</td>\
                     <td>{:.1} [{:.1}, {:.1}]</td><td>{:.1} [{:.1}, {:.1}]</td>\
                     <td>{:+.1}</td><td>{:.2}</td><td>{:.4}</td><td>{}</td></tr>\n",
                    esc(&c.workload),
                    esc(&c.category),
                    esc(&c.isa_a),
                    c.sdc_a,
                    c.n_a,
                    esc(&c.isa_b),
                    c.sdc_b,
                    c.n_b,
                    c.rate_a,
                    c.lo_a,
                    c.hi_a,
                    c.rate_b,
                    c.lo_b,
                    c.hi_b,
                    c.delta,
                    c.z,
                    c.p,
                    verdict,
                ));
            }
            h.push_str("</table>\n");
            for s in d.only_a.iter() {
                h.push_str(&format!("<p class=\"muted\">only in A: {}</p>\n", esc(s)));
            }
            for s in d.only_b.iter() {
                h.push_str(&format!("<p class=\"muted\">only in B: {}</p>\n", esc(s)));
            }
        }
    }
    h.push_str("</section>\n");

    // Heatmaps.
    h.push_str("<section id=\"heatmap\"><h2>Vulnerability heatmaps</h2>\n");
    let heatmaps = inp.traces.map_or(&[][..], |t| &t.heatmaps);
    if heatmaps.is_empty() {
        h.push_str("<p class=\"muted\">no injected trace spans (run studies with --trace)</p>\n");
    }
    for m in heatmaps {
        h.push_str(&format!(
            "<h3>{} — lane × bit SDC density</h3>\n",
            esc(&m.workload)
        ));
        h.push_str(&heatmap_table(m));
        h.push_str(
            "<table><tr><th>site</th><th>opcode</th><th>categories</th>\
             <th>injections</th><th>SDC</th><th>crash</th><th>SDC %</th></tr>\n",
        );
        for s in m.sites.iter().take(inp.top_sites) {
            h.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{:.1}</td></tr>\n",
                s.site_id,
                esc(&s.opcode),
                esc(&s.categories.join(", ")),
                s.injections,
                s.sdc,
                s.crash,
                s.sdc_rate,
            ));
        }
        h.push_str("</table>\n");
    }
    h.push_str("</section>\n");

    // Static analysis: predicted-benign fraction vs observed SDC.
    h.push_str("<section id=\"analysis\"><h2>Static analysis</h2>\n");
    if inp.analysis.is_empty() {
        h.push_str(
            "<p class=\"muted\">no static analysis (render with \
             <code>vulfi report html --trace DIR</code> over traced studies)</p>\n",
        );
    }
    for a in inp.analysis {
        let benign_pct = if a.total_bits == 0 {
            0.0
        } else {
            100.0 * a.benign_bits as f64 / a.total_bits as f64
        };
        h.push_str(&format!(
            "<h3>{} — predicted vs observed</h3>\
             <p>@{}: {} of {} scalar bits provably benign ({:.1}%)</p>\n",
            esc(&a.workload),
            esc(&a.function),
            a.benign_bits,
            a.total_bits,
            benign_pct,
        ));
        h.push_str(
            "<table><tr><th>site</th><th>value</th><th>opcode</th><th>class</th>\
             <th>predicted benign %</th><th>injections</th><th>SDC</th>\
             <th>observed SDC %</th></tr>\n",
        );
        for s in &a.sites {
            // A site the analyzer called mostly benign that still shows
            // SDCs in traces is flagged loudly — that pairing is the
            // whole point of the join.
            let suspicious = s.predicted_benign_pct >= 99.999 && s.sdc > 0;
            h.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.1}</td>\
                 <td>{}</td><td>{}</td><td>{}</td></tr>\n",
                s.site_id,
                esc(&s.value),
                esc(&s.opcode),
                esc(&s.class),
                s.predicted_benign_pct,
                s.injections,
                s.sdc,
                if suspicious {
                    format!("<span class=\"sig\">{:.1}</span>", s.observed_sdc_pct)
                } else {
                    format!("{:.1}", s.observed_sdc_pct)
                },
            ));
        }
        h.push_str("</table>\n");
    }
    h.push_str("</section>\n");

    // Lane occupancy (Fig. 10-shaped dynamic composition + masking).
    h.push_str("<section id=\"occupancy\"><h2>Lane occupancy</h2>\n");
    if inp.occupancy.is_empty() {
        h.push_str("<p class=\"muted\">no occupancy profiles</p>\n");
    }
    for o in inp.occupancy {
        h.push_str(&format!(
            "<h3>{} [{}]</h3>\
             <p>{} dynamic instructions, {:.1}% vector; mean {:.2} active lanes per \
             vector instruction, {:.1}% lane utilization</p>\n",
            esc(&o.workload),
            esc(&o.isa),
            o.total,
            o.vector_pct,
            o.avg_active_lanes,
            o.lane_utilization_pct,
        ));
        let peak = o.hist.iter().map(|b| b.insts).max().unwrap_or(1).max(1) as f64;
        h.push_str("<table><tr><th>active lanes</th><th>vector insts</th><th></th></tr>\n");
        for b in &o.hist {
            let w = (240.0 * b.insts as f64 / peak).round().max(1.0);
            h.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td><svg width=\"240\" height=\"12\">\
                 <rect x=\"0\" y=\"1\" width=\"{w}\" height=\"10\" fill=\"#2980b9\"/></svg></td></tr>\n",
                b.active_lanes, b.insts
            ));
        }
        h.push_str("</table>\n");
    }
    h.push_str("</section>\n");

    // Propagation percentiles.
    h.push_str("<section id=\"propagation\"><h2>Propagation</h2>\n");
    match inp.traces.map(|t| &t.summary) {
        Some(t) if t.spans > 0 => {
            h.push_str(&format!(
                "<p>{} span(s) across {} stud{}, {} injected</p>\n",
                t.spans,
                t.studies,
                if t.studies == 1 { "y" } else { "ies" },
                t.injected
            ));
            h.push_str(
                "<table><tr><th>category</th><th>spans</th><th>SDC</th><th>benign</th>\
                 <th>crash</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>\n",
            );
            for c in &t.categories {
                let (p50, p90, p99, max) = match &c.propagation {
                    Some(p) => (
                        p.p50.to_string(),
                        p.p90.to_string(),
                        p.p99.to_string(),
                        p.max.to_string(),
                    ),
                    None => ("–".into(), "–".into(), "–".into(), "–".into()),
                };
                h.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                     <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                    esc(&c.category),
                    c.spans,
                    c.sdc,
                    c.benign,
                    c.crash,
                    p50,
                    p90,
                    p99,
                    max
                ));
            }
            h.push_str("</table>\n");
        }
        _ => h.push_str("<p class=\"muted\">no trace spans</p>\n"),
    }
    h.push_str("</section>\n");

    // Metrics snapshot.
    h.push_str("<section id=\"metrics\"><h2>Metrics snapshot</h2>\n");
    if inp.metrics.is_empty() {
        h.push_str("<p class=\"muted\">no metrics snapshot (pass --metrics-in)</p>\n");
    } else {
        h.push_str("<table><tr><th>metric</th><th>value</th></tr>\n");
        for m in inp.metrics {
            h.push_str(&format!(
                "<tr><td>{}</td><td>{}</td></tr>\n",
                esc(&m.name),
                m.value
            ));
        }
        h.push_str("</table>\n");
    }
    h.push_str("</section>\n</body></html>\n");
    h
}

/// Build the report, reading each result store once; `traces` is the
/// caller's roll-up of the trace root.
#[allow(clippy::too_many_arguments)]
pub fn html_from_stores(
    title: &str,
    store: &Store,
    traces: Option<&TraceRollup>,
    diff_against: Option<&Store>,
    occupancy: &[OccupancyProfile],
    metrics: &[MetricRow],
    analysis: &[AnalysisCell],
    gauntlet: Option<&crate::scenario::GauntletReport>,
    top_sites: usize,
) -> Result<String, OrchError> {
    let (cells, partial) = load_cells(store)?;
    let diff = diff_against
        .map(|b| load_cells(b).map(|(cb, pb)| diff_cells(cells.clone(), cb, &partial, &pb)))
        .transpose()?;
    Ok(render_html(&ReportInputs {
        title,
        cells: &cells,
        partial: &partial,
        diff: diff.as_ref(),
        traces,
        top_sites,
        occupancy,
        metrics,
        analysis,
        gauntlet,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, isa: &str, category: &str, key: &str, sdc: u64, n: u64) -> StudyCell {
        let (lo, hi) = wilson_interval_95(sdc, n);
        let rate = if n == 0 {
            0.0
        } else {
            100.0 * sdc as f64 / n as f64
        };
        StudyCell {
            key: key.to_string(),
            workload: workload.to_string(),
            isa: isa.to_string(),
            category: category.to_string(),
            sdc,
            benign: n - sdc,
            crash: 0,
            detected: 0,
            sdc_detected: 0,
            experiments: n,
            sdc_rate: rate,
            wilson_lo: 100.0 * lo,
            wilson_hi: 100.0 * hi,
            mean_sdc: rate,
            margin_95: 1.0,
            campaigns: 4,
            converged: true,
        }
    }

    #[test]
    fn identical_cells_diff_to_zero_significance() {
        let a = vec![
            cell("W", "avx", "pure-data", "k1", 40, 200),
            cell("W", "avx", "control", "k2", 10, 200),
        ];
        let b = a.clone();
        let d = diff_cells(a, b, &[], &[]);
        assert_eq!(d.cells.len(), 2);
        assert_eq!(d.significant, 0);
        assert_eq!(d.drift, 0);
        assert!(d.only_a.is_empty() && d.only_b.is_empty());
        for c in &d.cells {
            assert!(!c.significant);
            assert_eq!(c.delta, 0.0);
        }
    }

    #[test]
    fn large_difference_is_significant() {
        let a = vec![cell("W", "avx", "pure-data", "ka", 120, 200)];
        let b = vec![cell("W", "avx", "pure-data", "kb", 40, 200)];
        let d = diff_cells(a, b, &[], &[]);
        assert_eq!(d.significant, 1);
        let c = &d.cells[0];
        assert!(c.significant && c.p < 0.001);
        assert!(c.delta < 0.0, "B has the lower rate");
        assert_eq!(d.drift, 0, "different keys cannot drift");
    }

    #[test]
    fn cross_isa_fallback_join_and_only_lists() {
        let a = vec![
            cell("W", "avx", "pure-data", "k1", 50, 200),
            cell("X", "avx", "pure-data", "k3", 5, 200),
        ];
        let b = vec![
            cell("W", "sse", "pure-data", "k2", 48, 200),
            cell("Y", "sse", "control", "k4", 5, 200),
        ];
        let d = diff_cells(a, b, &[], &[]);
        assert_eq!(d.cells.len(), 1, "W pairs across ISAs");
        assert_eq!(d.cells[0].isa_a, "avx");
        assert_eq!(d.cells[0].isa_b, "sse");
        assert_eq!(d.only_a, vec!["X [avx] pure-data".to_string()]);
        assert_eq!(d.only_b, vec!["Y [sse] control".to_string()]);
    }

    #[test]
    fn same_key_different_counts_flags_drift() {
        let a = vec![cell("W", "avx", "pure-data", "kk", 50, 200)];
        let b = vec![cell("W", "avx", "pure-data", "kk", 52, 200)];
        let d = diff_cells(a, b, &[], &[]);
        assert_eq!(d.drift, 1);
        assert!(d.cells[0].drift);
        let text = render_diff_text(&d);
        assert!(text.contains("DRIFT"), "{text}");
    }

    #[test]
    fn html_report_is_self_contained_with_all_sections() {
        let cells = vec![cell("W", "avx", "pure-data", "k1", 40, 200)];
        let d = diff_cells(cells.clone(), cells.clone(), &[], &[]);
        let maps = vec![WorkloadHeatmap {
            workload: "W".to_string(),
            lanes: 2,
            bits: 3,
            grid: vec![LaneBitCell {
                lane: 0,
                bit: 2,
                injections: 5,
                sdc: 3,
            }],
            sites: vec![SiteRow {
                site_id: 1,
                opcode: "fmul".to_string(),
                categories: vec!["pure-data".to_string()],
                injections: 5,
                sdc: 3,
                crash: 0,
                sdc_rate: 60.0,
            }],
        }];
        let occ = vec![OccupancyProfile {
            workload: "W".to_string(),
            isa: "avx".to_string(),
            total: 100,
            vector: 40,
            vector_pct: 40.0,
            lanes_active: 280,
            lanes_total: 320,
            avg_active_lanes: 7.0,
            lane_utilization_pct: 87.5,
            hist: vec![
                OccupancyBucket {
                    active_lanes: 3,
                    insts: 8,
                },
                OccupancyBucket {
                    active_lanes: 8,
                    insts: 32,
                },
            ],
        }];
        let gauntlet = crate::scenario::GauntletReport {
            scenario: "smoke".to_string(),
            cells: vec![crate::scenario::CellVerdict {
                bench: "W".to_string(),
                isa: "avx".to_string(),
                category: "pure-data".to_string(),
                model: "multi-bit-burst:2".to_string(),
                key: "k1".to_string(),
                experiments: 200,
                sdc: 40,
                benign: 150,
                crash: 10,
                sdc_detected: 0,
                sdc_rate: 20.0,
                converged: true,
                invariants: vec![crate::scenario::InvariantVerdict {
                    name: "sdc_rate_max".to_string(),
                    threshold: 10.0,
                    observed: 20.0,
                    lo: 15.0,
                    hi: 26.0,
                    breached: true,
                    vacuous: false,
                }],
            }],
        };
        // One site row over the cut: the heatmap table stops at
        // `top_sites`.
        let mut cut = maps[0].sites[0].clone();
        cut.site_id = 77;
        cut.opcode = "cutrow".to_string();
        let mut maps = maps;
        maps[0].sites.push(cut);
        let summary = TraceSummary {
            studies: 1,
            spans: 6,
            injected: 6,
            categories: vec![],
            top_sdc_sites: vec![],
        };
        let traces = TraceRollup {
            summary,
            heatmaps: maps,
        };
        let html = render_html(&ReportInputs {
            title: "vulfi <report> & test",
            cells: &cells,
            partial: &[],
            diff: Some(&d),
            traces: Some(&traces),
            top_sites: 1,
            occupancy: &occ,
            metrics: &[MetricRow {
                name: "vulfi_experiments_total".to_string(),
                value: 200.0,
            }],
            analysis: &[AnalysisCell {
                workload: "W".to_string(),
                function: "kernel".to_string(),
                total_bits: 1024,
                benign_bits: 256,
                sites: vec![AnalysisSiteRow {
                    site_id: 1,
                    value: "%acc".to_string(),
                    opcode: "fmul".to_string(),
                    class: "pure-data".to_string(),
                    predicted_benign_pct: 100.0,
                    injections: 5,
                    sdc: 3,
                    observed_sdc_pct: 60.0,
                }],
            }],
            gauntlet: Some(&gauntlet),
        });
        for id in [
            "studies",
            "gauntlet",
            "diff",
            "heatmap",
            "analysis",
            "occupancy",
            "propagation",
            "metrics",
        ] {
            assert!(
                html.contains(&format!("id=\"{id}\"")),
                "missing section {id}"
            );
        }
        // Self-contained: no scripts, no external fetches of any kind.
        for needle in ["<script", "http://", "https://", "<link", "@import", "url("] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
        // Title is escaped, charts are inline SVG.
        assert!(html.contains("vulfi &lt;report&gt; &amp; test"));
        assert!(html.contains("<svg"));
        // The gauntlet section names the breached invariant and model.
        assert!(html.contains("FAIL (sdc_rate_max)"), "{html}");
        assert!(html.contains("multi-bit-burst:2"));
        // A 100%-predicted-benign site with observed SDC is flagged.
        assert!(html.contains("256 of 1024 scalar bits provably benign"));
        assert!(html.contains("<span class=\"sig\">60.0"), "{html}");
        assert!(html.contains("fmul") && !html.contains("cutrow"), "{html}");
    }

    #[test]
    fn heatmap_text_rendering() {
        let maps = vec![WorkloadHeatmap {
            workload: "W".to_string(),
            lanes: 2,
            bits: 8,
            grid: vec![
                LaneBitCell {
                    lane: 0,
                    bit: 1,
                    injections: 4,
                    sdc: 2,
                },
                LaneBitCell {
                    lane: 1,
                    bit: 7,
                    injections: 2,
                    sdc: 0,
                },
            ],
            sites: vec![],
        }];
        let text = render_heatmap_text(&maps);
        assert!(
            text.contains("lane  0:     4 injection(s),    2 SDC"),
            "{text}"
        );
        assert!(render_heatmap_text(&[]).contains("no injected trace spans"));
    }

    // ---- store-backed fixtures ----

    use crate::store::{Manifest, ShardRecord, Store};
    use crate::tracestore::{TraceShard, TraceStore};
    use crate::StudyKey;
    use std::path::PathBuf;
    use vir::analysis::SiteCategory;
    use vulfi::{Experiment, ExperimentTrace, StudyConfig, TraceInjection};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vulfi-analytics-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn synth_cfg() -> StudyConfig {
        StudyConfig {
            experiments_per_campaign: 10,
            target_margin: 3.0,
            min_campaigns: 4,
            max_campaigns: 4,
            seed: 1,
            ..StudyConfig::default()
        }
    }

    /// Write one complete 4-campaign study: campaign `c` has
    /// `sdc_per_campaign[c]` SDCs out of 10 experiments.
    fn synth_study(
        store: &Store,
        key: &str,
        workload: &str,
        isa: &str,
        sdc_per_campaign: [usize; 4],
    ) {
        let cfg = synth_cfg();
        let key = StudyKey(key.to_string());
        let study = store.study(&key);
        study
            .write_manifest(&Manifest {
                key: key.clone(),
                workload: workload.to_string(),
                isa: isa.to_string(),
                category: SiteCategory::PureData,
                entry: "f".to_string(),
                cfg,
                total_shards: 4,
                complete: true,
            })
            .unwrap();
        for (c, &sdc) in sdc_per_campaign.iter().enumerate() {
            let experiments = (0..cfg.experiments_per_campaign)
                .map(|i| Experiment {
                    outcome: if i < sdc {
                        Outcome::Sdc
                    } else {
                        Outcome::Benign
                    },
                    detected: false,
                    injection: None,
                    input: 0,
                    dynamic_sites: 1,
                    golden_dyn_insts: 5,
                })
                .collect();
            study
                .append_shard(&ShardRecord {
                    campaign: c,
                    start: 0,
                    end: cfg.experiments_per_campaign,
                    experiments,
                    wall_ns: 0,
                })
                .unwrap();
        }
    }

    #[test]
    fn empty_store_has_no_cells_and_diffs_clean() {
        let da = tmpdir("empty-a");
        let db = tmpdir("empty-b");
        let a = Store::open(&da).unwrap();
        let b = Store::open(&db).unwrap();
        let (cells, partial) = load_cells(&a).unwrap();
        assert!(cells.is_empty() && partial.is_empty());
        let d = diff_stores(&a, &b).unwrap();
        assert!(d.cells.is_empty());
        assert_eq!((d.significant, d.drift), (0, 0));
        let html = html_from_stores("empty", &a, None, None, &[], &[], &[], None, 10).unwrap();
        assert!(html.contains("no complete studies"));
        assert!(html.contains("id=\"heatmap\"") && html.contains("id=\"diff\""));
        std::fs::remove_dir_all(&da).unwrap();
        std::fs::remove_dir_all(&db).unwrap();
    }

    #[test]
    fn same_key_same_counts_diff_has_zero_significant_cells() {
        let da = tmpdir("twin-a");
        let db = tmpdir("twin-b");
        let a = Store::open(&da).unwrap();
        let b = Store::open(&db).unwrap();
        // Two stores holding the same study key with identical merged
        // counts — what two resumed runs of one study must produce.
        synth_study(&a, "kAAAA", "stencil", "avx", [3, 4, 3, 4]);
        synth_study(&b, "kAAAA", "stencil", "avx", [3, 4, 3, 4]);
        let d = diff_stores(&a, &b).unwrap();
        assert_eq!(d.cells.len(), 1);
        assert_eq!(d.significant, 0, "identical stores cannot differ");
        assert_eq!(d.drift, 0);
        let c = &d.cells[0];
        assert_eq!((c.sdc_a, c.n_a), (14, 40));
        assert_eq!((c.sdc_b, c.n_b), (14, 40));
        assert!(!c.significant && !c.drift);
        std::fs::remove_dir_all(&da).unwrap();
        std::fs::remove_dir_all(&db).unwrap();
    }

    #[test]
    fn drifted_resume_of_same_key_is_flagged() {
        let da = tmpdir("drift-a");
        let db = tmpdir("drift-b");
        let a = Store::open(&da).unwrap();
        let b = Store::open(&db).unwrap();
        synth_study(&a, "kDDDD", "stencil", "avx", [3, 4, 3, 4]);
        synth_study(&b, "kDDDD", "stencil", "avx", [3, 4, 3, 5]);
        let d = diff_stores(&a, &b).unwrap();
        assert_eq!(
            d.drift, 1,
            "same key, different counts = determinism violation"
        );
        assert!(d.cells[0].drift);
        std::fs::remove_dir_all(&da).unwrap();
        std::fs::remove_dir_all(&db).unwrap();
    }

    #[test]
    fn partial_study_is_excluded_and_named() {
        let dir = tmpdir("partial");
        let store = Store::open(&dir).unwrap();
        let cfg = synth_cfg();
        let key = StudyKey("kPPPP".to_string());
        let study = store.study(&key);
        study
            .write_manifest(&Manifest {
                key: key.clone(),
                workload: "dot".to_string(),
                isa: "sse".to_string(),
                category: SiteCategory::PureData,
                entry: "f".to_string(),
                cfg,
                total_shards: 4,
                complete: false,
            })
            .unwrap();
        // Only campaign 0 of 4 landed: unmergeable.
        study
            .append_shard(&ShardRecord {
                campaign: 0,
                start: 0,
                end: 10,
                experiments: (0..10)
                    .map(|_| Experiment {
                        outcome: Outcome::Benign,
                        detected: false,
                        injection: None,
                        input: 0,
                        dynamic_sites: 1,
                        golden_dyn_insts: 5,
                    })
                    .collect(),
                wall_ns: 0,
            })
            .unwrap();
        let (cells, partial) = load_cells(&store).unwrap();
        assert!(cells.is_empty());
        assert_eq!(partial.len(), 1);
        assert_eq!((partial[0].covered, partial[0].total), (10, 40));
        assert_eq!(partial[0].label(), "dot [sse] pure-data (kPPPP)");
        assert!(matches!(
            load_study(&store, &key).unwrap(),
            StoredStudy::Partial(p) if p == partial[0]
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn heat_span(
        index: usize,
        outcome: Outcome,
        site: u32,
        lane: u32,
        bit: u32,
    ) -> ExperimentTrace {
        ExperimentTrace {
            index,
            outcome,
            detected: false,
            input: 0,
            injection: Some(TraceInjection {
                site_id: site,
                opcode: "fmul".to_string(),
                categories: vec!["pure-data".to_string()],
                lane,
                bit,
                occurrence: 1,
                at_dyn_inst: 10,
            }),
            golden_dyn_insts: 100,
            faulty_dyn_insts: 100,
            dyn_inst_delta: 0,
            propagation: None,
            trap: None,
            wall_ns: 1000,
        }
    }

    #[test]
    fn heatmaps_aggregate_and_deduplicate_spans() {
        let dir = tmpdir("heat");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("kH".to_string()));
        let shard = |campaign, start, traces: Vec<ExperimentTrace>| TraceShard {
            campaign,
            start,
            end: start + traces.len(),
            workload: "W".to_string(),
            category: "pure-data".to_string(),
            isa: "avx".to_string(),
            model: "single-bit-flip".to_string(),
            traces,
        };
        log.append_shard(&shard(
            0,
            0,
            vec![
                heat_span(0, Outcome::Sdc, 1, 0, 3),
                heat_span(1, Outcome::Benign, 2, 1, 5),
            ],
        ))
        .unwrap();
        // A resumed run re-appends experiment 0: must not double-count.
        log.append_shard(&shard(0, 0, vec![heat_span(0, Outcome::Sdc, 1, 0, 3)]))
            .unwrap();
        log.append_shard(&shard(1, 0, vec![heat_span(0, Outcome::Crash, 1, 0, 3)]))
            .unwrap();

        let maps = rollup(&store, None).unwrap().heatmaps;
        assert_eq!(maps.len(), 1);
        let m = &maps[0];
        assert_eq!(m.workload, "W");
        assert_eq!((m.lanes, m.bits), (2, 6));
        let cell = m.grid.iter().find(|c| c.lane == 0 && c.bit == 3).unwrap();
        assert_eq!(
            (cell.injections, cell.sdc),
            (2, 1),
            "duplicate span deduplicated; campaign-1 crash counted"
        );
        let top = &m.sites[0];
        assert_eq!(top.site_id, 1);
        assert_eq!((top.injections, top.sdc, top.crash), (2, 1, 1));
        assert_eq!(top.categories, vec!["pure-data".to_string()]);

        // A burst-model study in the same store: the unfiltered view
        // merges it, a model filter separates it (by full name or kind).
        let blog = store.study(&StudyKey("kB".to_string()));
        let mut burst = shard(0, 0, vec![heat_span(0, Outcome::Sdc, 9, 1, 2)]);
        burst.model = "multi-bit-burst:2".to_string();
        blog.append_shard(&burst).unwrap();

        let filtered = |model| rollup(&store, Some(model)).unwrap().heatmaps;
        let only_burst = filtered("multi-bit-burst");
        assert_eq!(only_burst.len(), 1);
        assert_eq!(only_burst[0].sites[0].site_id, 9);
        assert_eq!(filtered("multi-bit-burst:2"), only_burst);
        assert!(filtered("single-bit-flip")[0]
            .sites
            .iter()
            .all(|s| s.site_id != 9));
        assert!(filtered("memory-cell").is_empty());

        // An engine-model study counts by category, never by site or
        // lane: its injection record names no site it corrupted.
        let before = rollup(&store, None).unwrap().heatmaps;
        let elog = store.study(&StudyKey("kE".to_string()));
        let mut engine = shard(0, 0, vec![heat_span(0, Outcome::Sdc, 4, 0, 3)]);
        engine.model = "mask-corrupt".to_string();
        engine.category = "control".to_string();
        elog.append_shard(&engine).unwrap();
        let all = rollup(&store, None).unwrap();
        assert_eq!(all.heatmaps, before);
        let s = &all.summary;
        let control = s.categories.iter().find(|c| c.category == "control");
        assert_eq!(control.map(|c| (c.spans, c.sdc)), Some((1, 1)));
        assert_eq!((s.spans, s.injected), (5, 5));
        assert!(s.top_sdc_sites.iter().all(|site| site.site_id != 4));
        assert!(rollup(&store, Some("mask-corrupt"))
            .unwrap()
            .heatmaps
            .is_empty());

        // Empty trace store → no heatmaps.
        let empty = tmpdir("heat-empty");
        let es = TraceStore::open(&empty).unwrap();
        assert!(rollup(&es, None).unwrap().heatmaps.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }
}

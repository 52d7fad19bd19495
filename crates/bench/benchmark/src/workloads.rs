//! The three study workloads: which cells each one runs, how big they
//! are, and the measured loop that drives them through
//! `vulfi_orch::run_study_persistent` — the call `vulfi study` makes.
//!
//! A *round* is one pass over every cell of a workload. Round `r` runs
//! every cell at study seed [`round_seed`]`(seed, r)` into fresh stores,
//! so the mix of work is the same whole rounds on every run and only
//! round 0's outcome counts are compared against the committed fixture.

use std::path::{Path, PathBuf};
use std::time::Instant;

use spmdc::VectorIsa;
use vbench::{Scale, SpmdWorkload};
use vir::analysis::SiteCategory;
use vulfi::{FaultModel, OutcomeCounts, Prepared, StudyConfig, Workload};
use vulfi_orch::{run_study_persistent, RunOptions, RunOutcome, Store, StudyKey};

use crate::spans::Tracer;
use crate::stats::{median, minimum, sum_over_items};
use crate::{Kind, Size};

/// A fault-model variant of the `variants` workload: the metric suffix
/// of `campaign.us_per_exp.<variant>` and how the study runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    Plain,
    /// Plain single-bit flip with `RunOptions.trace` set.
    Traced,
    /// Plain single-bit flip with static pruning.
    Pruned,
    Model(&'static str),
}

pub const VARIANTS: [(&str, Variant); 9] = [
    ("plain", Variant::Plain),
    ("traced", Variant::Traced),
    ("pruned", Variant::Pruned),
    ("multi-bit-burst-2", Variant::Model("multi-bit-burst:2")),
    ("stuck-at-3-1", Variant::Model("stuck-at:3=1")),
    ("temporal-pair-8", Variant::Model("temporal-pair:8")),
    ("mask-corrupt", Variant::Model("mask-corrupt")),
    ("address-line-4", Variant::Model("address-line:4")),
    ("memory-cell", Variant::Model("memory-cell")),
];

const VARIANT_BENCHES: [&str; 3] = ["Blackscholes", "Stencil", "Jacobi"];

#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    pub bench: &'static str,
    pub isa: VectorIsa,
    pub category: SiteCategory,
    pub variant: Variant,
}

impl CellSpec {
    pub fn isa_name(&self) -> &'static str {
        match self.isa {
            VectorIsa::Avx => "avx",
            VectorIsa::Sse4 => "sse",
        }
    }

    pub fn model(&self) -> FaultModel {
        match self.variant {
            Variant::Model(m) => FaultModel::parse(m).expect("variant models are valid"),
            _ => FaultModel::SingleBitFlip,
        }
    }

    pub fn variant_name(&self) -> &'static str {
        VARIANTS
            .iter()
            .find(|(_, v)| *v == self.variant)
            .map(|(n, _)| *n)
            .expect("every variant is listed")
    }

    /// `bench/isa/category`, plus `/variant` for anything but plain.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}",
            self.bench,
            self.isa_name(),
            self.category.name()
        );
        if self.variant != Variant::Plain {
            s.push('/');
            s.push_str(self.variant_name());
        }
        s
    }

    /// The served-study JSON spec equivalent to this cell at `seed`.
    pub fn spec_json(&self, shape: Shape, seed: u64) -> serde_json::Value {
        serde_json::json!({
            "bench": self.bench,
            "isa": self.isa_name(),
            "category": self.category.name(),
            "experiments": shape.experiments as u64,
            "campaigns": shape.campaigns as u64,
            "seed": seed,
            "shard_size": shape.shard_size as u64,
            "model": self.model().name(),
            "prune": self.variant == Variant::Pruned,
        })
    }
}

/// Fixed study size: `min_campaigns = max_campaigns`, so the work does
/// not depend on the stopping rule.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub campaigns: usize,
    pub experiments: usize,
    pub shard_size: usize,
}

impl Shape {
    pub fn per_study(&self) -> u64 {
        (self.campaigns * self.experiments) as u64
    }

    pub fn config(&self, cell: &CellSpec, seed: u64) -> StudyConfig {
        StudyConfig {
            experiments_per_campaign: self.experiments,
            min_campaigns: self.campaigns,
            max_campaigns: self.campaigns,
            seed,
            model: cell.model(),
            prune: cell.variant == Variant::Pruned,
            ..StudyConfig::default()
        }
    }
}

/// Study sizes. Full sizes let a study workload run at least three
/// rounds in 20 s on a 2-core machine. Served latencies fall into
/// clusters 20 ms apart (the daemon's accept loop sleeps 20 ms when
/// idle, so every status poll waits for it); at 4 × 30 about a fifth of
/// the studies land in the fast cluster and none in a third, so both
/// percentiles stay inside one cluster when the machine's speed shifts.
pub fn shape(kind: Kind, size: Size) -> Shape {
    let (campaigns, experiments, shard_size) = match (kind, size) {
        (Kind::PaperMatrix, Size::Full) => (4, 10, 25),
        (Kind::MicroFineShards, Size::Full) => (4, 250, 1),
        (Kind::Variants, Size::Full) => (4, 15, 25),
        (Kind::ServeClosedLoop, Size::Full) => (4, 30, 30),
        (Kind::MicroFineShards, Size::Smoke) => (2, 1, 1),
        (_, Size::Smoke) => (2, 1, 25),
    };
    Shape {
        campaigns,
        experiments,
        shard_size,
    }
}

pub fn cells(kind: Kind) -> Vec<CellSpec> {
    let cell = |bench, isa, category, variant| CellSpec {
        bench,
        isa,
        category,
        variant,
    };
    let mut out = Vec::new();
    match kind {
        Kind::PaperMatrix => {
            for bench in vbench::STUDY_NAMES {
                for isa in [VectorIsa::Avx, VectorIsa::Sse4] {
                    for category in SiteCategory::ALL {
                        out.push(cell(bench, isa, category, Variant::Plain));
                    }
                }
            }
        }
        Kind::MicroFineShards => {
            for bench in vbench::MICRO_NAMES {
                for isa in [VectorIsa::Avx, VectorIsa::Sse4] {
                    for category in SiteCategory::ALL {
                        out.push(cell(bench, isa, category, Variant::Plain));
                    }
                }
            }
        }
        Kind::Variants => {
            for bench in VARIANT_BENCHES {
                for (_, variant) in VARIANTS {
                    out.push(cell(bench, VectorIsa::Avx, SiteCategory::PureData, variant));
                }
            }
        }
        Kind::ServeClosedLoop => out.push(cell(
            "dot product",
            VectorIsa::Avx,
            SiteCategory::PureData,
            Variant::Plain,
        )),
    }
    out
}

/// Study seed of round `r`. Round 0 uses the run's seed itself.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64) << 40)
}

/// A compiled and instrumented cell, ready to run.
pub struct Ready {
    pub spec: CellSpec,
    /// Index into [`Setup::workloads`].
    pub workload: usize,
    pub prog: Prepared,
}

pub struct Setup {
    pub workloads: Vec<SpmdWorkload>,
    pub cells: Vec<Ready>,
    /// Σ over compiled workloads of `vbench::*_benchmark`.
    pub compile_ms: f64,
    /// Σ over cells of `vulfi::prepare`.
    pub prepare_ms: f64,
}

impl Setup {
    pub fn workload(&self, cell: &Ready) -> &SpmdWorkload {
        &self.workloads[cell.workload]
    }
}

pub fn compile(bench: &str, isa: VectorIsa) -> Result<SpmdWorkload, String> {
    vbench::study_benchmark(bench, isa, Scale::Test)
        .or_else(|| vbench::micro_benchmark(bench, isa, Scale::Test))
        .ok_or_else(|| format!("unknown benchmark '{bench}'"))
}

/// Compile every distinct (benchmark, ISA) once and instrument every
/// cell — what `vulfi study` does before its first shard.
pub fn setup(specs: &[CellSpec], tracer: &mut Tracer, id: u64) -> Result<Setup, String> {
    let mut s = Setup {
        workloads: Vec::new(),
        cells: Vec::new(),
        compile_ms: 0.0,
        prepare_ms: 0.0,
    };
    let mut compiled: Vec<(&str, VectorIsa)> = Vec::new();
    for spec in specs {
        let idx = match compiled
            .iter()
            .position(|&(b, i)| b == spec.bench && i == spec.isa)
        {
            Some(i) => i,
            None => {
                let t = Instant::now();
                let w = compile(spec.bench, spec.isa)?;
                let end = Instant::now();
                s.compile_ms += (end - t).as_secs_f64() * 1e3;
                tracer.record(
                    "spmdc",
                    format!("compile {}", spec.label()),
                    id,
                    None,
                    t,
                    end,
                );
                s.workloads.push(w);
                compiled.push((spec.bench, spec.isa));
                compiled.len() - 1
            }
        };
        let t = Instant::now();
        let mut prog =
            vulfi::prepare(&s.workloads[idx], spec.category).map_err(|e| e.to_string())?;
        prog.model = spec.model();
        let end = Instant::now();
        s.prepare_ms += (end - t).as_secs_f64() * 1e3;
        tracer.record(
            "instrument",
            format!("prepare {}", spec.label()),
            id,
            None,
            t,
            end,
        );
        s.cells.push(Ready {
            spec: *spec,
            workload: idx,
            prog,
        });
    }
    Ok(s)
}

/// Where one cell of one round keeps its store (and, for the traced
/// variant, its trace sidecar). Every cell gets its own root: the traced
/// and plain variants share a study key.
pub fn cell_root(phase_root: &Path, round: usize, cell: usize) -> PathBuf {
    phase_root
        .join(format!("r{round}"))
        .join(format!("c{cell}"))
}

/// Run one cell through `run_study_persistent` into `root`.
pub fn run_cell(
    setup: &Setup,
    cell: &Ready,
    shape: Shape,
    seed: u64,
    root: &Path,
) -> Result<(RunOutcome, StudyConfig), String> {
    let store = Store::open(root.join("store")).map_err(|e| e.to_string())?;
    let cfg = shape.config(&cell.spec, seed);
    let w = setup.workload(cell);
    let out = run_study_persistent(
        &cell.prog,
        w,
        w.name(),
        cell.spec.isa_name(),
        &cfg,
        &store,
        RunOptions {
            shard_size: shape.shard_size,
            trace: (cell.spec.variant == Variant::Traced).then(|| root.join("trace")),
            ..RunOptions::default()
        },
    )
    .map_err(|e| format!("{}: {e}", cell.spec.label()))?;
    Ok((out, cfg))
}

/// One `run_study_persistent` call of the measured phase.
pub struct CellRun {
    pub cell: usize,
    pub round: usize,
    pub wall_s: f64,
    pub experiments: u64,
    pub counts: OutcomeCounts,
    pub key: StudyKey,
    pub cfg: StudyConfig,
}

pub struct Phase {
    pub root: PathBuf,
    pub runs: Vec<CellRun>,
    pub rounds: usize,
    pub engine_faults: u64,
    /// Wall time of each cell's re-run in each warm pass over round 0,
    /// in seconds: `warm[pass][cell]`.
    pub warm: Vec<Vec<f64>>,
}

impl Phase {
    pub fn experiments(&self) -> u64 {
        self.runs.iter().map(|r| r.experiments).sum()
    }

    /// Each cell's median `run_study_persistent` wall time over the
    /// rounds, in seconds. The median keeps a burst of contention from
    /// the rest of the machine, which hits one round's cells, out of the
    /// result.
    pub fn cell_medians(&self) -> Vec<f64> {
        let cells = self.runs.iter().map(|r| r.cell + 1).max().unwrap_or(0);
        (0..cells)
            .map(|c| {
                let walls: Vec<f64> = self
                    .runs
                    .iter()
                    .filter(|r| r.cell == c)
                    .map(|r| r.wall_s)
                    .collect();
                median(&walls)
            })
            .collect()
    }

    /// Experiments per second of a typical round: one round's
    /// experiments over the sum of the cells' median wall times.
    pub fn exp_per_s(&self) -> f64 {
        let per_round: u64 = self.round0().map(|r| r.experiments).sum();
        per_round as f64 / self.cell_medians().iter().sum::<f64>()
    }

    /// Wall time of a warm pass free of the host's slow spells: the sum
    /// of each cell's fastest re-run over the passes. A re-run is a few
    /// milliseconds of single-threaded work, which a busy shared host can
    /// slow by up to half for minutes at a time, so a median over 20 s of
    /// passes lands on either side of a slow spell.
    pub fn resume_s(&self) -> f64 {
        sum_over_items(&self.warm, minimum)
    }

    pub fn round0(&self) -> impl Iterator<Item = &CellRun> {
        self.runs.iter().filter(|r| r.round == 0)
    }
}

/// Run whole rounds until about `seconds` of rounds have passed (at
/// least one): another round starts only if it is expected to end less
/// than half a round past the deadline. Round 0's stores are kept for the
/// warm re-runs and the trace; later rounds' stores are deleted as they
/// end.
///
/// `warm` warm passes over round 0 ([`warm_pass`]) keep pace with the
/// rounds: after each round, as many run as the share of `seconds` spent
/// so far calls for, and the rest at the end, so that the host's slow
/// spells cannot hit them all. Their time is kept off the rounds' clock,
/// so the rounds get all of `seconds`.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    setup: &Setup,
    shape: Shape,
    seed: u64,
    seconds: f64,
    root: PathBuf,
    warm: usize,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Result<Phase, String> {
    let faults_before = vulfi::engine_faults().len();
    let started = Instant::now();
    // Time spent in warm passes so far.
    let mut warm_s = 0.0;
    let mut phase = Phase {
        root,
        runs: Vec::new(),
        rounds: 0,
        engine_faults: 0,
        warm: Vec::new(),
    };
    loop {
        let round = phase.rounds;
        let seed_r = round_seed(seed, round);
        for (i, cell) in setup.cells.iter().enumerate() {
            let t = Instant::now();
            let (out, cfg) = run_cell(
                setup,
                cell,
                shape,
                seed_r,
                &cell_root(&phase.root, round, i),
            )?;
            let end = Instant::now();
            tracer.record(
                "orch",
                format!("run_study_persistent {} r{round}", cell.spec.label()),
                i as u64,
                None,
                t,
                end,
            );
            let Some(result) = out.result else {
                failures.push(format!(
                    "{} round {round}: study incomplete",
                    cell.spec.label()
                ));
                continue;
            };
            if result.counts.total() != shape.per_study() {
                failures.push(format!(
                    "{} round {round}: {} experiments merged, expected {}",
                    cell.spec.label(),
                    result.counts.total(),
                    shape.per_study()
                ));
            }
            phase.runs.push(CellRun {
                cell: i,
                round,
                wall_s: (end - t).as_secs_f64(),
                experiments: result.counts.total(),
                counts: result.counts,
                key: out.key,
                cfg,
            });
        }
        if round > 0 {
            let _ = std::fs::remove_dir_all(phase.root.join(format!("r{round}")));
        }
        phase.rounds += 1;
        let share = ((started.elapsed().as_secs_f64() - warm_s) / seconds).min(1.0);
        let due = (warm as f64 * share).ceil() as usize;
        let t = Instant::now();
        while phase.warm.len() < due.min(warm) {
            let w = warm_pass(setup, shape, &phase.root, seed, tracer, failures)?;
            phase.warm.push(w);
        }
        warm_s += t.elapsed().as_secs_f64();
        let elapsed = started.elapsed().as_secs_f64() - warm_s;
        if elapsed + elapsed / phase.rounds as f64 / 2.0 > seconds {
            break;
        }
    }
    while phase.warm.len() < warm {
        let w = warm_pass(setup, shape, &phase.root, seed, tracer, failures)?;
        phase.warm.push(w);
    }
    phase.engine_faults = vulfi::engine_faults().len().saturating_sub(faults_before) as u64;
    Ok(phase)
}

/// Re-run every cell of round 0 against its complete store; each must
/// execute nothing. Returns each cell's wall time, in seconds.
fn warm_pass(
    setup: &Setup,
    shape: Shape,
    root: &Path,
    seed: u64,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Result<Vec<f64>, String> {
    let mut wall = Vec::with_capacity(setup.cells.len());
    for (i, cell) in setup.cells.iter().enumerate() {
        let t = Instant::now();
        let (out, _) = run_cell(
            setup,
            cell,
            shape,
            round_seed(seed, 0),
            &cell_root(root, 0, i),
        )?;
        let end = Instant::now();
        wall.push((end - t).as_secs_f64());
        tracer.record(
            "orch.resume",
            format!("warm {}", cell.spec.label()),
            i as u64,
            None,
            t,
            end,
        );
        if out.executed_shards != 0 || out.result.is_none() {
            failures.push(format!(
                "{}: warm re-run executed {} shard(s) (expected 0) or lost its result",
                cell.spec.label(),
                out.executed_shards
            ));
        }
    }
    Ok(wall)
}

/// Output checks that hold for any seed: a pruned cell reports the
/// counts of its plain twin, and a traced cell stores the records of its
/// plain twin (tracing and pruning never change results).
pub fn check_twins(setup: &Setup, phase: &Phase, failures: &mut Vec<String>) -> Result<(), String> {
    let round0: Vec<&CellRun> = phase.round0().collect();
    for run in &round0 {
        let spec = &setup.cells[run.cell].spec;
        if !matches!(spec.variant, Variant::Pruned | Variant::Traced) {
            continue;
        }
        let Some(twin) = round0.iter().find(|r| {
            let t = &setup.cells[r.cell].spec;
            t.variant == Variant::Plain
                && t.bench == spec.bench
                && t.isa == spec.isa
                && t.category == spec.category
        }) else {
            continue;
        };
        if run.counts != twin.counts {
            failures.push(format!(
                "{}: counts {:?} differ from its plain twin's {:?}",
                spec.label(),
                run.counts,
                twin.counts
            ));
        }
        if spec.variant == Variant::Traced {
            let records = |r: &CellRun| -> Result<Vec<vulfi::Experiment>, String> {
                let store = Store::open(cell_root(&phase.root, 0, r.cell).join("store"))
                    .map_err(|e| e.to_string())?;
                let mut shards = store.study(&r.key).shards().map_err(|e| e.to_string())?;
                shards.sort_by_key(|s| (s.campaign, s.start));
                Ok(shards.into_iter().flat_map(|s| s.experiments).collect())
            };
            if records(run)? != records(twin)? {
                failures.push(format!(
                    "{}: stored records differ from its plain twin's",
                    spec.label()
                ));
            }
        }
    }
    Ok(())
}

/// `[sdc, benign, crash, detected]`, the fixture's per-cell tuple.
pub fn count_tuple(c: &OutcomeCounts) -> [u64; 4] {
    [c.sdc, c.benign, c.crash, c.detected]
}

//! The fault-injection campaign driver (paper §IV-B, §IV-D).
//!
//! - An **experiment** compares a faulty run (one bit flip at a dynamic
//!   site drawn uniformly from 1..=N) on one randomly chosen input against
//!   that input's golden run (no faults; records the output and the
//!   dynamic-fault-site count N). The outcome is **SDC** (outputs differ),
//!   **Benign** (identical), or **Crash** (trap / fault-induced hang).
//!   The golden run depends only on the program and the input, so it runs
//!   once per input per study: a [`GoldenSet`] caches it for every
//!   experiment that draws that input.
//! - A **campaign** is 100 independent experiments; its SDC rate is one
//!   statistical sample.
//! - A **study** repeats campaigns until the ±3 pp @95% stopping rule of
//!   `stats::study_converged` fires (the paper observed 20 campaigns
//!   suffice everywhere).
//!
//! Every experiment takes one path, whatever its fault model or driver:
//! `draw` fixes the RNG order (input, then target and entropy), which
//! discharged experiments replay without executing; `golden_run` is the
//! one fault-free run (behind [`GoldenSet`], [`build_prune_context`] and
//! [`measure_dyn_insts`]); `run_body` is the one experiment body, for
//! value and engine injectors alike; and [`run_range`] is the one range
//! driver, optionally pruned or traced, which also counts the engine
//! panics it contains. Experiments are embarrassingly parallel:
//! [`run_campaign`] maps the driver's per-experiment step over rayon,
//! every thread reading the same [`GoldenSet`].

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use vexec::{Interp, Program, Trap};
use vir::analysis::SiteCategory;
use vir::Module;

use crate::analyze::{analyze_module, PrunePlan};
use crate::fault::FaultModel;
use crate::faultlog::{panic_message, record_engine_fault, strict, EngineFault};
use crate::instrument::{instrument_module, InstrumentOptions, Instrumented};
use crate::runtime::{InjectionRecord, VulfiHost};
use crate::sites::StaticSite;
use crate::stats::{study_converged, StudySummary};
use crate::trace::{build_trace, ExperimentTrace, TraceCapture};
use crate::workload::{snapshot_outputs, Workload};

/// Outcome classification of one experiment (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Outcome {
    /// Silent data corruption: faulty output differs from golden output.
    Sdc,
    /// No observable difference.
    Benign,
    /// System failure, program crash, hang — anything the user would
    /// notice without comparing outputs.
    Crash,
}

/// One completed experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Experiment {
    pub outcome: Outcome,
    /// Did an inserted detector flag the run?
    pub detected: bool,
    pub injection: Option<InjectionRecord>,
    /// Input index used.
    pub input: u64,
    /// Dynamic fault sites observed in the golden run.
    pub dynamic_sites: u64,
    /// Golden-run dynamic instruction count.
    pub golden_dyn_insts: u64,
}

/// A campaign-level failure (workload bug, not a fault outcome).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignError(pub String);

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign error: {}", self.0)
    }
}

impl std::error::Error for CampaignError {}

/// Resource ceilings applied to the **faulty** run of every experiment.
///
/// The golden run is never limited: it defines correct behaviour, and a
/// trap there is a workload bug ([`CampaignError`]), not an outcome. The
/// faulty run, by contrast, executes under an injected bit flip and can
/// be driven into runaway loops or allocation storms; each ceiling
/// converts such a runaway into a contained [`Outcome::Crash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResourceLimits {
    /// Hang-budget multiplier over the golden run's dynamic instruction
    /// count (deterministic; the primary hang containment).
    pub hang_factor: u64,
    /// Flat slack added to the hang budget.
    pub hang_slack: u64,
    /// Wall-clock watchdog for the faulty run, in milliseconds. `0`
    /// disables it — the default, because wall time is inherently
    /// non-deterministic: a study run with a wall limit is only
    /// bit-reproducible if no experiment ever comes near the limit. Use
    /// it as a backstop when the instruction budget alone leaves single
    /// experiments unacceptably slow in real time.
    pub wall_ms: u64,
    /// Memory ceiling for program-driven allocation in the faulty run,
    /// in bytes. `0` keeps the engine default (64 MiB). Deterministic.
    pub mem_bytes: u64,
}

impl Default for ResourceLimits {
    fn default() -> ResourceLimits {
        ResourceLimits {
            hang_factor: HANG_FACTOR,
            hang_slack: HANG_SLACK,
            wall_ms: 0,
            mem_bytes: 0,
        }
    }
}

/// An instrumented program ready for injection runs.
pub struct Prepared {
    pub module: Module,
    pub entry: String,
    pub sites: Vec<StaticSite>,
    pub category: SiteCategory,
    /// Resource ceilings for faulty runs (defaults preserve historical
    /// behaviour: hang budget only).
    pub limits: ResourceLimits,
    /// Fault model applied by every experiment (default: the paper's
    /// single bit flip).
    pub model: FaultModel,
}

/// Instrument `workload`'s module for the given category.
pub fn prepare(workload: &dyn Workload, category: SiteCategory) -> Result<Prepared, CampaignError> {
    prepare_with(workload, InstrumentOptions::new(category))
}

/// Instrument with explicit options (used by the mask-awareness ablation).
pub fn prepare_with(
    workload: &dyn Workload,
    opts: InstrumentOptions,
) -> Result<Prepared, CampaignError> {
    let mut module = workload.module().clone();
    let Instrumented { sites } =
        instrument_module(&mut module, workload.entry(), opts).map_err(CampaignError)?;
    Ok(Prepared {
        module,
        entry: workload.entry().to_string(),
        sites,
        category: opts.category,
        limits: ResourceLimits::default(),
        model: FaultModel::default(),
    })
}

/// Hang-budget multiplier over the golden run's dynamic instruction count.
const HANG_FACTOR: u64 = 10;
const HANG_SLACK: u64 = 100_000;

/// Run one fault-injection experiment.
///
/// The experiment body is wrapped in `std::panic::catch_unwind`: an
/// engine (or workload) panic on faulted state is classified as
/// [`Outcome::Crash`] and recorded in the engine-fault log
/// ([`crate::engine_faults`]) instead of unwinding through the campaign.
/// Under [`crate::set_strict`] the panic aborts the campaign as a
/// [`CampaignError`] instead.
pub fn run_experiment(
    prog: &Prepared,
    workload: &dyn Workload,
    rng: &mut ChaCha8Rng,
) -> Result<Experiment, CampaignError> {
    let engine = prog.model.engine_model();
    let golden = GoldenSet::new(workload, false);
    run_contained(prog, engine, workload, &golden, rng, None).map(|ran| ran.experiment)
}

/// One experiment as the range driver sees it.
struct Ran {
    experiment: Experiment,
    span: Option<ExperimentTrace>,
    /// The engine panicked and `experiment` is the contained Crash.
    engine_fault: bool,
}

/// [`run_experiment`] with panic provenance `(campaign_seed, index)`, and
/// a trace span when `golden` is traced. Tracing never changes the
/// record: the span only observes.
fn run_contained(
    prog: &Prepared,
    engine: Option<vexec::EngineModel>,
    workload: &dyn Workload,
    golden: &GoldenSet,
    rng: &mut ChaCha8Rng,
    provenance: Option<(u64, usize)>,
) -> Result<Ran, CampaignError> {
    let started = golden.traced.then(Instant::now);
    // The body reports its input before anything can panic, so a
    // panicking experiment still produces a deterministic record,
    // identical whether it ran via run_study or any shard partition. A
    // panic while filling the input's golden slot leaves the slot empty,
    // so every experiment that draws the input panics, and is contained,
    // the same way.
    let mut input = 0;
    let body =
        std::panic::AssertUnwindSafe(|| run_body(prog, engine, workload, golden, rng, &mut input));
    let (experiment, capture, engine_fault) = match std::panic::catch_unwind(body) {
        Ok(result) => result.map(|(experiment, capture)| (experiment, capture, false))?,
        Err(payload) => {
            let fault = EngineFault {
                workload: workload.name().to_string(),
                experiment: provenance,
                input,
                message: panic_message(payload.as_ref()),
            };
            if strict() {
                return Err(CampaignError(format!("strict mode: {fault}")));
            }
            // All that is known is that the engine died, which the
            // outside world sees as a crash of the faulted program.
            let capture = TraceCapture {
                trap: Some(format!("engine panic: {}", fault.message)),
                ..TraceCapture::default()
            };
            record_engine_fault(fault);
            (no_injection(Outcome::Crash, input, 0, 0), capture, true)
        }
    };
    let index = provenance.map_or(0, |(_, i)| i);
    let span = started.map(|t| build_trace(prog, index, &experiment, &capture, t));
    Ok(Ran {
        experiment,
        span,
        engine_fault,
    })
}

/// The experiment body: golden lookup, target draw, faulty run, compare.
/// `engine` is the injector family of `prog.model`: a value model
/// (`None`) injects through [`VulfiHost::inject_model`] and its census is
/// the dynamic fault sites; an engine model corrupts interpreter state
/// through a [`vexec::EngineInjector`] that counts its census on the
/// golden run.
fn run_body(
    prog: &Prepared,
    engine: Option<vexec::EngineModel>,
    workload: &dyn Workload,
    goldens: &GoldenSet,
    rng: &mut ChaCha8Rng,
    drawn_input: &mut u64,
) -> Result<(Experiment, TraceCapture), CampaignError> {
    // The golden run draws nothing from the RNG, so the draws, and so the
    // record, are the same whichever experiment filled the input's slot.
    let draw = draw(rng, workload.num_inputs(), |input| {
        *drawn_input = input;
        let g = goldens.get(prog, engine, workload, input)?;
        Ok((g, g.n))
    })?;
    let golden = draw.census;
    let Some((target, entropy)) = draw.pick else {
        // Nothing to inject into for this input: no dynamic site under
        // this category, or an empty engine-event census.
        let e = no_injection(Outcome::Benign, draw.input, 0, golden.dyn_insts);
        return Ok((e, TraceCapture::default()));
    };

    // --- Faulty run -------------------------------------------------------
    // A traced set holds each golden run's architectural event stream
    // (stores, branch decisions, return value); the faulty run is compared
    // against it. The sink only observes, so traced and untraced
    // experiments are bit-identical.
    let mut comparer = goldens
        .traced
        .then(|| vexec::DivergenceTracer::compare(&golden.stream));
    let mut injector = engine.map(|m| vexec::EngineInjector::inject(m, target, entropy));
    // Under an engine model the host still serves detector checks; it
    // never injects.
    let mut host = match engine {
        Some(_) => VulfiHost::profile(),
        None => VulfiHost::inject_model(target, entropy, prog.model),
    };
    let mut interp = Interp::with_program(goldens.program(prog));
    interp.set_budget(
        golden
            .dyn_insts
            .saturating_mul(prog.limits.hang_factor)
            .saturating_add(prog.limits.hang_slack),
    );
    let setup = workload
        .setup(&mut interp.mem, draw.input)
        .map_err(|t| CampaignError(format!("setup failed: {t}")))?;
    // Ceilings go on after setup: workload-provided buffers are
    // legitimate; the ceilings bound what the *faulted program* does.
    if prog.limits.wall_ms > 0 {
        interp.set_wall_limit(std::time::Duration::from_millis(prog.limits.wall_ms));
    }
    if prog.limits.mem_bytes > 0 {
        interp.set_memory_limit(prog.limits.mem_bytes);
    }
    if let Some(t) = comparer.as_mut() {
        interp.set_trace_sink(t);
    }
    if let Some(inj) = injector.as_mut() {
        interp.set_engine_injector(inj);
    }
    let result = interp.run(&prog.entry, &setup.args, &mut host);
    let faulty_dyn_insts = interp.executed();
    let outcome = match &result {
        Err(Trap::HostError(m)) => return Err(CampaignError(format!("runtime bug: {m}"))),
        Err(_) => Outcome::Crash,
        Ok(r) => {
            let out = snapshot_outputs(&interp.mem, &setup.outputs, &r.ret)
                .map_err(|t| CampaignError(format!("faulty snapshot failed: {t}")))?;
            if out == golden.outputs {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    };
    drop(interp);

    let detected = host.detectors.detected();
    let (injection, injected_at) = match injector.and_then(|inj| inj.injection()) {
        // Engine faults have no static site or lane; site_id 0 marks the
        // synthetic provenance, occurrence is the index in the event census.
        Some(inj) => (
            Some(InjectionRecord {
                site_id: 0,
                lane: 0,
                occurrence: inj.event,
                bit: inj.bit,
                bits_before: inj.bits_before,
                bits_after: inj.bits_after,
                model: prog.model,
            }),
            Some(inj.at_dyn_inst),
        ),
        None => (host.injection, host.injection_at),
    };
    let capture = match comparer {
        Some(mut t) => {
            // A clean exit that consumed fewer events than golden is a
            // divergence by omission at the end of the run.
            if result.is_ok() {
                t.finish(faulty_dyn_insts);
            }
            TraceCapture {
                injected_at,
                divergence: t.divergence().map(|d| d.dyn_index),
                faulty_dyn_insts,
                trap: result.as_ref().err().map(|t| t.to_string()),
            }
        }
        None => TraceCapture::default(),
    };
    let experiment = Experiment {
        outcome,
        detected,
        injection,
        input: draw.input,
        dynamic_sites: draw.n,
        golden_dyn_insts: golden.dyn_insts,
    };
    Ok((experiment, capture))
}

/// A fault-free run of one input.
struct Golden {
    dyn_insts: u64,
    /// Output regions and return value, as compared for SDC.
    outputs: Vec<u8>,
    /// The host after the run: the dynamic-site census (and site log).
    host: VulfiHost,
    /// The engine model's event census (0 without an engine model).
    engine_events: u64,
}

/// The one golden run: set up `input`, run `entry` of `program` under
/// `host` with an optional divergence `recorder` and engine-event counter,
/// and snapshot the outputs. Never resource-limited: a trap here is a
/// workload bug.
fn golden_run(
    program: Arc<Program>,
    entry: &str,
    workload: &dyn Workload,
    input: u64,
    mut host: VulfiHost,
    recorder: Option<&mut vexec::DivergenceTracer>,
    engine: Option<vexec::EngineModel>,
) -> Result<Golden, CampaignError> {
    let mut counter = engine.map(vexec::EngineInjector::count);
    let mut interp = Interp::with_program(program);
    let setup = workload
        .setup(&mut interp.mem, input)
        .map_err(|t| CampaignError(format!("setup failed: {t}")))?;
    if let Some(t) = recorder {
        interp.set_trace_sink(t);
    }
    if let Some(c) = counter.as_mut() {
        interp.set_engine_injector(c);
    }
    let run = interp
        .run(entry, &setup.args, &mut host)
        .map_err(|t| CampaignError(format!("golden run of {} trapped: {t}", workload.name())))?;
    let outputs = snapshot_outputs(&interp.mem, &setup.outputs, &run.ret)
        .map_err(|t| CampaignError(format!("golden snapshot failed: {t}")))?;
    drop(interp);
    Ok(Golden {
        dyn_insts: run.dyn_insts,
        outputs,
        host,
        engine_events: counter.map_or(0, |c| c.events()),
    })
}

/// The golden half of every experiment of one study: one lazily filled
/// slot per workload input, each holding that input's golden run. The
/// slots are [`OnceLock`]s, so rayon threads share one set and each input
/// runs golden at most once; a fill that panics leaves its slot empty, so
/// the next experiment drawing the input retries it (and is contained the
/// same way), while a golden trap is cached as the [`CampaignError`] it
/// always is. A traced set also keeps each input's divergence event
/// stream, which traced experiments compare their faulty runs against.
///
/// The set also holds the study's decoded program, which every golden
/// and faulty run executes: decoded by the first run that needs it, so a
/// study that executes nothing decodes nothing.
///
/// A set belongs to one `(prog, workload)` pair and never outlives the
/// study that built it.
pub struct GoldenSet {
    traced: bool,
    slots: Vec<OnceLock<Result<GoldenInput, CampaignError>>>,
    program: OnceLock<Arc<Program>>,
}

/// One input's golden run, as the experiments drawing that input read it.
struct GoldenInput {
    dyn_insts: u64,
    /// Output regions and return value, as compared for SDC.
    outputs: Vec<u8>,
    /// The target census: dynamic fault sites under a value model, engine
    /// events under an engine model, dynamic instructions for a memory
    /// cell (which can be upset at any of them).
    n: u64,
    /// The divergence fingerprint stream; empty unless the set is traced.
    stream: Vec<u64>,
}

impl GoldenSet {
    /// An empty set with one slot per input of `workload`. A `traced` set
    /// makes [`run_range`] yield one trace span per experiment.
    pub fn new(workload: &dyn Workload, traced: bool) -> GoldenSet {
        let inputs = workload.num_inputs().max(1) as usize;
        GoldenSet {
            traced,
            slots: (0..inputs).map(|_| OnceLock::new()).collect(),
            program: OnceLock::new(),
        }
    }

    /// The decoded `prog.module`, decoding it on first use.
    fn program(&self, prog: &Prepared) -> Arc<Program> {
        let program = self
            .program
            .get_or_init(|| Arc::new(Program::decode(&prog.module)));
        Arc::clone(program)
    }

    /// `input`'s golden run, running it first if no experiment has.
    fn get(
        &self,
        prog: &Prepared,
        engine: Option<vexec::EngineModel>,
        workload: &dyn Workload,
        input: u64,
    ) -> Result<&GoldenInput, CampaignError> {
        let slot = self
            .slots
            .get(input as usize)
            .ok_or_else(|| CampaignError(format!("golden set has no slot for input {input}")))?;
        let fill = || {
            let mut recorder = self.traced.then(vexec::DivergenceTracer::record);
            let g = golden_run(
                self.program(prog),
                &prog.entry,
                workload,
                input,
                VulfiHost::profile(),
                recorder.as_mut(),
                engine,
            )?;
            let n = match engine {
                None => g.host.dynamic_sites,
                Some(vexec::EngineModel::MemoryCell) => g.dyn_insts,
                Some(_) => g.engine_events,
            };
            Ok(GoldenInput {
                dyn_insts: g.dyn_insts,
                outputs: g.outputs,
                n,
                stream: recorder.map(|r| r.into_stream()).unwrap_or_default(),
            })
        };
        slot.get_or_init(fill).as_ref().map_err(Clone::clone)
    }
}

/// One experiment's random choices, and the census that sized them.
struct Draw<C> {
    input: u64,
    census: C,
    n: u64,
    /// `(target, entropy)`; `None` when the census is empty.
    pick: Option<(u64, u64)>,
}

/// The RNG draw order of every experiment, executed or discharged: the
/// input; then, once `census` (a golden run, or the prune context) has
/// sized its target distribution `n`, a target in `1..=n` and 64 bits of
/// entropy, only when `n > 0`.
fn draw<C>(
    rng: &mut ChaCha8Rng,
    num_inputs: u64,
    census: impl FnOnce(u64) -> Result<(C, u64), CampaignError>,
) -> Result<Draw<C>, CampaignError> {
    let input = rng.gen_range(0..num_inputs.max(1));
    let (census, n) = census(input)?;
    let pick = (n > 0).then(|| (rng.gen_range(1..=n), rng.gen()));
    Ok(Draw {
        input,
        census,
        n,
        pick,
    })
}

/// The record of an experiment that injected nothing: its input had no
/// dynamic site (`sites == 0`), the prune plan discharged it, or the
/// engine panicked (Crash; no counts survive the unwind, so all zero).
fn no_injection(outcome: Outcome, input: u64, sites: u64, golden_insts: u64) -> Experiment {
    Experiment {
        outcome,
        detected: false,
        injection: None,
        input,
        dynamic_sites: sites,
        golden_dyn_insts: golden_insts,
    }
}

/// Aggregate outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OutcomeCounts {
    pub sdc: u64,
    pub benign: u64,
    pub crash: u64,
    /// SDC experiments flagged by a detector.
    pub sdc_detected: u64,
    /// All experiments flagged by a detector.
    pub detected: u64,
}

impl OutcomeCounts {
    pub fn total(&self) -> u64 {
        self.sdc + self.benign + self.crash
    }

    pub fn add(&mut self, e: &Experiment) {
        match e.outcome {
            Outcome::Sdc => self.sdc += 1,
            Outcome::Benign => self.benign += 1,
            Outcome::Crash => self.crash += 1,
        }
        if e.detected {
            self.detected += 1;
            if e.outcome == Outcome::Sdc {
                self.sdc_detected += 1;
            }
        }
    }

    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.sdc += other.sdc;
        self.benign += other.benign;
        self.crash += other.crash;
        self.sdc_detected += other.sdc_detected;
        self.detected += other.detected;
    }

    pub fn sdc_rate(&self) -> f64 {
        percent(self.sdc, self.total())
    }

    pub fn benign_rate(&self) -> f64 {
        percent(self.benign, self.total())
    }

    pub fn crash_rate(&self) -> f64 {
        percent(self.crash, self.total())
    }

    /// Fraction of SDC experiments the detector flagged (paper Fig. 12's
    /// "SDC detection rate").
    pub fn sdc_detection_rate(&self) -> f64 {
        percent(self.sdc_detected, self.sdc)
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// One campaign: `n` independent experiments (paper: 100).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CampaignResult {
    pub counts: OutcomeCounts,
    pub experiments: Vec<Experiment>,
}

impl CampaignResult {
    pub fn sdc_rate(&self) -> f64 {
        self.counts.sdc_rate()
    }
}

/// Seed of campaign `c` within a study seeded `study_seed`.
///
/// Every driver (run_study, the orchestrator's shard scheduler) derives
/// campaign seeds through this one function so results are bit-identical
/// regardless of how experiments are grouped into shards or threads.
pub fn campaign_seed(study_seed: u64, c: usize) -> u64 {
    study_seed.wrapping_add((c as u64) << 32)
}

/// RNG of experiment `i` within a campaign seeded `campaign_seed`.
pub fn experiment_rng(campaign_seed: u64, i: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        campaign_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64),
    )
}

/// What [`run_range`] produced for one range of experiments.
#[derive(Debug, Clone)]
pub struct RangeRun {
    pub experiments: Vec<Experiment>,
    /// One span per experiment when traced; empty otherwise.
    pub spans: Vec<ExperimentTrace>,
    /// Engine panics contained as Crash records in this range (each is
    /// also in the process-wide [`crate::engine_faults`] log).
    pub engine_faults: u64,
}

/// The range driver: run experiments `range` of the campaign seeded
/// `campaign_seed`, sequentially, reading golden runs from `golden` (and
/// filling its slots as needed). Concatenating the results of any
/// partition of `0..n` equals the experiment list of [`run_campaign`].
///
/// With `prune`, an experiment whose replayed draws land on a coordinate
/// the plan proves benign gets a [`Outcome::Benign`] record with
/// `injection: None` and is not executed; every other experiment is
/// bit-identical to a full run. With a traced `golden` set, every
/// experiment also yields an [`ExperimentTrace`] and the records stay
/// bit-identical. Tracing and pruning are mutually exclusive.
pub fn run_range(
    prog: &Prepared,
    workload: &dyn Workload,
    golden: &GoldenSet,
    campaign_seed: u64,
    range: std::ops::Range<usize>,
    prune: Option<&PruneContext>,
) -> Result<RangeRun, CampaignError> {
    let step = stepper(prog, workload, golden, campaign_seed, prune)?;
    let mut run = RangeRun {
        experiments: Vec::with_capacity(range.len()),
        spans: Vec::with_capacity(if golden.traced { range.len() } else { 0 }),
        engine_faults: 0,
    };
    for i in range {
        let ran = step(i)?;
        run.experiments.push(ran.experiment);
        run.spans.extend(ran.span);
        run.engine_faults += u64::from(ran.engine_fault);
    }
    Ok(run)
}

/// The per-experiment step of [`run_range`] and [`run_campaign`], with
/// the range's choices checked once.
fn stepper<'a>(
    prog: &'a Prepared,
    workload: &'a dyn Workload,
    golden: &'a GoldenSet,
    campaign_seed: u64,
    prune: Option<&'a PruneContext>,
) -> Result<impl Fn(usize) -> Result<Ran, CampaignError> + Sync + 'a, CampaignError> {
    if prune.is_some() {
        if golden.traced {
            return Err(CampaignError(
                "tracing and pruning are mutually exclusive (a discharged experiment \
                 has no execution to trace)"
                    .to_string(),
            ));
        }
        check_prunable(prog.model)?;
    }
    let engine = prog.model.engine_model();
    Ok(move |i| {
        if let Some(ctx) = prune {
            if let Some(experiment) =
                discharge(ctx, workload, &mut experiment_rng(campaign_seed, i))?
            {
                return Ok(Ran {
                    experiment,
                    span: None,
                    engine_fault: false,
                });
            }
        }
        let mut rng = experiment_rng(campaign_seed, i);
        let provenance = Some((campaign_seed, i));
        run_contained(prog, engine, workload, golden, &mut rng, provenance)
    })
}

/// Run experiments `range` of the campaign seeded `campaign_seed`
/// (see [`run_range`]), with a golden set of its own.
pub fn run_experiment_range(
    prog: &Prepared,
    workload: &dyn Workload,
    campaign_seed: u64,
    range: std::ops::Range<usize>,
) -> Result<Vec<Experiment>, CampaignError> {
    let golden = GoldenSet::new(workload, false);
    run_range(prog, workload, &golden, campaign_seed, range, None).map(|run| run.experiments)
}

/// [`run_experiment_range`] with static pruning (see [`run_range`]).
pub fn run_experiment_range_pruned(
    prog: &Prepared,
    workload: &dyn Workload,
    ctx: &PruneContext,
    campaign_seed: u64,
    range: std::ops::Range<usize>,
) -> Result<Vec<Experiment>, CampaignError> {
    let golden = GoldenSet::new(workload, false);
    run_range(prog, workload, &golden, campaign_seed, range, Some(ctx)).map(|run| run.experiments)
}

/// [`run_experiment_range`] with per-experiment trace spans (see
/// [`run_range`]).
pub fn run_experiment_range_traced(
    prog: &Prepared,
    workload: &dyn Workload,
    campaign_seed: u64,
    range: std::ops::Range<usize>,
) -> Result<(Vec<Experiment>, Vec<ExperimentTrace>), CampaignError> {
    let golden = GoldenSet::new(workload, true);
    let run = run_range(prog, workload, &golden, campaign_seed, range, None)?;
    Ok((run.experiments, run.spans))
}

/// Per-input golden census used by the campaign pruner: the ordered
/// `(site_id, lane)` sequence of dynamic fault sites, exactly as the
/// runtime counts them.
#[derive(Debug, Clone, PartialEq)]
pub struct InputCensus {
    pub golden_dyn_insts: u64,
    pub trace: Vec<(u32, u32)>,
}

/// Everything a pruned [`run_range`] needs to predict an experiment's
/// injection coordinate without running it: the static benign-coordinate
/// plan plus one golden census per workload input.
#[derive(Debug, Clone)]
pub struct PruneContext {
    pub plan: PrunePlan,
    pub census: Vec<InputCensus>,
}

/// Only the paper's single-bit-flip model can be pruned: the prediction
/// replays its `bit = entropy % width` choice, and multi-bit or stuck-at
/// corruptions would need their own replay logic.
fn check_prunable(model: FaultModel) -> Result<(), CampaignError> {
    match model {
        FaultModel::SingleBitFlip => Ok(()),
        other => Err(CampaignError(format!(
            "pruning supports only the single-bit-flip model, not {other}"
        ))),
    }
}

/// Build the prune context: analyze the uninstrumented module, then run
/// one logging golden run per input on the instrumented program.
pub fn build_prune_context(
    prog: &Prepared,
    workload: &dyn Workload,
) -> Result<PruneContext, CampaignError> {
    check_prunable(prog.model)?;
    let report = analyze_module(workload.module(), workload.entry()).map_err(CampaignError)?;
    let plan = PrunePlan::from_report(&report);
    let program = Arc::new(Program::decode(&prog.module));
    let census = (0..workload.num_inputs().max(1))
        .map(|input| {
            let host = VulfiHost::profile_logging();
            let program = Arc::clone(&program);
            let golden = golden_run(program, &prog.entry, workload, input, host, None, None)?;
            Ok(InputCensus {
                golden_dyn_insts: golden.dyn_insts,
                trace: golden.host.site_log.unwrap_or_default(),
            })
        })
        .collect::<Result<_, CampaignError>>()?;
    Ok(PruneContext { plan, census })
}

/// Replay `rng`'s draws against the golden census: the record of an
/// experiment the plan proves benign (or with no dynamic site), if so.
fn discharge(
    ctx: &PruneContext,
    workload: &dyn Workload,
    rng: &mut ChaCha8Rng,
) -> Result<Option<Experiment>, CampaignError> {
    let draw = draw(rng, workload.num_inputs(), |input| {
        let census = ctx
            .census
            .get(input as usize)
            .ok_or_else(|| CampaignError(format!("prune census missing input {input}")))?;
        Ok((census, census.trace.len() as u64))
    })?;
    let benign = draw.pick.is_none_or(|(target, entropy)| {
        let (site, lane) = draw.census.trace[(target - 1) as usize];
        let width = ctx.plan.width(site).unwrap_or(64).max(1);
        ctx.plan
            .is_benign(site, lane, (entropy % width as u64) as u32)
    });
    let golden_insts = draw.census.golden_dyn_insts;
    Ok(benign.then(|| no_injection(Outcome::Benign, draw.input, draw.n, golden_insts)))
}

/// Run one campaign of `n` experiments in parallel, with a golden set of
/// its own. `seed` makes the campaign reproducible.
pub fn run_campaign(
    prog: &Prepared,
    workload: &dyn Workload,
    n: usize,
    seed: u64,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_with(prog, workload, &GoldenSet::new(workload, false), n, seed)
}

/// [`run_campaign`] reading golden runs from `golden`.
fn run_campaign_with(
    prog: &Prepared,
    workload: &dyn Workload,
    golden: &GoldenSet,
    n: usize,
    seed: u64,
) -> Result<CampaignResult, CampaignError> {
    let step = stepper(prog, workload, golden, seed, None)?;
    let experiments = (0..n)
        .into_par_iter()
        .map(|i| step(i).map(|ran| ran.experiment))
        .collect::<Result<Vec<Experiment>, CampaignError>>()?;
    let mut counts = OutcomeCounts::default();
    for e in &experiments {
        counts.add(e);
    }
    Ok(CampaignResult {
        counts,
        experiments,
    })
}

/// Study configuration (defaults follow the paper's §IV-D setup).
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Experiments per campaign (paper: 100).
    pub experiments_per_campaign: usize,
    /// Stop when the 95% margin of error is within this many percentage
    /// points (paper: 3.0).
    pub target_margin: f64,
    /// Minimum campaigns before testing convergence.
    pub min_campaigns: usize,
    /// Hard cap on campaigns (paper observed 20 suffice).
    pub max_campaigns: usize,
    pub seed: u64,
    /// Fault model every experiment applies.
    pub model: FaultModel,
    /// Skip injections the static analyzer proves benign, accounting
    /// them as [`Outcome::Benign`] without execution (single-bit-flip
    /// model only). Changes the study identity: pruned records carry no
    /// injection payload for discharged experiments.
    pub prune: bool,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            experiments_per_campaign: 100,
            target_margin: 3.0,
            min_campaigns: 4,
            max_campaigns: 20,
            seed: 0xDEAD_BEEF,
            model: FaultModel::default(),
            prune: false,
        }
    }
}

// Manual serde mirroring the derive, except `model` is omitted when it is
// the default single-bit flip (and defaulted when absent), so manifests
// written before the fault-model library existed keep parsing and
// default-model manifests stay byte-identical. `prune` follows the same
// pattern: omitted when false.
impl serde::Serialize for StudyConfig {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "experiments_per_campaign".to_string(),
                self.experiments_per_campaign.to_value(),
            ),
            ("target_margin".to_string(), self.target_margin.to_value()),
            ("min_campaigns".to_string(), self.min_campaigns.to_value()),
            ("max_campaigns".to_string(), self.max_campaigns.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ];
        if self.model != FaultModel::default() {
            fields.push(("model".to_string(), self.model.to_value()));
        }
        if self.prune {
            fields.push(("prune".to_string(), self.prune.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl serde::Deserialize for StudyConfig {
    fn from_value(v: &serde::Value) -> Result<StudyConfig, serde::DeError> {
        Ok(StudyConfig {
            experiments_per_campaign: serde::field(v, "experiments_per_campaign")?,
            target_margin: serde::field(v, "target_margin")?,
            min_campaigns: serde::field(v, "min_campaigns")?,
            max_campaigns: serde::field(v, "max_campaigns")?,
            seed: serde::field(v, "seed")?,
            model: match v.get("model") {
                Some(m) => FaultModel::from_value(m)?,
                None => FaultModel::default(),
            },
            prune: match v.get("prune") {
                Some(p) => bool::from_value(p)?,
                None => false,
            },
        })
    }
}

/// A completed study for one (workload, category) cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StudyResult {
    pub category: SiteCategory,
    /// Per-campaign SDC rates (the statistical samples).
    pub samples: Vec<f64>,
    pub summary: StudySummary,
    pub counts: OutcomeCounts,
    pub converged: bool,
}

/// Run campaigns until the stopping rule fires (or `max_campaigns`),
/// sharing one golden set across them.
pub fn run_study(
    prog: &Prepared,
    workload: &dyn Workload,
    cfg: &StudyConfig,
) -> Result<StudyResult, CampaignError> {
    let golden = GoldenSet::new(workload, false);
    let mut samples = Vec::new();
    let mut counts = OutcomeCounts::default();
    let mut converged = false;
    for c in 0..cfg.max_campaigns {
        let campaign = run_campaign_with(
            prog,
            workload,
            &golden,
            cfg.experiments_per_campaign,
            campaign_seed(cfg.seed, c),
        )?;
        samples.push(campaign.sdc_rate());
        counts.merge(&campaign.counts);
        if study_converged(&samples, cfg.target_margin, cfg.min_campaigns) {
            converged = true;
            break;
        }
    }
    Ok(StudyResult {
        category: prog.category,
        summary: StudySummary::from_samples(&samples),
        samples,
        counts,
        converged,
    })
}

/// Measure the dynamic instruction count of a golden run (used for Table I
/// and for detector-overhead measurements).
pub fn measure_dyn_insts(
    module: &Module,
    entry: &str,
    workload: &dyn Workload,
    input: u64,
) -> Result<u64, CampaignError> {
    let host = VulfiHost::profile();
    let program = Arc::new(Program::decode(module));
    golden_run(program, entry, workload, input, host, None, None).map(|g| g.dyn_insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{OutputRegion, SetupResult};
    use vexec::{Memory, RtVal, Scalar};

    /// A tiny but real workload: scale an array in-place.
    struct ScaleWorkload {
        module: Module,
    }

    impl ScaleWorkload {
        fn new() -> ScaleWorkload {
            let src = r#"
define void @scale(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %p = getelementptr float, ptr %a, i32 %i
  %v = load float, ptr %p
  %d = fmul float %v, 2.0
  store float %d, ptr %p
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            ScaleWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for ScaleWorkload {
        fn name(&self) -> &str {
            "scale"
        }
        fn entry(&self) -> &str {
            "scale"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            3
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
            let n = 8 + input * 4;
            let vals: Vec<f32> = (0..n).map(|i| (i as f32) + input as f32).collect();
            let a = mem.alloc_f32_slice(&vals)?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(n as i32)),
                ],
                outputs: vec![OutputRegion {
                    addr: a,
                    bytes: n * 4,
                }],
            })
        }
    }

    #[test]
    fn experiments_are_reproducible() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            run_experiment(&prog, &w, &mut rng).unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.injection, b.injection);
        assert!(a.dynamic_sites > 0);
    }

    #[test]
    fn pure_data_faults_never_crash_scale() {
        // Pure-data sites in @scale are the loaded/multiplied values; bit
        // flips there corrupt data but cannot redirect control or
        // addresses.
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let c = run_campaign(&prog, &w, 40, 7).unwrap();
        assert_eq!(c.counts.crash, 0, "{:?}", c.counts);
        assert!(c.counts.sdc > 0, "flipped data must show up as SDC");
    }

    #[test]
    fn address_faults_crash_sometimes() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::Address).unwrap();
        let c = run_campaign(&prog, &w, 60, 11).unwrap();
        assert!(
            c.counts.crash > 0,
            "address-category flips should produce crashes: {:?}",
            c.counts
        );
    }

    #[test]
    fn control_faults_can_hang_and_are_classified_crash() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::Control).unwrap();
        let c = run_campaign(&prog, &w, 60, 13).unwrap();
        // Control flips hit %i/%i2/%cond: early exit (SDC), runaway loop
        // (crash via hang budget or OOB), or benign.
        assert!(c.counts.total() == 60);
        assert!(c.counts.sdc + c.counts.crash > 0, "{:?}", c.counts);
    }

    #[test]
    fn campaign_outcome_counts_sum() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let c = run_campaign(&prog, &w, 25, 3).unwrap();
        assert_eq!(c.counts.total(), 25);
        assert_eq!(c.experiments.len(), 25);
        let rate = c.sdc_rate();
        assert!((0.0..=100.0).contains(&rate));
    }

    #[test]
    fn study_converges_on_stable_workload() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let cfg = StudyConfig {
            experiments_per_campaign: 30,
            target_margin: 10.0,
            min_campaigns: 4,
            max_campaigns: 10,
            seed: 5,
            model: FaultModel::default(),
            prune: false,
        };
        let s = run_study(&prog, &w, &cfg).unwrap();
        assert!(s.samples.len() >= 4);
        assert_eq!(s.counts.total(), s.samples.len() as u64 * 30,);
        assert!(s.summary.mean >= 0.0);
    }

    #[test]
    fn sharded_ranges_equal_whole_campaign() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let seed = campaign_seed(0xDEAD_BEEF, 2);
        let whole = run_campaign(&prog, &w, 30, seed).unwrap();
        // Any partition of 0..30 must reproduce the same experiments.
        let mut pieced = Vec::new();
        for range in [0..7, 7..8, 8..21, 21..30] {
            pieced.extend(run_experiment_range(&prog, &w, seed, range).unwrap());
        }
        assert_eq!(whole.experiments, pieced);
    }

    #[test]
    fn experiment_serde_roundtrip() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let mut rng = experiment_rng(99, 0);
        let e = run_experiment(&prog, &w, &mut rng).unwrap();
        let text = serde_json::to_string(&e).unwrap();
        let back: Experiment = serde_json::from_str(&text).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn measure_dyn_insts_deterministic() {
        let w = ScaleWorkload::new();
        let a = measure_dyn_insts(w.module(), "scale", &w, 0).unwrap();
        let b = measure_dyn_insts(w.module(), "scale", &w, 0).unwrap();
        assert_eq!(a, b);
        let c = measure_dyn_insts(w.module(), "scale", &w, 2).unwrap();
        assert!(c > a, "bigger input → more dynamic instructions");
    }

    #[test]
    fn every_fault_model_runs_deterministic_campaigns() {
        let w = ScaleWorkload::new();
        for model in [
            FaultModel::SingleBitFlip,
            FaultModel::MultiBitBurst { width: 3 },
            FaultModel::StuckAt {
                bit: 30,
                value: true,
            },
            FaultModel::MaskCorrupt,
            FaultModel::AddressLine { bit: 4 },
            FaultModel::TemporalPair { gap: 8 },
            FaultModel::MemoryCell,
        ] {
            let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
            prog.model = model;
            let a = run_campaign(&prog, &w, 12, 3).unwrap();
            let b = run_campaign(&prog, &w, 12, 3).unwrap();
            assert_eq!(
                a.experiments, b.experiments,
                "{model} must be deterministic"
            );
            assert_eq!(a.counts.total(), 12, "{model}");
            for e in &a.experiments {
                if let Some(inj) = &e.injection {
                    assert_eq!(inj.model, model);
                }
            }
        }
    }

    #[test]
    fn engine_models_corrupt_engine_state() {
        let w = ScaleWorkload::new();
        // @scale has no masked intrinsics: the mask-corruption census is
        // empty and every experiment is benign by construction.
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::MaskCorrupt;
        let c = run_campaign(&prog, &w, 10, 5).unwrap();
        assert_eq!(c.counts.benign, 10, "{:?}", c.counts);
        assert!(c.experiments.iter().all(|e| e.injection.is_none()));

        // Address-line flips on a strided loop must hit the guard pages
        // at least sometimes.
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::AddressLine { bit: 20 };
        let c = run_campaign(&prog, &w, 30, 5).unwrap();
        assert!(c.counts.crash > 0, "{:?}", c.counts);
        assert!(c
            .experiments
            .iter()
            .any(|e| e.injection.as_ref().is_some_and(|i| i.site_id == 0)));

        // Memory-cell upsets corrupt live data: some must surface as SDC.
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::MemoryCell;
        let c = run_campaign(&prog, &w, 30, 5).unwrap();
        assert!(c.counts.sdc > 0, "{:?}", c.counts);
    }

    /// Counts `setup` calls: one per golden fill plus one per faulty run.
    struct CountingWorkload {
        inner: ScaleWorkload,
        setups: std::sync::atomic::AtomicU64,
    }

    impl CountingWorkload {
        fn setups(&self) -> u64 {
            self.setups.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Workload for CountingWorkload {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn entry(&self) -> &str {
            self.inner.entry()
        }
        fn module(&self) -> &Module {
            self.inner.module()
        }
        fn num_inputs(&self) -> u64 {
            self.inner.num_inputs()
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
            self.setups
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.setup(mem, input)
        }
    }

    #[test]
    fn one_golden_run_per_drawn_input() {
        let w = CountingWorkload {
            inner: ScaleWorkload::new(),
            setups: Default::default(),
        };
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let golden = GoldenSet::new(&w, false);
        let run = run_range(&prog, &w, &golden, campaign_seed(0x601D, 0), 0..30, None).unwrap();
        // An experiment with a non-empty census executes one faulty run.
        let faulty = run
            .experiments
            .iter()
            .filter(|e| e.dynamic_sites > 0)
            .count() as u64;
        let inputs: std::collections::BTreeSet<u64> =
            run.experiments.iter().map(|e| e.input).collect();
        assert!(inputs.len() > 1, "the campaign must draw several inputs");
        assert_eq!(w.setups(), faulty + inputs.len() as u64);
    }

    #[test]
    fn shared_traced_set_matches_a_fresh_set_per_experiment() {
        let w = ScaleWorkload::new();
        let seed = campaign_seed(0x601D, 1);
        let zeroed = |mut span: ExperimentTrace| {
            span.wall_ns = 0;
            span
        };
        for model in [FaultModel::SingleBitFlip, FaultModel::MemoryCell] {
            let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
            prog.model = model;
            let shared = GoldenSet::new(&w, true);
            let run = run_range(&prog, &w, &shared, seed, 0..30, None).unwrap();
            assert_eq!(run.spans.len(), 30, "{model}");
            for (i, span) in run.spans.into_iter().enumerate() {
                let fresh = GoldenSet::new(&w, true);
                let one = run_range(&prog, &w, &fresh, seed, i..i + 1, None).unwrap();
                assert_eq!(
                    one.experiments[0], run.experiments[i],
                    "{model}: record {i}"
                );
                let fresh_span = one.spans.into_iter().next().unwrap();
                assert_eq!(zeroed(span), zeroed(fresh_span), "{model}: span {i}");
            }
        }
    }

    // --- Static pruning ---------------------------------------------------

    /// A workload with provably-dead bits: %w's high 24 bits die in the
    /// truncation, so the analyzer discharges a solid fraction of the
    /// pure-data fault space.
    struct NarrowWorkload {
        module: Module,
    }

    impl NarrowWorkload {
        fn new() -> NarrowWorkload {
            let src = r#"
define void @narrow(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %p = getelementptr i32, ptr %a, i32 %i
  %v = load i32, ptr %p
  %w = add i32 %v, 5
  %t = trunc i32 %w to i8
  %z = zext i8 %t to i32
  store i32 %z, ptr %p
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            NarrowWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for NarrowWorkload {
        fn name(&self) -> &str {
            "narrow"
        }
        fn entry(&self) -> &str {
            "narrow"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            2
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
            let n = 6 + input * 2;
            let vals: Vec<f32> = (0..n).map(|i| f32::from_bits(i as u32 * 37 + 1)).collect();
            let a = mem.alloc_f32_slice(&vals)?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(n as i32)),
                ],
                outputs: vec![OutputRegion {
                    addr: a,
                    bytes: n * 4,
                }],
            })
        }
    }

    #[test]
    fn pruned_range_matches_full_run_on_executed_subset() {
        let w = NarrowWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let ctx = build_prune_context(&prog, &w).unwrap();
        assert!(
            ctx.plan.benign_coordinates() > 0,
            "the truncation must discharge coordinates"
        );
        let seed = campaign_seed(0xBEE5, 0);
        let full = run_experiment_range(&prog, &w, seed, 0..60).unwrap();
        let pruned = run_experiment_range_pruned(&prog, &w, &ctx, seed, 0..60).unwrap();
        assert_eq!(full.len(), pruned.len());
        let mut discharged = 0;
        let mut executed = 0;
        for (f, p) in full.iter().zip(&pruned) {
            if p.injection.is_some() || f.injection.is_none() {
                // Executed (or empty-census) experiments must be
                // bit-identical to the full run.
                assert_eq!(f, p);
                executed += 1;
            } else {
                // Discharged: the full run must agree the flip was benign.
                discharged += 1;
                assert_eq!(f.outcome, Outcome::Benign, "unsound prune: {f:?}");
                assert!(!f.detected);
                assert_eq!(p.outcome, Outcome::Benign);
                assert!(!p.detected);
                assert_eq!(p.input, f.input);
                assert_eq!(p.dynamic_sites, f.dynamic_sites);
                assert_eq!(p.golden_dyn_insts, f.golden_dyn_insts);
            }
        }
        assert!(discharged > 0, "pruning must discharge something here");
        assert!(executed > 0, "pruning must not discharge everything");
        // Sharding still composes: any partition reproduces the whole.
        let mut pieced = Vec::new();
        for range in [0..13, 13..14, 14..45, 45..60] {
            pieced.extend(run_experiment_range_pruned(&prog, &w, &ctx, seed, range).unwrap());
        }
        assert_eq!(pruned, pieced);
    }

    #[test]
    fn executed_predictions_cross_validate_as_sound() {
        let w = NarrowWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let ctx = build_prune_context(&prog, &w).unwrap();
        let seed = campaign_seed(0xBEE5, 1);
        let full = run_experiment_range(&prog, &w, seed, 0..80).unwrap();
        let report = crate::analyze::check_soundness(&ctx.plan, &full);
        assert!(report.checked > 0);
        assert!(report.predicted_benign > 0, "{report:?}");
        assert!(
            report.is_sound(),
            "predicted-benign flips produced non-benign outcomes: {:?}",
            report.violations
        );
        assert_eq!(report.misprediction_pct(), 0.0);
    }

    #[test]
    fn prune_rejects_non_bit_flip_models() {
        let w = NarrowWorkload::new();
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = FaultModel::MultiBitBurst { width: 3 };
        let err = build_prune_context(&prog, &w).unwrap_err();
        assert!(err.0.contains("single-bit-flip"), "{err}");
    }

    #[test]
    fn study_config_serde_keeps_prune_backward_compatible() {
        let cfg = StudyConfig::default();
        let text = serde_json::to_string(&cfg).unwrap();
        assert!(!text.contains("prune"), "default must omit prune: {text}");
        let back: StudyConfig = serde_json::from_str(&text).unwrap();
        assert!(!back.prune);

        let pruned = StudyConfig {
            prune: true,
            ..StudyConfig::default()
        };
        let text = serde_json::to_string(&pruned).unwrap();
        assert!(text.contains("prune"), "{text}");
        let back: StudyConfig = serde_json::from_str(&text).unwrap();
        assert!(back.prune);
    }

    // --- Fault containment -----------------------------------------------

    /// Serialises tests that depend on the process-global strict flag or
    /// the engine-fault log.
    static CONTAINMENT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        CONTAINMENT_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A workload whose `setup` panics for one specific input: a stand-in
    /// for any engine panic on malformed faulted state.
    struct PanicWorkload {
        inner: ScaleWorkload,
    }

    impl Workload for PanicWorkload {
        fn name(&self) -> &str {
            "panicky scale"
        }
        fn entry(&self) -> &str {
            self.inner.entry()
        }
        fn module(&self) -> &Module {
            self.inner.module()
        }
        fn num_inputs(&self) -> u64 {
            self.inner.num_inputs()
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, vexec::Trap> {
            if input == 1 {
                panic!("deliberate test panic on input 1");
            }
            self.inner.setup(mem, input)
        }
    }

    #[test]
    fn engine_panic_is_contained_as_crash_with_provenance() {
        let _g = gate();
        crate::faultlog::drain_engine_faults();
        let w = PanicWorkload {
            inner: ScaleWorkload::new(),
        };
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let seed = campaign_seed(0x51C, 0);
        let c = run_campaign(&prog, &w, 30, seed).unwrap();
        assert_eq!(c.counts.total(), 30, "every experiment must be recorded");
        let panicked: Vec<_> = c
            .experiments
            .iter()
            .enumerate()
            .filter(|(_, e)| e.input == 1)
            .collect();
        assert!(!panicked.is_empty(), "input 1 must be drawn at least once");
        for (_, e) in &panicked {
            assert_eq!(e.outcome, Outcome::Crash);
            assert_eq!(e.injection, None);
            assert_eq!(e.dynamic_sites, 0);
        }
        // Provenance: one log entry per panicking experiment, carrying
        // (campaign seed, index) and the panic message.
        let faults = crate::faultlog::drain_engine_faults();
        assert_eq!(faults.len(), panicked.len());
        for (i, _) in &panicked {
            assert!(
                faults.iter().any(|f| f.experiment == Some((seed, *i))
                    && f.message.contains("deliberate test panic")
                    && f.workload == "panicky scale"),
                "missing provenance for experiment {i}: {faults:?}"
            );
        }
        // Containment is deterministic: the same campaign replays
        // bit-identically, panics included.
        let c2 = run_campaign(&prog, &w, 30, seed).unwrap();
        assert_eq!(c.experiments, c2.experiments);
        crate::faultlog::drain_engine_faults();

        // The same containment holds for an engine model, and on the
        // traced driver, whose span must name the panic as the trap.
        for model in [FaultModel::SingleBitFlip, FaultModel::MemoryCell] {
            let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
            prog.model = model;
            let plain = run_campaign(&prog, &w, 30, seed).unwrap().experiments;
            let golden = GoldenSet::new(&w, true);
            let traced = run_range(&prog, &w, &golden, seed, 0..30, None).unwrap();
            assert_eq!(
                traced.experiments, plain,
                "{model}: tracing must not perturb"
            );
            let faults = crate::faultlog::drain_engine_faults();
            let mut panicked = 0;
            for (i, (e, span)) in traced.experiments.iter().zip(&traced.spans).enumerate() {
                if e.input != 1 {
                    continue;
                }
                panicked += 1;
                assert_eq!(e.outcome, Outcome::Crash, "{model}");
                assert_eq!(e.injection, None, "{model}");
                assert_eq!((e.dynamic_sites, e.golden_dyn_insts), (0, 0), "{model}");
                assert_eq!(span.outcome, Outcome::Crash);
                assert_eq!(span.injection, None);
                let trap = span.trap.as_deref().unwrap_or_default();
                assert!(trap.starts_with("engine panic:"), "{model}: {trap}");
                let logged = faults
                    .iter()
                    .filter(|f| f.experiment == Some((seed, i)) && f.input == 1)
                    .count();
                assert_eq!(
                    logged, 2,
                    "{model}: one log entry per run of experiment {i}"
                );
            }
            assert!(panicked > 0, "{model}: input 1 must be drawn");
            assert_eq!(traced.engine_faults, panicked, "{model}: driver's count");
            assert_eq!(faults.len() as u64, 2 * panicked, "{model}");
        }
    }

    #[test]
    fn strict_mode_aborts_on_engine_panic() {
        let _g = gate();
        let w = PanicWorkload {
            inner: ScaleWorkload::new(),
        };
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        crate::faultlog::set_strict(true);
        let result = run_campaign(&prog, &w, 30, campaign_seed(0x51C, 0));
        crate::faultlog::set_strict(false);
        let err = result.expect_err("strict mode must abort the campaign");
        assert!(err.0.contains("strict mode"), "{err}");
        assert!(err.0.contains("deliberate test panic"), "{err}");
        crate::faultlog::drain_engine_faults();
    }

    /// A loop that touches only `a[0]`: control flips cannot go out of
    /// bounds, so a runaway loop must be stopped by the hang budget or
    /// the wall-clock watchdog — nothing else.
    struct SpinWorkload {
        module: Module,
    }

    impl SpinWorkload {
        fn new() -> SpinWorkload {
            let src = r#"
define void @spin(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %v = load float, ptr %a
  %d = fadd float %v, 1.0
  store float %d, ptr %a
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            SpinWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for SpinWorkload {
        fn name(&self) -> &str {
            "spin"
        }
        fn entry(&self) -> &str {
            "spin"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            1
        }
        fn setup(&self, mem: &mut Memory, _input: u64) -> Result<SetupResult, vexec::Trap> {
            let a = mem.alloc_f32_slice(&[0.0])?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(24)),
                ],
                outputs: vec![OutputRegion { addr: a, bytes: 4 }],
            })
        }
    }

    /// Like `SpinWorkload`, but every iteration `alloca`s a fresh buffer,
    /// so a runaway loop is an allocation storm.
    struct GrowWorkload {
        module: Module,
    }

    impl GrowWorkload {
        fn new() -> GrowWorkload {
            let src = r#"
define void @grow(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %buf = alloca float, i32 64
  %v = load float, ptr %a
  store float %v, ptr %buf
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
            GrowWorkload {
                module: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for GrowWorkload {
        fn name(&self) -> &str {
            "grow"
        }
        fn entry(&self) -> &str {
            "grow"
        }
        fn module(&self) -> &Module {
            &self.module
        }
        fn num_inputs(&self) -> u64 {
            1
        }
        fn setup(&self, mem: &mut Memory, _input: u64) -> Result<SetupResult, vexec::Trap> {
            let a = mem.alloc_f32_slice(&[0.0])?;
            Ok(SetupResult {
                args: vec![
                    RtVal::Scalar(Scalar::ptr(a)),
                    RtVal::Scalar(Scalar::i32(16)),
                ],
                outputs: vec![OutputRegion { addr: a, bytes: 4 }],
            })
        }
    }

    #[test]
    fn hang_budget_contains_runaway_loops_as_crash() {
        let w = SpinWorkload::new();
        let prog = prepare(&w, SiteCategory::Control).unwrap();
        assert_eq!(prog.limits, ResourceLimits::default());
        let c = run_campaign(&prog, &w, 60, 17).unwrap();
        assert_eq!(c.counts.total(), 60);
        // @spin touches only a[0]; any crash here is the hang budget.
        assert!(
            c.counts.crash > 0,
            "control flips must drive the loop past the budget: {:?}",
            c.counts
        );
    }

    #[test]
    fn wall_clock_watchdog_contains_runaway_loops_as_crash() {
        let w = SpinWorkload::new();
        let mut prog = prepare(&w, SiteCategory::Control).unwrap();
        // Push the instruction budget out of reach so only the watchdog
        // can stop a runaway loop, then give it a tight real-time leash.
        prog.limits.hang_factor = u64::MAX;
        prog.limits.hang_slack = u64::MAX;
        prog.limits.wall_ms = 30;
        let c = run_campaign(&prog, &w, 60, 17).unwrap();
        assert_eq!(c.counts.total(), 60);
        assert!(
            c.counts.crash > 0,
            "the watchdog must contain the runaway loops: {:?}",
            c.counts
        );
    }

    #[test]
    fn memory_ceiling_contains_allocation_storms_as_crash() {
        let w = GrowWorkload::new();
        let mut prog = prepare(&w, SiteCategory::Control).unwrap();
        // No instruction or wall limit: only the memory ceiling can stop
        // a runaway allocation loop (64 floats per iteration).
        prog.limits.hang_factor = u64::MAX;
        prog.limits.hang_slack = u64::MAX;
        prog.limits.mem_bytes = 1 << 20;
        let c = run_campaign(&prog, &w, 60, 17).unwrap();
        assert_eq!(c.counts.total(), 60);
        assert!(
            c.counts.crash > 0,
            "the memory ceiling must contain the allocation storms: {:?}",
            c.counts
        );
    }
}

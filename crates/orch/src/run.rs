//! The shard runner: fan missing shards out over rayon, persist each as
//! it completes, and merge the store back into a study result.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;
use vulfi::{
    build_prune_context, campaign_seed, run_range, GoldenSet, Prepared, SoundnessReport,
    StudyConfig, StudyResult, Workload,
};

use crate::key::{study_key, StudyKey};
use crate::observe::{Progress, ProgressSnapshot};
use crate::plan::{
    covered_experiments, merge, merged_dyn_insts, missing_jobs, plan_shards, ShardJob,
};
use crate::store::{Manifest, ShardRecord, Store, StudyStore};
use crate::tracestore::{TraceShard, TraceStore};
use crate::OrchError;

/// What a [`RunOptions::hook`] is told, on the thread it concerns.
pub enum RunEvent<'a> {
    /// This thread is about to execute the shard. Returning `false`
    /// leaves the shard pending in the store, exactly as a `max_shards`
    /// cutoff would: a later resume runs it.
    Start(ShardJob),
    /// A shard's record is durably appended (serialized under the
    /// runner's lock). `engine_faults` counts the engine panics it
    /// contained as Crash records.
    Appended {
        record: &'a ShardRecord,
        engine_faults: u64,
        progress: &'a ProgressSnapshot,
    },
    /// The run is over. Sent once, even when every shard was reused, so
    /// the last snapshot a consumer sees reports `done == total` on a
    /// completed study.
    Finished(&'a ProgressSnapshot),
}

/// The runner's one observer. Its return value only matters for
/// [`RunEvent::Start`]; a panic inside it is contained (the shard runs,
/// the study continues).
pub type RunHook = Box<dyn Fn(RunEvent<'_>) -> bool + Send + Sync>;

/// A hook that only reports progress snapshots and never holds a shard
/// back.
pub fn progress_hook(f: impl Fn(&ProgressSnapshot) + Send + Sync + 'static) -> RunHook {
    Box::new(move |ev| {
        if let RunEvent::Appended { progress, .. } | RunEvent::Finished(progress) = ev {
            f(progress);
        }
        true
    })
}

pub struct RunOptions {
    /// Experiments per shard.
    pub shard_size: usize,
    /// Stop after executing this many shards in this invocation, leaving
    /// the rest pending in the store (tests use this to simulate a killed
    /// run; incremental batch jobs can use it as a work quantum).
    pub max_shards: Option<usize>,
    pub hook: Option<RunHook>,
    /// Record per-experiment trace spans under this trace-store root
    /// (`vulfi study --trace <dir>`). Tracing is observational: the
    /// persisted results and the study key are bit-identical with or
    /// without it.
    pub trace: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            shard_size: 25,
            max_shards: None,
            hook: None,
            trace: None,
        }
    }
}

/// Call `hook` (if any) with a panic fence: reporting is best-effort and
/// a panicking hook neither kills the study nor holds a shard back.
fn notify(hook: &Option<RunHook>, ev: RunEvent<'_>) -> bool {
    match hook {
        Some(h) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h(ev))).unwrap_or(true),
        None => true,
    }
}

/// What a [`run_study_persistent`] invocation did.
pub struct RunOutcome {
    pub key: StudyKey,
    pub total_shards: usize,
    /// Shards already in the store, skipped by this invocation.
    pub reused_shards: usize,
    pub executed_shards: usize,
    /// Shards still missing (nonzero only under `max_shards` cutoffs).
    pub pending_shards: usize,
    /// `Some` once every campaign the stopping rule needs is stored.
    pub result: Option<StudyResult>,
    /// Wall time of this invocation.
    pub wall_ns: u64,
    /// Golden-run dynamic instructions over the campaigns the merged
    /// result used (0 while partial).
    pub dyn_insts: u64,
    pub progress: ProgressSnapshot,
}

/// Record a new study's identity in its manifest; a study already in the
/// store keeps the manifest it has. `vulfi serve` calls this at submit,
/// before any shard runs.
pub fn create_manifest(
    study: &StudyStore,
    key: &StudyKey,
    prog: &Prepared,
    workload_name: &str,
    isa: &str,
    cfg: &StudyConfig,
    total_shards: usize,
) -> Result<(), OrchError> {
    if study.exists() {
        return Ok(());
    }
    study.write_manifest(&Manifest {
        key: key.clone(),
        workload: workload_name.to_string(),
        isa: isa.to_string(),
        category: prog.category,
        entry: prog.entry.clone(),
        cfg: *cfg,
        total_shards: total_shards as u64,
        complete: false,
    })
}

/// Execute one shard of a study: derive the campaign seed, run the
/// experiment range through [`vulfi::run_range`] against the study's
/// `golden` set (pruned or traced when the set is), and bump the
/// global metrics (shard duration, engine faults and the faulty
/// instructions actually interpreted included). The
/// runner below appends the returned record under its sink lock. The
/// returned count is the engine panics this shard contained as Crash
/// records.
///
/// Determinism contract: the record depends only on
/// `(prog, workload, cfg.seed, job)` — never on who ran it, when, or
/// how many times (`wall_ns` is informational and excluded from result
/// merging).
pub fn run_shard(
    prog: &Prepared,
    workload: &dyn Workload,
    cfg: &StudyConfig,
    job: ShardJob,
    golden: &GoldenSet,
) -> Result<(ShardRecord, Vec<vulfi::ExperimentTrace>, u64), OrchError> {
    if prog.model != cfg.model {
        return Err(OrchError(format!(
            "prepared program injects '{}' but the study config says '{}'",
            prog.model, cfg.model
        )));
    }
    let shard_start = Instant::now();
    let seed = campaign_seed(cfg.seed, job.campaign);
    let run = run_range(prog, workload, golden, seed, job.start..job.end)
        .map_err(|e| OrchError(e.to_string()))?;
    let metrics = crate::metrics::global();
    for e in &run.experiments {
        metrics.inc_experiment(prog.category, e.outcome);
        metrics.inc_experiment_model(prog.model, e.outcome);
    }
    for s in &run.spans {
        if let Some(p) = s.propagation {
            metrics.observe_propagation(prog.category, p);
        }
    }
    metrics.add_engine_faults(run.engine_faults);
    metrics.add_faulty_runs(run.interpreted_dyn_insts, run.reconverged);
    let wall_ns = shard_start.elapsed().as_nanos() as u64;
    metrics.observe_shard_duration(wall_ns);
    Ok((
        ShardRecord {
            campaign: job.campaign,
            start: job.start,
            end: job.end,
            experiments: run.experiments,
            wall_ns,
        },
        run.spans,
        run.engine_faults,
    ))
}

/// Run (or resume) a study through `store`.
///
/// Experiments already persisted under this study's content key are
/// never re-executed; everything else fans out over rayon in shard
/// units, each appended to the store the moment it completes. Results
/// are bit-identical to `vulfi::run_study` with the same config
/// regardless of shard size, thread count, or how many times the run
/// was interrupted and resumed.
pub fn run_study_persistent(
    prog: &Prepared,
    workload: &dyn Workload,
    workload_name: &str,
    isa: &str,
    cfg: &StudyConfig,
    store: &Store,
    opts: RunOptions,
) -> Result<RunOutcome, OrchError> {
    let started = Instant::now();
    if prog.model != cfg.model {
        // The model rides on both the prepared program (the injector
        // reads it) and the config (the key hashes it); letting them
        // diverge would cache results under the wrong key.
        return Err(OrchError(format!(
            "prepared program injects '{}' but the study config says '{}'",
            prog.model, cfg.model
        )));
    }
    if cfg.prune && opts.trace.is_some() {
        return Err(OrchError(
            "--trace and --prune are mutually exclusive: a statically discharged \
             experiment has no execution to trace"
                .to_string(),
        ));
    }
    let key = study_key(prog, workload_name, isa, cfg);
    let study = store.study(&key);
    let plan = plan_shards(cfg, opts.shard_size);
    create_manifest(&study, &key, prog, workload_name, isa, cfg, plan.len())?;

    // Open the trace sidecar first so a bad --trace path fails before
    // any work, and heal its own kill artifact the same way as the
    // result log below.
    let trace_log = match &opts.trace {
        Some(root) => {
            let tstore = TraceStore::open(root)?;
            let tlog = tstore.study(&key);
            tlog.trim_torn_tail()?;
            Some(tlog)
        }
        None => None,
    };

    // One read of the log: real corruption errors out here, before any
    // work, and the expected kill artifact (a torn trailing line) is
    // healed now, so the appends below cannot bury it mid-file where it
    // would read as corruption.
    let done = study.heal_shards()?;
    let mut missing = missing_jobs(&plan, &done, cfg);
    let reused_shards = plan.len() - missing.len();
    if let Some(cap) = opts.max_shards {
        missing.truncate(cap);
    }

    // Every shard shares one golden set, which fills lazily: a study that
    // executes nothing runs no golden. A pruned study's set carries the
    // static analysis, which is only needed when something will actually
    // execute; a fully cached study resumes without it.
    let golden = if cfg.prune && !missing.is_empty() {
        let ctx = build_prune_context(prog, workload).map_err(|e| OrchError(e.to_string()))?;
        GoldenSet::pruned(workload, &ctx)
    } else {
        GoldenSet::new(workload, trace_log.is_some())
    };

    let mut progress = Progress::start((cfg.max_campaigns * cfg.experiments_per_campaign) as u64);
    progress.resumed = covered_experiments(&done, cfg) as u64;
    for rec in &done {
        for e in &rec.experiments {
            progress.counts.add(e);
            progress.dyn_insts += e.golden_dyn_insts;
        }
    }

    // One lock serializes the append-only logs, the progress counters,
    // and the hook's `Appended` events; experiment execution itself runs
    // outside it.
    let sink = Mutex::new((&study, progress));
    let metrics = crate::metrics::global();
    let results: Result<Vec<bool>, OrchError> = missing
        .into_par_iter()
        .map(|job| {
            if !notify(&opts.hook, RunEvent::Start(job)) {
                return Ok(false);
            }
            let (rec, spans, engine_faults) = run_shard(prog, workload, cfg, job, &golden)?;
            // Recover the guard on poison: a panic in another worker (or
            // in a user callback) must not cascade into losing this
            // shard's append — the counters it protects stay coherent
            // because every mutation below is completed before unlock.
            let mut guard = sink
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (study, progress) = &mut *guard;
            let append_start = Instant::now();
            study.append_shard(&rec)?;
            metrics.observe_shard_append(append_start.elapsed().as_nanos() as u64);
            if let Some(tlog) = &trace_log {
                // The result shard is already durable; the trace append
                // rides in the same critical section so a kill tears at
                // most the trace line (which resume trims) and never
                // interleaves two writers.
                tlog.append_shard(&TraceShard {
                    campaign: job.campaign,
                    start: job.start,
                    end: job.end,
                    workload: workload_name.to_string(),
                    category: prog.category.name().to_string(),
                    isa: isa.to_string(),
                    model: prog.model.name(),
                    traces: spans,
                })?;
            }
            progress.note_shard(rec.experiments.len() as u64);
            for e in &rec.experiments {
                progress.counts.add(e);
                progress.dyn_insts += e.golden_dyn_insts;
            }
            notify(
                &opts.hook,
                RunEvent::Appended {
                    record: &rec,
                    engine_faults,
                    progress: &progress.snapshot(),
                },
            );
            Ok(true)
        })
        .collect();
    let executed_shards = results?.into_iter().filter(|&ran| ran).count();

    let (_, progress) = sink
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A run that appended nothing merges the records it already read.
    let done = if executed_shards == 0 {
        done
    } else {
        study.shards()?
    };
    let result = merge(cfg, prog.category, &done);
    let pending_shards = missing_jobs(&plan, &done, cfg).len();
    let dyn_insts = result
        .as_ref()
        .map(|r| merged_dyn_insts(cfg, r, &done))
        .unwrap_or(0);
    if result.is_some() {
        let mut manifest = study.read_manifest()?;
        if !manifest.complete {
            manifest.complete = true;
            study.write_manifest(&manifest)?;
        }
    }
    let final_snapshot = progress.snapshot();
    notify(&opts.hook, RunEvent::Finished(&final_snapshot));
    Ok(RunOutcome {
        key,
        total_shards: plan.len(),
        reused_shards,
        executed_shards,
        pending_shards,
        result,
        wall_ns: started.elapsed().as_nanos() as u64,
        dyn_insts,
        progress: final_snapshot,
    })
}

/// Cross-validate the static analyzer against a fully-executed study
/// (`--prune=verify`): re-run the analysis on the workload, then check
/// every stored single-bit-flip injection record against the benign
/// predictions. The executed study shares its key with an unpruned run,
/// so verification is free on a warm store; any violation means the
/// analyzer predicted "provably benign" for a flip that misbehaved —
/// an analyzer bug, never sampling noise.
pub fn verify_soundness(
    workload: &dyn Workload,
    done: &[ShardRecord],
) -> Result<SoundnessReport, OrchError> {
    let report = vulfi::analyze_module(workload.module(), workload.entry()).map_err(OrchError)?;
    let plan = vulfi::PrunePlan::from_report(&report);
    Ok(vulfi::check_soundness(
        &plan,
        done.iter().flat_map(|s| &s.experiments),
    ))
}

/// Set the global worker count (`--jobs N`; 0 = all cores).
pub fn set_jobs(n: usize) {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
}

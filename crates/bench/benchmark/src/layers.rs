//! Per-layer metrics of the traced run.
//!
//! Work inside one public call is measured two ways, both from outside
//! the program:
//!
//! - from what the program already persists: shard records (`wall_ns`,
//!   golden dynamic instructions), the metrics registry, the ops log;
//! - from a single-thread replay of the first experiments of campaign 0
//!   of each cell through the public pieces of an experiment
//!   (`Workload::setup`, `Interp::run` under `VulfiHost` or
//!   `vexec::EngineInjector`, `snapshot_outputs`), with a timer around
//!   each stage. Every replayed outcome must equal the stored record.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rand::Rng;
use vexec::{EngineInjector, EngineModel, Interp, Trap};
use vulfi::workload::snapshot_outputs;
use vulfi::{
    build_prune_context, campaign_seed, experiment_rng, run_experiment_range,
    run_experiment_range_pruned, run_experiment_range_traced, FaultModel, Outcome, Prepared,
    PruneContext, StudyConfig, VulfiHost, Workload,
};
use vulfi_orch::{merge, OpsEvent, OpsKind, ShardRecord, StudyStore, TraceShard, TraceStore};

use crate::serve::Served;
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::workloads::{self, Ready, Setup, Variant};
use crate::{alloc, Metric};

/// Experiments replayed per cell (campaign 0, indices `0..REPLAY`).
const REPLAY: usize = 10;

/// One cell whose round-0 study is in a store.
pub struct StoredCell<'a> {
    pub ready: &'a Ready,
    pub workload: &'a dyn Workload,
    pub study: StudyStore,
    pub cfg: StudyConfig,
}

#[derive(Default)]
struct Replay {
    driver_ns: f64,
    driver_exps: u64,
    driver_allocs: u64,
    setup_ns: f64,
    golden_ns: f64,
    faulty_ns: f64,
    compare_ns: f64,
    exps: u64,
    golden_insts: u64,
    faulty_insts: u64,
    golden_allocs: u64,
    traced_faulty_insts: u64,
    traced_exps: u64,
    trace_bytes: u64,
}

fn engine_model(m: FaultModel) -> Option<EngineModel> {
    match m {
        FaultModel::MaskCorrupt => Some(EngineModel::MaskCorrupt),
        FaultModel::AddressLine { bit } => Some(EngineModel::AddressLine { bit }),
        FaultModel::MemoryCell => Some(EngineModel::MemoryCell),
        _ => None,
    }
}

/// What the replay of one experiment observed: the fields a stored
/// record carries about its outcome.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Outcome,
    detected: bool,
    input: u64,
    dynamic_sites: u64,
    golden_dyn_insts: u64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// Replay experiment `i` of the campaign seeded `cseed` stage by stage,
/// drawing from the RNG in the runner's order (input, then target and
/// entropy after the golden run).
fn replay_one(
    prog: &Prepared,
    w: &dyn Workload,
    cseed: u64,
    i: usize,
    acc: &mut Replay,
) -> Result<Observed, String> {
    let mut rng = experiment_rng(cseed, i);
    let input = rng.gen_range(0..w.num_inputs().max(1));
    let engine = engine_model(prog.model);

    let t = Instant::now();
    let mut counter = engine.map(EngineInjector::count);
    let mut interp = Interp::new(&prog.module);
    let setup = w
        .setup(&mut interp.mem, input)
        .map_err(|t| format!("setup: {t}"))?;
    acc.setup_ns += ns_since(t);
    if let Some(c) = counter.as_mut() {
        interp.set_engine_injector(c);
    }
    let mut host = VulfiHost::profile();
    let t = Instant::now();
    let (golden, allocs) = alloc::count(|| interp.run(&prog.entry, &setup.args, &mut host));
    acc.golden_ns += ns_since(t);
    acc.golden_allocs += allocs;
    let golden = golden.map_err(|t| format!("golden run trapped: {t}"))?;
    acc.golden_insts += golden.dyn_insts;
    let t = Instant::now();
    let golden_out = snapshot_outputs(&interp.mem, &setup.outputs, &golden.ret)
        .map_err(|t| format!("golden snapshot: {t}"))?;
    acc.compare_ns += ns_since(t);
    drop(interp);
    let n = match (engine, &counter) {
        (Some(EngineModel::MemoryCell), _) => golden.dyn_insts,
        (Some(_), Some(c)) => c.events(),
        _ => host.dynamic_sites,
    };
    acc.exps += 1;
    let mut observed = Observed {
        outcome: Outcome::Benign,
        detected: false,
        input,
        dynamic_sites: n,
        golden_dyn_insts: golden.dyn_insts,
    };
    if n == 0 {
        return Ok(observed);
    }
    let target = rng.gen_range(1..=n);
    let entropy: u64 = rng.gen();

    let t = Instant::now();
    let mut injector = engine.map(|m| EngineInjector::inject(m, target, entropy));
    let mut interp = Interp::new(&prog.module);
    interp.set_budget(
        golden
            .dyn_insts
            .saturating_mul(prog.limits.hang_factor)
            .saturating_add(prog.limits.hang_slack),
    );
    let setup = w
        .setup(&mut interp.mem, input)
        .map_err(|t| format!("setup: {t}"))?;
    if prog.limits.wall_ms > 0 {
        interp.set_wall_limit(std::time::Duration::from_millis(prog.limits.wall_ms));
    }
    if prog.limits.mem_bytes > 0 {
        interp.set_memory_limit(prog.limits.mem_bytes);
    }
    if let Some(inj) = injector.as_mut() {
        interp.set_engine_injector(inj);
    }
    acc.setup_ns += ns_since(t);
    let mut host = match engine {
        Some(_) => VulfiHost::profile(),
        None => VulfiHost::inject_model(target, entropy, prog.model),
    };
    let t = Instant::now();
    let result = interp.run(&prog.entry, &setup.args, &mut host);
    acc.faulty_ns += ns_since(t);
    acc.faulty_insts += interp.executed();
    let t = Instant::now();
    observed.detected = host.detectors.detected();
    observed.outcome = match &result {
        Err(Trap::HostError(m)) => return Err(format!("runtime bug: {m}")),
        Err(_) => Outcome::Crash,
        Ok(r) => {
            let out = snapshot_outputs(&interp.mem, &setup.outputs, &r.ret)
                .map_err(|t| format!("faulty snapshot: {t}"))?;
            if out == golden_out {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    };
    acc.compare_ns += ns_since(t);
    Ok(observed)
}

fn campaign0(records: &[ShardRecord], n: usize) -> Vec<vulfi::Experiment> {
    let mut c0: Vec<&ShardRecord> = records.iter().filter(|r| r.campaign == 0).collect();
    c0.sort_by_key(|r| r.start);
    c0.into_iter()
        .flat_map(|r| r.experiments.iter().cloned())
        .take(n)
        .collect()
}

/// Time (and count allocations of) the cell's own experiment driver
/// over `0..n` of campaign 0: the plain runner, or the pruned/traced one
/// for those variants.
fn time_driver(
    ready: &Ready,
    w: &dyn Workload,
    prune: Option<&PruneContext>,
    cseed: u64,
    n: usize,
    acc: &mut Replay,
) -> Result<(), String> {
    let prog = &ready.prog;
    let t = Instant::now();
    let (ran, allocs) = alloc::count(|| match (ready.spec.variant, prune) {
        (Variant::Pruned, Some(ctx)) => run_experiment_range_pruned(prog, w, ctx, cseed, 0..n),
        (Variant::Traced, _) => run_experiment_range_traced(prog, w, cseed, 0..n).map(|(e, _)| e),
        _ => run_experiment_range(prog, w, cseed, 0..n),
    });
    acc.driver_ns += ns_since(t);
    ran.map_err(|e| format!("{}: {e}", ready.spec.label()))?;
    acc.driver_allocs += allocs;
    acc.driver_exps += n as u64;
    Ok(())
}

/// Replay-based and record-based layer metrics over `cells`
/// (`campaign.*`, `vexec.*`, `analyze.*`, `tracestore.*`).
pub fn cell_layers(
    cells: &[StoredCell],
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let cseed = campaign_seed(seed, 0);
    let mut acc = Replay::default();
    let mut prune_ms = 0.0;
    let (mut sbf_exps, mut predicted_benign) = (0u64, 0u64);
    let (mut all_exps, mut golden_dyn) = (0u64, 0u64);
    let traces = TraceStore::open(scratch.join("replay-trace")).map_err(|e| e.to_string())?;
    for (idx, cell) in cells.iter().enumerate() {
        let spec = &cell.ready.spec;
        let prog = &cell.ready.prog;
        let t_cell = Instant::now();
        // Children of this cell's span, recorded once the parent exists.
        let mut children: Vec<(&'static str, String, Instant, Instant)> = Vec::new();
        let records = cell.study.shards().map_err(|e| e.to_string())?;
        for e in records.iter().flat_map(|r| &r.experiments) {
            all_exps += 1;
            golden_dyn += e.golden_dyn_insts;
        }

        let prune = if prog.model == FaultModel::SingleBitFlip {
            let t = Instant::now();
            let ctx = build_prune_context(prog, cell.workload).map_err(|e| e.to_string())?;
            let end = Instant::now();
            prune_ms += (end - t).as_secs_f64() * 1e3;
            children.push(("analyze", "build_prune_context".to_string(), t, end));
            if spec.variant == Variant::Plain {
                let report =
                    vulfi::check_soundness(&ctx.plan, records.iter().flat_map(|r| &r.experiments));
                if !report.is_sound() {
                    failures.push(format!(
                        "{}: {} injection(s) predicted benign were not",
                        spec.label(),
                        report.violations.len()
                    ));
                }
                sbf_exps += records
                    .iter()
                    .map(|r| r.experiments.len() as u64)
                    .sum::<u64>();
                predicted_benign += report.predicted_benign;
            }
            Some(ctx)
        } else {
            None
        };

        let n = REPLAY.min(cell.cfg.experiments_per_campaign);
        let t = Instant::now();
        time_driver(
            cell.ready,
            cell.workload,
            prune.as_ref(),
            cseed,
            n,
            &mut acc,
        )?;
        let after_driver = Instant::now();
        let (exps, spans) = run_experiment_range_traced(prog, cell.workload, cseed, 0..n)
            .map_err(|e| format!("{}: {e}", spec.label()))?;
        acc.traced_exps += exps.len() as u64;
        acc.traced_faulty_insts += spans.iter().map(|s| s.faulty_dyn_insts).sum::<u64>();
        let log = traces.study(&vulfi_orch::StudyKey(format!("cell{idx}")));
        log.append_shard(&TraceShard {
            campaign: 0,
            start: 0,
            end: n,
            workload: cell.workload.name().to_string(),
            category: spec.category.name().to_string(),
            isa: spec.isa_name().to_string(),
            model: prog.model.name(),
            traces: spans,
        })
        .map_err(|e| e.to_string())?;
        acc.trace_bytes += file_len(&log.dir().join("traces.jsonl"));
        let after_traced = Instant::now();

        children.push(("campaign", "experiment driver".to_string(), t, after_driver));
        children.push((
            "campaign.traced",
            "run_experiment_range_traced".to_string(),
            after_driver,
            after_traced,
        ));

        for (i, rec) in campaign0(&records, n).iter().enumerate() {
            let t = Instant::now();
            let seen = replay_one(prog, cell.workload, cseed, i, &mut acc)
                .map_err(|e| format!("{} replay {i}: {e}", spec.label()))?;
            children.push((
                "replay",
                format!("replay experiment {i}"),
                t,
                Instant::now(),
            ));
            let want = Observed {
                outcome: rec.outcome,
                detected: rec.detected,
                input: rec.input,
                dynamic_sites: rec.dynamic_sites,
                golden_dyn_insts: rec.golden_dyn_insts,
            };
            if seen != want {
                failures.push(format!(
                    "{} experiment {i}: replayed {seen:?}, stored {want:?}",
                    spec.label()
                ));
            }
        }
        let parent = tracer.record(
            "layers",
            spec.label(),
            idx as u64,
            None,
            t_cell,
            Instant::now(),
        );
        for (cat, name, a, b) in children {
            tracer.record(cat, name, idx as u64, parent, a, b);
        }
    }
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    Ok(vec![
        Metric::new("analyze.prune_context_ms", prune_ms, "ms"),
        Metric::new(
            "analyze.discharged_pct",
            100.0 * per(predicted_benign as f64, sbf_exps),
            "%",
        ),
        Metric::new(
            "campaign.us_per_exp",
            per(acc.driver_ns, acc.driver_exps) / 1e3,
            "us",
        ),
        Metric::new(
            "campaign.setup_us_per_exp",
            per(acc.setup_ns, acc.exps) / 1e3,
            "us",
        ),
        Metric::new(
            "campaign.golden_us_per_exp",
            per(acc.golden_ns, acc.exps) / 1e3,
            "us",
        ),
        Metric::new(
            "campaign.faulty_us_per_exp",
            per(acc.faulty_ns, acc.exps) / 1e3,
            "us",
        ),
        Metric::new(
            "campaign.compare_us_per_exp",
            per(acc.compare_ns, acc.exps) / 1e3,
            "us",
        ),
        Metric::new(
            "campaign.allocs_per_exp",
            per(acc.driver_allocs as f64, acc.driver_exps),
            "count",
        ),
        Metric::new(
            "vexec.golden_dyn_insts_per_exp",
            per(golden_dyn as f64, all_exps),
            "count",
        ),
        Metric::new(
            "vexec.faulty_dyn_insts_per_exp",
            per(acc.traced_faulty_insts as f64, acc.traced_exps),
            "count",
        ),
        Metric::new(
            "vexec.ns_per_inst",
            per(
                acc.golden_ns + acc.faulty_ns,
                acc.golden_insts + acc.faulty_insts,
            ),
            "ns",
        ),
        Metric::new(
            "vexec.allocs_per_kinst",
            per(acc.golden_allocs as f64 * 1e3, acc.golden_insts),
            "count",
        ),
        Metric::new(
            "tracestore.bytes_per_exp",
            per(acc.trace_bytes as f64, acc.traced_exps),
            "B",
        ),
    ])
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

/// Store-layer metrics over complete studies: bytes per experiment,
/// timed `StudyStore::shards` and `vulfi_orch::merge`, and the share of
/// the runner's thread time spent inside shards.
pub fn store_layers(
    studies: &[(StudyStore, StudyConfig, vir::analysis::SiteCategory)],
    threads: f64,
    runner_wall_s: f64,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let (mut bytes, mut exps, mut shard_ns) = (0u64, 0u64, 0u64);
    let (mut read_s, mut merge_s) = (0.0, 0.0);
    for (i, (study, cfg, category)) in studies.iter().enumerate() {
        bytes += file_len(&study.dir().join("shards.jsonl"));
        let t = Instant::now();
        let done = study.shards().map_err(|e| e.to_string())?;
        let mid = Instant::now();
        let merged = merge(cfg, *category, &done);
        let end = Instant::now();
        tracer.record("store", "StudyStore::shards", i as u64, None, t, mid);
        tracer.record("orch.merge", "merge", i as u64, None, mid, end);
        if merged.is_none() {
            return Err(format!(
                "{}: merge found an incomplete study",
                study.dir().display()
            ));
        }
        read_s += (mid - t).as_secs_f64();
        merge_s += (end - mid).as_secs_f64();
        exps += done.iter().map(|r| r.experiments.len() as u64).sum::<u64>();
        shard_ns += done.iter().map(|r| r.wall_ns).sum::<u64>();
    }
    let n = studies.len().max(1) as f64;
    let exps_f = exps.max(1) as f64;
    Ok(vec![
        Metric::new(
            "orch.shard_exec_share",
            shard_ns as f64 / 1e9 / (threads * runner_wall_s),
            "ratio",
        ),
        Metric::new("store.bytes_per_exp", bytes as f64 / exps_f, "B"),
        Metric::new("store.read_us_per_exp", read_s * 1e6 / exps_f, "us"),
        Metric::new("orch.merge_us_per_study", merge_s * 1e6 / n, "us"),
    ])
}

/// Mean `StudyStore::append_shard` latency from replaying `records`
/// into a scratch study (used where appends ran in another process).
pub fn append_replay_us(records: &[ShardRecord], scratch: &Path) -> Result<f64, String> {
    let store =
        vulfi_orch::Store::open(scratch.join("append-replay")).map_err(|e| e.to_string())?;
    let study = store.study(&vulfi_orch::StudyKey("append-replay".to_string()));
    let t = Instant::now();
    for r in records {
        study.append_shard(r).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64)
}

/// Mean shard-append latency recorded by the metrics registry since
/// `before` (in-process runners observe every append).
pub fn append_histogram_us(before: &vulfi_orch::MetricsSnapshot) -> f64 {
    let now = vulfi_orch::metrics::global().snapshot();
    let n = now.append_latency_seconds.count() - before.append_latency_seconds.count();
    let s = now.append_latency_seconds.sum - before.append_latency_seconds.sum;
    s * 1e6 / n.max(1) as f64
}

/// Passes of the variant probe; each metric is the median over them.
const PROBE_PASSES: usize = 3;

/// `campaign.us_per_exp.<variant>`: the experiment driver of each
/// `variants` cell (Blackscholes, Stencil, Jacobi; AVX pure-data) over
/// the replay slice, median of [`PROBE_PASSES`] passes, whichever
/// workload is traced.
pub fn variant_probe(seed: u64, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let specs = workloads::cells(crate::Kind::Variants);
    let setup = workloads::setup(&specs, &mut Tracer::new(false), 0)?;
    let cseed = campaign_seed(seed, 0);
    let prune: Vec<Option<PruneContext>> = setup
        .cells
        .iter()
        .map(|cell| match cell.spec.variant {
            Variant::Pruned => build_prune_context(&cell.prog, setup.workload(cell))
                .map(Some)
                .map_err(|e| e.to_string()),
            _ => Ok(None),
        })
        .collect::<Result<_, _>>()?;
    let mut us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in 0..PROBE_PASSES {
        let mut per_variant: BTreeMap<&'static str, Replay> = BTreeMap::new();
        for (i, cell) in setup.cells.iter().enumerate() {
            let t = Instant::now();
            let acc = per_variant.entry(cell.spec.variant_name()).or_default();
            time_driver(
                cell,
                setup.workload(cell),
                prune[i].as_ref(),
                cseed,
                REPLAY,
                acc,
            )?;
            let name = format!("{} pass {pass}", cell.spec.label());
            tracer.record("probe.variant", name, i as u64, None, t, Instant::now());
        }
        for (name, r) in per_variant {
            us.entry(name)
                .or_default()
                .push(r.driver_ns / r.driver_exps.max(1) as f64 / 1e3);
        }
    }
    Ok(workloads::VARIANTS
        .iter()
        .map(|(name, _)| {
            Metric::new(
                &format!("campaign.us_per_exp.{name}"),
                median(&us[name]),
                "us",
            )
        })
        .collect())
}

/// The metric suffix of a paper benchmark (`Ray tracing` → `ray_tracing`).
fn bench_suffix(name: &str) -> String {
    name.to_lowercase().replace(' ', "_")
}

/// `vexec.ns_per_inst.<bench>`: bare golden runs of every input of each
/// paper benchmark (AVX, uninstrumented). A batch runs every input
/// once; the metric is the median over batches, at least 5 of them and
/// at least 100 ms.
pub fn bench_probe(tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for (i, name) in vbench::STUDY_NAMES.iter().enumerate() {
        let w = workloads::compile(name, spmdc::VectorIsa::Avx)?;
        let started = Instant::now();
        let mut batches = Vec::new();
        while batches.len() < 5 || started.elapsed().as_secs_f64() < 0.1 {
            let (mut ns, mut insts) = (0.0, 0u64);
            for input in 0..w.num_inputs() {
                let mut interp = Interp::new(w.module());
                let setup = w
                    .setup(&mut interp.mem, input)
                    .map_err(|t| format!("{name}: {t}"))?;
                let t = Instant::now();
                let r = interp
                    .run(w.entry(), &setup.args, &mut vexec::NoHost)
                    .map_err(|t| format!("{name} golden run: {t}"))?;
                ns += ns_since(t);
                insts += r.dyn_insts;
            }
            batches.push(ns / insts.max(1) as f64);
        }
        tracer.record(
            "probe.vexec",
            *name,
            i as u64,
            None,
            started,
            Instant::now(),
        );
        let metric = format!("vexec.ns_per_inst.{}", bench_suffix(name));
        out.push(Metric::new(&metric, median(&batches), "ns"));
    }
    Ok(out)
}

/// Serve-layer metrics of served studies plus the daemon's ops log;
/// rebuilds queue-wait, execution and shard spans from the log under
/// each study's client span.
pub fn serve_layers(
    served: &[Served],
    events: &[OpsEvent],
    cpu_ms: f64,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let submit: Vec<f64> = served.iter().map(|s| s.submit_s * 1e3).collect();
    let status: Vec<f64> = served
        .iter()
        .flat_map(|s| s.status_s.iter().map(|x| x * 1e3))
        .collect();
    let polls: Vec<f64> = served.iter().map(|s| s.status_s.len() as f64).collect();
    let (mut waits, mut execs) = (Vec::new(), Vec::new());
    for (i, s) in served.iter().enumerate() {
        let of_job = |k: OpsKind| {
            events
                .iter()
                .filter(move |e| e.job == Some(s.job) && e.kind == k)
        };
        let submitted = of_job(OpsKind::Submitted).map(|e| e.unix_ms).next();
        let started = of_job(OpsKind::Started).map(|e| e.unix_ms).next();
        let first_lease = of_job(OpsKind::LeaseGranted).map(|e| e.unix_ms).min();
        let last_done = of_job(OpsKind::ShardDone).map(|e| e.unix_ms).max();
        let parent = tracer
            .spans
            .iter()
            .position(|sp| sp.cat == "serve.client" && sp.id == i as u64);
        if let (Some(a), Some(b)) = (submitted, started) {
            waits.push(b.saturating_sub(a) as f64);
            tracer.record_unix_ms("serve.queue", "queue wait", i as u64, parent, a, b, 1);
        }
        if let (Some(a), Some(b)) = (first_lease, last_done) {
            execs.push(b.saturating_sub(a) as f64);
            tracer.record_unix_ms("serve.exec", "execution", i as u64, parent, a, b, 1);
        }
        for lease in of_job(OpsKind::LeaseGranted) {
            let done = of_job(OpsKind::ShardDone).find(|d| {
                d.worker == lease.worker && d.campaign == lease.campaign && d.start == lease.start
            });
            if let Some(d) = done {
                let tid = lease
                    .worker
                    .as_deref()
                    .and_then(|w| w.strip_prefix("worker-"))
                    .and_then(|n| n.parse::<u64>().ok())
                    .map_or(2, |n| n + 2);
                tracer.record_unix_ms(
                    "serve.shard",
                    "shard",
                    i as u64,
                    parent,
                    lease.unix_ms,
                    d.unix_ms,
                    tid,
                );
            }
        }
    }
    vec![
        Metric::new("serve.submit_ms_p50", median(&submit), "ms"),
        Metric::new("serve.status_ms_p50", median(&status), "ms"),
        Metric::new("serve.polls_per_study", mean(&polls), "polls"),
        Metric::new("serve.queue_wait_ms_mean", mean(&waits), "ms"),
        Metric::new("serve.exec_ms_mean", mean(&execs), "ms"),
        Metric::new(
            "serve.daemon_cpu_ms_per_study",
            cpu_ms / served.len().max(1) as f64,
            "ms",
        ),
    ]
}

/// `spmdc.*` and `instrument.*` from a setup.
pub fn setup_layers(setup: &Setup) -> Vec<Metric> {
    let sites: usize = setup.cells.iter().map(|c| c.prog.sites.len()).sum();
    vec![
        Metric::new("spmdc.compile_ms", setup.compile_ms, "ms"),
        Metric::new("instrument.prepare_ms", setup.prepare_ms, "ms"),
        Metric::new("instrument.static_sites", sites as f64, "count"),
    ]
}

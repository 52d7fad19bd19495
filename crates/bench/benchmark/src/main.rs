//! The repository benchmark: end-to-end and per-layer metrics of the
//! VULFI reproduction on four workloads (see `README.md` beside this
//! package for why each exists and what each metric should move).
//!
//! ```text
//! benchmark run   --workload W [--seed S] [--seconds N] [--size full|smoke] [--out DIR]
//! benchmark trace --workload W [--seed S] [--seconds N] [--size full|smoke] [--out DIR]
//! benchmark agree SET_A.jsonl SET_B.jsonl [SET…]
//! benchmark --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! The last form is `run` (`--trace 0`) or `trace` (`--trace 1`). Each
//! run prints its metrics as `name value unit`, appends a record to
//! `DIR/results.jsonl` (default `.bench_results`), and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. It exits
//! 1 when an output check fails and 2 when the run could not complete.

mod agree;
mod alloc;
mod layers;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use serde_json::{json, Value};
use vulfi_orch::{OpsLog, Store};

use crate::layers::StoredCell;
use crate::serve::{serve_study, Daemon, Served};
use crate::spans::Tracer;
use crate::stats::{median, quantile, sum_over_items};
use crate::workloads::{count_tuple, round_seed, CellSpec, Shape};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The benchmark definition: workloads, metrics, bounds.
const SPEC: &str = include_str!("../../../../BENCHMARK.json");

/// Per-cell SDC/Benign/Crash/detected counts at seed 42.
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected-seed-42.json");

const FIXTURE_SEED: u64 = 42;

/// Rayon threads for every in-process study, and the daemon's workers.
const THREADS: usize = 2;

/// Warm passes over the measured studies. `resume_s` sums each study's
/// fastest re-run over a study workload's passes (0.1–0.2 s each on a
/// 2-vCPU VM), and each study's median latency over the served passes
/// (ten resubmissions, about 0.5 s each).
const WARM_PASSES: usize = 30;
const SERVE_WARM_PASSES: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PaperMatrix,
    MicroFineShards,
    Variants,
    ServeClosedLoop,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PaperMatrix,
        Kind::MicroFineShards,
        Kind::Variants,
        Kind::ServeClosedLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperMatrix => "paper-matrix",
            Kind::MicroFineShards => "micro-fine-shards",
            Kind::Variants => "variants",
            Kind::ServeClosedLoop => "serve-closed-loop",
        }
    }

    fn parse(s: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown workload '{s}' (one of {})", names.join(", "))
            })
    }
}

/// `full` is the benchmark; `smoke` runs every code path on about two
/// experiments per cell, for the tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub traced: bool,
    pub out: PathBuf,
    /// Record this run's round-0 counts into the fixture instead of
    /// checking them (seed 42 only).
    pub write_expected: bool,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    /// Fixture entries: per-cell (or per-served-study) counts.
    pub counts: BTreeMap<String, [u64; 4]>,
}

/// Scratch directory for stores and daemons, inside the working
/// directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(".bench_work").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn own_peak_rss_mb() -> Result<f64, String> {
    serve::peak_rss_mb("/proc/self/status")
}

/// Latency metrics over per-study wall times (ms); a failed study is
/// `f64::INFINITY`.
fn latency_metrics(latencies_ms: &[f64]) -> [Metric; 2] {
    [
        Metric::new("study_p50_ms", quantile(latencies_ms, 0.50), "ms"),
        Metric::new("study_p95_ms", quantile(latencies_ms, 0.95), "ms"),
    ]
}

/// Run one workload end to end and collect its metrics and checks.
pub fn execute(opts: &Opts) -> Result<Report, String> {
    vulfi_orch::set_jobs(THREADS);
    let work = WorkDir::new()?;
    let mut tracer = Tracer::new(opts.traced);
    let mut report = match opts.kind {
        Kind::ServeClosedLoop => serve_workload(opts, &work.0, &mut tracer)?,
        _ => study_workload(opts, &work.0, &mut tracer)?,
    };
    if opts.traced {
        std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
        let path = opts
            .out
            .join(format!("{}-seed{}.trace.json", opts.kind.name(), opts.seed));
        tracer.write_chrome(&path)?;
        eprintln!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        );
        println!("layer self time (traced phase and post-processing):");
        for (layer, (us, n)) in tracer.self_time_by_layer() {
            println!("  {layer:<20} {:>12.3} ms  {n} span(s)", us / 1e3);
        }
    }
    if opts.seed == FIXTURE_SEED && opts.size == Size::Full {
        fixture(opts, &mut report)?;
    }
    Ok(report)
}

/// Compare the run's counts with the committed fixture, or record them.
fn fixture(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let text = std::fs::read_to_string(FIXTURE).unwrap_or_else(|_| "{}".to_string());
    let mut doc: Value = serde_json::from_str(&text).map_err(|e| format!("{FIXTURE}: {e}"))?;
    let name = opts.kind.name();
    if opts.write_expected {
        let entries: Vec<(String, Value)> = report
            .counts
            .iter()
            .map(|(k, c)| (k.clone(), Value::from(c.to_vec())))
            .collect();
        let Value::Object(top) = &mut doc else {
            return Err(format!("{FIXTURE}: not a JSON object"));
        };
        top.retain(|(k, _)| k != name);
        top.push((name.to_string(), Value::Object(entries)));
        top.sort_by(|a, b| a.0.cmp(&b.0));
        return std::fs::write(FIXTURE, render_fixture(top)).map_err(|e| format!("{FIXTURE}: {e}"));
    }
    let Some(expected) = doc.get(name) else {
        report.failures.push(format!(
            "{FIXTURE} has no counts for {name}; record them with `run --write-expected`"
        ));
        return Ok(());
    };
    for (key, got) in &report.counts {
        let want: Option<Vec<u64>> = expected
            .get(key)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_u64).collect());
        if want.as_deref() != Some(&got[..]) {
            report.failures.push(format!(
                "{key}: counts [sdc, benign, crash, detected] = {got:?}, expected {want:?}"
            ));
        }
    }
    Ok(())
}

/// The fixture with one line per cell, for reviewable diffs.
fn render_fixture(workloads: &[(String, Value)]) -> String {
    let quote = |s: &str| serde_json::to_string(s).expect("strings always render");
    let mut out = String::from("{\n");
    for (i, (w, cells)) in workloads.iter().enumerate() {
        out.push_str(&format!("  {}: {{\n", quote(w)));
        let cells = cells.as_object().unwrap_or(&[]);
        for (j, (cell, counts)) in cells.iter().enumerate() {
            let counts = serde_json::to_string(counts).expect("arrays always render");
            let comma = if j + 1 < cells.len() { "," } else { "" };
            out.push_str(&format!(
                "    {}: {}{comma}\n",
                quote(cell),
                counts.replace(',', ", ")
            ));
        }
        out.push_str(if i + 1 < workloads.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    out + "}\n"
}

/// `paper-matrix`, `micro-fine-shards` and `variants`.
fn study_workload(opts: &Opts, work: &Path, tracer: &mut Tracer) -> Result<Report, String> {
    let specs = workloads::cells(opts.kind);
    let shape = workloads::shape(opts.kind, opts.size);
    let mut report = Report::default();

    // Set-up: compile every cell's workload, instrument it, open the
    // store. Repeated; the median is `setup_s`.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..setup_reps(opts) {
        let t = Instant::now();
        let s = workloads::setup(&specs, tracer, rep as u64)?;
        Store::open(work.join(format!("setup{rep}"))).map_err(|e| e.to_string())?;
        setup_s.push(secs(t));
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up repetition");

    if !opts.traced {
        let phase = workloads::measure(
            &setup,
            shape,
            opts.seed,
            opts.seconds,
            work.join("run"),
            WARM_PASSES,
            tracer,
            &mut report.failures,
        )?;
        workloads::check_twins(&setup, &phase, &mut report.failures)?;
        let lat: Vec<f64> = phase.cell_medians().iter().map(|s| s * 1e3).collect();
        report.metrics = vec![
            Metric::new("exp_per_s", phase.exp_per_s(), "exp/s"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("resume_s", phase.resume_s(), "s"),
        ];
        report.metrics.extend(latency_metrics(&lat));
        report
            .metrics
            .push(Metric::new("peak_rss_mb", own_peak_rss_mb()?, "MiB"));
        report.attempted = phase.experiments();
        report.failed = phase.engine_faults;
        report.counts = round0_counts(&setup, &phase);
        eprintln!(
            "{}: {} round(s), {} study run(s), {} experiments",
            opts.kind.name(),
            phase.rounds,
            phase.runs.len(),
            phase.experiments()
        );
        return Ok(report);
    }

    // Traced: an untraced half, then a traced half on the same rounds,
    // then the per-layer pass over the traced half's round 0.
    let untraced = workloads::measure(
        &setup,
        shape,
        opts.seed,
        opts.seconds / 2.0,
        work.join("u"),
        0,
        &mut Tracer::new(false),
        &mut report.failures,
    )?;
    let before = vulfi_orch::metrics::global().snapshot();
    let phase = workloads::measure(
        &setup,
        shape,
        opts.seed,
        opts.seconds / 2.0,
        work.join("t"),
        1,
        tracer,
        &mut report.failures,
    )?;
    let append_us = layers::append_histogram_us(&before);
    workloads::check_twins(&setup, &phase, &mut report.failures)?;
    report.attempted = untraced.experiments() + phase.experiments();
    report.failed = untraced.engine_faults + phase.engine_faults;
    report.counts = round0_counts(&setup, &phase);

    let round0: Vec<&workloads::CellRun> = phase.round0().collect();
    let stored: Vec<StoredCell> = round0
        .iter()
        .map(|r| {
            let ready = &setup.cells[r.cell];
            let store = Store::open(workloads::cell_root(&phase.root, 0, r.cell).join("store"))
                .map_err(|e| e.to_string())?;
            Ok(StoredCell {
                ready,
                workload: setup.workload(ready),
                study: store.study(&r.key),
                cfg: r.cfg,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut metrics = layers::setup_layers(&setup);
    metrics.extend(layers::cell_layers(
        &stored,
        opts.seed,
        work,
        tracer,
        &mut report.failures,
    )?);
    let studies: Vec<_> = stored
        .into_iter()
        .map(|c| (c.study, c.cfg, c.ready.spec.category))
        .collect();
    let runner_wall: f64 = round0.iter().map(|r| r.wall_s).sum();
    metrics.extend(layers::store_layers(
        &studies,
        THREADS as f64,
        runner_wall,
        tracer,
    )?);
    metrics.push(Metric::new("store.append_us_mean", append_us, "us"));

    // Serve the first cells of round 0 through a daemon: the serve
    // layer's cost for this workload's studies, and a cross-check that
    // the service merges the counts the in-process runner did. A traced
    // cell is the same study over the wire as its plain twin, so it is
    // skipped.
    let probe: Vec<(CellSpec, [u64; 4])> = round0
        .iter()
        .map(|r| (setup.cells[r.cell].spec, count_tuple(&r.counts)))
        .filter(|(spec, _)| spec.variant != workloads::Variant::Traced)
        .take(3)
        .collect();
    let (daemon, _) = Daemon::spawn(&work.join("probe"))?;
    let cpu0 = daemon.cpu_ms()?;
    let mut served = Vec::new();
    for (i, (spec, want)) in probe.iter().enumerate() {
        let s = serve_study(
            &daemon.addr,
            &spec.spec_json(shape, round_seed(opts.seed, 0)),
            tracer,
            i as u64,
        );
        if s.counts != Some(*want) {
            report.failures.push(format!(
                "served {}: counts {:?} ({:?}), in-process {want:?}",
                spec.label(),
                s.counts,
                s.error
            ));
        }
        served.push(s);
    }
    let cpu_ms = daemon.cpu_ms()? - cpu0;
    let store = daemon.store.clone();
    daemon.shutdown()?;
    let events = OpsLog::open(&store)
        .and_then(|l| l.events())
        .map_err(|e| e.to_string())?;
    metrics.extend(layers::serve_layers(&served, &events, cpu_ms, tracer));

    metrics.extend(layers::variant_probe(opts.seed, tracer)?);
    metrics.extend(layers::bench_probe(tracer)?);
    metrics.push(trace_overhead(untraced.exp_per_s(), phase.exp_per_s()));
    report.metrics = metrics;
    Ok(report)
}

fn setup_reps(opts: &Opts) -> usize {
    match opts.size {
        Size::Full => 5,
        Size::Smoke => 1,
    }
}

fn trace_overhead(untraced: f64, traced: f64) -> Metric {
    Metric::new(
        "bench.trace_overhead_pct",
        100.0 * (untraced - traced) / untraced,
        "%",
    )
}

fn round0_counts(setup: &workloads::Setup, phase: &workloads::Phase) -> BTreeMap<String, [u64; 4]> {
    phase
        .round0()
        .map(|r| (setup.cells[r.cell].spec.label(), count_tuple(&r.counts)))
        .collect()
}

/// One closed-loop pass: studies `seed + i` one at a time until
/// `seconds` have passed (at least `min` of them).
struct Loop {
    served: Vec<Served>,
    wall_s: f64,
    cpu_ms: f64,
}

fn closed_loop(
    daemon: &Daemon,
    cell: &CellSpec,
    shape: Shape,
    seed: u64,
    seconds: f64,
    min: usize,
    tracer: &mut Tracer,
) -> Result<Loop, String> {
    let cpu0 = daemon.cpu_ms()?;
    let t = Instant::now();
    let mut served = Vec::new();
    while served.len() < min || secs(t) < seconds {
        let i = served.len() as u64;
        served.push(serve_study(
            &daemon.addr,
            &cell.spec_json(shape, seed.wrapping_add(i)),
            tracer,
            i,
        ));
    }
    Ok(Loop {
        served,
        wall_s: secs(t),
        cpu_ms: daemon.cpu_ms()? - cpu0,
    })
}

/// Served studies that did not end with a complete result lose all
/// their experiments.
fn failed_experiments(lp: &Loop, shape: Shape, failures: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, s) in lp.served.iter().enumerate() {
        let total = s.counts.map(|c| c[0] + c[1] + c[2]);
        if s.error.is_some() || total != Some(shape.per_study()) {
            failures.push(format!(
                "served study {i}: {:?} (counts {:?})",
                s.error, s.counts
            ));
            failed += shape.per_study();
        }
    }
    failed
}

/// `serve-closed-loop`.
fn serve_workload(opts: &Opts, work: &Path, tracer: &mut Tracer) -> Result<Report, String> {
    let cell = workloads::cells(Kind::ServeClosedLoop)[0];
    let shape = workloads::shape(Kind::ServeClosedLoop, opts.size);
    let mut report = Report::default();

    // Set-up: spawn the daemon until its first /healthz 200, repeated.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for rep in 0..setup_reps(opts) {
        let (d, s) = Daemon::spawn(&work.join(format!("serve{rep}")))?;
        setup_s.push(s);
        if let Some(previous) = daemon.replace(d) {
            previous.shutdown()?;
        }
    }
    let daemon = daemon.expect("at least one set-up repetition");
    let min = 3;
    let half = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let lp = closed_loop(
        &daemon,
        &cell,
        shape,
        opts.seed,
        half,
        min,
        &mut Tracer::new(false),
    )?;
    report.failed += failed_experiments(&lp, shape, &mut report.failures);
    report.attempted += lp.served.len() as u64 * shape.per_study();

    if !opts.traced {
        // Warm: resubmit the last ten studies; each is a cache hit.
        let last: Vec<usize> = (lp.served.len().saturating_sub(10)..lp.served.len()).collect();
        let mut warm = Vec::new();
        for pass in 0..SERVE_WARM_PASSES {
            let mut wall = Vec::with_capacity(last.len());
            for &i in &last {
                let spec = cell.spec_json(shape, opts.seed.wrapping_add(i as u64));
                let s = serve_study(&daemon.addr, &spec, tracer, i as u64);
                wall.push(s.latency_s);
                if s.counts != lp.served[i].counts {
                    report.failures.push(format!(
                        "warm pass {pass}: study {i} counts changed on resubmission"
                    ));
                }
            }
            warm.push(wall);
        }
        let peak = daemon.peak_rss_mb()?;
        daemon.shutdown()?;
        check_served(&cell, shape, opts.seed, &lp, work, &mut report)?;
        let lat: Vec<f64> = lp.served.iter().map(|s| s.latency_s * 1e3).collect();
        let done = lp.served.iter().filter(|s| s.counts.is_some()).count() as u64;
        report.metrics = vec![
            Metric::new(
                "exp_per_s",
                (done * shape.per_study()) as f64 / lp.wall_s,
                "exp/s",
            ),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("resume_s", sum_over_items(&warm, median), "s"),
        ];
        report.metrics.extend(latency_metrics(&lat));
        report.metrics.push(Metric::new("peak_rss_mb", peak, "MiB"));
        eprintln!(
            "serve-closed-loop: {} served stud(ies) in {:.2} s",
            lp.served.len(),
            lp.wall_s
        );
        return Ok(report);
    }

    // Traced: the untraced half above, then a traced half on a fresh
    // daemon (the queue log grows with every job, so halves must not
    // share one), then the per-layer pass over the traced daemon's store.
    daemon.shutdown()?;
    let untraced_eps = (lp.served.len() as u64 * shape.per_study()) as f64 / lp.wall_s;
    let (daemon, _) = Daemon::spawn(&work.join("traced"))?;
    let lp = closed_loop(&daemon, &cell, shape, opts.seed, half, min, tracer)?;
    let store_root = daemon.store.clone();
    daemon.shutdown()?;
    report.failed += failed_experiments(&lp, shape, &mut report.failures);
    report.attempted += lp.served.len() as u64 * shape.per_study();
    check_served(&cell, shape, opts.seed, &lp, work, &mut report)?;

    let events = OpsLog::open(&store_root)
        .and_then(|l| l.events())
        .map_err(|e| e.to_string())?;
    let mut metrics = Vec::new();
    let setup = workloads::setup(&[cell], tracer, 0)?;
    metrics.extend(layers::setup_layers(&setup));
    let store = Store::open(&store_root).map_err(|e| e.to_string())?;
    let stored = [StoredCell {
        ready: &setup.cells[0],
        workload: setup.workload(&setup.cells[0]),
        study: store.study(&vulfi_orch::StudyKey(lp.served[0].key.clone())),
        cfg: shape.config(&cell, opts.seed),
    }];
    let records = stored[0].study.shards().map_err(|e| e.to_string())?;
    metrics.extend(layers::cell_layers(
        &stored,
        opts.seed,
        work,
        tracer,
        &mut report.failures,
    )?);
    let studies: Vec<_> = lp
        .served
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                store.study(&vulfi_orch::StudyKey(s.key.clone())),
                shape.config(&cell, opts.seed.wrapping_add(i as u64)),
                cell.category,
            )
        })
        .collect();
    metrics.extend(layers::store_layers(
        &studies,
        THREADS as f64,
        lp.wall_s,
        tracer,
    )?);
    metrics.push(Metric::new(
        "store.append_us_mean",
        layers::append_replay_us(&records, work)?,
        "us",
    ));
    metrics.extend(layers::serve_layers(&lp.served, &events, lp.cpu_ms, tracer));
    metrics.extend(layers::variant_probe(opts.seed, tracer)?);
    metrics.extend(layers::bench_probe(tracer)?);
    let traced_eps = (lp.served.len() as u64 * shape.per_study()) as f64 / lp.wall_s;
    metrics.push(trace_overhead(untraced_eps, traced_eps));
    report.metrics = metrics;
    Ok(report)
}

/// The first and last served studies must merge the counts an
/// in-process `run_study_persistent` of the same spec does; the first
/// two feed the fixture.
fn check_served(
    cell: &CellSpec,
    shape: Shape,
    seed: u64,
    lp: &Loop,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let setup = workloads::setup(&[*cell], &mut Tracer::new(false), 0)?;
    let last = lp.served.len() - 1;
    for i in [0, last] {
        let study_seed = seed.wrapping_add(i as u64);
        let root = work.join(format!("inproc{i}"));
        let (out, _) = workloads::run_cell(&setup, &setup.cells[0], shape, study_seed, &root)?;
        let want = out.result.map(|r| count_tuple(&r.counts));
        if lp.served[i].counts != want {
            report.failures.push(format!(
                "served study {i}: counts {:?}, in-process run {want:?}",
                lp.served[i].counts
            ));
        }
    }
    for (i, s) in lp.served.iter().take(2).enumerate() {
        if let Some(c) = s.counts {
            report.counts.insert(format!("study-{i}"), c);
        }
    }
    Ok(())
}

fn result_line(report: &Report) -> Value {
    let metrics: Vec<(String, Value)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), json!({ "value": m.value, "unit": m.unit })))
        .collect();
    json!({
        "correct": report.failures.is_empty(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": Value::Object(metrics),
    })
}

fn append_results(opts: &Opts, report: &Report, line: &Value) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let counts: Vec<(String, Value)> = report
        .counts
        .iter()
        .map(|(k, c)| (k.clone(), Value::from(c.to_vec())))
        .collect();
    let mut record = json!({
        "workload": opts.kind.name(),
        "mode": if opts.traced { "trace" } else { "run" },
        "seed": opts.seed,
        "size": if opts.size == Size::Full { "full" } else { "smoke" },
        "seconds": opts.seconds,
        "counts": Value::Object(counts),
        "failures": report.failures.clone(),
    });
    if let (Value::Object(r), Value::Object(l)) = (&mut record, line) {
        r.extend(l.iter().cloned());
    }
    let path = opts.out.join("results.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let text = serde_json::to_string(&record).map_err(|e| e.to_string())?;
    writeln!(f, "{text}").map_err(|e| format!("{}: {e}", path.display()))
}

const USAGE: &str = "usage:
  benchmark run   --workload W [--seed S] [--seconds N] [--size full|smoke] [--out DIR] [--write-expected]
  benchmark trace --workload W [--seed S] [--seconds N] [--size full|smoke] [--out DIR]
  benchmark agree SET_A.jsonl SET_B.jsonl [SET...]
  benchmark --workload W --seed S --seconds N --trace 0|1
workloads: paper-matrix, micro-fine-shards, variants, serve-closed-loop";

fn spec() -> Value {
    serde_json::from_str(SPEC).expect("BENCHMARK.json is valid JSON")
}

fn parse_opts(args: &[String], traced: Option<bool>) -> Result<Opts, String> {
    let default_seconds = spec()
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(20.0);
    let mut opts = Opts {
        kind: Kind::PaperMatrix,
        seed: 42,
        seconds: default_seconds,
        size: Size::Full,
        traced: traced.unwrap_or(false),
        out: PathBuf::from(".bench_results"),
        write_expected: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(Kind::parse(val()?)?),
            "--seed" => opts.seed = val()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = val()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--size" => {
                opts.size = match val()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size must be full or smoke, not '{other}'")),
                }
            }
            "--out" => opts.out = PathBuf::from(val()?),
            "--trace" if traced.is_none() => {
                opts.traced = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            "--write-expected" => opts.write_expected = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.kind = workload.ok_or("--workload is required")?;
    if opts.write_expected && (opts.seed != FIXTURE_SEED || opts.size != Size::Full) {
        return Err(format!(
            "--write-expected needs --seed {FIXTURE_SEED} and --size full"
        ));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some("agree") => {
            let files: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            match agree::agree(&files, &spec()) {
                Ok(true) => std::process::exit(0),
                Ok(false) => std::process::exit(1),
                Err(e) => {
                    eprintln!("benchmark agree: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("run") => parse_opts(&args[1..], Some(false)),
        Some("trace") => parse_opts(&args[1..], Some(true)),
        _ => parse_opts(&args, None),
    };
    let opts = match parsed {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match execute(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", opts.kind.name());
            std::process::exit(2);
        }
    };
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let line = result_line(&report);
    if let Err(e) = append_results(&opts, &report, &line) {
        eprintln!("benchmark: {e}");
        std::process::exit(2);
    }
    println!(
        "{}",
        serde_json::to_string(&line).expect("a Value tree always renders")
    );
    std::process::exit(if report.failures.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Workloads set the process-wide thread count and read the global
    /// engine-fault log; run them one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(kind: Kind, traced: bool) -> Report {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let opts = Opts {
            kind,
            seed: 7,
            seconds: 0.0,
            size: Size::Smoke,
            traced,
            out: PathBuf::from(".bench_work/test-results"),
            write_expected: false,
        };
        let report = execute(&opts).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let _ = std::fs::remove_dir_all(&opts.out);
        let _ = std::fs::remove_dir(".bench_work");
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            kind.name(),
            report.failures
        );
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0);
        report
    }

    /// Every metric BENCHMARK.json names is printed, with its unit, by
    /// every workload: the file and the binary cannot drift apart.
    fn assert_matches_spec(kind: Kind, report: &Report, section: &str) {
        let spec = spec();
        let listed = spec
            .get(section)
            .and_then(Value::as_array)
            .expect("metric list");
        assert_eq!(
            listed.len(),
            report.metrics.len(),
            "{}: {section}",
            kind.name()
        );
        for m in listed {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            let got = report
                .metrics
                .iter()
                .find(|x| x.name == name)
                .unwrap_or_else(|| panic!("{}: {name} not printed", kind.name()));
            assert_eq!(got.unit, unit, "{}: unit of {name}", kind.name());
            assert!(
                got.value.is_finite(),
                "{}: {name} = {}",
                kind.name(),
                got.value
            );
        }
    }

    #[test]
    fn every_workload_prints_every_metric_of_the_spec() {
        for kind in Kind::ALL {
            assert_matches_spec(kind, &smoke(kind, false), "end_to_end");
            assert_matches_spec(kind, &smoke(kind, true), "per_layer");
        }
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let counts = |r: &Report| -> Vec<(String, f64)> {
            r.metrics
                .iter()
                .filter(|m| m.unit == "count")
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        let a = counts(&smoke(Kind::Variants, true));
        let b = counts(&smoke(Kind::Variants, true));
        for name in [
            "campaign.allocs_per_exp",
            "vexec.allocs_per_kinst",
            "vexec.golden_dyn_insts_per_exp",
            "vexec.faulty_dyn_insts_per_exp",
        ] {
            assert!(
                a.iter().any(|(n, v)| n == name && *v > 0.0),
                "{name} missing or zero: {a:?}"
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn spec_is_well_formed() {
        let spec = spec();
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
        assert!(parse_opts(&["--workload".into(), "nope".into()], None).is_err());
        let o = parse_opts(
            &[
                "--workload",
                "variants",
                "--seed",
                "3",
                "--seconds",
                "5",
                "--trace",
                "1",
            ]
            .map(String::from),
            None,
        )
        .unwrap();
        assert!(o.traced && o.seed == 3 && o.seconds == 5.0 && o.kind == Kind::Variants);
    }
}

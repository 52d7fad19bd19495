//! The injection daemon: accept loop, persistent queue, worker pool.
//!
//! ## Execution model
//!
//! The daemon runs **one study at a time**, in submission order, with
//! every worker thread collaborating on it through a shared
//! [`LeaseBoard`]. Workers are *shared-nothing*: each one compiles and
//! instruments the submitted benchmark itself from the [`StudySpec`]
//! names (never from bytes shipped over the wire), which is exactly what
//! makes the scheme extendable to multi-host fleets — every executor
//! deterministically reproduces the same instrumented module, and the
//! content-addressed study key pins that identity. A worker whose
//! self-derived key disagrees with the submitted one fails the job
//! instead of contaminating the store.
//!
//! ## Crash and restart semantics
//!
//! Every durable structure is an append-only checksummed log:
//!
//! - the job queue replays to the last completed append; a job seen
//!   `Running` at startup belonged to a dead daemon and is re-queued;
//! - shard results land in the study store the moment each shard
//!   finishes — the append *is* the checkpoint, so a `kill -9` loses at
//!   most in-flight shards;
//! - the lease board is deliberately **not** persisted: it is rebuilt
//!   from `missing_jobs` against the store, so recovery re-runs exactly
//!   the shards that never landed. Determinism (experiment RNG keyed by
//!   `(campaign, index)`) makes any re-run byte-identical, which is why
//!   the merged result of a killed-and-restarted service matches a
//!   plain `vulfi study` bit for bit.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::Value;
use spmdc::VectorIsa;
use vulfi::{OutcomeCounts, StudySpec, Workload};
use vulfi_orch::{
    covered_experiments, load_cells, merge, missing_jobs, plan_shards, run_shard, JobQueue,
    JobRecord, LeaseBoard, Manifest, OpsEvent, OpsKind, OpsLog, Progress, Store, StudyKey,
    StudyStore,
};

use crate::http::{read_request, respond, respond_error, respond_json, Request};

/// How the daemon is launched (`vulfi serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port (the real
    /// one is printed and written to `<store>/serve.addr`).
    pub addr: String,
    /// Store root shared with `vulfi study` / `vulfi results`.
    pub store: PathBuf,
    /// Worker threads collaborating on the active study.
    pub workers: usize,
    /// Shard lease TTL: how long a silent worker may hold a shard before
    /// it is re-queued for the others.
    pub lease_ttl: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            store: PathBuf::from("results/store"),
            workers: 2,
            lease_ttl: Duration::from_secs(60),
        }
    }
}

/// Set by SIGINT/SIGTERM; polled by the accept loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Route SIGINT and SIGTERM into a graceful shutdown: the accept loop
/// stops taking connections and the workers finish (and durably append)
/// their current shards before exiting.
#[cfg(unix)]
pub fn install_shutdown_signals() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
pub fn install_shutdown_signals() {}

/// The study every worker is currently collaborating on.
struct ActiveStudy {
    job: u64,
    key: StudyKey,
    spec: StudySpec,
    board: Mutex<LeaseBoard>,
    /// Guards the shard log append *and* the progress fold, so the
    /// status endpoint always sees counts consistent with the store.
    progress: Mutex<Progress>,
    finished: AtomicBool,
}

struct Shared {
    store: Store,
    queue: Mutex<JobQueue>,
    active: Mutex<Option<Arc<ActiveStudy>>>,
    shutdown: AtomicBool,
    lease_ttl: Duration,
    /// Operational event stream. Appends are serialized here so
    /// concurrent workers never interleave half-lines.
    ops: Mutex<OpsLog>,
}

/// Ignore mutex poisoning: a panicking worker already failed its job via
/// `catch_unwind`; the data under these locks is updated atomically per
/// shard, so the daemon keeps serving.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Shared {
    /// Append one operational event. The ops log is narrative, not
    /// state, so a failing append is reported but never fails the job.
    fn ops_emit(&self, ev: OpsEvent) {
        if let Err(e) = relock(&self.ops).append(ev) {
            eprintln!("vulfi-serve: ops log: {e}");
        }
    }

    /// The in-flight study, promoting the oldest queued job when nothing
    /// is active. Returns `None` when the queue is empty.
    fn current_or_next(&self) -> Result<Option<Arc<ActiveStudy>>, String> {
        let mut active = relock(&self.active);
        if let Some(a) = active.as_ref() {
            if !a.finished.load(Ordering::SeqCst) {
                return Ok(Some(a.clone()));
            }
        }
        let mut queue = relock(&self.queue);
        let Some(job) = queue.next_queued().map_err(|e| e.to_string())? else {
            *active = None;
            return Ok(None);
        };
        let key = StudyKey(
            job.key
                .clone()
                .ok_or_else(|| format!("job {} has no study key", job.id))?,
        );
        let cfg = job.spec.study_config();
        let study = self.store.study(&key);
        let done = study.shards().map_err(|e| e.to_string())?;
        // Heal the expected kill artifact (torn trailing shard line)
        // before anyone appends past it.
        study.trim_torn_tail().map_err(|e| e.to_string())?;
        let plan = plan_shards(&cfg, job.spec.shard_size);
        let missing = missing_jobs(&plan, &done, &cfg);
        let mut progress =
            Progress::start((cfg.max_campaigns * cfg.experiments_per_campaign) as u64);
        progress.resumed = covered_experiments(&done, &cfg) as u64;
        for rec in &done {
            for e in &rec.experiments {
                progress.counts.add(e);
                progress.dyn_insts += e.golden_dyn_insts;
            }
        }
        queue.started(job.id, &key.0).map_err(|e| e.to_string())?;
        drop(queue);
        let started = OpsEvent::new(OpsKind::Started).job(job.id).key(&key.0);
        let wait_ms = started.unix_ms.saturating_sub(job.submitted_unix_ms);
        vulfi_orch::metrics::global().observe_queue_wait(wait_ms.saturating_mul(1_000_000));
        self.ops_emit(started.wall_ns(wait_ms.saturating_mul(1_000_000)));
        let a = Arc::new(ActiveStudy {
            job: job.id,
            key,
            spec: job.spec.clone(),
            board: Mutex::new(LeaseBoard::new(missing, self.lease_ttl)),
            progress: Mutex::new(progress),
            finished: AtomicBool::new(false),
        });
        *active = Some(a.clone());
        Ok(Some(a))
    }

    /// Mark the active study failed (first caller wins) and clear it so
    /// the queue can advance.
    fn fail_active(&self, active: &Arc<ActiveStudy>, error: &str) {
        if active.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = relock(&self.queue).failed(active.job, error) {
            eprintln!("vulfi-serve: recording failure of job {}: {e}", active.job);
        }
        self.ops_emit(
            OpsEvent::new(OpsKind::Failed)
                .job(active.job)
                .key(&active.key.0)
                .detail(error),
        );
        self.clear_active(active.job);
    }

    fn clear_active(&self, job: u64) {
        let mut g = relock(&self.active);
        if g.as_ref().is_some_and(|a| a.job == job) {
            *g = None;
        }
    }
}

/// Parse a submitted JSON object into a [`StudySpec`], overlaying the
/// provided fields onto [`StudySpec::default`]. Unknown fields are
/// rejected — a typo'd `"expermients"` must not silently run the
/// default-sized study.
pub fn spec_from_value(doc: &Value) -> Result<StudySpec, String> {
    let obj = doc
        .as_object()
        .ok_or_else(|| "study spec must be a JSON object".to_string())?;
    let mut spec = StudySpec::default();
    for (k, v) in obj {
        let str_field = || {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("spec.{k} must be a string"))
        };
        let num_field = || {
            v.as_u64()
                .ok_or_else(|| format!("spec.{k} must be a non-negative integer"))
        };
        match k.as_str() {
            "bench" => spec.bench = str_field()?,
            "isa" => spec.isa = str_field()?,
            "category" => spec.category = str_field()?,
            "scale" => spec.scale = str_field()?,
            "experiments" => spec.experiments = num_field()? as usize,
            "campaigns" => spec.campaigns = num_field()? as usize,
            "seed" => spec.seed = num_field()?,
            "shard_size" => spec.shard_size = num_field()? as usize,
            "model" => spec.model = str_field()?,
            "detectors" => {
                spec.detectors = v
                    .as_bool()
                    .ok_or_else(|| format!("spec.{k} must be a boolean"))?
            }
            "prune" => {
                spec.prune = v
                    .as_bool()
                    .ok_or_else(|| format!("spec.{k} must be a boolean"))?
            }
            other => return Err(format!("unknown spec field '{other}'")),
        }
    }
    Ok(spec)
}

/// Build the spec's workload (with detectors woven in when asked) and
/// hand it to `f`. Centralizing this is what guarantees the submit
/// handler and every worker derive the same instrumented module and
/// therefore the same study key.
pub fn with_workload<T>(
    spec: &StudySpec,
    f: impl FnOnce(&dyn Workload) -> Result<T, String>,
) -> Result<T, String> {
    let isa = match spec.isa.as_str() {
        "avx" => VectorIsa::Avx,
        "sse" => VectorIsa::Sse4,
        other => return Err(format!("unknown isa '{other}'")),
    };
    let scale = match spec.scale.as_str() {
        "test" => vbench::Scale::Test,
        "paper" => vbench::Scale::Paper,
        other => return Err(format!("unknown scale '{other}'")),
    };
    let w = vbench::study_benchmark(&spec.bench, isa, scale)
        .or_else(|| vbench::micro_benchmark(&spec.bench, isa, scale))
        .ok_or_else(|| format!("unknown benchmark '{}' (see `vulfi list`)", spec.bench))?;
    if spec.detectors {
        let wd = detectors::WithDetectors::new(&w, detectors::DetectorConfig::default())
            .map_err(|e| e.to_string())?;
        f(&wd)
    } else {
        f(&w)
    }
}

/// Compile the spec's workload, derive its content-addressed key, and
/// make sure the store has a manifest for it. This is the submit-time
/// half of the determinism contract; workers re-derive and cross-check.
pub fn realize_key(spec: &StudySpec, store: &Store) -> Result<StudyKey, String> {
    let category = spec.site_category()?;
    let cfg = spec.study_config();
    with_workload(spec, |w| {
        let prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
        let key = vulfi_orch::study_key(&prog, w.name(), &spec.isa, &cfg);
        let study = store.study(&key);
        if !study.exists() {
            study
                .write_manifest(&Manifest {
                    key: key.clone(),
                    workload: w.name().to_string(),
                    isa: spec.isa.clone(),
                    category: prog.category,
                    entry: prog.entry.clone(),
                    cfg,
                    total_shards: plan_shards(&cfg, spec.shard_size).len() as u64,
                    complete: false,
                })
                .map_err(|e| e.to_string())?;
        }
        Ok(key)
    })
}

/// A bound-but-not-yet-running daemon. Splitting bind from run lets
/// callers learn the ephemeral port before the accept loop blocks.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    addr_file: PathBuf,
}

/// Remote control over a running daemon (tests use this instead of unix
/// signals).
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    /// Ask the daemon to shut down gracefully.
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Daemon {
    /// Open the store and queue, recover orphaned jobs, and bind the
    /// listener. Writes the actual bound address to `<store>/serve.addr`
    /// so shell scripts can discover an ephemeral port.
    pub fn bind(cfg: &ServeConfig) -> Result<Daemon, String> {
        let store = Store::open(&cfg.store).map_err(|e| e.to_string())?;
        let mut queue = JobQueue::open(&cfg.store).map_err(|e| e.to_string())?;
        let ops = OpsLog::open(&cfg.store).map_err(|e| e.to_string())?;
        let orphans = queue.recover().map_err(|e| e.to_string())?;
        if !orphans.is_empty() {
            eprintln!(
                "vulfi-serve: re-queued {} job(s) orphaned by a previous daemon: {:?}",
                orphans.len(),
                orphans
            );
            for id in &orphans {
                if let Err(e) = ops.append(
                    OpsEvent::new(OpsKind::Requeued)
                        .job(*id)
                        .detail("orphaned by a dead daemon"),
                ) {
                    eprintln!("vulfi-serve: ops log: {e}");
                }
            }
        }
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let addr_file = cfg.store.join("serve.addr");
        std::fs::write(&addr_file, addr.to_string())
            .map_err(|e| format!("{}: {e}", addr_file.display()))?;
        Ok(Daemon {
            listener,
            shared: Arc::new(Shared {
                store,
                queue: Mutex::new(queue),
                active: Mutex::new(None),
                shutdown: AtomicBool::new(false),
                lease_ttl: cfg.lease_ttl,
                ops: Mutex::new(ops),
            }),
            workers: cfg.workers.max(1),
            addr_file,
        })
    }

    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serve until shut down (signal, `POST /shutdown`, or
    /// [`DaemonHandle::stop`]), then drain the workers. In-flight shards
    /// finish and append before workers exit; anything never started is
    /// re-run by the next daemon via queue recovery.
    pub fn run(self) -> Result<(), String> {
        let mut workers = Vec::new();
        for i in 0..self.workers {
            let shared = self.shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("vulfi-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .map_err(|e| e.to_string())?,
            );
        }
        loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    handle_connection(&self.shared, &mut stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("vulfi-serve: accept: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        for w in workers {
            let _ = w.join();
        }
        // A present serve.addr means "a daemon may be listening here";
        // remove it on the clean path only.
        let _ = std::fs::remove_file(&self.addr_file);
        Ok(())
    }
}

/// One worker thread: collaborate on the active study (or promote the
/// next queued job), isolating panics to the job they occurred in.
fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let name = format!("worker-{idx}");
    while !shared.shutdown.load(Ordering::SeqCst) {
        match shared.current_or_next() {
            Ok(Some(active)) => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    work_on(shared, &active, &name)
                }));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => shared.fail_active(&active, &e),
                    Err(_) => shared.fail_active(&active, "worker panicked"),
                }
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                eprintln!("vulfi-serve: {name}: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

/// Execute shards of `active` until the study drains or shutdown is
/// requested. Compiles its own copy of the workload (shared-nothing; see
/// the module docs for why).
fn work_on(shared: &Arc<Shared>, active: &Arc<ActiveStudy>, worker: &str) -> Result<(), String> {
    let spec = &active.spec;
    let category = spec.site_category()?;
    let cfg = spec.study_config();
    with_workload(spec, |w| {
        let mut prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
        prog.model = cfg.model;
        let derived = vulfi_orch::study_key(&prog, w.name(), &spec.isa, &cfg);
        if derived.0 != active.key.0 {
            return Err(format!(
                "worker-derived key {derived} contradicts submitted key {} — refusing to \
                 contaminate the store",
                active.key
            ));
        }
        let study = shared.store.study(&active.key);
        // Each worker derives its own prune context (analysis + census)
        // and golden set, same shared-nothing stance as the workload
        // compile above.
        let prune_ctx = if cfg.prune {
            Some(vulfi::build_prune_context(&prog, w).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let golden = vulfi::GoldenSet::new(w, false);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                // Leave the job Running; the next daemon re-queues it
                // and re-runs only the shards that never landed.
                return Ok(());
            }
            if active.finished.load(Ordering::SeqCst) {
                return Ok(());
            }
            let leased = relock(&active.board).lease(worker);
            match leased {
                Some(job) => {
                    shared.ops_emit(
                        OpsEvent::new(OpsKind::LeaseGranted)
                            .job(active.job)
                            .key(&active.key.0)
                            .worker(worker)
                            .shard(job.campaign as u64, job.start as u64, job.end as u64),
                    );
                    let shard_start = Instant::now();
                    let (rec, _spans, faults) =
                        run_shard(&prog, w, &cfg, job, &golden, prune_ctx.as_ref())
                            .map_err(|e| e.to_string())?;
                    {
                        let mut p = relock(&active.progress);
                        study.append_shard(&rec).map_err(|e| e.to_string())?;
                        p.note_shard(rec.experiments.len() as u64);
                        for e in &rec.experiments {
                            p.counts.add(e);
                            p.dyn_insts += e.golden_dyn_insts;
                        }
                    }
                    relock(&active.board).complete(worker, job);
                    let shard_ns = shard_start.elapsed().as_nanos() as u64;
                    vulfi_orch::metrics::global().observe_shard_duration(shard_ns);
                    shared.ops_emit(
                        OpsEvent::new(OpsKind::ShardDone)
                            .job(active.job)
                            .key(&active.key.0)
                            .worker(worker)
                            .shard(job.campaign as u64, job.start as u64, job.end as u64)
                            .wall_ns(shard_ns),
                    );
                    if faults > 0 {
                        shared.ops_emit(
                            OpsEvent::new(OpsKind::EngineFault)
                                .job(active.job)
                                .key(&active.key.0)
                                .worker(worker)
                                .detail(format!("{faults} engine fault(s) absorbed")),
                        );
                    }
                }
                None => {
                    if relock(&active.board).drained() {
                        finish_study(shared, active, &study, spec)?;
                        return Ok(());
                    }
                    // Stragglers hold leases; wait for them (or for the
                    // reaper) instead of spinning.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    })
}

/// First worker to see the board drained merges and completes the job;
/// everyone else observes `finished` and moves on.
fn finish_study(
    shared: &Arc<Shared>,
    active: &Arc<ActiveStudy>,
    study: &StudyStore,
    spec: &StudySpec,
) -> Result<(), String> {
    if active.finished.swap(true, Ordering::SeqCst) {
        return Ok(());
    }
    let cfg = spec.study_config();
    let category = spec.site_category()?;
    let done = study.shards().map_err(|e| e.to_string())?;
    let outcome = match merge(&cfg, category, &done) {
        Some(_) => {
            let mut m = study.read_manifest().map_err(|e| e.to_string())?;
            if !m.complete {
                m.complete = true;
                study.write_manifest(&m).map_err(|e| e.to_string())?;
            }
            shared.ops_emit(
                OpsEvent::new(OpsKind::Merged)
                    .job(active.job)
                    .key(&active.key.0),
            );
            shared.ops_emit(
                OpsEvent::new(OpsKind::Completed)
                    .job(active.job)
                    .key(&active.key.0),
            );
            relock(&shared.queue).completed(active.job)
        }
        // Drained board but incomplete merge: the store lost records
        // between planning and now (external interference). Surface it.
        None => {
            shared.ops_emit(
                OpsEvent::new(OpsKind::Failed)
                    .job(active.job)
                    .key(&active.key.0)
                    .detail("board drained but merge incomplete"),
            );
            relock(&shared.queue).failed(active.job, "board drained but merge incomplete")
        }
    };
    outcome.map_err(|e| e.to_string())?;
    shared.clear_active(active.job);
    Ok(())
}

fn opt_str(o: &Option<String>) -> Value {
    match o {
        Some(s) => Value::Str(s.clone()),
        None => Value::Null,
    }
}

fn job_doc(j: &JobRecord) -> Value {
    serde_json::json!({
        "id": j.id,
        "state": j.state.name(),
        "key": opt_str(&j.key),
        "tenant": opt_str(&j.tenant),
        "error": opt_str(&j.error),
        "bench": j.spec.bench.clone(),
        "isa": j.spec.isa.clone(),
        "category": j.spec.category.clone(),
        "experiments": j.spec.experiments as u64,
        "campaigns": j.spec.campaigns as u64,
        "seed": j.spec.seed,
        "detectors": j.spec.detectors,
        "submitted_unix_ms": j.submitted_unix_ms,
        "updated_unix_ms": j.updated_unix_ms,
    })
}

fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let req = match read_request(stream) {
        Ok(r) => r,
        Err(e) => return respond_error(stream, 400, &e),
    };
    let path = req.path.split('?').next().unwrap_or("").to_string();
    let parts: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), parts.as_slice()) {
        ("GET", ["healthz"]) => respond_json(stream, 200, &serde_json::json!({ "ok": true })),
        ("GET", ["metrics"]) => {
            let text = vulfi_orch::render_prometheus(&vulfi_orch::metrics::global().snapshot());
            respond(stream, 200, "text/plain; version=0.0.4", text.as_bytes());
        }
        ("GET", ["jobs"]) => match relock(&shared.queue).jobs() {
            Ok(jobs) => {
                let docs: Vec<Value> = jobs.iter().map(job_doc).collect();
                respond_json(
                    stream,
                    200,
                    &serde_json::json!({ "jobs": Value::Array(docs) }),
                );
            }
            Err(e) => respond_error(stream, 500, &e.to_string()),
        },
        ("GET", ["dashboard"]) => handle_dashboard(shared, stream),
        ("POST", ["studies"]) => handle_submit(shared, &req, stream),
        ("GET", ["studies", key]) => handle_status(shared, key, stream),
        ("GET", ["studies", key, "report"]) => handle_report(shared, key, stream),
        ("GET", ["studies", key, "events"]) => handle_events(shared, key, stream),
        ("POST", ["shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            respond_json(stream, 200, &serde_json::json!({ "ok": true }));
        }
        (_, ["studies"])
        | (_, ["studies", ..])
        | (_, ["jobs"])
        | (_, ["metrics"])
        | (_, ["dashboard"])
        | (_, ["shutdown"])
        | (_, ["healthz"]) => respond_error(
            stream,
            405,
            &format!("{} not allowed on {path}", req.method),
        ),
        _ => respond_error(stream, 404, &format!("no route for {path}")),
    }
}

/// `POST /studies`: validate, realize the key (compiling the workload),
/// and durably enqueue. Responds 202 with `{job, key, state}` — the key
/// is usable immediately for status polling and is stable across
/// resubmission of the same spec (a completed study is a cache hit: the
/// worker finds no missing shards and completes the job instantly).
fn handle_submit(shared: &Arc<Shared>, req: &Request, stream: &mut TcpStream) {
    let doc = match req.json() {
        Ok(d) => d,
        Err(e) => return respond_error(stream, 400, &e),
    };
    let spec = match spec_from_value(&doc).and_then(|s| s.validate().map(|_| s)) {
        Ok(s) => s,
        Err(e) => return respond_error(stream, 400, &e),
    };
    let key = match realize_key(&spec, &shared.store) {
        Ok(k) => k,
        Err(e) => return respond_error(stream, 400, &e),
    };
    let tenant = req.header("x-vulfi-tenant").map(str::to_string);
    match relock(&shared.queue).submit(&spec, &key.0, tenant.as_deref()) {
        Ok(job) => {
            let mut ev = OpsEvent::new(OpsKind::Submitted).job(job).key(&key.0);
            if let Some(t) = &tenant {
                ev = ev.detail(t.clone());
            }
            shared.ops_emit(ev);
            respond_json(
                stream,
                202,
                &serde_json::json!({ "job": job, "key": key.0.clone(), "state": "queued" }),
            )
        }
        Err(e) => respond_error(stream, 500, &e.to_string()),
    }
}

/// `GET /studies/:key`: queue state plus live progress folded from the
/// store (running SDC/Benign/Crash counts, ETA) and the merged result
/// once complete.
fn handle_status(shared: &Arc<Shared>, key_str: &str, stream: &mut TcpStream) {
    let jobs = match relock(&shared.queue).jobs() {
        Ok(j) => j,
        Err(e) => return respond_error(stream, 500, &e.to_string()),
    };
    // Latest submission wins: the same key can be submitted repeatedly.
    let job = jobs
        .iter()
        .rev()
        .find(|j| j.key.as_deref() == Some(key_str));
    let key = StudyKey(key_str.to_string());
    let study = shared.store.study(&key);
    if job.is_none() && !study.exists() {
        return respond_error(stream, 404, &format!("no study {key_str}"));
    }

    let mut fields: Vec<(String, Value)> = vec![("key".to_string(), Value::Str(key_str.into()))];
    if let Some(j) = job {
        fields.push(("job".to_string(), job_doc(j)));
        fields.push(("state".to_string(), Value::Str(j.state.name().to_string())));
    }
    if study.exists() {
        match study_status_fields(shared, &key, &study) {
            Ok(mut extra) => fields.append(&mut extra),
            Err(e) => return respond_error(stream, 500, &e),
        }
        if job.is_none() {
            // Present in the store but never queued here (e.g. written
            // by `vulfi study` against the same store).
            let state = if fields.iter().any(|(k, _)| k == "result") {
                "completed"
            } else {
                "partial"
            };
            fields.push(("state".to_string(), Value::Str(state.to_string())));
        }
    }
    respond_json(stream, 200, &Value::Object(fields));
}

/// The store-derived half of a status document: manifest identity,
/// covered/total experiments, outcome counts, live progress when this
/// study is active, and the merged result when complete.
fn study_status_fields(
    shared: &Arc<Shared>,
    key: &StudyKey,
    study: &StudyStore,
) -> Result<Vec<(String, Value)>, String> {
    let m = study.read_manifest().map_err(|e| e.to_string())?;
    let shards = study.shards().map_err(|e| e.to_string())?;
    let covered = covered_experiments(&shards, &m.cfg);
    let total = m.cfg.max_campaigns * m.cfg.experiments_per_campaign;
    let mut counts = OutcomeCounts::default();
    for rec in &shards {
        for e in &rec.experiments {
            counts.add(e);
        }
    }
    let mut fields: Vec<(String, Value)> = vec![
        ("workload".to_string(), Value::Str(m.workload.clone())),
        ("isa".to_string(), Value::Str(m.isa.clone())),
        (
            "category".to_string(),
            Value::Str(m.category.name().to_string()),
        ),
        (
            "covered".to_string(),
            serde_json::to_value(&(covered as u64)).unwrap(),
        ),
        (
            "total".to_string(),
            serde_json::to_value(&(total as u64)).unwrap(),
        ),
        ("counts".to_string(), serde_json::to_value(&counts).unwrap()),
    ];
    let active = relock(&shared.active).clone();
    if let Some(a) = active.filter(|a| a.key.0 == key.0) {
        let snap = relock(&a.progress).snapshot();
        fields.push((
            "progress".to_string(),
            serde_json::to_value(&snap).map_err(|e| e.to_string())?,
        ));
    }
    if let Some(r) = merge(&m.cfg, m.category, &shards) {
        fields.push((
            "result".to_string(),
            serde_json::json!({
                "mean_sdc": r.summary.mean,
                "margin_95": r.summary.margin_95,
                "campaigns": r.summary.campaigns as u64,
                "converged": r.converged,
                "samples": r.samples.clone(),
                "counts": serde_json::to_value(&r.counts).unwrap(),
            }),
        ));
    }
    Ok(fields)
}

/// `GET /studies/:key/events`: this study's slice of the operational
/// event log, oldest first, for machine consumption.
fn handle_events(shared: &Arc<Shared>, key_str: &str, stream: &mut TcpStream) {
    let events = match relock(&shared.ops).events() {
        Ok(evs) => evs,
        Err(e) => return respond_error(stream, 500, &e.to_string()),
    };
    let slice: Vec<Value> = events
        .iter()
        .filter(|ev| ev.key.as_deref() == Some(key_str))
        .map(|ev| serde_json::to_value(ev).unwrap_or(Value::Null))
        .collect();
    respond_json(
        stream,
        200,
        &serde_json::json!({ "key": key_str, "events": Value::Array(slice) }),
    );
}

/// Minimal HTML escaping for dashboard cells (same contract as the
/// analytics report renderer).
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn dash_row(out: &mut String, cells: &[String]) {
    out.push_str("<tr>");
    for c in cells {
        out.push_str(&format!("<td>{c}</td>"));
    }
    out.push_str("</tr>\n");
}

/// `GET /dashboard`: a self-contained, auto-refreshing HTML view of the
/// daemon — job table, active-study progress, lease board, and headline
/// metrics. Zero JavaScript, zero external assets: the page is the
/// markup, and `<meta http-equiv="refresh">` is the update loop.
fn handle_dashboard(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let jobs = match relock(&shared.queue).jobs() {
        Ok(j) => j,
        Err(e) => return respond_error(stream, 500, &e.to_string()),
    };
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str("<meta http-equiv=\"refresh\" content=\"2\">");
    out.push_str("<title>vulfi serve</title>\n<style>\n");
    out.push_str(
        "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:1080px;color:#222}\n\
         table{border-collapse:collapse;width:100%;margin:0.5em 0 1.5em}\n\
         th,td{border:1px solid #ddd;padding:4px 8px;text-align:left;font-variant-numeric:tabular-nums}\n\
         th{background:#f5f5f5}\n\
         .muted{color:#888}\n\
         .bar{background:#eee;height:10px;width:160px;display:inline-block}\n\
         .bar span{background:#4a90d9;height:10px;display:block}\n",
    );
    out.push_str("</style></head><body>\n<h1>vulfi serve</h1>\n");

    out.push_str("<section id=\"jobs\">\n<h2>Jobs</h2>\n");
    if jobs.is_empty() {
        out.push_str("<p class=\"muted\">no jobs submitted yet</p>\n");
    } else {
        out.push_str(
            "<table><tr><th>id</th><th>state</th><th>bench</th><th>isa</th><th>experiments</th>\
             <th>key</th><th>tenant</th><th>error</th></tr>\n",
        );
        for j in &jobs {
            let key = j.key.as_deref().unwrap_or("?");
            dash_row(
                &mut out,
                &[
                    j.id.to_string(),
                    esc(j.state.name()),
                    esc(&j.spec.bench),
                    esc(&j.spec.isa),
                    format!("{}", (j.spec.experiments * j.spec.campaigns) as u64),
                    esc(&key[..12.min(key.len())]),
                    esc(j.tenant.as_deref().unwrap_or("-")),
                    esc(j.error.as_deref().unwrap_or("-")),
                ],
            );
        }
        out.push_str("</table>\n");
    }
    out.push_str("</section>\n");

    out.push_str("<section id=\"active\">\n<h2>Active study</h2>\n");
    let active = relock(&shared.active).clone();
    match active.filter(|a| !a.finished.load(Ordering::SeqCst)) {
        Some(a) => {
            let snap = relock(&a.progress).snapshot();
            let stats = relock(&a.board).stats();
            let pct = if snap.total > 0 {
                (snap.done as f64 / snap.total as f64 * 100.0).min(100.0)
            } else {
                0.0
            };
            out.push_str(&format!(
                "<p>job {} · <code>{}</code> · {}/{} experiments \
                 <span class=\"bar\"><span style=\"width:{:.0}%\"></span></span> {:.1}%</p>\n",
                a.job,
                esc(&a.key.0[..12.min(a.key.0.len())]),
                snap.done,
                snap.total,
                pct,
                pct
            ));
            let eta = if snap.eta_secs.is_finite() {
                format!("{:.0}s", snap.eta_secs)
            } else {
                "?".to_string()
            };
            out.push_str(&format!(
                "<p>{:.0} exp/s · ETA {eta} · SDC {} / Benign {} / Crash {}</p>\n",
                snap.experiments_per_sec, snap.counts.sdc, snap.counts.benign, snap.counts.crash
            ));
            out.push_str(&format!(
                "<p class=\"muted\">leases: {} granted, {} completed, {} abandoned, {} expired</p>\n",
                stats.granted, stats.completed, stats.abandoned, stats.expired
            ));
        }
        None => out.push_str("<p class=\"muted\">idle — no active study</p>\n"),
    }
    out.push_str("</section>\n");

    out.push_str("<section id=\"metrics\">\n<h2>Metrics</h2>\n");
    let m = vulfi_orch::metrics::global().snapshot();
    out.push_str("<table><tr><th>series</th><th>value</th></tr>\n");
    dash_row(
        &mut out,
        &[
            "experiments".to_string(),
            vulfi_orch::humanize(m.experiments_total()),
        ],
    );
    dash_row(
        &mut out,
        &["shard appends".to_string(), m.shard_appends.to_string()],
    );
    dash_row(
        &mut out,
        &[
            "shard duration (sum s)".to_string(),
            format!("{:.2}", m.shard_duration_seconds.sum),
        ],
    );
    dash_row(
        &mut out,
        &[
            "queue wait (sum s)".to_string(),
            format!("{:.2}", m.queue_wait_seconds.sum),
        ],
    );
    dash_row(
        &mut out,
        &["engine faults".to_string(), m.engine_faults.to_string()],
    );
    dash_row(
        &mut out,
        &["store retries".to_string(), m.store_retries.to_string()],
    );
    out.push_str("</table>\n</section>\n</body></html>\n");
    respond(stream, 200, "text/html; charset=utf-8", out.as_bytes());
}

/// `GET /studies/:key/report`: the analytics cell for a completed study
/// (same numbers as `vulfi report html`), or 404 while still partial.
fn handle_report(shared: &Arc<Shared>, key_str: &str, stream: &mut TcpStream) {
    let (cells, warnings) = match load_cells(&shared.store) {
        Ok(x) => x,
        Err(e) => return respond_error(stream, 500, &e.to_string()),
    };
    match cells.iter().find(|c| c.key == key_str) {
        Some(cell) => {
            let doc = serde_json::json!({
                "cell": serde_json::to_value(cell).unwrap(),
                "warnings": serde_json::to_value(&warnings).unwrap(),
            });
            respond_json(stream, 200, &doc);
        }
        None => respond_error(
            stream,
            404,
            &format!("no completed study {key_str} in the store"),
        ),
    }
}

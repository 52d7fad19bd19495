//! The injection daemon: accept loop, persistent queue, one runner.
//!
//! ## Execution model
//!
//! The daemon runs **one study at a time**, in submission order, on a
//! single runner thread. The runner compiles and instruments the
//! submitted benchmark from the [`StudySpec`] names (never from bytes
//! shipped over the wire), checks that the content-addressed key it
//! derives equals the key admitted at submit time (a mismatch fails the
//! job instead of contaminating the store), and then hands the study to
//! [`run_study_persistent`] — the same call `vulfi study` makes. That
//! call plans the missing shards, fans them out over `--workers`
//! threads, appends each one as it lands and merges the result. The
//! daemon only watches it through a [`RunHook`]: it narrates shard
//! starts and appends to the ops log, keeps the latest progress snapshot
//! for the status routes, and holds back every shard not yet started
//! once shutdown is requested.
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
//! - a re-queued job runs through `run_study_persistent` again, which
//!   re-runs exactly the shards that never landed. Determinism
//!   (experiment RNG keyed by `(campaign, index)`) makes any re-run
//!   byte-identical, which is why the merged result of a
//!   killed-and-restarted service matches a plain `vulfi study` bit for
//!   bit.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::Value;
use spmdc::VectorIsa;
use vulfi::{OutcomeCounts, Prepared, StudyConfig, StudySpec, Workload};
use vulfi_orch::{
    covered_experiments, create_manifest, load_study, merge, plan_shards, run_study_persistent,
    JobQueue, JobRecord, OpsEvent, OpsKind, OpsLog, ProgressSnapshot, RunEvent, RunHook,
    RunOptions, Store, StoredStudy, StudyKey, StudyStore,
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
    /// Threads executing the active study's shards.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            store: PathBuf::from("results/store"),
            workers: 2,
        }
    }
}

/// Set by SIGINT/SIGTERM; polled by the accept loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// How long the idle accept loop naps when no job settles.
const NAP: Duration = Duration::from_millis(20);

/// Route SIGINT and SIGTERM into a graceful shutdown: the accept loop
/// stops taking connections and the runner lets in-flight shards finish
/// (and durably append) before it exits.
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

/// The study the runner is executing.
struct ActiveStudy {
    job: u64,
    key: StudyKey,
    /// The runner hook's latest snapshot; `None` until the first shard
    /// lands.
    progress: Mutex<Option<ProgressSnapshot>>,
}

struct Shared {
    store: Store,
    queue: Mutex<JobQueue>,
    /// Signalled, under the queue lock, when a job is queued or shutdown
    /// is requested: the idle runner waits on it instead of polling.
    work: Condvar,
    active: Mutex<Option<Arc<ActiveStudy>>>,
    /// Jobs the runner has settled (completed, failed or held back by
    /// shutdown). Bumped with a notify on `settled_cv`, also on
    /// shutdown: the idle accept loop naps on it, so a status poll
    /// waiting for a job's result is answered as soon as it lands.
    settled: Mutex<u64>,
    settled_cv: Condvar,
    shutdown: AtomicBool,
    /// Operational event stream. Appends are serialized here so
    /// concurrent shard threads never interleave half-lines.
    ops: Mutex<OpsLog>,
}

/// Ignore mutex poisoning: a panicking runner already failed its job via
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

    /// Stop taking new shards and wake the runner and the accept loop.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let _queue = relock(&self.queue);
            self.work.notify_all();
        }
        self.bump_settled();
    }

    /// Wake the accept loop from its nap.
    fn bump_settled(&self) {
        *relock(&self.settled) += 1;
        self.settled_cv.notify_all();
    }

    /// Sleep up to [`NAP`], or less once the settled count moves past
    /// `seen`; returns whether it did.
    fn nap(&self, seen: u64) -> bool {
        let settled = relock(&self.settled);
        let (_settled, waited) = self
            .settled_cv
            .wait_timeout_while(settled, NAP, |n| *n == seen)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        !waited.timed_out()
    }

    /// Block until a job is queued, then promote the oldest one to the
    /// active study. `None` once shutdown is requested.
    fn start_next(&self) -> Option<(Arc<ActiveStudy>, StudySpec)> {
        let mut queue = relock(&self.queue);
        let (job, key) = loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Ok(Some(job)) = queue.next_queued() {
                let key = job.key.clone().unwrap_or_default();
                match queue.started(job.id, &key) {
                    Ok(()) => break (job, key),
                    Err(e) => eprintln!("vulfi-serve: starting job {}: {e}", job.id),
                }
            }
            queue = self
                .work
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        drop(queue);
        let started = OpsEvent::new(OpsKind::Started).job(job.id).key(&key);
        let wait_ns = started
            .unix_ms
            .saturating_sub(job.submitted_unix_ms)
            .saturating_mul(1_000_000);
        vulfi_orch::metrics::global().observe_queue_wait(wait_ns);
        self.ops_emit(started.wall_ns(wait_ns));
        let active = Arc::new(ActiveStudy {
            job: job.id,
            key: StudyKey(key),
            progress: Mutex::new(None),
        });
        *relock(&self.active) = Some(active.clone());
        Some((active, job.spec))
    }

    fn complete(&self, active: &ActiveStudy) {
        for kind in [OpsKind::Merged, OpsKind::Completed] {
            self.ops_emit(OpsEvent::new(kind).job(active.job).key(&active.key.0));
        }
        if let Err(e) = relock(&self.queue).completed(active.job) {
            eprintln!(
                "vulfi-serve: recording completion of job {}: {e}",
                active.job
            );
        }
    }

    fn fail(&self, active: &ActiveStudy, error: &str) {
        if let Err(e) = relock(&self.queue).failed(active.job, error) {
            eprintln!("vulfi-serve: recording failure of job {}: {e}", active.job);
        }
        self.ops_emit(
            OpsEvent::new(OpsKind::Failed)
                .job(active.job)
                .key(&active.key.0)
                .detail(error),
        );
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

/// Look the spec's benchmark up by name (study suite first, then the
/// micro-benchmarks), weave detectors in when asked, and hand the
/// workload to `f`. This is the only lookup from a name to a workload.
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

/// A named study made ready to run: its workload, the prepared program
/// injecting the spec's model, the campaign config and the study key.
pub struct Study<'w> {
    pub workload: &'w dyn Workload,
    pub prog: Prepared,
    pub cfg: StudyConfig,
    pub key: StudyKey,
}

/// The front door of every study run by name (`vulfi study`, `vulfi
/// gauntlet run|report`, the daemon's submit and runner): validate the
/// spec, build its workload, prepare it, and derive the key — once, the
/// same way everywhere, so every entry point lands on the same study.
pub fn with_study<T>(
    spec: &StudySpec,
    f: impl FnOnce(Study<'_>) -> Result<T, String>,
) -> Result<T, String> {
    spec.validate()?;
    let category = spec.site_category()?;
    let cfg = spec.study_config()?;
    with_workload(spec, |w| {
        let mut prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
        prog.model = cfg.model;
        let key = vulfi_orch::study_key(&prog, w.name(), &spec.isa, &cfg);
        f(Study {
            workload: w,
            prog,
            cfg,
            key,
        })
    })
}

/// Derive the spec's key through [`with_study`] and make sure the store
/// has a manifest for it. This is the submit-time half of the
/// determinism contract; the runner re-derives and cross-checks.
pub fn realize_key(spec: &StudySpec, store: &Store) -> Result<StudyKey, String> {
    with_study(spec, |s| {
        let total_shards = plan_shards(&s.cfg, spec.shard_size).len();
        create_manifest(
            &store.study(&s.key),
            &s.key,
            &s.prog,
            s.workload.name(),
            &spec.isa,
            &s.cfg,
            total_shards,
        )
        .map_err(|e| e.to_string())?;
        Ok(s.key)
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
        self.shared.request_shutdown();
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
                work: Condvar::new(),
                settled: Mutex::new(0),
                settled_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
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
    /// [`DaemonHandle::stop`]), then drain the runner. In-flight shards
    /// finish and append before it exits; anything never started is
    /// re-run by the next daemon via queue recovery.
    pub fn run(self) -> Result<(), String> {
        vulfi_orch::set_jobs(self.workers);
        let shared = self.shared.clone();
        let runner = std::thread::Builder::new()
            .name("vulfi-runner".to_string())
            .spawn(move || runner_loop(&shared))
            .map_err(|e| e.to_string())?;
        // A job that settles before its poller's next request arrives
        // would otherwise leave that request waiting out a whole nap, so
        // after a settle the loop accepts in 1 ms steps for one nap's
        // length, until it serves a connection.
        let mut brisk_until = None;
        loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Read before accepting, so a job that settles between an
            // empty accept and the nap still cuts the nap short.
            let settled = *relock(&self.shared.settled);
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    brisk_until = None;
                    let _ = stream.set_nonblocking(false);
                    handle_connection(&self.shared, &mut stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if brisk_until.is_some_and(|t| Instant::now() < t) {
                        std::thread::sleep(Duration::from_millis(1));
                    } else if self.shared.nap(settled) {
                        brisk_until = Some(Instant::now() + NAP);
                    }
                }
                Err(e) => {
                    eprintln!("vulfi-serve: accept: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        self.shared.request_shutdown();
        let _ = runner.join();
        // A present serve.addr means "a daemon may be listening here";
        // remove it on the clean path only.
        let _ = std::fs::remove_file(&self.addr_file);
        Ok(())
    }
}

/// The runner thread: execute queued jobs one at a time, in submission
/// order, isolating panics to the job they occurred in.
fn runner_loop(shared: &Arc<Shared>) {
    while let Some((active, spec)) = shared.start_next() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(shared, &active, &spec)
        }));
        match outcome {
            Ok(Ok(true)) => shared.complete(&active),
            // Shutdown held shards back: leave the job Running; the next
            // daemon re-queues it and runs only the shards that never
            // landed.
            Ok(Ok(false)) if shared.shutdown.load(Ordering::SeqCst) => {}
            Ok(Ok(false)) => shared.fail(&active, "study stopped before its merge completed"),
            Ok(Err(e)) => shared.fail(&active, &e),
            Err(_) => shared.fail(&active, "worker panicked"),
        }
        *relock(&shared.active) = None;
        shared.bump_settled();
    }
}

/// Run `active` through [`run_study_persistent`]; `Ok(true)` once its
/// result merged.
fn execute(
    shared: &Arc<Shared>,
    active: &Arc<ActiveStudy>,
    spec: &StudySpec,
) -> Result<bool, String> {
    with_study(spec, |s| {
        if s.key.0 != active.key.0 {
            return Err(format!(
                "runner-derived key {} contradicts submitted key {} — refusing to \
                 contaminate the store",
                s.key, active.key
            ));
        }
        let out = run_study_persistent(
            &s.prog,
            s.workload,
            s.workload.name(),
            &spec.isa,
            &s.cfg,
            &shared.store,
            RunOptions {
                shard_size: spec.shard_size,
                hook: Some(runner_hook(shared.clone(), active.clone())),
                ..RunOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(out.result.is_some())
    })
}

/// The daemon's view of a running study: hold back shards once shutdown
/// is requested, narrate each shard's start and append to the ops log
/// under the executing thread's label, and keep the latest snapshot for
/// `GET /studies/:key` and `/dashboard`.
fn runner_hook(shared: Arc<Shared>, active: Arc<ActiveStudy>) -> RunHook {
    Box::new(move |ev| {
        let worker = format!("worker-{}", rayon::current_thread_index().unwrap_or(0));
        let shard = |kind, campaign: usize, start: usize, end: usize| {
            OpsEvent::new(kind)
                .job(active.job)
                .key(&active.key.0)
                .worker(&worker)
                .shard(campaign as u64, start as u64, end as u64)
        };
        match ev {
            RunEvent::Start(job) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return false;
                }
                shared.ops_emit(shard(
                    OpsKind::LeaseGranted,
                    job.campaign,
                    job.start,
                    job.end,
                ));
            }
            RunEvent::Appended {
                record: r,
                engine_faults,
                progress,
            } => {
                shared.ops_emit(
                    shard(OpsKind::ShardDone, r.campaign, r.start, r.end).wall_ns(r.wall_ns),
                );
                if engine_faults > 0 {
                    shared.ops_emit(
                        OpsEvent::new(OpsKind::EngineFault)
                            .job(active.job)
                            .key(&active.key.0)
                            .worker(&worker)
                            .detail(format!("{engine_faults} engine fault(s) absorbed")),
                    );
                }
                *relock(&active.progress) = Some(progress.clone());
            }
            RunEvent::Finished(progress) => *relock(&active.progress) = Some(progress.clone()),
        }
        true
    })
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
        // A key segment is joined onto the store path, so only the shape
        // a study key renders may reach a handler: `..` would name the
        // store's parent directory.
        ("GET", ["studies", key, ..]) if StudyKey::parse(key).is_none() => {
            respond_error(stream, 404, &format!("no study {key}"))
        }
        ("GET", ["studies", key]) => handle_status(shared, key, stream),
        ("GET", ["studies", key, "report"]) => handle_report(shared, key, stream),
        ("GET", ["studies", key, "events"]) => handle_events(shared, key, stream),
        ("POST", ["shutdown"]) => {
            shared.request_shutdown();
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
/// runner finds no missing shards and completes the job instantly).
fn handle_submit(shared: &Arc<Shared>, req: &Request, stream: &mut TcpStream) {
    let doc = match req.json() {
        Ok(d) => d,
        Err(e) => return respond_error(stream, 400, &e),
    };
    let spec = match spec_from_value(&doc) {
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
            shared.work.notify_one();
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
    let job = relock(&shared.queue).latest_for_key(key_str).cloned();
    let key = StudyKey(key_str.to_string());
    let study = shared.store.study(&key);
    if job.is_none() && !study.exists() {
        return respond_error(stream, 404, &format!("no study {key_str}"));
    }

    let mut fields: Vec<(String, Value)> = vec![("key".to_string(), Value::Str(key_str.into()))];
    if let Some(j) = &job {
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
    let snap = active
        .filter(|a| a.key.0 == key.0)
        .and_then(|a| relock(&a.progress).clone());
    if let Some(snap) = snap {
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

/// The active-study panel: progress bar, rate, ETA, running outcome
/// counts, and how many experiments ran versus came from the store.
fn dash_progress(out: &mut String, job: u64, key: &str, snap: &ProgressSnapshot) {
    let pct = if snap.total > 0 {
        (snap.done as f64 / snap.total as f64 * 100.0).min(100.0)
    } else {
        0.0
    };
    out.push_str(&format!(
        "<p>job {job} · <code>{key}</code> · {}/{} experiments \
         <span class=\"bar\"><span style=\"width:{pct:.0}%\"></span></span> {pct:.1}%</p>\n",
        snap.done, snap.total,
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
        "<p class=\"muted\">experiments: {} executed, {} resumed</p>\n",
        snap.executed, snap.resumed
    ));
}

/// `GET /dashboard`: a self-contained, auto-refreshing HTML view of the
/// daemon — job table, active-study progress, and headline metrics.
/// Zero JavaScript, zero external assets: the page is the markup, and
/// `<meta http-equiv="refresh">` is the update loop.
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
    match active {
        Some(a) => {
            let key = esc(&a.key.0[..12.min(a.key.0.len())]);
            match relock(&a.progress).clone() {
                Some(snap) => dash_progress(&mut out, a.job, &key, &snap),
                None => out.push_str(&format!(
                    "<p>job {} · <code>{key}</code> · starting</p>\n",
                    a.job
                )),
            }
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
/// Only this study's logs are read, so a damaged log of another study
/// cannot fail it; the key must name a stored study, not a path.
fn handle_report(shared: &Arc<Shared>, key_str: &str, stream: &mut TcpStream) {
    let key = StudyKey(key_str.to_string());
    let stored = shared.store.studies().and_then(|keys| {
        keys.contains(&key)
            .then(|| load_study(&shared.store, &key))
            .transpose()
    });
    match stored {
        Ok(Some(StoredStudy::Complete(cell))) => respond_json(
            stream,
            200,
            &serde_json::json!({ "cell": serde_json::to_value(&cell).unwrap() }),
        ),
        Ok(_) => respond_error(
            stream,
            404,
            &format!("no completed study {key_str} in the store"),
        ),
        Err(e) => respond_error(stream, 500, &e.to_string()),
    }
}

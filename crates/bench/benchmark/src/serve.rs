//! Served studies: a `vulfi serve` subprocess driven over plain
//! HTTP/1.1 by a one-connection-at-a-time closed-loop client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::spans::Tracer;

/// The `vulfi` CLI built next to this binary (`run.sh` builds both into
/// one target directory); tests fall back to the repository's
/// `target/release/vulfi`.
fn vulfi_binary() -> Result<PathBuf, String> {
    let mut candidates = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join("vulfi"));
        }
    }
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        candidates.push(PathBuf::from(dir).join("release").join("vulfi"));
    }
    candidates.push(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../target/release/vulfi"));
    candidates.into_iter().find(|p| p.is_file()).ok_or_else(|| {
        "no `vulfi` binary next to the benchmark or in target/release; \
         run `cargo build --release --workspace` first"
            .to_string()
    })
}

/// One request on a fresh connection (`Connection: close`), returning
/// (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status code in {head:?}"))?;
    Ok((status, body.to_string()))
}

/// A running daemon. Dropping it kills and reaps the process, so no
/// error path leaves one behind.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    pub store: PathBuf,
}

impl Daemon {
    /// Spawn `vulfi serve` on an ephemeral port over a fresh store and
    /// wait for its first `GET /healthz` 200. Returns the daemon and the
    /// seconds from spawn to that response.
    pub fn spawn(store: &Path) -> Result<(Daemon, f64), String> {
        let vulfi = vulfi_binary()?;
        std::fs::create_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
        let log_path = store.with_extension("stderr");
        let log = std::fs::File::create(&log_path).map_err(|e| format!("daemon log: {e}"))?;
        let started = Instant::now();
        let child = Command::new(&vulfi)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--store",
            ])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", vulfi.display()))?;
        let mut d = Daemon {
            child: Some(child),
            addr: String::new(),
            store: store.to_path_buf(),
        };
        let addr_file = store.join("serve.addr");
        let deadline = started + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                let stderr = std::fs::read_to_string(&log_path).unwrap_or_default();
                return Err(format!(
                    "vulfi serve exited early ({status}): {}",
                    stderr.trim()
                ));
            }
            if d.addr.is_empty() {
                d.addr = std::fs::read_to_string(&addr_file)
                    .unwrap_or_default()
                    .trim()
                    .to_string();
            } else if matches!(http(&d.addr, "GET", "/healthz", ""), Ok((200, _))) {
                return Ok((d, started.elapsed().as_secs_f64()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("vulfi serve did not answer /healthz within 60 s".to_string())
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(Child::id).unwrap_or(0)
    }

    /// `VmHWM` of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// User + system CPU time of the daemon so far, in ms (from
    /// `/proc/<pid>/stat`, in 100 Hz clock ticks).
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok());
        match (tick(11), tick(12)) {
            (Some(u), Some(s)) => Ok((u + s) * 10.0),
            _ => Err(format!("{path}: no utime/stime")),
        }
    }

    /// `POST /shutdown`, then wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = http(&self.addr, "POST", "/shutdown", "");
        let mut child = self.child.take().expect("a live daemon has its child");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                Ok(Some(status)) => return Err(format!("vulfi serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("vulfi serve did not shut down within 60 s".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM"))
}

/// One served study, seen from the client.
pub struct Served {
    pub job: u64,
    pub key: String,
    /// POST to `result` seen; `f64::INFINITY` when the study failed, was
    /// refused, or a response was not 2xx.
    pub latency_s: f64,
    pub submit_s: f64,
    /// Round trip of every status poll.
    pub status_s: Vec<f64>,
    /// `[sdc, benign, crash, detected]` of the merged result.
    pub counts: Option<[u64; 4]>,
    pub error: Option<String>,
}

/// Submit `spec`, then poll `GET /studies/:key` every 1 ms until the
/// merged result appears (`vulfi submit --wait`).
pub fn serve_study(addr: &str, spec: &Value, tracer: &mut Tracer, id: u64) -> Served {
    let t0 = Instant::now();
    let mut s = Served {
        job: 0,
        key: String::new(),
        latency_s: f64::INFINITY,
        submit_s: 0.0,
        status_s: Vec::new(),
        counts: None,
        error: None,
    };
    let mut requests = Vec::new();
    let spec_text = serde_json::to_string(spec).expect("a Value tree always renders");
    let submitted = http(addr, "POST", "/studies", &spec_text);
    let t_submit = Instant::now();
    s.submit_s = (t_submit - t0).as_secs_f64();
    requests.push(("POST /studies".to_string(), t0, t_submit));
    match submitted {
        Ok((202, body)) => {
            let doc: Value = serde_json::from_str(&body).unwrap_or(Value::Null);
            s.job = doc.get("job").and_then(Value::as_u64).unwrap_or(0);
            s.key = doc
                .get("key")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
        }
        Ok((code, body)) => s.error = Some(format!("POST /studies: {code} {body}")),
        Err(e) => s.error = Some(e),
    }
    while s.error.is_none() && s.counts.is_none() {
        if t0.elapsed() > Duration::from_secs(120) {
            s.error = Some(format!("study {} not done after 120 s", s.key));
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        let t = Instant::now();
        let polled = http(addr, "GET", &format!("/studies/{}", s.key), "");
        let end = Instant::now();
        s.status_s.push((end - t).as_secs_f64());
        requests.push(("GET /studies/:key".to_string(), t, end));
        match polled {
            Ok((200, body)) => {
                let doc: Value = serde_json::from_str(&body).unwrap_or(Value::Null);
                if let Some(c) = doc.get("result").and_then(|r| r.get("counts")) {
                    let n = |k: &str| c.get(k).and_then(Value::as_u64).unwrap_or(0);
                    s.counts = Some([n("sdc"), n("benign"), n("crash"), n("detected")]);
                    s.latency_s = t0.elapsed().as_secs_f64();
                } else if doc.get("state").and_then(Value::as_str) == Some("failed") {
                    s.error = Some(format!("study {} failed: {body}", s.key));
                }
            }
            Ok((code, body)) => s.error = Some(format!("GET /studies/{}: {code} {body}", s.key)),
            Err(e) => s.error = Some(e),
        }
    }
    let end = Instant::now();
    if let Some(parent) = tracer.record("serve.client", format!("study {id}"), id, None, t0, end) {
        for (name, a, b) in requests {
            tracer.record("http", name, id, Some(parent), a, b);
        }
    }
    s
}

//! `vulfi` — command-line driver for the VULFI reproduction.
//!
//! ```text
//! vulfi compile <file.spmd> [--isa avx|sse] [-o out.vir]
//! vulfi sites <file.spmd|file.vir> [--isa avx|sse] [--func NAME]
//! vulfi instrument <file> --category pure-data|control|address [--isa ...] [--func NAME]
//! vulfi detect <file> [--isa ...] [--func NAME] [--uniform]
//! vulfi campaign --bench NAME [--isa ...] [--category ...] [--experiments N] [--seed N] [--detectors]
//! vulfi study --bench NAME [--store DIR] [--resume] [--trace DIR] ...
//! vulfi fsck [--store DIR] [--trace DIR] [--repair]
//! vulfi trace summarize|export [--trace DIR] [--chrome] [-o PATH]
//! vulfi events tail|summarize [--store DIR]
//! vulfi alerts check|watch --rules FILE [--store DIR]
//! vulfi bench [trend] [--bench NAME] [--record] [--check BASELINE]
//! vulfi serve [--addr HOST:PORT] [--rules FILE] [--telemetry-interval-ms N]
//! vulfi profile --bench NAME [--isa ...] [--hotspots]
//! vulfi list
//! ```
//!
//! The full per-command flag reference is `vulfi help` (see [`usage`],
//! rendered from the same command table that dispatches).
//! `.vir` inputs are parsed as textual IR; anything else is compiled as
//! SPMD-C.

use std::fs;
use std::process::ExitCode;

use spmdc::VectorIsa;
use vir::analysis::SiteCategory;
use vir::Module;
use vulfi::workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vulfi: {e}");
            ExitCode::from(1)
        }
    }
}

/// One `vulfi` command line: `vulfi <name> [<sub>] <usage>`. The table
/// below is the only list of commands: dispatch, `usage()`, the
/// "needs a subcommand" errors and did-you-mean all read it.
#[derive(Debug)]
struct Command {
    name: &'static str,
    /// The subcommand word; `None` is the command's bare form.
    sub: Option<&'static str>,
    /// Argument synopsis; each `\n` continues on an indented line.
    usage: &'static str,
    run: fn(&Flags) -> Result<(), String>,
}

#[rustfmt::skip]
static COMMAND_TABLE: &[Command] = &[
    Command { name: "compile", sub: None, run: compile_cmd,
        usage: "<file> [--isa avx|sse] [-o out.vir]" },
    Command { name: "sites", sub: None, run: sites_cmd,
        usage: "<file> [--isa avx|sse] [--func NAME] [--json] [-o PATH]" },
    Command { name: "analyze", sub: None, run: analyze_cmd,
        usage: "<file>|--bench NAME [--isa avx|sse] [--func NAME] [--json] [-o PATH]" },
    Command { name: "lint", sub: None, run: lint_cmd,
        usage: "<file>|--suite [--isa avx|sse] [--func NAME] [--deny] [--json] [-o PATH]" },
    Command { name: "instrument", sub: None, run: instrument_cmd,
        usage: "<file> --category pure-data|control|address [--func NAME]" },
    Command { name: "detect", sub: None, run: detect_cmd,
        usage: "<file> [--func NAME] [--uniform]" },
    Command { name: "campaign", sub: None, run: campaign_cmd,
        usage: "--bench NAME [--isa avx|sse] [--category CAT] [--experiments N] [--seed N] \
                [--detectors]\n[--strict] [--wall-limit-ms N] [--mem-limit-mb N]" },
    Command { name: "study", sub: None, run: run_study_cmd,
        usage: "--bench NAME [--isa avx|sse] [--category CAT] [--experiments N] [--campaigns N] \
                [--seed N]\n[--store DIR] [--resume] [--jobs N] [--shard-size N] [--json] \
                [--detectors] [--model M]\n[--strict] [--wall-limit-ms N] [--mem-limit-mb N] \
                [--trace DIR] [--metrics-out PATH]\n[--prune[=on|verify]]" },
    Command { name: "results", sub: Some("summary"), run: results_summary,
        usage: "[--store DIR] [--json]" },
    Command { name: "results", sub: Some("merge"), run: results_merge,
        usage: "<SRC>... --store DST" },
    Command { name: "fsck", sub: None, run: fsck_cmd,
        usage: "[--store DIR] [--trace DIR] [--repair] [--json]" },
    Command { name: "trace", sub: Some("summarize"), run: trace_summarize,
        usage: "[--trace DIR] [--top N] [--json]" },
    Command { name: "trace", sub: Some("export"), run: trace_export,
        usage: "--chrome [--store DIR] [--trace DIR] [-o out.json]" },
    Command { name: "events", sub: Some("tail"), run: events_tail,
        usage: "[--store DIR] [--top N] [--json]" },
    Command { name: "events", sub: Some("summarize"), run: events_summarize,
        usage: "[--store DIR] [--json]" },
    Command { name: "alerts", sub: Some("check"), run: alerts_check,
        usage: "--rules FILE [--store DIR] [--json]" },
    Command { name: "alerts", sub: Some("watch"), run: alerts_watch,
        usage: "--rules FILE [--store DIR] [--telemetry-interval-ms N]" },
    Command { name: "report", sub: Some("diff"), run: report_diff,
        usage: "<STORE_A> <STORE_B> [--json]" },
    Command { name: "report", sub: Some("heatmap"), run: report_heatmap,
        usage: "[--trace DIR] [--top N] [--model M] [--json]" },
    Command { name: "report", sub: Some("html"), run: report_html,
        usage: "[--store DIR] [--trace DIR] [--diff-store DIR] [--metrics-in PATH]\n\
                [--top N] [-o out.html]" },
    Command { name: "gauntlet", sub: Some("run"), run: gauntlet_run,
        usage: "<SCENARIO.toml|.json> [--store DIR] [--jobs N] [--resume] [--json]\n[--strict] \
                [--trace DIR] [--metrics-out PATH] [--wall-limit-ms N] [--mem-limit-mb N]" },
    Command { name: "gauntlet", sub: Some("report"), run: gauntlet_report,
        usage: "<SCENARIO.toml|.json> [--store DIR] [-o out.html]" },
    Command { name: "bench", sub: None, run: bench_cmd,
        usage: "[--bench NAME] [--isa avx|sse] [--category CAT] [--experiments N] [--seed N]\n\
                [--record] [-o PATH] [--check BASELINE] [--prune]" },
    Command { name: "bench", sub: Some("trend"), run: bench_trend,
        usage: "[-o REPORT.json] [--bench NAME] [--json]" },
    Command { name: "serve", sub: None, run: serve_cmd,
        usage: "[--addr HOST:PORT] [--store DIR] [--workers N] [--lease-ttl-ms N]\n\
                [--rules FILE] [--telemetry-interval-ms N]" },
    Command { name: "submit", sub: None, run: submit_cmd,
        usage: "--bench NAME [--addr HOST:PORT] [--isa avx|sse] [--category CAT] \
                [--scale test|paper]\n[--experiments N] [--campaigns N] [--seed N] \
                [--shard-size N] [--detectors] [--model M]\n[--tenant NAME] [--wait] [--json] \
                [--prune]" },
    Command { name: "status", sub: None, run: status_cmd,
        usage: "[KEY] [--addr HOST:PORT] [--report] [--json]" },
    Command { name: "shutdown", sub: None, run: shutdown_cmd,
        usage: "[--addr HOST:PORT]" },
    Command { name: "profile", sub: None, run: profile_cmd,
        usage: "--bench NAME [--isa avx|sse] [--hotspots] [--top N] [-o FOLDED.txt]" },
    Command { name: "list", sub: None, run: list_cmd, usage: "" },
    Command { name: "help", sub: None, run: help_cmd, usage: "" },
];

/// One line per table row, continuation lines indented under the first.
fn usage() -> String {
    let mut u = "usage:".to_string();
    for c in COMMAND_TABLE {
        let words: Vec<&str> = [Some(c.name), c.sub, Some(c.usage)]
            .into_iter()
            .flatten()
            .filter(|w| !w.is_empty())
            .collect();
        u.push_str(&format!(
            "\n  vulfi {}",
            words.join(" ").replace('\n', "\n         ")
        ));
    }
    u
}

#[derive(Debug)]
struct Flags {
    isa: VectorIsa,
    out: Option<String>,
    func: Option<String>,
    category: Option<SiteCategory>,
    bench: Option<String>,
    experiments: Option<usize>,
    campaigns: usize,
    seed: u64,
    detectors: bool,
    uniform: bool,
    store: String,
    resume: bool,
    jobs: Option<usize>,
    shard_size: usize,
    json: bool,
    /// Abort the campaign on an engine panic instead of recording a
    /// contained Crash outcome.
    strict: bool,
    /// `fsck`: quarantine corrupt logs and salvage their intact records.
    repair: bool,
    /// Wall-clock watchdog per faulty run, in milliseconds.
    wall_limit_ms: Option<u64>,
    /// Memory ceiling per faulty run, in MiB.
    mem_limit_mb: Option<u64>,
    /// Trace-store root: `study --trace DIR` records per-experiment
    /// spans there; `trace summarize`, `report heatmap` and `fsck` read it.
    trace: Option<String>,
    /// Write a metrics snapshot here after `study` (`.json` → JSON,
    /// anything else → Prometheus text format).
    metrics_out: Option<String>,
    /// `trace summarize`: how many SDC-prone sites to list.
    top: usize,
    /// `report html`: second store to diff the primary store against.
    diff_store: Option<String>,
    /// `report html`: fold a Prometheus-format metrics snapshot into the
    /// report.
    metrics_in: Option<String>,
    /// `bench`: write the machine-readable `BENCH_report.json`.
    record: bool,
    /// `bench`: compare throughput against this baseline report and fail
    /// on a >30% regression.
    check: Option<String>,
    /// `serve`/`submit`/`status`/`shutdown`: daemon address.
    addr: String,
    /// `serve`: worker threads collaborating on the active study.
    workers: usize,
    /// `serve`: shard lease TTL before a silent worker's shard re-runs.
    lease_ttl_ms: u64,
    /// `submit`: tenant name recorded with the job.
    tenant: Option<String>,
    /// `submit`: poll the study to completion before exiting.
    wait: bool,
    /// `submit`: workload input scale ("test" or "paper").
    scale: String,
    /// `status KEY`: fetch the analytics report instead of the status.
    report: bool,
    /// Fault model (`study`/`submit`; default single-bit-flip), or
    /// heatmap filter (`report heatmap`; default unfiltered).
    model: Option<String>,
    /// `study`/`submit`: static-pruning mode — `None` (off), `"on"`
    /// (discharge provably-benign injections without executing), or
    /// `"verify"` (execute everything, cross-validate the predictions).
    prune: Option<String>,
    /// `lint`: exit non-zero when any lint fires.
    deny: bool,
    /// `lint`: lint every built-in study benchmark instead of a file.
    suite: bool,
    /// `profile`: per-site hotspot table with attributed wall time.
    hotspots: bool,
    /// `alerts`/`serve`: declarative alert rules file (TOML or JSON).
    rules: Option<String>,
    /// `serve`/`alerts watch`: telemetry sampling interval; 0 disables
    /// the daemon's sampler entirely.
    telemetry_interval_ms: u64,
    /// `trace export`: emit Chrome trace-event JSON (Perfetto-loadable).
    chrome: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        isa: VectorIsa::Avx,
        out: None,
        func: None,
        category: None,
        bench: None,
        experiments: None,
        campaigns: 8,
        seed: 42,
        detectors: false,
        uniform: false,
        store: "results/store".to_string(),
        resume: false,
        jobs: None,
        shard_size: 25,
        json: false,
        strict: false,
        repair: false,
        wall_limit_ms: None,
        mem_limit_mb: None,
        trace: None,
        metrics_out: None,
        top: 10,
        diff_store: None,
        metrics_in: None,
        record: false,
        check: None,
        addr: "127.0.0.1:7070".to_string(),
        workers: 2,
        lease_ttl_ms: 60_000,
        tenant: None,
        wait: false,
        scale: "test".to_string(),
        report: false,
        model: None,
        prune: None,
        deny: false,
        suite: false,
        hotspots: false,
        rules: None,
        telemetry_interval_ms: 1_000,
        chrome: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--isa" => {
                f.isa = match val(a)?.to_lowercase().as_str() {
                    "avx" => VectorIsa::Avx,
                    "sse" | "sse4" => VectorIsa::Sse4,
                    other => return Err(format!("unknown isa '{other}'")),
                }
            }
            "-o" | "--out" => f.out = Some(val(a)?),
            "--func" => f.func = Some(val(a)?),
            "--category" => {
                f.category = Some(match val(a)?.to_lowercase().as_str() {
                    "pure-data" | "puredata" | "data" => SiteCategory::PureData,
                    "control" | "ctrl" => SiteCategory::Control,
                    "address" | "addr" => SiteCategory::Address,
                    other => return Err(format!("unknown category '{other}'")),
                })
            }
            "--bench" => f.bench = Some(val(a)?),
            "--experiments" => {
                f.experiments = Some(
                    val(a)?
                        .parse()
                        .map_err(|_| "--experiments needs a number".to_string())?,
                )
            }
            "--campaigns" => {
                f.campaigns = val(a)?
                    .parse()
                    .map_err(|_| "--campaigns needs a number".to_string())?
            }
            "--seed" => {
                f.seed = val(a)?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?
            }
            "--store" => f.store = val(a)?,
            "--jobs" => {
                f.jobs = Some(
                    val(a)?
                        .parse()
                        .map_err(|_| "--jobs needs a number".to_string())?,
                )
            }
            "--shard-size" => {
                f.shard_size = val(a)?
                    .parse::<usize>()
                    .map_err(|_| "--shard-size needs a number".to_string())?
                    .max(1)
            }
            "--wall-limit-ms" => {
                f.wall_limit_ms = Some(
                    val(a)?
                        .parse()
                        .map_err(|_| "--wall-limit-ms needs a number".to_string())?,
                )
            }
            "--mem-limit-mb" => {
                f.mem_limit_mb = Some(
                    val(a)?
                        .parse()
                        .map_err(|_| "--mem-limit-mb needs a number".to_string())?,
                )
            }
            "--model" => f.model = Some(val(a)?),
            "--trace" => f.trace = Some(val(a)?),
            "--metrics-out" => f.metrics_out = Some(val(a)?),
            "--diff-store" => f.diff_store = Some(val(a)?),
            "--metrics-in" => f.metrics_in = Some(val(a)?),
            "--record" => f.record = true,
            "--check" => f.check = Some(val(a)?),
            "--addr" => f.addr = val(a)?,
            "--workers" => {
                f.workers = val(a)?
                    .parse::<usize>()
                    .map_err(|_| "--workers needs a number".to_string())?
                    .max(1)
            }
            "--lease-ttl-ms" => {
                f.lease_ttl_ms = val(a)?
                    .parse()
                    .map_err(|_| "--lease-ttl-ms needs a number".to_string())?
            }
            "--tenant" => f.tenant = Some(val(a)?),
            "--scale" => f.scale = val(a)?,
            "--wait" => f.wait = true,
            "--report" => f.report = true,
            "--top" => {
                f.top = val(a)?
                    .parse::<usize>()
                    .map_err(|_| "--top needs a number".to_string())?
            }
            "--prune" => {
                // `--prune` alone means "on"; a mode may follow either as
                // the next word or glued on with `=`.
                f.prune = match it.peek().map(|s| s.as_str()) {
                    Some(m @ ("on" | "verify" | "off")) => {
                        it.next();
                        Some(m.to_string())
                    }
                    _ => Some("on".to_string()),
                };
                if f.prune.as_deref() == Some("off") {
                    f.prune = None;
                }
            }
            other if other.starts_with("--prune=") => match other.trim_start_matches("--prune=") {
                m @ ("on" | "verify") => f.prune = Some(m.to_string()),
                "off" => f.prune = None,
                bad => {
                    return Err(format!(
                        "--prune mode '{bad}' not in [\"off\", \"on\", \"verify\"]"
                    ))
                }
            },
            "--rules" => f.rules = Some(val(a)?),
            "--telemetry-interval-ms" => {
                f.telemetry_interval_ms = val(a)?
                    .parse()
                    .map_err(|_| "--telemetry-interval-ms needs a number".to_string())?
            }
            "--chrome" => f.chrome = true,
            "--deny" => f.deny = true,
            "--suite" => f.suite = true,
            "--hotspots" => f.hotspots = true,
            "--strict" => f.strict = true,
            "--repair" => f.repair = true,
            "--resume" => f.resume = true,
            "--json" => f.json = true,
            "--detectors" => f.detectors = true,
            "--uniform" => f.uniform = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()))
            }
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

/// Load a module: `.vir` parses, anything else compiles as SPMD-C.
fn load_module(path: &str, isa: VectorIsa) -> Result<Module, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let m = if path.ends_with(".vir") || path.ends_with(".ll") {
        vir::parser::parse_module(&src).map_err(|e| e.to_string())?
    } else {
        spmdc::compile(&src, isa, path).map_err(|e| e.to_string())?
    };
    vir::verify::verify_module(&m).map_err(|e| e.to_string())?;
    Ok(m)
}

/// Pick the target function: `--func`, else the first definition.
fn pick_func<'m>(m: &'m Module, flags: &Flags) -> Result<&'m vir::Function, String> {
    let available = || {
        let names: Vec<String> = m.functions.iter().map(|f| format!("@{}", f.name)).collect();
        if names.is_empty() {
            "module defines no functions".to_string()
        } else {
            format!("module defines: {}", names.join(", "))
        }
    };
    match &flags.func {
        Some(n) => m
            .function(n)
            .ok_or_else(|| format!("no function @{n}; {}", available())),
        None => m
            .functions
            .first()
            .ok_or_else(|| "module has no functions".to_string()),
    }
}

fn emit(text: &str, out: &Option<String>) -> Result<(), String> {
    match out {
        Some(path) => fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err(usage());
    };
    let flags = parse_flags(&args[1..])?;
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    (lookup(name, &flags.positional)?.run)(&flags)
}

/// Resolve `vulfi <name> [<sub>]` to its table row. An unknown command
/// gets a did-you-mean; a command with subcommands lists them, with a
/// did-you-mean for a mistyped one.
fn lookup(name: &str, positional: &[String]) -> Result<&'static Command, String> {
    let rows: Vec<&'static Command> = COMMAND_TABLE.iter().filter(|c| c.name == name).collect();
    if rows.is_empty() {
        let hint = suggest_command(name)
            .map(|best| format!(" (did you mean '{best}'?)"))
            .unwrap_or_default();
        return Err(format!("unknown command '{name}'{hint}\n{}", usage()));
    }
    let subs: Vec<&'static str> = rows.iter().filter_map(|c| c.sub).collect();
    // Only a command with subcommands reads its first positional as one.
    let word = positional
        .first()
        .map(String::as_str)
        .filter(|_| !subs.is_empty());
    if let Some(row) = rows.iter().find(|c| c.sub == word) {
        return Ok(row);
    }
    let list = subs.join(", ");
    let msg = match word {
        Some(w) => match suggest(w, subs.iter().copied()) {
            Some(best) => format!("unknown {name} subcommand '{w}' (did you mean '{best}'?)"),
            None => format!("unknown {name} subcommand '{w}' (expected {list})"),
        },
        None => format!("{name} needs a subcommand ({list})"),
    };
    Err(format!("{msg}\n{}", usage()))
}

/// Levenshtein distance, small inputs only (command names).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest of `known` within edit distance 2, if any.
fn suggest<'a>(typo: &str, known: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    known
        .into_iter()
        .map(|c| (edit_distance(typo, c), c))
        .filter(|(d, c)| *d <= 2 && *d < c.len())
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// The closest command name — so `vulfi serv` points at `serve`
/// instead of dumping only the usage.
fn suggest_command(typo: &str) -> Option<&'static str> {
    suggest(typo, COMMAND_TABLE.iter().map(|c| c.name))
}

/// `vulfi help`: the usage text.
fn help_cmd(_: &Flags) -> Result<(), String> {
    println!("{}", usage());
    Ok(())
}

/// `vulfi compile`: print a module as textual IR.
fn compile_cmd(flags: &Flags) -> Result<(), String> {
    let path = flags.positional.first().ok_or_else(usage)?;
    let m = load_module(path, flags.isa)?;
    emit(&vir::printer::print_module(&m), &flags.out)
}

/// `vulfi sites`: the fault-site census of one function.
fn sites_cmd(flags: &Flags) -> Result<(), String> {
    let path = flags.positional.first().ok_or_else(usage)?;
    let m = load_module(path, flags.isa)?;
    let f = pick_func(&m, flags)?;
    let fname = f.name.as_str();
    let sites = vulfi::enumerate_sites(f);
    if flags.json {
        let docs: Vec<serde_json::Value> = sites
            .iter()
            .map(|s| {
                let inst = f.inst(s.inst);
                let value = match s.kind {
                    vulfi::SiteKind::Lvalue => inst
                        .result
                        .map(|v| f.value_display_name(v))
                        .unwrap_or_default(),
                    vulfi::SiteKind::StoreValue { operand_index } => inst
                        .operands()
                        .get(operand_index)
                        .and_then(|op| op.value())
                        .map(|v| f.value_display_name(v))
                        .unwrap_or_else(|| "const".to_string()),
                };
                let category = if s.flags.address {
                    "address"
                } else if s.flags.control {
                    "control"
                } else {
                    "pure-data"
                };
                serde_json::json!({
                    "id": s.id as u64,
                    "value": value,
                    "opcode": inst.opcode(),
                    "kind": match s.kind {
                        vulfi::SiteKind::Lvalue => "lvalue".to_string(),
                        vulfi::SiteKind::StoreValue { operand_index } =>
                            format!("store-value:{operand_index}"),
                    },
                    "category": category,
                    "address": s.flags.address,
                    "control": s.flags.control,
                    "masked": s.mask.is_some(),
                    "mask_source": match &s.mask {
                        Some(m) => serde_json::json!(m.arg_index as u64),
                        None => serde_json::Value::Null,
                    },
                    "vector": s.is_vector_inst,
                    "lanes": s.lanes() as u64,
                    "elem": s.elem().name(),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "function": fname,
            "sites": serde_json::Value::Array(docs),
        });
        emit(&serde_json::to_string_pretty(&doc).unwrap(), &flags.out)
    } else {
        println!(
            "@{fname}: {} static fault sites ({} scalar fault sites including lanes)",
            sites.len(),
            sites.iter().map(|s| s.lanes() as u64).sum::<u64>()
        );
        for (cat, mix) in vulfi::category_mix(&sites) {
            println!(
                "  {:9}: {:4} sites ({} vector, {} scalar, {:.1}% vector)",
                cat.name(),
                mix.total(),
                mix.vector,
                mix.scalar,
                mix.vector_pct()
            );
        }
        Ok(())
    }
}

/// `vulfi instrument`: insert the injection hooks for one site category.
fn instrument_cmd(flags: &Flags) -> Result<(), String> {
    let path = flags.positional.first().ok_or_else(usage)?;
    let category = flags.category.ok_or("instrument requires --category")?;
    let mut m = load_module(path, flags.isa)?;
    let fname = pick_func(&m, flags)?.name.clone();
    let r = vulfi::instrument_module(&mut m, &fname, vulfi::InstrumentOptions::new(category))?;
    eprintln!("instrumented {} sites in @{fname}", r.sites.len());
    emit(&vir::printer::print_module(&m), &flags.out)
}

/// `vulfi detect`: insert the foreach-invariant (and uniform) detectors.
fn detect_cmd(flags: &Flags) -> Result<(), String> {
    let path = flags.positional.first().ok_or_else(usage)?;
    let mut m = load_module(path, flags.isa)?;
    let fname = pick_func(&m, flags)?.name.clone();
    let n = detectors::insert_foreach_detectors(&mut m, &fname, detectors::CheckPlacement::OnExit)?;
    eprintln!("inserted {n} foreach-invariant detector block(s)");
    if flags.uniform {
        let u = detectors::insert_uniform_detectors(&mut m, &fname)?;
        eprintln!("inserted {u} uniform-broadcast checker(s)");
    }
    emit(&vir::printer::print_module(&m), &flags.out)
}

/// `vulfi campaign`: one in-memory campaign on a built-in benchmark.
fn campaign_cmd(flags: &Flags) -> Result<(), String> {
    let name = flags.bench.as_deref().ok_or("campaign requires --bench")?;
    let scale = vbench::Scale::Test;
    let w = vbench::study_benchmark(name, flags.isa, scale)
        .or_else(|| vbench::micro_benchmark(name, flags.isa, scale))
        .ok_or_else(|| format!("unknown benchmark '{name}' (see `vulfi list`)"))?;
    let category = flags.category.unwrap_or(SiteCategory::PureData);
    let experiments = flags.experiments.unwrap_or(200);
    vulfi::set_strict(flags.strict);
    let run_one = |w: &dyn Workload| -> Result<(), String> {
        let mut prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
        apply_limits(&mut prog, flags);
        println!(
            "benchmark {} [{}], category {}, {} static sites, {} experiments, seed {}",
            w.name(),
            flags.isa,
            category,
            prog.sites.len(),
            experiments,
            flags.seed
        );
        let c =
            vulfi::run_campaign(&prog, w, experiments, flags.seed).map_err(|e| e.to_string())?;
        println!(
            "SDC {:5.1}%   Benign {:5.1}%   Crash {:5.1}%",
            c.counts.sdc_rate(),
            c.counts.benign_rate(),
            c.counts.crash_rate()
        );
        if c.counts.detected > 0 || c.counts.sdc_detected > 0 {
            println!(
                "detections: {} total, SDC detection rate {:.1}%",
                c.counts.detected,
                c.counts.sdc_detection_rate()
            );
        }
        report_engine_faults();
        Ok(())
    };
    if flags.detectors {
        let wd = detectors::WithDetectors::new(&w, detectors::DetectorConfig::default())
            .map_err(|e| e.to_string())?;
        run_one(&wd)
    } else {
        run_one(&w)
    }
}

/// `vulfi profile`: the golden run's dynamic instruction mix.
fn profile_cmd(flags: &Flags) -> Result<(), String> {
    let name = flags.bench.as_deref().ok_or("profile requires --bench")?;
    let scale = vbench::Scale::Test;
    let w = vbench::study_benchmark(name, flags.isa, scale)
        .or_else(|| vbench::micro_benchmark(name, flags.isa, scale))
        .ok_or_else(|| format!("unknown benchmark '{name}' (see `vulfi list`)"))?;
    let mut interp = vexec::Interp::new(w.module());
    interp.enable_profiling();
    if flags.hotspots {
        interp.enable_hotspots();
    }
    let setup = w
        .setup(&mut interp.mem, 0)
        .map_err(|t| format!("setup failed: {t}"))?;
    interp
        .run(w.entry(), &setup.args, &mut vexec::NoHost)
        .map_err(|t| format!("golden run trapped: {t}"))?;
    let mix = interp.take_mix().expect("profiling enabled");
    println!(
        "{} [{}]: {} dynamic instructions, {:.1}% vector",
        w.name(),
        flags.isa,
        mix.total,
        mix.vector_pct()
    );
    println!("hottest opcodes:");
    for (op, n) in mix.hottest().into_iter().take(12) {
        println!(
            "  {:16} {:>10}  ({:.1}%)",
            op,
            n,
            100.0 * n as f64 / mix.total as f64
        );
    }
    if mix.lanes_total > 0 {
        println!(
            "lane occupancy: mean {:.2} active lanes per vector instruction, \
             {:.1}% lane utilization",
            mix.avg_active_lanes(),
            100.0 * mix.lane_utilization()
        );
        for (active, n) in mix.occupancy_histogram() {
            println!("  {active:>2} active lane(s): {n:>10} inst(s)");
        }
    }
    if flags.hotspots {
        let hot = interp.take_hotspots().expect("hotspots enabled");
        print_hotspots(&hot, flags)?;
    }
    Ok(())
}

/// `vulfi list`: the built-in benchmarks.
fn list_cmd(_: &Flags) -> Result<(), String> {
    println!("study benchmarks (paper Table I):");
    for n in vbench::STUDY_NAMES {
        println!("  {n}");
    }
    println!("micro-benchmarks (paper Fig. 12):");
    for n in vbench::MICRO_NAMES {
        println!("  {n}");
    }
    Ok(())
}

/// Surface any engine panics that were contained during this run: they
/// were counted as Crash outcomes, but an operator should know the
/// engine (not the injected fault alone) was involved.
fn report_engine_faults() {
    let faults = vulfi::drain_engine_faults();
    if faults.is_empty() {
        return;
    }
    eprintln!(
        "warning: {} experiment(s) absorbed an engine panic (recorded as Crash; \
         re-run with --strict to abort instead):",
        faults.len()
    );
    for f in faults.iter().take(5) {
        eprintln!("  {f}");
    }
    if faults.len() > 5 {
        eprintln!("  ... and {} more", faults.len() - 5);
    }
}

/// Apply `--wall-limit-ms` / `--mem-limit-mb` to a prepared program.
fn apply_limits(prog: &mut vulfi::Prepared, flags: &Flags) {
    if let Some(ms) = flags.wall_limit_ms {
        prog.limits.wall_ms = ms;
    }
    if let Some(mb) = flags.mem_limit_mb {
        prog.limits.mem_bytes = mb << 20;
    }
}

fn isa_name(isa: VectorIsa) -> &'static str {
    match isa {
        VectorIsa::Avx => "avx",
        VectorIsa::Sse4 => "sse",
    }
}

fn load_bench(name: &str, isa: VectorIsa) -> Result<vbench::SpmdWorkload, String> {
    let scale = vbench::Scale::Test;
    vbench::study_benchmark(name, isa, scale)
        .or_else(|| vbench::micro_benchmark(name, isa, scale))
        .ok_or_else(|| format!("unknown benchmark '{name}' (see `vulfi list`)"))
}

/// `vulfi analyze`: the static vulnerability report — classify every
/// (site, lane, bit) of the chosen function and print per-site
/// provably-benign fractions. A file positional analyzes that module;
/// `--bench` analyzes the same built-in module a study would instrument.
fn analyze_cmd(flags: &Flags) -> Result<(), String> {
    let (m, entry) = match flags.positional.first() {
        Some(path) => {
            let m = load_module(path, flags.isa)?;
            let entry = pick_func(&m, flags)?.name.clone();
            (m, entry)
        }
        None => {
            let name = flags
                .bench
                .as_deref()
                .ok_or("analyze needs a module file or --bench NAME")?;
            let w = load_bench(name, flags.isa)?;
            let entry = w.entry().to_string();
            (w.module().clone(), entry)
        }
    };
    let report = vulfi::analyze_module(&m, &entry)?;
    if flags.json {
        return emit(
            &serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?,
            &flags.out,
        );
    }
    let mut text = format!(
        "@{}: {} sites, {} scalar bits, {:.1}% provably benign\n",
        report.function,
        report.sites.len(),
        report.total_bits(),
        100.0 * report.benign_fraction()
    );
    text.push_str(&format!(
        "{:>4}  {:18} {:12} {:12} {:10} {:16} {:>8}\n",
        "site", "value", "opcode", "kind", "category", "class", "benign%"
    ));
    for s in &report.sites {
        text.push_str(&format!(
            "{:>4}  {:18} {:12} {:12} {:10} {:16} {:>7.1}%\n",
            s.id,
            s.value,
            s.opcode,
            s.kind,
            s.category,
            s.class,
            100.0 * s.benign_fraction()
        ));
    }
    emit(text.trim_end(), &flags.out)
}

/// `vulfi lint`: run the static diagnostic catalog (VL001–VL005) over a
/// module file or, with `--suite`, over every built-in study benchmark.
/// `--deny` turns any finding into a non-zero exit.
fn lint_cmd(flags: &Flags) -> Result<(), String> {
    let mut findings: Vec<(String, vir::analysis::LintFinding)> = Vec::new();
    let mut targets = 0usize;
    if flags.suite {
        for name in vbench::STUDY_NAMES {
            let w = load_bench(name, flags.isa)?;
            targets += 1;
            findings.extend(
                vir::analysis::lint_module(w.module())
                    .into_iter()
                    .map(|f| (name.to_string(), f)),
            );
        }
    } else {
        let path = flags
            .positional
            .first()
            .ok_or("lint needs a module file or --suite")?;
        let m = load_module(path, flags.isa)?;
        targets += 1;
        let module_findings = match &flags.func {
            Some(_) => vir::analysis::lint_function(pick_func(&m, flags)?),
            None => vir::analysis::lint_module(&m),
        };
        findings.extend(module_findings.into_iter().map(|f| (path.clone(), f)));
    }
    if flags.json {
        let docs: Vec<serde_json::Value> = findings
            .iter()
            .map(|(target, f)| {
                serde_json::json!({
                    "target": target.clone(),
                    "id": f.id,
                    "name": f.name,
                    "function": f.function.clone(),
                    "block": f.block.clone(),
                    "value": f.value.clone(),
                    "message": f.message.clone(),
                })
            })
            .collect();
        emit(
            &serde_json::to_string_pretty(&serde_json::Value::Array(docs)).unwrap(),
            &flags.out,
        )?;
    } else {
        let mut text = String::new();
        for (target, f) in &findings {
            text.push_str(&format!("{target}: {f}\n"));
        }
        text.push_str(&format!(
            "{} finding(s) across {} target(s)\n",
            findings.len(),
            targets
        ));
        emit(text.trim_end(), &flags.out)?;
    }
    if flags.deny && !findings.is_empty() {
        return Err(format!("lint: {} finding(s) denied", findings.len()));
    }
    Ok(())
}

/// `vulfi study`: run (or resume) a persistent study through the store.
fn run_study_cmd(flags: &Flags) -> Result<(), String> {
    let name = flags.bench.as_deref().ok_or("study requires --bench")?;
    if let Some(j) = flags.jobs {
        vulfi_orch::set_jobs(j);
    }
    let w = load_bench(name, flags.isa)?;
    let category = flags.category.unwrap_or(SiteCategory::PureData);
    let cfg = vulfi::StudyConfig {
        experiments_per_campaign: flags.experiments.unwrap_or(25),
        max_campaigns: flags.campaigns,
        seed: flags.seed,
        model: match flags.model.as_deref() {
            Some(m) => vulfi::FaultModel::parse(m)?,
            None => vulfi::FaultModel::default(),
        },
        // `--prune=verify` runs the full study (same key as an unpruned
        // run) and cross-validates predictions post-hoc; only `--prune`
        // / `--prune=on` actually discharges experiments.
        prune: flags.prune.as_deref() == Some("on"),
        ..vulfi::StudyConfig::default()
    };
    if flags.prune.is_some() && cfg.model != vulfi::FaultModel::SingleBitFlip {
        return Err(format!(
            "--prune requires the single-bit-flip model, not '{}'",
            cfg.model
        ));
    }
    let store = vulfi_orch::Store::open(&flags.store).map_err(|e| e.to_string())?;
    let isa = isa_name(flags.isa);
    vulfi::set_strict(flags.strict);

    let run_one = |w: &dyn Workload| -> Result<(), String> {
        let mut prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
        prog.model = cfg.model;
        apply_limits(&mut prog, flags);
        let key = vulfi_orch::study_key(&prog, w.name(), isa, &cfg);
        let study = store.study(&key);
        if study.exists() && !flags.resume {
            let done = study.shards().map_err(|e| e.to_string())?;
            let plan = vulfi_orch::plan_shards(&cfg, flags.shard_size);
            let pending = vulfi_orch::missing_jobs(&plan, &done, &cfg).len();
            if pending > 0 && pending < plan.len() {
                return Err(format!(
                    "study {key} has partial results ({}/{} shards stored); \
                     pass --resume to execute only the missing shards, or remove {}",
                    plan.len() - pending,
                    plan.len(),
                    study.dir().display()
                ));
            }
        }
        let progress: Option<vulfi_orch::ProgressFn> = Some(make_progress_reporter(flags.json));
        let out = vulfi_orch::run_study_persistent(
            &prog,
            w,
            w.name(),
            isa,
            &cfg,
            &store,
            vulfi_orch::RunOptions {
                shard_size: flags.shard_size,
                max_shards: None,
                progress,
                trace: flags.trace.as_ref().map(std::path::PathBuf::from),
            },
        )
        .map_err(|e| e.to_string())?;
        if let Some(path) = &flags.metrics_out {
            write_metrics(path)?;
        }
        let r = out
            .result
            .ok_or_else(|| "study incomplete after run (store corrupted?)".to_string())?;
        // Pruning accounting and `--prune=verify` cross-validation both
        // read the stored shards back (cheap: the study just ran or was
        // cached under the same key).
        let prune_mode = flags.prune.as_deref();
        let (discharged, soundness) = if prune_mode.is_some() {
            let done = store.study(&out.key).shards().map_err(|e| e.to_string())?;
            let discharged = done
                .iter()
                .flat_map(|s| &s.experiments)
                .filter(|e| e.injection.is_none() && e.dynamic_sites > 0)
                .count() as u64;
            let soundness = if prune_mode == Some("verify") {
                Some(vulfi_orch::verify_soundness(w, &done).map_err(|e| e.to_string())?)
            } else {
                None
            };
            (discharged, soundness)
        } else {
            (0, None)
        };
        if flags.json {
            let mut doc = serde_json::json!({
                "key": out.key.0.clone(),
                "workload": w.name(),
                "isa": isa,
                "category": category.name(),
                "model": cfg.model.name(),
                "mean_sdc": r.summary.mean,
                "margin_95": r.summary.margin_95,
                "campaigns": r.summary.campaigns,
                "converged": r.converged,
                "samples": r.samples.clone(),
                "counts": serde_json::to_value(&r.counts).unwrap(),
                "shards_total": out.total_shards as u64,
                "shards_reused": out.reused_shards as u64,
                "shards_executed": out.executed_shards as u64,
                "wall_ns": out.wall_ns,
                "dyn_insts": out.dyn_insts,
            });
            if let Some(mode) = prune_mode {
                if let serde_json::Value::Object(o) = &mut doc {
                    o.push(("prune".to_string(), serde_json::json!(mode)));
                    o.push(("discharged".to_string(), serde_json::json!(discharged)));
                    if let Some(s) = &soundness {
                        o.push((
                            "soundness".to_string(),
                            serde_json::json!({
                                "checked": s.checked,
                                "predicted_benign": s.predicted_benign,
                                "violations": s.violations.len() as u64,
                            }),
                        ));
                    }
                }
            }
            println!("{}", serde_json::to_string_pretty(&doc).unwrap());
        } else {
            println!(
                "study {} [{}], category {}, key {}",
                w.name(),
                isa,
                category,
                out.key
            );
            println!(
                "shards: {} total, {} reused, {} executed",
                out.total_shards, out.reused_shards, out.executed_shards
            );
            println!(
                "SDC {:.1}% ± {:.1} over {} campaigns ({})",
                r.summary.mean,
                r.summary.margin_95,
                r.summary.campaigns,
                if r.converged {
                    "converged"
                } else {
                    "not converged"
                }
            );
            println!(
                "counts: SDC {} Benign {} Crash {} | {} dyn insts | {:.2}s wall",
                r.counts.sdc,
                r.counts.benign,
                r.counts.crash,
                out.dyn_insts,
                out.wall_ns as f64 / 1e9
            );
            if r.counts.detected > 0 {
                println!(
                    "detections: {} total, SDC detection rate {:.1}%",
                    r.counts.detected,
                    r.counts.sdc_detection_rate()
                );
            }
            if prune_mode == Some("on") {
                let total = r.counts.total().max(1);
                println!(
                    "pruning: {} of {} experiments statically discharged ({:.1}%) without execution",
                    discharged,
                    r.counts.total(),
                    100.0 * discharged as f64 / total as f64
                );
            }
            if let Some(s) = &soundness {
                println!(
                    "soundness: {} injection(s) checked, {} predicted benign, {} violation(s)",
                    s.checked,
                    s.predicted_benign,
                    s.violations.len()
                );
            }
        }
        report_engine_faults();
        if let Some(s) = &soundness {
            if !s.is_sound() {
                let mut msg = format!(
                    "prediction soundness violated: {} predicted-benign injection(s) \
                     had a non-benign or detected outcome",
                    s.violations.len()
                );
                for v in s.violations.iter().take(5) {
                    msg.push_str(&format!("\n  {v}"));
                }
                return Err(msg);
            }
        }
        Ok(())
    };
    if flags.detectors {
        let wd = detectors::WithDetectors::new(&w, detectors::DetectorConfig::default())
            .map_err(|e| e.to_string())?;
        run_one(&wd)
    } else {
        run_one(&w)
    }
}

/// `vulfi results summary`: one line (or JSON record) per stored study.
fn results_summary(flags: &Flags) -> Result<(), String> {
    let store = vulfi_orch::Store::open(&flags.store).map_err(|e| e.to_string())?;
    let keys = store.studies().map_err(|e| e.to_string())?;
    let mut docs = Vec::new();
    for key in &keys {
        let study = store.study(key);
        let m = study.read_manifest().map_err(|e| e.to_string())?;
        let shards = study.shards().map_err(|e| e.to_string())?;
        let covered = vulfi_orch::covered_experiments(&shards, &m.cfg);
        let total = m.cfg.max_campaigns * m.cfg.experiments_per_campaign;
        match vulfi_orch::merge(&m.cfg, m.category, &shards) {
            Some(r) => {
                if flags.json {
                    docs.push(serde_json::json!({
                        "key": key.0.clone(),
                        "workload": m.workload.clone(),
                        "isa": m.isa.clone(),
                        "category": m.category.name(),
                        "status": "complete",
                        "mean_sdc": r.summary.mean,
                        "margin_95": r.summary.margin_95,
                        "campaigns": r.summary.campaigns,
                        "converged": r.converged,
                    }));
                } else {
                    println!(
                        "{}  {:24} {:4} {:9}  SDC {:5.1}% ± {:4.1}  {:2} campaigns  {}",
                        &key.0[..12],
                        m.workload,
                        m.isa,
                        m.category.name(),
                        r.summary.mean,
                        r.summary.margin_95,
                        r.summary.campaigns,
                        if r.converged { "converged" } else { "capped" }
                    );
                }
            }
            None => {
                if flags.json {
                    docs.push(serde_json::json!({
                        "key": key.0.clone(),
                        "workload": m.workload.clone(),
                        "isa": m.isa.clone(),
                        "category": m.category.name(),
                        "status": "partial",
                        "covered_experiments": covered as u64,
                        "total_experiments": total as u64,
                    }));
                } else {
                    println!(
                        "{}  {:24} {:4} {:9}  partial: {}/{} experiments",
                        &key.0[..12],
                        m.workload,
                        m.isa,
                        m.category.name(),
                        covered,
                        total
                    );
                }
            }
        }
    }
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Array(docs)).unwrap()
        );
    } else if keys.is_empty() {
        println!("no studies under {}", flags.store);
    }
    Ok(())
}

/// `vulfi results merge <SRC>... --store DST`: fold shard logs from other
/// stores (e.g. per-machine result dirs) into one, skipping shards whose
/// experiments the destination already covers.
fn results_merge(flags: &Flags) -> Result<(), String> {
    let srcs = &flags.positional[1..];
    if srcs.is_empty() {
        return Err(format!(
            "results merge needs source store dirs\n{}",
            usage()
        ));
    }
    let dst = vulfi_orch::Store::open(&flags.store).map_err(|e| e.to_string())?;
    let mut studies = 0usize;
    let mut appended = 0usize;
    for src in srcs {
        let src_store = vulfi_orch::Store::open(src).map_err(|e| e.to_string())?;
        for key in src_store.studies().map_err(|e| e.to_string())? {
            let from = src_store.study(&key);
            let manifest = from.read_manifest().map_err(|e| e.to_string())?;
            let to = dst.study(&key);
            if !to.exists() {
                let mut m = manifest.clone();
                m.complete = false;
                to.write_manifest(&m).map_err(|e| e.to_string())?;
            }
            studies += 1;
            let mut have: std::collections::HashSet<(usize, usize)> = to
                .shards()
                .map_err(|e| e.to_string())?
                .iter()
                .flat_map(|r| (r.start..r.end).map(move |i| (r.campaign, i)))
                .collect();
            for rec in from.shards().map_err(|e| e.to_string())? {
                if (rec.start..rec.end).any(|i| !have.contains(&(rec.campaign, i))) {
                    to.append_shard(&rec).map_err(|e| e.to_string())?;
                    have.extend((rec.start..rec.end).map(|i| (rec.campaign, i)));
                    appended += 1;
                }
            }
            let shards = to.shards().map_err(|e| e.to_string())?;
            if vulfi_orch::merge(&manifest.cfg, manifest.category, &shards).is_some() {
                let mut m = to.read_manifest().map_err(|e| e.to_string())?;
                if !m.complete {
                    m.complete = true;
                    to.write_manifest(&m).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    println!(
        "merged {studies} stud{} from {} store(s): {appended} new shard(s) into {}",
        if studies == 1 { "y" } else { "ies" },
        srcs.len(),
        flags.store
    );
    Ok(())
}

/// Build the `study` progress reporter.
///
/// - `--json`: one compact [`vulfi_orch::ProgressSnapshot`] JSON object
///   per line on stderr (stdout stays reserved for the final result
///   document). The runner guarantees the last line reports
///   `done == total` on a completed study.
/// - TTY stderr: a multi-line status block (progress plus metrics
///   folded in from the global registry), redrawn in place at most
///   ~4×/s and always for the final snapshot.
/// - otherwise: one plain status line per shard.
fn make_progress_reporter(json: bool) -> vulfi_orch::ProgressFn {
    use std::io::{IsTerminal as _, Write as _};
    if json {
        return Box::new(|s: &vulfi_orch::ProgressSnapshot| {
            if let Ok(line) = serde_json::to_string(s) {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{line}");
            }
        });
    }
    let tty = std::io::stderr().is_terminal();
    // (time of last redraw, lines the last block occupied)
    let state = std::sync::Mutex::new((None::<std::time::Instant>, 0usize));
    Box::new(move |s: &vulfi_orch::ProgressSnapshot| {
        if !tty {
            eprintln!("{}", s.render_line());
            return;
        }
        let mut st = state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let finished = s.done >= s.total;
        let due =
            st.0.map(|t| t.elapsed() >= std::time::Duration::from_millis(250))
                .unwrap_or(true);
        if !due && !finished {
            return;
        }
        let block = render_status_block(s);
        let mut err = std::io::stderr().lock();
        if st.1 > 0 {
            // Redraw over the previous block.
            let _ = write!(err, "\x1b[{}A", st.1);
        }
        for line in &block {
            let _ = writeln!(err, "\r\x1b[2K{line}");
        }
        let _ = err.flush();
        *st = (Some(std::time::Instant::now()), block.len());
    })
}

/// Smallest histogram bucket bound covering the median observation
/// (`None` for the +Inf overflow bucket or an empty histogram).
fn median_bound(h: &vulfi_orch::metrics::HistogramSnapshot) -> Option<f64> {
    let total = h.count();
    if total == 0 {
        return None;
    }
    let mut seen = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        seen += c;
        if 2 * seen >= total {
            return h.bounds.get(i).copied();
        }
    }
    None
}

/// The multi-line TTY status: the classic progress line with the
/// metrics registry folded in underneath.
fn render_status_block(s: &vulfi_orch::ProgressSnapshot) -> Vec<String> {
    let m = vulfi_orch::metrics::global().snapshot();
    let lat = &m.append_latency_seconds;
    let appends = lat.count();
    let avg_ms = if appends > 0 {
        1e3 * lat.sum / appends as f64
    } else {
        0.0
    };
    let mut lines = vec![
        s.render_line(),
        format!(
            "  store: {} append(s), avg {avg_ms:.2} ms | {} retried | {} engine fault(s)",
            appends, m.store_retries, m.engine_faults
        ),
    ];
    let traced: u64 = m
        .propagation_insts
        .iter()
        .map(|c| c.histogram.count())
        .sum();
    if traced > 0 {
        let per: Vec<String> = m
            .propagation_insts
            .iter()
            .filter(|c| c.histogram.count() > 0)
            .map(|c| {
                let p50 = match median_bound(&c.histogram) {
                    Some(b) => format!("≤{}", vulfi_orch::humanize(b as u64)),
                    None => format!(
                        ">{}",
                        vulfi_orch::humanize(*c.histogram.bounds.last().unwrap_or(&0.0) as u64)
                    ),
                };
                format!("{} p50 {p50}", c.category)
            })
            .collect();
        lines.push(format!(
            "  trace: {traced} propagation sample(s) | {} insts",
            per.join(", ")
        ));
    }
    lines
}

/// Write a snapshot of the global metrics registry to `path`:
/// `.json` → JSON, anything else → Prometheus text exposition format.
fn write_metrics(path: &str) -> Result<(), String> {
    let snap = vulfi_orch::metrics::global().snapshot();
    let text = if path.ends_with(".json") {
        vulfi_orch::render_json(&snap).map_err(|e| e.to_string())?
    } else {
        vulfi_orch::render_prometheus(&snap)
    };
    fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn trace_root(flags: &Flags) -> String {
    flags
        .trace
        .clone()
        .unwrap_or_else(|| "results/trace".to_string())
}

/// `vulfi trace summarize`: roll up every study's trace shards into
/// per-category outcome counts and propagation percentiles, plus the
/// most SDC-prone static sites.
fn trace_summarize(flags: &Flags) -> Result<(), String> {
    let root = trace_root(flags);
    let store = vulfi_orch::TraceStore::open(&root).map_err(|e| e.to_string())?;
    let s = vulfi_orch::summarize(&store, flags.top).map_err(|e| e.to_string())?;
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&s).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if s.spans == 0 {
        println!("no trace spans under {root}");
        return Ok(());
    }
    println!(
        "{} stud{}, {} span(s), {} injected",
        s.studies,
        if s.studies == 1 { "y" } else { "ies" },
        s.spans,
        s.injected
    );
    for c in &s.categories {
        let prop = match &c.propagation {
            Some(p) => format!(
                "propagation p50 {} p90 {} p99 {} max {} insts ({} samples)",
                vulfi_orch::humanize(p.p50),
                vulfi_orch::humanize(p.p90),
                vulfi_orch::humanize(p.p99),
                vulfi_orch::humanize(p.max),
                p.samples
            ),
            None => "no propagation samples".to_string(),
        };
        println!(
            "  {:9}: {:6} spans | SDC {} Benign {} Crash {} | {}",
            c.category, c.spans, c.sdc, c.benign, c.crash, prop
        );
    }
    if !s.top_sdc_sites.is_empty() {
        println!("top SDC-prone sites:");
        for site in &s.top_sdc_sites {
            println!(
                "  site {:4} {:12} ({})  SDC {}/{}",
                site.site_id, site.opcode, site.workload, site.sdc, site.total
            );
        }
    }
    Ok(())
}

/// `vulfi trace export --chrome`: stitch the ops log and trace store
/// into the causal span tree (request → job → shard → experiment) and
/// emit Chrome trace-event JSON loadable in Perfetto or chrome://tracing.
fn trace_export(flags: &Flags) -> Result<(), String> {
    if !flags.chrome {
        return Err(
            "trace export currently supports only --chrome (Chrome trace-event JSON)".to_string(),
        );
    }
    let root = trace_root(flags);
    let traces = vulfi_orch::TraceStore::open(&root).map_err(|e| e.to_string())?;
    // Prefer the ops log: it carries real wall-clock causality. A store
    // written by local `vulfi study --trace` has no ops log, so fall
    // back to a synthetic timeline laid out from the trace shards alone.
    let ops_events = vulfi_orch::OpsLog::open(&flags.store)
        .and_then(|ops| ops.events())
        .unwrap_or_default();
    let spans = if ops_events.is_empty() {
        vulfi_orch::spans_from_traces(&traces).map_err(|e| e.to_string())?
    } else {
        vulfi_orch::spans_from_ops(&ops_events, Some(&traces)).map_err(|e| e.to_string())?
    };
    if spans.is_empty() {
        return Err(format!(
            "nothing to export: no ops events under {} and no trace spans under {root}",
            flags.store
        ));
    }
    let text = vulfi_orch::render_chrome(&spans).map_err(|e| e.to_string())?;
    // Self-check: parse our own output and prove the layer nesting
    // before anyone loads it into a viewer.
    let counts = vulfi_orch::validate_chrome(&text)
        .map_err(|e| format!("internal error: export failed self-validation: {e}"))?;
    match &flags.out {
        Some(out) => {
            fs::write(out, &text).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => println!("{text}"),
    }
    eprintln!(
        "chrome export: {} request, {} job, {} shard, {} experiment span(s)",
        counts.request, counts.job, counts.shard, counts.experiment
    );
    Ok(())
}

/// `vulfi profile --hotspots`: the self-profiler's site table — opcodes
/// ranked by dynamic count with batched wall time attributed per static
/// site. `-o` additionally writes the folded-stack (flamegraph) text.
fn print_hotspots(hot: &vexec::HotProfile, flags: &Flags) -> Result<(), String> {
    let total = hot.total().max(1);
    let wall = hot.wall_ns().max(1);
    println!("hotspots (dynamic count × attributed wall time):");
    println!(
        "  {:16} {:>12} {:>7} {:>10} {:>7} {:>6}",
        "opcode", "count", "%count", "time(ms)", "%time", "sites"
    );
    for h in hot.hotspots().into_iter().take(flags.top) {
        println!(
            "  {:16} {:>12} {:>6.1}% {:>10.3} {:>6.1}% {:>6}",
            h.opcode,
            h.count,
            100.0 * h.count as f64 / total as f64,
            h.wall_ns as f64 / 1e6,
            100.0 * h.wall_ns as f64 / wall as f64,
            h.sites
        );
    }
    println!("hottest sites:");
    for s in hot.sites().into_iter().take(flags.top) {
        println!(
            "  {:>24} {:12} {:>12} {:>9.3}ms",
            format!("{}/{}", s.func, s.loc),
            s.opcode,
            s.count,
            s.wall_ns as f64 / 1e6
        );
    }
    if let Some(out) = &flags.out {
        fs::write(out, hot.folded()).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote folded stacks to {out}");
    }
    Ok(())
}

/// `vulfi events tail`: the most recent operational events (`--top N`,
/// default 10), one line each, oldest of them first.
fn events_tail(flags: &Flags) -> Result<(), String> {
    let ops = vulfi_orch::OpsLog::open(&flags.store).map_err(|e| e.to_string())?;
    let events = ops.tail(flags.top).map_err(|e| e.to_string())?;
    if flags.json {
        let docs: Vec<serde_json::Value> = events
            .iter()
            .map(|ev| serde_json::to_value(ev).unwrap_or(serde_json::Value::Null))
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Array(docs)).unwrap()
        );
        return Ok(());
    }
    if events.is_empty() {
        println!("no operational events under {}", flags.store);
        return Ok(());
    }
    for ev in &events {
        println!("{}", ev.render_line());
    }
    Ok(())
}

/// `vulfi events summarize`: fold the ops log into per-job lifecycles
/// (submit → lease → shards → merge), reconstructed from the log alone.
fn events_summarize(flags: &Flags) -> Result<(), String> {
    let ops = vulfi_orch::OpsLog::open(&flags.store).map_err(|e| e.to_string())?;
    let s = ops.summarize().map_err(|e| e.to_string())?;
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::to_value(&s).map_err(|e| e.to_string())?)
                .unwrap()
        );
        return Ok(());
    }
    if s.events == 0 {
        println!("no operational events under {}", flags.store);
        return Ok(());
    }
    println!(
        "{} event(s), {} job(s), {} fsck action(s), worker(s): {}",
        s.events,
        s.jobs.len(),
        s.fsck_actions,
        if s.workers().is_empty() {
            "none".to_string()
        } else {
            s.workers().join(", ")
        }
    );
    for j in &s.jobs {
        println!("{}", j.render());
    }
    Ok(())
}

/// Load and parse the `--rules` file shared by the alerts subcommands
/// and `vulfi serve`.
fn load_alert_rules(flags: &Flags) -> Result<Vec<vulfi_orch::AlertRule>, String> {
    let path = flags
        .rules
        .as_deref()
        .ok_or("alerts requires --rules FILE (TOML or JSON)")?;
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    vulfi_orch::parse_alert_rules(&text).map_err(|e| format!("{path}: {e}"))
}

/// `vulfi alerts check`: evaluate the rules once against the persisted
/// telemetry series and exit non-zero when any rule fires, so the
/// command slots straight into CI and cron.
fn alerts_check(flags: &Flags) -> Result<(), String> {
    let rules = load_alert_rules(flags)?;
    let log = vulfi_orch::TelemetryLog::open(&flags.store).map_err(|e| e.to_string())?;
    let window = log
        .tail(vulfi_orch::DEFAULT_RING_CAPACITY)
        .map_err(|e| e.to_string())?;
    let states: Vec<vulfi_orch::AlertState> = rules
        .iter()
        .map(|r| vulfi_orch::evaluate_rule(r, &window))
        .collect();
    if flags.json {
        println!(
            "{}",
            vulfi_orch::render_alerts_json(&states).map_err(|e| e.to_string())?
        );
    } else {
        if window.is_empty() {
            eprintln!(
                "note: no telemetry samples under {}/telemetry (run `vulfi serve` \
                 with sampling on to collect them)",
                flags.store
            );
        }
        print!("{}", vulfi_orch::render_alerts_text(&states));
    }
    let firing = states.iter().filter(|s| s.firing).count();
    if firing > 0 {
        return Err(format!(
            "{firing} alert(s) firing over {} sample(s) under {}/telemetry",
            window.len(),
            flags.store
        ));
    }
    Ok(())
}

/// `vulfi alerts watch`: poll the telemetry log and print every
/// firing/resolved transition until interrupted. This is the offline
/// twin of the daemon's sampler thread: same rules, same sustain
/// semantics, but driven from the persisted series.
fn alerts_watch(flags: &Flags) -> Result<(), String> {
    let mut engine = vulfi_orch::AlertEngine::new(load_alert_rules(flags)?);
    let log = vulfi_orch::TelemetryLog::open(&flags.store).map_err(|e| e.to_string())?;
    let interval = std::time::Duration::from_millis(flags.telemetry_interval_ms.max(100));
    eprintln!(
        "watching {} rule(s) over {}/telemetry every {}ms (ctrl-c to stop)",
        engine.rules().len(),
        flags.store,
        interval.as_millis()
    );
    loop {
        let window = log
            .tail(vulfi_orch::DEFAULT_RING_CAPACITY)
            .map_err(|e| e.to_string())?;
        let (_, transitions) = engine.evaluate(&window);
        for tr in &transitions {
            println!(
                "{} alert '{}' value {:.4}",
                if tr.firing { "FIRING  " } else { "resolved" },
                tr.rule,
                tr.value
            );
        }
        std::thread::sleep(interval);
    }
}

/// `vulfi fsck`: check every checked log — each study's shard log and
/// the queue, ops and telemetry logs under `--store`, and each study's
/// trace log under the trace root. A root that does not exist is
/// skipped. With `--repair`, corrupt logs are quarantined, their intact
/// records salvaged, and one ops event names every quarantined log.
fn fsck_cmd(flags: &Flags) -> Result<(), String> {
    let store_exists = std::path::Path::new(&flags.store).is_dir();
    let trace = trace_root(flags);
    let mut reports = Vec::new();
    if store_exists {
        let store = vulfi_orch::Store::open(&flags.store).map_err(|e| e.to_string())?;
        let report = store.fsck(flags.repair).map_err(|e| e.to_string())?;
        reports.push((flags.store.clone(), report));
    }
    if std::path::Path::new(&trace).is_dir() {
        let store = vulfi_orch::TraceStore::open(&trace).map_err(|e| e.to_string())?;
        let report = store.fsck(flags.repair).map_err(|e| e.to_string())?;
        reports.push((trace, report));
    }
    // Repairs are operational actions: record them in the ops event
    // stream so `vulfi events summarize` accounts for them, before any
    // output that a closed pipe could cut short. The store fsck above
    // has already healed the ops log if it was quarantined.
    let quarantined: Vec<String> = reports
        .iter()
        .flat_map(|(_, r)| &r.studies)
        .filter_map(|s| s.quarantined.as_ref())
        .map(|q| q.display().to_string())
        .collect();
    if !quarantined.is_empty() && store_exists {
        let ops = vulfi_orch::OpsLog::open(&flags.store).map_err(|e| e.to_string())?;
        ops.append(
            vulfi_orch::OpsEvent::new(vulfi_orch::OpsKind::Fsck).detail(format!(
                "fsck quarantined {} log(s): {}",
                quarantined.len(),
                quarantined.join(", ")
            )),
        )
        .map_err(|e| e.to_string())?;
    }
    print_fsck_report(&reports, flags.json);
    if !flags.repair && reports.iter().any(|(_, r)| r.needs_repair()) {
        return Err(
            "corrupt log(s) found; re-run `vulfi fsck --repair` to quarantine them \
             and salvage intact records, then resume the affected studies"
                .to_string(),
        );
    }
    Ok(())
}

/// Print one row per checked log, grouped by root (`--json`: one flat
/// array whose rows name their root).
fn print_fsck_report(reports: &[(String, vulfi_orch::FsckReport)], json: bool) {
    if json {
        let docs: Vec<serde_json::Value> = reports
            .iter()
            .flat_map(|(root, r)| r.studies.iter().map(move |s| (root, s)))
            .map(|(root, s)| {
                serde_json::json!({
                    "root": root.clone(),
                    "key": s.key.0.clone(),
                    "lines": s.lines as u64,
                    "valid": s.valid as u64,
                    "torn_tail": s.torn_tail,
                    "corrupt": s.corrupt
                        .iter()
                        .map(|(line, reason)| serde_json::json!({
                            "line": *line as u64,
                            "reason": reason.clone(),
                        }))
                        .collect::<Vec<_>>(),
                    "quarantined": s.quarantined
                        .as_ref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_default(),
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Array(docs)).unwrap()
        );
        return;
    }
    for (root, report) in reports {
        if report.studies.is_empty() {
            println!("no logs under {root}");
            continue;
        }
        println!("{root}:");
        for s in &report.studies {
            let status = if s.needs_repair() {
                "CORRUPT"
            } else if s.torn_tail {
                "torn tail"
            } else {
                "ok"
            };
            println!(
                "  {:12}  {:10}  {} record(s) valid of {} line(s)",
                &s.key.0[..12.min(s.key.0.len())],
                status,
                s.valid,
                s.lines
            );
            for (line, reason) in &s.corrupt {
                println!("      line {line}: {reason}");
            }
            if let Some(q) = &s.quarantined {
                println!("      quarantined to {}", q.display());
            }
        }
    }
    if reports.is_empty() {
        println!("no logs: neither the store nor the trace root exists");
    }
}

/// `vulfi report diff <A> <B>`: compare two stores cell by cell with
/// Wilson intervals and a two-proportion z-test.
fn report_diff(flags: &Flags) -> Result<(), String> {
    let (Some(a), Some(b)) = (flags.positional.get(1), flags.positional.get(2)) else {
        return Err(format!("report diff needs two store dirs\n{}", usage()));
    };
    let store_a = vulfi_orch::Store::open(a).map_err(|e| e.to_string())?;
    let store_b = vulfi_orch::Store::open(b).map_err(|e| e.to_string())?;
    let d = vulfi_orch::diff_stores(&store_a, &store_b).map_err(|e| e.to_string())?;
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&d).map_err(|e| e.to_string())?
        );
    } else if d.cells.is_empty() && d.only_a.is_empty() && d.only_b.is_empty() {
        println!("no comparable studies between {a} and {b}");
    } else {
        print!("{}", vulfi_orch::render_diff_text(&d));
    }
    Ok(())
}

/// `vulfi report heatmap`: site × lane × bit SDC density from the trace
/// store.
fn report_heatmap(flags: &Flags) -> Result<(), String> {
    let root = trace_root(flags);
    let store = vulfi_orch::TraceStore::open(&root).map_err(|e| e.to_string())?;
    let maps = vulfi_orch::heatmaps_filtered(&store, flags.top, flags.model.as_deref())
        .map_err(|e| e.to_string())?;
    if flags.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&maps).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", vulfi_orch::render_heatmap_text(&maps));
    }
    Ok(())
}

fn parse_isa_name(s: &str) -> Option<VectorIsa> {
    match s {
        "avx" => Some(VectorIsa::Avx),
        "sse" => Some(VectorIsa::Sse4),
        _ => None,
    }
}

/// Profile the golden run of every (workload, ISA) the store has studied.
/// Unknown workload names (e.g. detector-wrapped variants) are skipped.
fn occupancy_profiles(
    store: &vulfi_orch::Store,
) -> Result<Vec<vulfi_orch::OccupancyProfile>, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for key in store.studies().map_err(|e| e.to_string())? {
        let m = store
            .study(&key)
            .read_manifest()
            .map_err(|e| e.to_string())?;
        if !seen.insert((m.workload.clone(), m.isa.clone())) {
            continue;
        }
        let Some(isa) = parse_isa_name(&m.isa) else {
            continue;
        };
        let Ok(w) = load_bench(&m.workload, isa) else {
            continue;
        };
        let mut interp = vexec::Interp::new(w.module());
        interp.enable_profiling();
        let Ok(setup) = w.setup(&mut interp.mem, 0) else {
            continue;
        };
        if interp
            .run(w.entry(), &setup.args, &mut vexec::NoHost)
            .is_err()
        {
            continue;
        }
        let mix = interp.take_mix().expect("profiling enabled");
        out.push(vulfi_orch::OccupancyProfile::from_mix(
            &m.workload,
            &m.isa,
            &mix,
        ));
    }
    Ok(out)
}

/// `vulfi report html`: one self-contained HTML file over the store, the
/// trace sidecars, an optional comparison store, and an optional metrics
/// snapshot.
fn report_html(flags: &Flags) -> Result<(), String> {
    let store = vulfi_orch::Store::open(&flags.store).map_err(|e| e.to_string())?;
    let trace = match &flags.trace {
        Some(root) => Some(vulfi_orch::TraceStore::open(root).map_err(|e| e.to_string())?),
        None => None,
    };
    let diff_store = match &flags.diff_store {
        Some(dir) => Some(vulfi_orch::Store::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    let metrics: Vec<vulfi_orch::MetricRow> = match &flags.metrics_in {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            vulfi_orch::parse_prometheus(&text)?
                .into_iter()
                .map(|s| {
                    let labels: Vec<String> =
                        s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    vulfi_orch::MetricRow {
                        name: if labels.is_empty() {
                            s.name
                        } else {
                            format!("{}{{{}}}", s.name, labels.join(","))
                        },
                        value: s.value,
                    }
                })
                .collect()
        }
        None => Vec::new(),
    };
    let occupancy = occupancy_profiles(&store)?;
    // Static-analysis join: the analyzer's predicted-benign fraction per
    // site, next to the SDC rate the trace heatmaps actually observed.
    // Workloads we can't rebuild (or that fail verification) are skipped
    // rather than failing the whole report.
    let analysis = match trace.as_ref() {
        Some(t) => {
            let maps = vulfi_orch::heatmaps(t, flags.top).map_err(|e| e.to_string())?;
            let mut reports = Vec::new();
            for m in &maps {
                let Ok(w) = load_bench(&m.workload, VectorIsa::Avx) else {
                    continue;
                };
                let Ok(rep) = vulfi::analyze_module(w.module(), w.entry()) else {
                    continue;
                };
                reports.push((m.workload.clone(), rep));
            }
            vulfi_orch::analysis_cells(&reports, &maps)
        }
        None => Vec::new(),
    };
    let html = vulfi_orch::html_from_stores(
        "vulfi resiliency report",
        Some(&store),
        trace.as_ref(),
        diff_store.as_ref(),
        &occupancy,
        &metrics,
        &analysis,
        None,
        flags.top,
    )
    .map_err(|e| e.to_string())?;
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| "results/report.html".to_string());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    fs::write(&out, &html).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out} ({} bytes)", html.len());
    Ok(())
}

/// Build one gauntlet cell's workload (detector-wrapped when the
/// scenario asks) and hand it to `f` — the same construction the study
/// and submit paths use, so a gauntlet cell's key matches an equivalent
/// `vulfi study` exactly.
fn with_cell_workload<T>(
    spec: &vulfi::StudySpec,
    f: impl FnOnce(&dyn Workload) -> Result<T, String>,
) -> Result<T, String> {
    let isa = parse_isa_name(&spec.isa).ok_or_else(|| format!("unknown isa '{}'", spec.isa))?;
    let scale = if spec.scale == "paper" {
        vbench::Scale::Paper
    } else {
        vbench::Scale::Test
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

/// Read the scenario file named by the subcommand's positional argument.
fn load_scenario(flags: &Flags) -> Result<vulfi_orch::Scenario, String> {
    let path = flags
        .positional
        .get(1)
        .ok_or("gauntlet needs a scenario file (TOML or JSON)")?;
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    vulfi_orch::parse_scenario(&text).map_err(|e| format!("{path}: {e}"))
}

/// `vulfi gauntlet run`: expand the scenario matrix, execute every cell
/// as a persistent study (reruns are cache hits; a killed gauntlet
/// resumes with `--resume`), and judge the invariants. Exits non-zero
/// on any breach.
fn gauntlet_run(flags: &Flags) -> Result<(), String> {
    let scenario = load_scenario(flags)?;
    if let Some(j) = flags.jobs {
        vulfi_orch::set_jobs(j);
    }
    let store = vulfi_orch::Store::open(&flags.store).map_err(|e| e.to_string())?;
    vulfi::set_strict(flags.strict);
    let cells = scenario.expand();
    let mut verdicts = Vec::new();
    for (i, spec) in cells.iter().enumerate() {
        if !flags.json {
            eprintln!(
                "[{}/{}] {} [{}] {} {}",
                i + 1,
                cells.len(),
                spec.bench,
                spec.isa,
                spec.category,
                spec.model
            );
        }
        let cell = with_cell_workload(spec, |w| {
            let category = spec.site_category()?;
            let cfg = spec.study_config();
            let mut prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
            prog.model = cfg.model;
            apply_limits(&mut prog, flags);
            let key = vulfi_orch::study_key(&prog, w.name(), &spec.isa, &cfg);
            let study = store.study(&key);
            if study.exists() && !flags.resume {
                let done = study.shards().map_err(|e| e.to_string())?;
                let plan = vulfi_orch::plan_shards(&cfg, spec.shard_size);
                let pending = vulfi_orch::missing_jobs(&plan, &done, &cfg).len();
                if pending > 0 && pending < plan.len() {
                    return Err(format!(
                        "cell {key} has partial results ({}/{} shards stored); \
                         pass --resume to execute only the missing shards, or remove {}",
                        plan.len() - pending,
                        plan.len(),
                        study.dir().display()
                    ));
                }
            }
            let out = vulfi_orch::run_study_persistent(
                &prog,
                w,
                w.name(),
                &spec.isa,
                &cfg,
                &store,
                vulfi_orch::RunOptions {
                    shard_size: spec.shard_size,
                    max_shards: None,
                    progress: None,
                    trace: flags.trace.as_ref().map(std::path::PathBuf::from),
                },
            )
            .map_err(|e| e.to_string())?;
            let r = out
                .result
                .ok_or_else(|| "cell incomplete after run (store corrupted?)".to_string())?;
            // `prune = "verify"` cells run unpruned; cross-validate the
            // analyzer's predictions against the stored records so the
            // prediction_soundness invariant has data to judge.
            let soundness = if scenario.prune == "verify" {
                let done = store.study(&out.key).shards().map_err(|e| e.to_string())?;
                Some(vulfi_orch::verify_soundness(w, &done).map_err(|e| e.to_string())?)
            } else {
                None
            };
            Ok((out.key, r, soundness))
        })?;
        let (key, result, soundness) = cell;
        verdicts.push(vulfi_orch::cell_verdict(
            spec,
            &key.0,
            &result,
            &scenario.invariants,
            soundness.as_ref(),
        ));
    }
    let report = vulfi_orch::GauntletReport {
        scenario: scenario.name.clone(),
        cells: verdicts,
    };
    if flags.json {
        println!(
            "{}",
            vulfi_orch::render_verdicts_json(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", vulfi_orch::render_verdicts(&report));
    }
    report_engine_faults();
    if let Some(path) = &flags.metrics_out {
        write_metrics(path)?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if !report.passed() {
        return Err(format!(
            "gauntlet '{}': {} invariant breach(es)",
            scenario.name,
            report.breaches()
        ));
    }
    Ok(())
}

/// `vulfi gauntlet report`: judge an already-executed gauntlet from the
/// store (no execution) and render the verdicts into the HTML report.
fn gauntlet_report(flags: &Flags) -> Result<(), String> {
    let scenario = load_scenario(flags)?;
    let store = vulfi_orch::Store::open(&flags.store).map_err(|e| e.to_string())?;
    let mut verdicts = Vec::new();
    for spec in scenario.expand() {
        let cell = with_cell_workload(&spec, |w| {
            let category = spec.site_category()?;
            let cfg = spec.study_config();
            let mut prog = vulfi::prepare(w, category).map_err(|e| e.to_string())?;
            prog.model = cfg.model;
            let key = vulfi_orch::study_key(&prog, w.name(), &spec.isa, &cfg);
            let study = store.study(&key);
            let cell_name = format!(
                "{}/{}/{}/{}",
                spec.bench, spec.isa, spec.category, spec.model
            );
            if !study.exists() {
                return Err(format!(
                    "cell {cell_name} ({key}) not in store; run `vulfi gauntlet run` first"
                ));
            }
            let done = study.shards().map_err(|e| e.to_string())?;
            let r = vulfi_orch::merge(&cfg, category, &done).ok_or_else(|| {
                format!("cell {cell_name} ({key}) is partial; finish it with `vulfi gauntlet run --resume`")
            })?;
            let soundness = if scenario.prune == "verify" {
                Some(vulfi_orch::verify_soundness(w, &done).map_err(|e| e.to_string())?)
            } else {
                None
            };
            Ok((key, r, soundness))
        })?;
        let (key, result, soundness) = cell;
        verdicts.push(vulfi_orch::cell_verdict(
            &spec,
            &key.0,
            &result,
            &scenario.invariants,
            soundness.as_ref(),
        ));
    }
    let report = vulfi_orch::GauntletReport {
        scenario: scenario.name.clone(),
        cells: verdicts,
    };
    let html = vulfi_orch::html_from_stores(
        &format!("vulfi gauntlet: {}", scenario.name),
        Some(&store),
        None,
        None,
        &[],
        &[],
        &[],
        Some(&report),
        flags.top,
    )
    .map_err(|e| e.to_string())?;
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| "results/gauntlet.html".to_string());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    fs::write(&out, &html).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out} ({} bytes)", html.len());
    print!("{}", vulfi_orch::render_verdicts(&report));
    Ok(())
}

/// `vulfi bench`: bounded campaigns over the micro-benchmarks, reporting
/// throughput; `--record` writes the machine-readable `BENCH_report.json`.
fn bench_cmd(flags: &Flags) -> Result<(), String> {
    let names: Vec<String> = match &flags.bench {
        Some(n) => vec![n.clone()],
        None => vbench::MICRO_NAMES.iter().map(|n| n.to_string()).collect(),
    };
    let experiments = flags.experiments.unwrap_or(40);
    let mut docs = Vec::new();
    for name in &names {
        let w = load_bench(name, flags.isa)?;
        let prog = vulfi::prepare(&w, flags.category.unwrap_or(SiteCategory::PureData))
            .map_err(|e| e.to_string())?;
        let c =
            vulfi::run_campaign(&prog, &w, experiments, flags.seed).map_err(|e| e.to_string())?;
        let (exp_per_sec, wall_ns) = median_throughput(experiments, || {
            vulfi::run_campaign(&prog, &w, experiments, flags.seed).map_err(|e| e.to_string())?;
            Ok(())
        })?;
        let dyn_insts: u64 = c.experiments.iter().map(|e| e.golden_dyn_insts).sum();
        let dyn_insts_per_sec = exp_per_sec * dyn_insts as f64 / experiments.max(1) as f64;
        println!(
            "{:14} [{}]: {} experiments — {:.0} exp/s (median of {BENCH_WINDOWS} windows), \
             {:.1}M dyn-inst/s, SDC {:.1}%",
            name,
            isa_name(flags.isa),
            experiments,
            exp_per_sec,
            dyn_insts_per_sec / 1e6,
            c.counts.sdc_rate()
        );
        // One profiled golden run per bench: the opcode-mix summary in
        // the recording is what lets the history tell *why* throughput
        // moved (instruction mix shift vs engine speed).
        let mix_doc = {
            let mut interp = vexec::Interp::new(w.module());
            interp.enable_profiling();
            let setup = w
                .setup(&mut interp.mem, 0)
                .map_err(|t| format!("setup failed: {t}"))?;
            interp
                .run(w.entry(), &setup.args, &mut vexec::NoHost)
                .map_err(|t| format!("golden run trapped: {t}"))?;
            let mix = interp.take_mix().expect("profiling enabled");
            let ops: Vec<serde_json::Value> = mix
                .hottest()
                .into_iter()
                .take(5)
                .map(|(op, n)| serde_json::json!({ "opcode": op, "count": n }))
                .collect();
            serde_json::json!({
                "golden_dyn_insts": mix.total,
                "vector_pct": mix.vector_pct(),
                "top_opcodes": serde_json::Value::Array(ops),
            })
        };
        docs.push(serde_json::json!({
            "name": name.clone(),
            "isa": isa_name(flags.isa),
            "experiments": experiments as u64,
            "wall_ns": wall_ns,
            "exp_per_sec": exp_per_sec,
            "dyn_insts": dyn_insts,
            "dyn_insts_per_sec": dyn_insts_per_sec,
            "sdc_rate": c.counts.sdc_rate(),
            "opcode_mix": mix_doc,
        }));
        // `--prune`: time the same experiment range with statically
        // discharged injections skipped, recorded as a separate bench
        // entry so the trajectory carries the pruned-vs-full pair. The
        // one-time analyzer/census setup is recorded but not counted in
        // exp/s — a real study amortizes it over every campaign.
        if flags.prune.is_some() {
            if flags.prune.as_deref() != Some("on") {
                return Err("bench supports only --prune / --prune=on".to_string());
            }
            let setup = std::time::Instant::now();
            let ctx = vulfi::build_prune_context(&prog, &w).map_err(|e| e.to_string())?;
            let setup_ns = setup.elapsed().as_nanos() as u64;
            let run = || {
                vulfi::run_experiment_range_pruned(&prog, &w, &ctx, flags.seed, 0..experiments)
                    .map_err(|e| e.to_string())
            };
            let exps = run()?;
            let (pruned_exp_per_sec, pruned_wall_ns) =
                median_throughput(experiments, || run().map(drop))?;
            let mut counts = vulfi::OutcomeCounts::default();
            for e in &exps {
                counts.add(e);
            }
            let discharged = exps
                .iter()
                .filter(|e| e.injection.is_none() && e.dynamic_sites > 0)
                .count();
            let discharged_pct = 100.0 * discharged as f64 / experiments.max(1) as f64;
            let pruned_dyn_insts: u64 = exps.iter().map(|e| e.golden_dyn_insts).sum();
            println!(
                "{:14} [{}]: pruned {} experiments — {:.0} exp/s ({:.1}% discharged, {:.1}x vs full)",
                format!("{name} [pruned]"),
                isa_name(flags.isa),
                experiments,
                pruned_exp_per_sec,
                discharged_pct,
                pruned_exp_per_sec / exp_per_sec.max(1e-9),
            );
            docs.push(serde_json::json!({
                "name": format!("{name} [pruned]"),
                "isa": isa_name(flags.isa),
                "experiments": experiments as u64,
                "wall_ns": pruned_wall_ns,
                "exp_per_sec": pruned_exp_per_sec,
                "dyn_insts": pruned_dyn_insts,
                "dyn_insts_per_sec": pruned_exp_per_sec * pruned_dyn_insts as f64
                    / experiments.max(1) as f64,
                "sdc_rate": counts.sdc_rate(),
                "prune": true,
                "static_discharged": discharged as u64,
                "static_discharged_pct": discharged_pct,
                "prune_setup_ns": setup_ns,
            }));
        }
    }
    report_engine_faults();
    if flags.record {
        let out = flags
            .out
            .clone()
            .unwrap_or_else(|| "BENCH_report.json".to_string());
        let doc = serde_json::json!({ "benches": serde_json::Value::Array(docs.clone()) });
        fs::write(&out, serde_json::to_string_pretty(&doc).unwrap())
            .map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out}");
        // The snapshot report is overwritten every recording; the
        // history is cumulative — one JSONL line per recording, so the
        // perf trajectory is a trajectory.
        let hist = std::path::Path::new(&out).with_file_name("BENCH_history.jsonl");
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let line = serde_json::json!({
            "unix_ms": unix_ms,
            "isa": isa_name(flags.isa),
            "experiments": experiments as u64,
            "seed": flags.seed,
            "benches": serde_json::Value::Array(docs.clone()),
        });
        use std::io::Write;
        let mut fh = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&hist)
            .map_err(|e| format!("{}: {e}", hist.display()))?;
        writeln!(fh, "{}", serde_json::to_string(&line).unwrap())
            .map_err(|e| format!("{}: {e}", hist.display()))?;
        eprintln!("appended recording to {}", hist.display());
    }
    if let Some(baseline) = &flags.check {
        check_bench_regression(baseline, &docs)?;
    }
    Ok(())
}

/// Throughput the CI gate compares: how many regressions matter more
/// than absolute speed, so a >30% drop in exp/s against the committed
/// baseline fails the run.
const BENCH_REGRESSION_TOLERANCE: f64 = 0.30;

/// Throughput is the median exp/s over this many timing windows...
const BENCH_WINDOWS: usize = 5;

/// ...each running whole experiment batches for at least this long, so
/// one scheduling hiccup moves one window, not the verdict.
const BENCH_WINDOW: std::time::Duration = std::time::Duration::from_millis(500);

/// Median exp/s of `run`, which executes `experiments` experiments per
/// call, over [`BENCH_WINDOWS`] windows of at least [`BENCH_WINDOW`];
/// also the total nanoseconds measured.
fn median_throughput(
    experiments: usize,
    mut run: impl FnMut() -> Result<(), String>,
) -> Result<(f64, u64), String> {
    let mut rates = Vec::with_capacity(BENCH_WINDOWS);
    let mut total_ns = 0;
    for _ in 0..BENCH_WINDOWS {
        let started = std::time::Instant::now();
        let mut done = 0;
        while done == 0 || started.elapsed() < BENCH_WINDOW {
            run()?;
            done += experiments;
        }
        let ns = started.elapsed().as_nanos() as u64;
        total_ns += ns;
        rates.push(done as f64 / (ns as f64 / 1e9).max(1e-9));
    }
    rates.sort_by(f64::total_cmp);
    Ok((rates[rates.len() / 2], total_ns))
}

/// The deterministic counters of a bench entry, as JSON paths. They
/// follow from the program, the seed and the experiment count alone, so
/// `--check` holds them to the baseline exactly: a moved counter is a
/// behaviour change (or a deliberate re-record), never noise.
const BENCH_COUNTERS: [&str; 4] = [
    "dyn_insts",
    "sdc_rate",
    "static_discharged",
    "opcode_mix.golden_dyn_insts",
];

/// `vulfi bench --check BASELINE`: compare this run against a recorded
/// `BENCH_report.json`. Every deterministic counter the baseline records
/// must match exactly (a mismatch names the field), and throughput may
/// not fall more than 30% below the baseline's. Benches absent from the
/// baseline are reported but never fail — adding a benchmark must not
/// break CI until the baseline is re-recorded.
fn check_bench_regression(path: &str, docs: &[serde_json::Value]) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let base: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let base = base
        .get("benches")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{path}: no 'benches' array (not a bench report?)"))?;
    let field =
        |v: &serde_json::Value, k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
    let at = |v: &serde_json::Value, path: &str| {
        path.split('.')
            .try_fold(v, |v, k| v.get(k))
            .and_then(|x| x.as_f64())
    };
    let mut failures = Vec::new();
    for doc in docs {
        let (Some(name), Some(isa)) = (field(doc, "name"), field(doc, "isa")) else {
            continue;
        };
        let Some(was_doc) = base.iter().find(|b| {
            field(b, "name").as_deref() == Some(&name) && field(b, "isa").as_deref() == Some(&isa)
        }) else {
            println!("  check {name} [{isa}]: no baseline entry, skipped");
            continue;
        };
        for counter in BENCH_COUNTERS {
            let Some(was) = at(was_doc, counter) else {
                continue;
            };
            let now = at(doc, counter);
            if now != Some(was) {
                let now = now.map_or("missing".to_string(), |n| n.to_string());
                println!("  check {name} [{isa}]: {counter} {now} != baseline {was} MOVED");
                failures.push(format!("{name} [{isa}]: {counter} {now} != baseline {was}"));
            }
        }
        let now = doc
            .get("exp_per_sec")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let Some(was) = was_doc.get("exp_per_sec").and_then(|v| v.as_f64()) else {
            continue;
        };
        let floor = was * (1.0 - BENCH_REGRESSION_TOLERANCE);
        let verdict = if now < floor { "REGRESSED" } else { "ok" };
        println!(
            "  check {name} [{isa}]: {now:.0} exp/s vs baseline {was:.0} (floor {floor:.0}) {verdict}"
        );
        if now < floor {
            failures.push(format!(
                "{name} [{isa}]: {now:.0} exp/s < {floor:.0} (baseline {was:.0}), \
                 regressed >{:.0}%",
                100.0 * BENCH_REGRESSION_TOLERANCE
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "bench check against {path} failed:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// `vulfi bench trend`: read the cumulative `BENCH_history.jsonl` next
/// to the report path (`-o`, default `BENCH_report.json`) and print each
/// bench's exp/s trajectory — first → latest with deltas — flagging any
/// bench whose throughput declined monotonically over the last three
/// recordings. Unlike `bench --check` this runs nothing; it only reads
/// history, so it is cheap enough for every CI run.
/// True when exp/s fell across each of the last three recordings — a
/// sustained decline, not one noisy run.
fn monotone_regression(points: &[f64]) -> bool {
    points.len() >= 3 && points[points.len() - 3..].windows(2).all(|w| w[1] < w[0])
}

fn bench_trend(flags: &Flags) -> Result<(), String> {
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_report.json".to_string());
    let hist = std::path::Path::new(&out).with_file_name("BENCH_history.jsonl");
    let text = fs::read_to_string(&hist).map_err(|e| {
        format!(
            "{}: {e} (run `vulfi bench --record` to start a history)",
            hist.display()
        )
    })?;
    // (name, isa) → oldest-first exp/s trajectory, in file order — the
    // history is append-only so file order is recording order.
    let mut series: Vec<((String, String), Vec<f64>)> = Vec::new();
    let mut recordings = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("{} line {}: {e}", hist.display(), lineno + 1))?;
        recordings += 1;
        let benches = doc
            .get("benches")
            .and_then(|v| v.as_array())
            .unwrap_or_default();
        for b in benches {
            let (Some(name), Some(isa)) = (
                b.get("name").and_then(|v| v.as_str()),
                b.get("isa").and_then(|v| v.as_str()),
            ) else {
                continue;
            };
            if flags.bench.as_deref().is_some_and(|want| want != name) {
                continue;
            }
            let Some(eps) = b.get("exp_per_sec").and_then(|v| v.as_f64()) else {
                continue;
            };
            let key = (name.to_string(), isa.to_string());
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(eps),
                None => series.push((key, vec![eps])),
            }
        }
    }
    if series.is_empty() {
        return Err(format!(
            "{}: no bench entries{} in {recordings} recording(s)",
            hist.display(),
            flags
                .bench
                .as_deref()
                .map(|b| format!(" matching --bench {b}"))
                .unwrap_or_default()
        ));
    }
    let pct = |now: f64, was: f64| 100.0 * (now - was) / was.max(1e-9);
    let mut regressing: Vec<String> = Vec::new();
    let mut docs: Vec<serde_json::Value> = Vec::new();
    for ((name, isa), points) in &series {
        let n = points.len();
        let (first, latest) = (points[0], points[n - 1]);
        let prev = if n >= 2 { Some(points[n - 2]) } else { None };
        let monotone_down = monotone_regression(points);
        if monotone_down {
            regressing.push(format!("{name} [{isa}]"));
        }
        if flags.json {
            let opt = |v: Option<f64>| {
                v.map(serde_json::Value::from)
                    .unwrap_or(serde_json::Value::Null)
            };
            docs.push(serde_json::json!({
                "name": name.clone(),
                "isa": isa.clone(),
                "recordings": n as u64,
                "first_exp_per_sec": first,
                "prev_exp_per_sec": opt(prev),
                "latest_exp_per_sec": latest,
                "delta_pct_vs_prev": opt(prev.map(|p| pct(latest, p))),
                "delta_pct_overall": pct(latest, first),
                "monotone_regression": monotone_down,
            }));
        } else {
            let vs_prev = match prev {
                Some(p) => format!("{:+.1}% vs prev", pct(latest, p)),
                None => "only one recording".to_string(),
            };
            println!(
                "  {:22} [{}] {:>2} rec  {:>7.0} → {:>7.0} exp/s ({}, {:+.1}% overall){}",
                name,
                isa,
                n,
                first,
                latest,
                vs_prev,
                pct(latest, first),
                if monotone_down { "  REGRESSING" } else { "" }
            );
        }
    }
    if flags.json {
        let doc = serde_json::json!({
            "history": hist.display().to_string(),
            "recordings": recordings,
            "benches": serde_json::Value::Array(docs),
        });
        println!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else if regressing.is_empty() {
        println!("no monotone regressions over the last 3 recordings");
    } else {
        println!(
            "REGRESSING (exp/s fell across each of the last 3 recordings): {}",
            regressing.join(", ")
        );
    }
    Ok(())
}

/// `vulfi serve`: run the injection daemon until a signal or
/// `POST /shutdown` drains it.
fn serve_cmd(flags: &Flags) -> Result<(), String> {
    let cfg = vulfi_serve::ServeConfig {
        addr: flags.addr.clone(),
        store: std::path::PathBuf::from(&flags.store),
        workers: flags.workers,
        lease_ttl: std::time::Duration::from_millis(flags.lease_ttl_ms.max(1)),
        telemetry_interval: std::time::Duration::from_millis(flags.telemetry_interval_ms),
        alert_rules: flags.rules.clone().map(std::path::PathBuf::from),
    };
    vulfi_serve::install_shutdown_signals();
    let daemon = vulfi_serve::Daemon::bind(&cfg)?;
    let addr = daemon.local_addr()?;
    println!(
        "vulfi serve listening on {addr} ({} worker(s), store {}, lease TTL {}ms)",
        flags.workers, flags.store, flags.lease_ttl_ms
    );
    // Shell scripts discover ephemeral ports from the store, not stdout.
    eprintln!("address also written to {}/serve.addr", flags.store);
    daemon.run()
}

/// Build the wire spec from the same flags `vulfi study` takes.
fn spec_from_flags(flags: &Flags) -> Result<vulfi::StudySpec, String> {
    let spec = vulfi::StudySpec {
        bench: flags.bench.clone().ok_or("submit requires --bench")?,
        isa: isa_name(flags.isa).to_string(),
        category: flags
            .category
            .unwrap_or(SiteCategory::PureData)
            .name()
            .to_string(),
        scale: flags.scale.clone(),
        experiments: flags.experiments.unwrap_or(25),
        campaigns: flags.campaigns,
        seed: flags.seed,
        shard_size: flags.shard_size,
        detectors: flags.detectors,
        model: flags
            .model
            .clone()
            .unwrap_or_else(|| vulfi::FaultModel::default().name()),
        prune: match flags.prune.as_deref() {
            None => false,
            Some("on") => true,
            Some(other) => {
                return Err(format!(
                    "submit supports only --prune / --prune=on, not --prune={other} \
                     (run --prune=verify locally with `vulfi study`)"
                ))
            }
        },
    };
    spec.validate()?;
    Ok(spec)
}

/// `vulfi submit`: enqueue a study on a running daemon; with `--wait`,
/// poll it to completion and print the result.
fn submit_cmd(flags: &Flags) -> Result<(), String> {
    let spec = spec_from_flags(flags)?;
    let client = vulfi_serve::Client::new(flags.addr.clone());
    let body = serde_json::to_value(&spec).map_err(|e| e.to_string())?;
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(t) = &flags.tenant {
        headers.push(("X-Vulfi-Tenant", t));
    }
    let (status, doc) = client.post("/studies", &body, &headers)?;
    if status != 202 {
        return Err(format!(
            "submit rejected ({status}): {}",
            vulfi_serve::Client::error_of(&doc)
        ));
    }
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .ok_or("daemon response has no key")?
        .to_string();
    let job = doc.get("job").and_then(|v| v.as_u64()).unwrap_or(0);
    if flags.json && !flags.wait {
        println!("{}", serde_json::to_string_pretty(&doc).unwrap());
        return Ok(());
    }
    println!("job {job} queued as study {key}");
    if flags.wait {
        let doc = poll_study(&client, &key)?;
        print_status_doc(&doc, flags.json);
    }
    Ok(())
}

/// Poll `GET /studies/:key` until the merged result appears or the job
/// fails, echoing progress to stderr.
fn poll_study(client: &vulfi_serve::Client, key: &str) -> Result<serde_json::Value, String> {
    let mut last_done = u64::MAX;
    loop {
        let (status, doc) = client.get(&format!("/studies/{key}"))?;
        if status != 200 {
            return Err(format!(
                "status poll failed ({status}): {}",
                vulfi_serve::Client::error_of(&doc)
            ));
        }
        if doc.get("state").and_then(|v| v.as_str()) == Some("failed") {
            let reason = doc
                .get("job")
                .and_then(|j| j.get("error"))
                .and_then(|v| v.as_str())
                .unwrap_or("unknown reason");
            return Err(format!("study {key} failed: {reason}"));
        }
        if doc.get("result").is_some() {
            return Ok(doc);
        }
        if let Some(p) = doc.get("progress") {
            let done = p.get("done").and_then(|v| v.as_u64()).unwrap_or(0);
            if done != last_done {
                last_done = done;
                let total = p.get("total").and_then(|v| v.as_u64()).unwrap_or(0);
                let eta = p
                    .get("eta_secs")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::INFINITY);
                eprintln!(
                    "[{done:>6}/{total}] ETA {}",
                    if eta.is_finite() {
                        format!("{eta:.1}s")
                    } else {
                        "?".to_string()
                    }
                );
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
    }
}

/// Render a status document for humans (or verbatim with `--json`).
fn print_status_doc(doc: &serde_json::Value, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(doc).unwrap());
        return;
    }
    let sget = |k: &str| {
        doc.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let uget = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    println!(
        "study {} — {} [{}] {} — {} ({}/{} experiments)",
        sget("key"),
        sget("workload"),
        sget("isa"),
        sget("category"),
        sget("state"),
        uget("covered"),
        uget("total")
    );
    if let Some(c) = doc.get("counts") {
        let g = |k: &str| c.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        println!(
            "counts: SDC {} Benign {} Crash {}",
            g("sdc"),
            g("benign"),
            g("crash")
        );
    }
    if let Some(r) = doc.get("result") {
        println!(
            "SDC {:.1}% ± {:.1} over {} campaigns ({})",
            r.get("mean_sdc").and_then(|v| v.as_f64()).unwrap_or(0.0),
            r.get("margin_95").and_then(|v| v.as_f64()).unwrap_or(0.0),
            r.get("campaigns").and_then(|v| v.as_u64()).unwrap_or(0),
            if r.get("converged")
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
            {
                "converged"
            } else {
                "not converged"
            }
        );
    }
}

/// `vulfi status [KEY]`: one study's status (or its analytics report
/// with `--report`), or the whole job table without a key.
fn status_cmd(flags: &Flags) -> Result<(), String> {
    let client = vulfi_serve::Client::new(flags.addr.clone());
    match flags.positional.first() {
        Some(key) if flags.report => {
            let (status, doc) = client.get(&format!("/studies/{key}/report"))?;
            if status != 200 {
                return Err(format!(
                    "report unavailable ({status}): {}",
                    vulfi_serve::Client::error_of(&doc)
                ));
            }
            println!("{}", serde_json::to_string_pretty(&doc).unwrap());
            Ok(())
        }
        Some(key) => {
            let (status, doc) = client.get(&format!("/studies/{key}"))?;
            if status != 200 {
                return Err(format!(
                    "status unavailable ({status}): {}",
                    vulfi_serve::Client::error_of(&doc)
                ));
            }
            print_status_doc(&doc, flags.json);
            Ok(())
        }
        None => {
            let (status, doc) = client.get("/jobs")?;
            if status != 200 {
                return Err(format!("jobs unavailable ({status})"));
            }
            if flags.json {
                println!("{}", serde_json::to_string_pretty(&doc).unwrap());
                return Ok(());
            }
            let jobs = doc.get("jobs").and_then(|v| v.as_array()).unwrap_or(&[]);
            if jobs.is_empty() {
                println!("no jobs on {}", flags.addr);
            }
            for j in jobs {
                let s = |k: &str| j.get(k).and_then(|v| v.as_str()).unwrap_or("-").to_string();
                println!(
                    "job {:>3}  {:9}  {}  {} [{}] {}  tenant {}",
                    j.get("id").and_then(|v| v.as_u64()).unwrap_or(0),
                    s("state"),
                    s("key"),
                    s("bench"),
                    s("isa"),
                    s("category"),
                    s("tenant"),
                );
            }
            Ok(())
        }
    }
}

/// `vulfi shutdown`: ask a running daemon to drain gracefully.
fn shutdown_cmd(flags: &Flags) -> Result<(), String> {
    let client = vulfi_serve::Client::new(flags.addr.clone());
    let (status, doc) = client.post("/shutdown", &serde_json::json!({}), &[])?;
    if status != 200 {
        return Err(format!(
            "shutdown failed ({status}): {}",
            vulfi_serve::Client::error_of(&doc)
        ));
    }
    println!("shutdown requested on {}", flags.addr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("vulfi_cli_test_{name}"));
        fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const KERNEL: &str = r#"
export void scale(uniform float a[], uniform int n, uniform float s) {
    foreach (i = 0 ... n) {
        a[i] = a[i] * s;
    }
}
"#;

    #[test]
    fn flags_parse() {
        let f = parse_flags(&s(&[
            "input.spmd",
            "--isa",
            "sse",
            "--category",
            "addr",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(f.isa, VectorIsa::Sse4);
        assert_eq!(f.category, Some(SiteCategory::Address));
        assert_eq!(f.seed, 9);
        assert_eq!(f.positional, vec!["input.spmd".to_string()]);
        assert!(parse_flags(&s(&["--isa", "mips"])).is_err());
        assert!(parse_flags(&s(&["--category", "weird"])).is_err());
        assert!(parse_flags(&s(&["--nope"])).is_err());
    }

    #[test]
    fn compile_and_sites_commands() {
        let path = write_temp("scale.spmd", KERNEL);
        run(&s(&["compile", &path])).unwrap();
        run(&s(&["sites", &path, "--isa", "avx"])).unwrap();
        // Output-to-file path.
        let out = std::env::temp_dir().join("vulfi_cli_test_out.vir");
        run(&s(&["compile", &path, "-o", out.to_str().unwrap()])).unwrap();
        let text = fs::read_to_string(&out).unwrap();
        assert!(text.contains("define void @scale"));
        // The emitted .vir file loads back.
        run(&s(&["sites", out.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn instrument_and_detect_commands() {
        let path = write_temp("scale2.spmd", KERNEL);
        let out = std::env::temp_dir().join("vulfi_cli_test_instr.vir");
        run(&s(&[
            "instrument",
            &path,
            "--category",
            "control",
            "-o",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(fs::read_to_string(&out).unwrap().contains("@vulfi.inject"));
        let out2 = std::env::temp_dir().join("vulfi_cli_test_det.vir");
        run(&s(&[
            "detect",
            &path,
            "--uniform",
            "-o",
            out2.to_str().unwrap(),
        ]))
        .unwrap();
        let text = fs::read_to_string(&out2).unwrap();
        assert!(text.contains("@vulfi.check.foreach"));
        assert!(text.contains("@vulfi.check.uniform"));
    }

    #[test]
    fn campaign_profile_and_list_commands() {
        run(&s(&["list"])).unwrap();
        run(&s(&[
            "campaign",
            "--bench",
            "vector sum",
            "--category",
            "control",
            "--experiments",
            "20",
            "--detectors",
        ]))
        .unwrap();
        run(&s(&["profile", "--bench", "Blackscholes", "--isa", "sse"])).unwrap();
        assert!(run(&s(&["campaign", "--bench", "NoSuch"])).is_err());
        assert!(run(&s(&["bogus-subcommand"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_flag_error_includes_usage() {
        let e = parse_flags(&s(&["--definitely-not-a-flag"])).unwrap_err();
        assert!(e.contains("usage:"), "{e}");
        assert!(e.contains("vulfi study"), "{e}");
    }

    #[test]
    fn unknown_command_suggests_the_closest_one() {
        // The canonical typo this guards against: `vulfi serv`.
        let e = run(&s(&["serv"])).unwrap_err();
        assert!(e.contains("unknown command 'serv'"), "{e}");
        assert!(e.contains("did you mean 'serve'?"), "{e}");
        assert!(e.contains("usage:"), "{e}");

        let e = run(&s(&["stduy"])).unwrap_err();
        assert!(e.contains("did you mean 'study'?"), "{e}");

        // Nothing close: no bogus suggestion, still an error with usage.
        let e = run(&s(&["frobnicate"])).unwrap_err();
        assert!(!e.contains("did you mean"), "{e}");
        assert!(e.contains("usage:"), "{e}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("serve", "serve"), 0);
        assert_eq!(edit_distance("serv", "serve"), 1);
        assert_eq!(edit_distance("sreve", "serve"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(suggest_command("xyzzy"), None);
        assert_eq!(suggest_command("submti"), Some("submit"));
    }

    #[test]
    fn command_table_drives_usage_dispatch_and_suggestions() {
        let u = usage();
        for c in COMMAND_TABLE {
            // Every row is documented ...
            let line = match c.sub {
                Some(sub) => format!("vulfi {} {sub}", c.name),
                None => format!("vulfi {}", c.name),
            };
            assert!(u.contains(&line), "usage misses `{line}`:\n{u}");
            // ... and dispatches to itself.
            let positional: Vec<String> = c.sub.iter().map(|w| w.to_string()).collect();
            let row = lookup(c.name, &positional).unwrap();
            assert!(std::ptr::eq(row, c), "`{line}` dispatches elsewhere");
            // A one-edit typo (last letter dropped) gets a suggestion.
            let typo = &c.name[..c.name.len() - 1];
            let e = run(&s(&[typo])).unwrap_err();
            assert!(e.contains(&format!("did you mean '{}'?", c.name)), "{e}");
            if let Some(sub) = c.sub {
                let e = lookup(c.name, &s(&[&sub[..sub.len() - 1]])).unwrap_err();
                assert!(e.contains(&format!("did you mean '{sub}'?")), "{e}");
            }
        }
        // A bare group without a bare form lists its subcommands.
        for c in COMMAND_TABLE.iter().filter(|c| c.sub.is_some()) {
            if COMMAND_TABLE
                .iter()
                .any(|o| o.name == c.name && o.sub.is_none())
            {
                continue;
            }
            let e = run(&s(&[c.name])).unwrap_err();
            assert!(e.contains(&format!("{} needs a subcommand", c.name)), "{e}");
            assert!(e.contains(c.sub.unwrap()), "{e}");
        }
    }

    #[test]
    fn usage_documents_flags_and_subcommands_name_missing_flags() {
        // `check` without --rules points at the missing flag.
        let e = run(&s(&["alerts", "check"])).unwrap_err();
        assert!(e.contains("--rules"), "{e}");
        // `trace export` without --chrome explains the only format.
        let e = run(&s(&["trace", "export"])).unwrap_err();
        assert!(e.contains("--chrome"), "{e}");
        let u = usage();
        assert!(u.contains("--hotspots"), "{u}");
        assert!(u.contains("vulfi trace export --chrome"), "{u}");
        assert!(u.contains("--rules FILE"), "{u}");
        assert!(u.contains("--telemetry-interval-ms"), "{u}");
    }

    #[test]
    fn telemetry_flags_parse() {
        let f = parse_flags(&s(&[
            "--rules",
            "alerts.toml",
            "--telemetry-interval-ms",
            "250",
            "--chrome",
        ]))
        .unwrap();
        assert_eq!(f.rules.as_deref(), Some("alerts.toml"));
        assert_eq!(f.telemetry_interval_ms, 250);
        assert!(f.chrome);
        let d = parse_flags(&[]).unwrap();
        assert_eq!(d.telemetry_interval_ms, 1_000);
        assert!(d.rules.is_none() && !d.chrome);
        assert!(parse_flags(&s(&["--telemetry-interval-ms", "fast"])).is_err());
    }

    #[test]
    fn monotone_regression_needs_three_strict_declines() {
        assert!(monotone_regression(&[300.0, 200.0, 100.0]));
        assert!(monotone_regression(&[999.0, 300.0, 200.0, 100.0]));
        // Recovery on the latest recording clears the flag.
        assert!(!monotone_regression(&[300.0, 200.0, 250.0]));
        // A flat pair is not a decline.
        assert!(!monotone_regression(&[300.0, 200.0, 200.0]));
        // Too little history to call it a trend.
        assert!(!monotone_regression(&[200.0, 100.0]));
        assert!(!monotone_regression(&[]));
    }

    #[test]
    fn bench_trend_reads_history_and_flags_monotone_regressions() {
        let dir = std::env::temp_dir().join(format!("vulfi_cli_trend_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let report = dir.join("BENCH_report.json");
        let hist = dir.join("BENCH_history.jsonl");
        let line = |eps: f64, other: f64| {
            format!(
                "{{\"unix_ms\":1,\"benches\":[\
                 {{\"name\":\"dot product\",\"isa\":\"avx\",\"exp_per_sec\":{eps}}},\
                 {{\"name\":\"vector sum\",\"isa\":\"avx\",\"exp_per_sec\":{other}}}]}}\n"
            )
        };
        // dot product decays monotonically; vector sum recovers.
        fs::write(
            &hist,
            format!(
                "{}{}{}",
                line(300.0, 100.0),
                line(200.0, 90.0),
                line(100.0, 120.0)
            ),
        )
        .unwrap();
        let f = parse_flags(&s(&["trend", "-o", report.to_str().unwrap()])).unwrap();
        bench_trend(&f).unwrap();
        let f = parse_flags(&s(&[
            "trend",
            "-o",
            report.to_str().unwrap(),
            "--bench",
            "no such bench",
        ]))
        .unwrap();
        assert!(bench_trend(&f).unwrap_err().contains("no bench entries"));
        // Missing history names the file and the bootstrap command.
        let empty = dir.join("empty");
        fs::create_dir_all(&empty).unwrap();
        let f = parse_flags(&s(&[
            "trend",
            "-o",
            empty.join("nope.json").to_str().unwrap(),
        ]))
        .unwrap();
        let e = bench_trend(&f).unwrap_err();
        assert!(e.contains("BENCH_history.jsonl"), "{e}");
        assert!(e.contains("bench --record"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hotspots_flag_parses() {
        let f = parse_flags(&s(&["--bench", "Blackscholes", "--hotspots", "--top", "3"])).unwrap();
        assert!(f.hotspots);
        assert_eq!(f.top, 3);
        assert!(!parse_flags(&s(&["--bench", "x"])).unwrap().hotspots);
    }

    #[test]
    fn serve_flags_parse() {
        let f = parse_flags(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--lease-ttl-ms",
            "500",
            "--tenant",
            "alice",
            "--scale",
            "paper",
            "--wait",
            "--report",
            "--check",
            "BENCH_report.json",
        ]))
        .unwrap();
        assert_eq!(f.addr, "127.0.0.1:0");
        assert_eq!(f.workers, 4);
        assert_eq!(f.lease_ttl_ms, 500);
        assert_eq!(f.tenant.as_deref(), Some("alice"));
        assert_eq!(f.scale, "paper");
        assert!(f.wait && f.report);
        assert_eq!(f.check.as_deref(), Some("BENCH_report.json"));
        assert!(parse_flags(&s(&["--workers", "zero"])).is_err());
    }

    #[test]
    fn submit_spec_mirrors_study_flags() {
        let f = parse_flags(&s(&[
            "--bench",
            "vector sum",
            "--isa",
            "sse",
            "--category",
            "control",
            "--experiments",
            "10",
            "--campaigns",
            "3",
            "--seed",
            "7",
            "--shard-size",
            "5",
            "--detectors",
        ]))
        .unwrap();
        let spec = spec_from_flags(&f).unwrap();
        assert_eq!(spec.bench, "vector sum");
        assert_eq!(spec.isa, "sse");
        assert_eq!(spec.category, "control");
        assert_eq!((spec.experiments, spec.campaigns, spec.seed), (10, 3, 7));
        assert_eq!(spec.shard_size, 5);
        assert!(spec.detectors);

        // Bad scale is caught client-side, before any network traffic.
        let mut f = f;
        f.scale = "huge".to_string();
        assert!(spec_from_flags(&f).is_err());
        f.scale = "test".to_string();
        f.bench = None;
        assert!(spec_from_flags(&f).unwrap_err().contains("--bench"));
    }

    #[test]
    fn bench_check_gates_on_regression() {
        let baseline = write_temp(
            "bench_baseline.json",
            r#"{"benches": [
                {"name": "vector sum", "isa": "avx", "exp_per_sec": 1000.0},
                {"name": "dot product", "isa": "avx", "exp_per_sec": 500.0}
            ]}"#,
        );
        let docs = |sum: f64, dot: f64| {
            vec![
                serde_json::json!({"name": "vector sum", "isa": "avx", "exp_per_sec": sum}),
                serde_json::json!({"name": "dot product", "isa": "avx", "exp_per_sec": dot}),
            ]
        };
        // At or above the 70% floor: passes (faster is always fine).
        check_bench_regression(&baseline, &docs(701.0, 2000.0)).unwrap();
        // One bench below the floor: fails and names it.
        let e = check_bench_regression(&baseline, &docs(699.0, 500.0)).unwrap_err();
        assert!(e.contains("vector sum"), "{e}");
        assert!(e.contains("699"), "{e}");
        assert!(!e.contains("dot product ["), "{e}");
        // A bench with no baseline entry is skipped, not failed.
        check_bench_regression(
            &baseline,
            &[serde_json::json!({"name": "brand new", "isa": "avx", "exp_per_sec": 1.0})],
        )
        .unwrap();
        // Malformed baseline is a clear error.
        let bad = write_temp("bench_bad.json", r#"{"nope": true}"#);
        assert!(check_bench_regression(&bad, &docs(1.0, 1.0))
            .unwrap_err()
            .contains("benches"));
    }

    #[test]
    fn bench_check_gates_deterministic_counters_exactly() {
        let baseline = write_temp(
            "bench_counters.json",
            r#"{"benches": [
                {"name": "vector sum", "isa": "avx", "exp_per_sec": 1000.0,
                 "dyn_insts": 5000, "sdc_rate": 42.5,
                 "opcode_mix": {"golden_dyn_insts": 125}},
                {"name": "vector sum [pruned]", "isa": "avx", "exp_per_sec": 1000.0,
                 "dyn_insts": 5000, "sdc_rate": 42.5, "static_discharged": 7}
            ]}"#,
        );
        let full = |dyn_insts: u64, sdc: f64, golden: u64| {
            serde_json::json!({"name": "vector sum", "isa": "avx", "exp_per_sec": 5000.0,
                "dyn_insts": dyn_insts, "sdc_rate": sdc,
                "opcode_mix": serde_json::json!({"golden_dyn_insts": golden})})
        };
        let pruned = |discharged: u64| {
            serde_json::json!({"name": "vector sum [pruned]", "isa": "avx",
                "exp_per_sec": 5000.0, "dyn_insts": 5000, "sdc_rate": 42.5,
                "static_discharged": discharged})
        };
        check_bench_regression(&baseline, &[full(5000, 42.5, 125), pruned(7)]).unwrap();
        // Faster is fine, but any moved counter fails and names its field,
        // however small the move.
        for (docs, moved) in [
            (vec![full(5001, 42.5, 125)], "dyn_insts 5001"),
            (vec![full(5000, 42.25, 125)], "sdc_rate 42.25"),
            (
                vec![full(5000, 42.5, 124)],
                "opcode_mix.golden_dyn_insts 124",
            ),
            (vec![pruned(8)], "static_discharged 8"),
        ] {
            let e = check_bench_regression(&baseline, &docs).unwrap_err();
            assert!(e.contains(moved), "{e}");
        }
        // A counter the baseline records but the run lacks is a mismatch.
        let bare = serde_json::json!({"name": "vector sum [pruned]", "isa": "avx",
            "exp_per_sec": 5000.0, "dyn_insts": 5000, "sdc_rate": 42.5});
        let e = check_bench_regression(&baseline, &[bare]).unwrap_err();
        assert!(e.contains("static_discharged missing"), "{e}");
    }

    #[test]
    fn study_flags_parse() {
        let f = parse_flags(&s(&[
            "--bench",
            "vector sum",
            "--jobs",
            "2",
            "--shard-size",
            "5",
            "--store",
            "/tmp/x",
            "--resume",
            "--json",
            "--campaigns",
            "6",
        ]))
        .unwrap();
        assert_eq!(f.jobs, Some(2));
        assert_eq!(f.shard_size, 5);
        assert_eq!(f.store, "/tmp/x");
        assert!(f.resume && f.json);
        assert_eq!(f.campaigns, 6);
        assert!(parse_flags(&s(&["--jobs", "two"])).is_err());
    }

    #[test]
    fn containment_flags_parse() {
        let f = parse_flags(&s(&[
            "--strict",
            "--repair",
            "--wall-limit-ms",
            "250",
            "--mem-limit-mb",
            "64",
        ]))
        .unwrap();
        assert!(f.strict && f.repair);
        assert_eq!(f.wall_limit_ms, Some(250));
        assert_eq!(f.mem_limit_mb, Some(64));
        assert!(parse_flags(&s(&["--wall-limit-ms", "soon"])).is_err());
        assert!(parse_flags(&s(&["--mem-limit-mb"])).is_err());

        let mut prog_flags = parse_flags(&s(&["--mem-limit-mb", "2"])).unwrap();
        prog_flags.wall_limit_ms = Some(9);
        let w = vbench::micro_benchmark("vector sum", VectorIsa::Avx, vbench::Scale::Test).unwrap();
        let mut prog = vulfi::prepare(&w, SiteCategory::PureData).unwrap();
        apply_limits(&mut prog, &prog_flags);
        assert_eq!(prog.limits.wall_ms, 9);
        assert_eq!(prog.limits.mem_bytes, 2 << 20);
    }

    fn temp_store(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("vulfi_cli_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn study_results_and_merge_commands() {
        let store = temp_store("study");
        let base = [
            "study",
            "--bench",
            "vector sum",
            "--experiments",
            "12",
            "--campaigns",
            "5",
            "--seed",
            "7",
            "--shard-size",
            "5",
            "--store",
            &store,
        ];
        run(&s(&base)).unwrap();
        // Re-run: fully cached, also fine with --json output.
        let mut cached: Vec<&str> = base.to_vec();
        cached.push("--json");
        run(&s(&cached)).unwrap();
        run(&s(&["results", "summary", "--store", &store])).unwrap();
        run(&s(&["results", "summary", "--store", &store, "--json"])).unwrap();
        // Merge into a fresh destination store carries the study over.
        let dst = temp_store("merged");
        run(&s(&["results", "merge", &store, "--store", &dst])).unwrap();
        run(&s(&["results", "summary", "--store", &dst])).unwrap();
        let merged_keys = vulfi_orch::Store::open(&dst).unwrap().studies().unwrap();
        assert_eq!(merged_keys.len(), 1);
        assert!(
            run(&s(&["results", "merge", "--store", &dst])).is_err(),
            "no sources"
        );
        assert!(run(&s(&["results", "bogus"])).is_err());
    }

    #[test]
    fn partial_study_requires_resume_flag() {
        let store_dir = temp_store("partial");
        // Simulate a killed run: execute only 1 shard through the orch API
        // with the exact configuration the CLI will derive.
        let w = vbench::micro_benchmark("vector sum", VectorIsa::Avx, vbench::Scale::Test).unwrap();
        let prog = vulfi::prepare(&w, SiteCategory::PureData).unwrap();
        let cfg = vulfi::StudyConfig {
            experiments_per_campaign: 12,
            max_campaigns: 5,
            seed: 7,
            ..vulfi::StudyConfig::default()
        };
        let store = vulfi_orch::Store::open(&store_dir).unwrap();
        vulfi_orch::run_study_persistent(
            &prog,
            &w,
            w.name(),
            "avx",
            &cfg,
            &store,
            vulfi_orch::RunOptions {
                shard_size: 5,
                max_shards: Some(1),
                progress: None,
                trace: None,
            },
        )
        .unwrap();

        let base = |extra: &[&str]| {
            let mut v = s(&[
                "study",
                "--bench",
                "vector sum",
                "--experiments",
                "12",
                "--campaigns",
                "5",
                "--seed",
                "7",
                "--shard-size",
                "5",
                "--store",
                &store_dir,
            ]);
            v.extend(extra.iter().map(|x| x.to_string()));
            v
        };
        let err = run(&base(&[])).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        run(&base(&["--resume"])).unwrap();
        // Now complete: running again without --resume is a cache hit.
        run(&base(&[])).unwrap();
    }

    #[test]
    fn store_fsck_detects_repairs_and_resumes() {
        let store_dir = temp_store("fsck");
        let base = [
            "study",
            "--bench",
            "vector sum",
            "--experiments",
            "12",
            "--campaigns",
            "5",
            "--seed",
            "11",
            "--shard-size",
            "5",
            "--store",
            &store_dir,
        ];
        run(&s(&base)).unwrap();

        // The retired `store` group is an unknown command.
        assert!(run(&s(&["store", "--store", &store_dir])).is_err());
        assert!(run(&s(&["store", "scrub", "--store", &store_dir])).is_err());

        // Clean store: fsck passes in both output modes.
        run(&s(&["fsck", "--store", &store_dir])).unwrap();
        run(&s(&["fsck", "--store", &store_dir, "--json"])).unwrap();

        // Flip one byte mid-file: summary fails loudly, fsck reports,
        // --repair quarantines, and the study resumes to completion.
        let keys = vulfi_orch::Store::open(&store_dir)
            .unwrap()
            .studies()
            .unwrap();
        let log = std::path::Path::new(&store_dir)
            .join(&keys[0].0)
            .join("shards.jsonl");
        let mut bytes = fs::read(&log).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&log, &bytes).unwrap();

        let err = run(&s(&["results", "summary", "--store", &store_dir])).unwrap_err();
        assert!(err.contains("fsck"), "{err}");
        let err = run(&s(&["fsck", "--store", &store_dir])).unwrap_err();
        assert!(err.contains("--repair"), "{err}");
        run(&s(&["fsck", "--store", &store_dir, "--repair"])).unwrap();
        assert!(std::path::Path::new(&store_dir)
            .join(&keys[0].0)
            .join("shards.quarantine")
            .join("shards.0.jsonl")
            .is_file());

        // The lost shards re-run under --resume and the study completes.
        let mut resume: Vec<&str> = base.to_vec();
        resume.push("--resume");
        run(&s(&resume)).unwrap();
        run(&s(&["fsck", "--store", &store_dir])).unwrap();
        run(&s(&["results", "summary", "--store", &store_dir])).unwrap();
    }

    /// Flip one byte in the middle of the first record of `log`.
    fn corrupt_first_record(log: &std::path::Path) {
        let mut bytes = fs::read(log).unwrap();
        let start = bytes.iter().position(|&b| b != b'\n').unwrap();
        let end = start + bytes[start..].iter().position(|&b| b == b'\n').unwrap();
        bytes[(start + end) / 2] ^= 0x01;
        fs::write(log, &bytes).unwrap();
    }

    #[test]
    fn fsck_repairs_every_log_and_records_one_ops_event() {
        let store_dir = temp_store("fsck_all");
        let trace_dir = temp_store("fsck_all_trace");
        run(&s(&[
            "study",
            "--bench",
            "vector sum",
            "--experiments",
            "8",
            "--campaigns",
            "4",
            "--shard-size",
            "4",
            "--store",
            &store_dir,
            "--trace",
            &trace_dir,
        ]))
        .unwrap();
        let mut queue = vulfi_orch::JobQueue::open(&store_dir).unwrap();
        let ops = vulfi_orch::OpsLog::open(&store_dir).unwrap();
        for bench in ["vector sum", "dot product"] {
            let spec = vulfi::StudySpec {
                bench: bench.to_string(),
                ..vulfi::StudySpec::default()
            };
            queue.submit(&spec, "k", None).unwrap();
            ops.append(vulfi_orch::OpsEvent::new(vulfi_orch::OpsKind::Submitted))
                .unwrap();
        }
        let keys = vulfi_orch::Store::open(&store_dir)
            .unwrap()
            .studies()
            .unwrap();
        let key = &keys[0].0;
        for log in [
            std::path::Path::new(&store_dir)
                .join(key)
                .join("shards.jsonl"),
            std::path::Path::new(&trace_dir)
                .join(key)
                .join("traces.jsonl"),
            queue.path(),
            ops.path(),
        ] {
            corrupt_first_record(&log);
        }

        let fsck = ["fsck", "--store", &store_dir, "--trace", &trace_dir];
        let err = run(&s(&fsck)).unwrap_err();
        assert!(err.contains("vulfi fsck --repair"), "{err}");
        let mut repair = fsck.to_vec();
        repair.push("--repair");
        run(&s(&repair)).unwrap();
        run(&s(&fsck)).unwrap();

        // One fsck event, appended to the healed ops log, names every
        // quarantined log, traces included.
        let events = vulfi_orch::OpsLog::open(&store_dir)
            .unwrap()
            .events()
            .unwrap();
        let repairs: Vec<&vulfi_orch::OpsEvent> = events
            .iter()
            .filter(|e| e.kind == vulfi_orch::OpsKind::Fsck)
            .collect();
        assert_eq!(repairs.len(), 1, "{events:?}");
        let detail = repairs[0].detail.clone().unwrap_or_default();
        for quarantine in [
            "shards.quarantine",
            "traces.quarantine",
            "events.quarantine",
            "ops.quarantine",
        ] {
            assert!(detail.contains(quarantine), "{detail}");
        }
        // The repaired queue reopens and replays the surviving job.
        let jobs = vulfi_orch::JobQueue::open(&store_dir)
            .unwrap()
            .jobs()
            .unwrap();
        assert_eq!(jobs.len(), 1);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(&s(&["compile", "/nonexistent/xyz.spmd"])).is_err());
        let bad = write_temp("bad.spmd", "export void f( {");
        assert!(run(&s(&["compile", &bad])).is_err());
        let badvir = write_temp("bad.vir", "define nonsense");
        assert!(run(&s(&["compile", &badvir])).is_err());
        let path = write_temp("scale3.spmd", KERNEL);
        assert!(
            run(&s(&["instrument", &path])).is_err(),
            "missing --category"
        );
        let e = run(&s(&["sites", &path, "--func", "missing"])).unwrap_err();
        assert!(
            e.contains("no function @missing") && e.contains("@scale"),
            "unknown --func must list what the module defines: {e}"
        );
    }

    #[test]
    fn report_and_bench_flags_parse() {
        let f = parse_flags(&s(&[
            "html",
            "--diff-store",
            "/tmp/b",
            "--metrics-in",
            "m.prom",
            "--record",
        ]))
        .unwrap();
        assert_eq!(f.diff_store.as_deref(), Some("/tmp/b"));
        assert_eq!(f.metrics_in.as_deref(), Some("m.prom"));
        assert!(f.record);
        assert!(parse_flags(&s(&["--diff-store"])).is_err());
        // Subcommand dispatch errors.
        assert!(run(&s(&["report"])).is_err());
        assert!(run(&s(&["report", "bogus"])).is_err());
        assert!(run(&s(&["report", "diff", "/tmp/only-one-store"])).is_err());
        assert!(run(&s(&["bench", "--bench", "NoSuchBench"])).is_err());
    }

    #[test]
    fn prune_flags_parse_all_forms() {
        // Bare `--prune` means on; other flags after it still parse.
        let f = parse_flags(&s(&["--prune", "--bench", "vector sum"])).unwrap();
        assert_eq!(f.prune.as_deref(), Some("on"));
        assert_eq!(f.bench.as_deref(), Some("vector sum"));
        // Mode as the next word, or glued on with `=`.
        let f = parse_flags(&s(&["--prune", "verify"])).unwrap();
        assert_eq!(f.prune.as_deref(), Some("verify"));
        let f = parse_flags(&s(&["--prune=on"])).unwrap();
        assert_eq!(f.prune.as_deref(), Some("on"));
        // "off" in either form is the same as not passing the flag.
        assert_eq!(parse_flags(&s(&["--prune", "off"])).unwrap().prune, None);
        assert_eq!(parse_flags(&s(&["--prune=off"])).unwrap().prune, None);
        let e = parse_flags(&s(&["--prune=sometimes"])).unwrap_err();
        assert!(e.contains("sometimes"), "{e}");

        // submit mirrors --prune into the spec but refuses verify: the
        // post-hoc soundness scan is a local-CLI affordance.
        let mut f = parse_flags(&s(&["--bench", "vector sum", "--prune"])).unwrap();
        assert!(spec_from_flags(&f).unwrap().prune);
        f.prune = Some("verify".to_string());
        let e = spec_from_flags(&f).unwrap_err();
        assert!(e.contains("verify"), "{e}");
    }

    #[test]
    fn sites_json_is_machine_readable() {
        let path = write_temp("sites_json.spmd", KERNEL);
        let out = std::env::temp_dir().join("vulfi_cli_test_sites.json");
        run(&s(&["sites", &path, "--json", "-o", out.to_str().unwrap()])).unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            doc.get("function").and_then(|v| v.as_str()),
            Some("scale"),
            "{doc:?}"
        );
        let sites = doc.get("sites").and_then(|v| v.as_array()).unwrap();
        assert!(!sites.is_empty());
        for site in sites {
            for field in [
                "id",
                "value",
                "opcode",
                "kind",
                "category",
                "address",
                "control",
                "masked",
                "mask_source",
                "vector",
                "lanes",
                "elem",
            ] {
                assert!(
                    site.get(field).is_some(),
                    "site missing '{field}': {site:?}"
                );
            }
        }
        // The kernel multiplies in vector lanes: at least one site must
        // say so, with a plausible lane count.
        assert!(sites.iter().any(|s| {
            s.get("vector").and_then(|v| v.as_bool()) == Some(true)
                && s.get("lanes").and_then(|v| v.as_u64()).unwrap_or(0) > 1
        }));
    }

    #[test]
    fn analyze_command_reports_and_verifies_first() {
        let path = write_temp("analyze.spmd", KERNEL);
        let out = std::env::temp_dir().join("vulfi_cli_test_analyze.txt");
        run(&s(&["analyze", &path, "-o", out.to_str().unwrap()])).unwrap();
        let text = fs::read_to_string(&out).unwrap();
        assert!(text.contains("@scale:"), "{text}");
        assert!(text.contains("provably benign"), "{text}");

        // JSON round-trips through the report type.
        let out = std::env::temp_dir().join("vulfi_cli_test_analyze.json");
        run(&s(&[
            "analyze",
            &path,
            "--json",
            "-o",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let rep: vulfi::VulnReport =
            serde_json::from_str(&fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(rep.function, "scale");
        assert!(!rep.sites.is_empty());

        // Benchmarks work by name too.
        run(&s(&["analyze", "--bench", "vector sum"])).unwrap();
        assert!(run(&s(&["analyze"])).is_err(), "needs a file or --bench");

        // Ill-formed IR is rejected by the verifier before any analysis:
        // %y is used before its definition dominates the use.
        let bad = write_temp(
            "analyze_bad.vir",
            "define i32 @f(i32 %x) {\nentry:\n  %z = add i32 %y, 1\n  br label %later\n\
             later:\n  %y = add i32 %x, 1\n  ret i32 %z\n}\n",
        );
        let e = run(&s(&["analyze", &bad])).unwrap_err();
        assert!(
            e.contains("use of %y not dominated"),
            "verifier must reject the module with a clean error, got: {e}"
        );
    }

    #[test]
    fn lint_command_baseline_and_deny() {
        // The whole built-in suite is lint-clean — that's the committed
        // baseline ci.sh enforces.
        run(&s(&["lint", "--suite", "--deny"])).unwrap();

        // A deliberately dirty module: a stack slot stored but never
        // read (VL002), which --deny turns into a non-zero exit.
        let dirty = write_temp(
            "lint_dirty.vir",
            "define void @ds(i32 %x) {\nentry:\n  %p = alloca i32, i64 1\n\
             store i32 %x, ptr %p\n  ret void\n}\n",
        );
        let out = std::env::temp_dir().join("vulfi_cli_test_lint.json");
        run(&s(&["lint", &dirty, "--json", "-o", out.to_str().unwrap()])).unwrap();
        let docs: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&out).unwrap()).unwrap();
        let arr = docs.as_array().unwrap();
        assert_eq!(arr.len(), 1, "{docs:?}");
        assert_eq!(arr[0].get("id").and_then(|v| v.as_str()), Some("VL002"));
        let e = run(&s(&["lint", &dirty, "--deny"])).unwrap_err();
        assert!(e.contains("denied"), "{e}");
        assert!(run(&s(&["lint"])).is_err(), "needs a file or --suite");
    }

    #[test]
    fn study_prune_discharges_and_verify_cross_validates() {
        let store = temp_store("prune");
        let base = |mode: &str, store: &str| {
            let mut v = s(&[
                "study",
                "--bench",
                "vector sum",
                "--experiments",
                "20",
                "--campaigns",
                "5",
                "--seed",
                "3",
                "--shard-size",
                "10",
                "--store",
                store,
            ]);
            if !mode.is_empty() {
                v.push(mode.to_string());
            }
            v
        };
        // Pruned run completes; the store holds synthetic records for the
        // discharged experiments (injection None but dynamic sites seen).
        let mut args = base("--prune", &store);
        args.push("--json".to_string());
        run(&args).unwrap();
        let st = vulfi_orch::Store::open(&store).unwrap();
        let keys = st.studies().unwrap();
        assert_eq!(keys.len(), 1);
        let done = st.study(&keys[0]).shards().unwrap();
        let discharged = done
            .iter()
            .flat_map(|sh| &sh.experiments)
            .filter(|e| e.injection.is_none() && e.dynamic_sites > 0)
            .count();
        assert!(
            discharged > 0,
            "vector sum has provably-benign bits, some draws must hit them"
        );

        // Verify mode executes everything under the unpruned key and
        // cross-validates; any soundness violation would fail the run.
        let vstore = temp_store("prune_verify");
        run(&base("--prune=verify", &vstore)).unwrap();
        let st = vulfi_orch::Store::open(&vstore).unwrap();
        let vkeys = st.studies().unwrap();
        assert_eq!(vkeys.len(), 1);
        assert_ne!(
            vkeys[0], keys[0],
            "pruned and full runs must not share a key"
        );
        let vdone = st.study(&vkeys[0]).shards().unwrap();
        assert!(
            vdone
                .iter()
                .flat_map(|sh| &sh.experiments)
                .all(|e| e.injection.is_some() || e.dynamic_sites == 0),
            "verify mode must execute every injection, no synthetic records"
        );
        // The post-hoc scan itself reports zero violations.
        let w = vbench::micro_benchmark("vector sum", VectorIsa::Avx, vbench::Scale::Test).unwrap();
        let sound = vulfi_orch::verify_soundness(&w, &vdone).unwrap();
        assert!(sound.checked > 0 && sound.predicted_benign > 0);
        assert!(sound.is_sound(), "{:?}", sound.violations);

        // --prune with a non-single-bit-flip model is refused up front.
        let mut args = base("--prune", &store);
        args.extend(s(&["--model", "multi-bit-burst:2"]));
        let e = run(&args).unwrap_err();
        assert!(e.contains("single-bit-flip"), "{e}");
        // So is combining --prune with --trace.
        let mut args = base("--prune", &store);
        args.extend(s(&["--trace", "/tmp/nope"]));
        let e = run(&args).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
    }
}

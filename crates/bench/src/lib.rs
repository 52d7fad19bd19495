//! # vulfi-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! | Binary   | Regenerates |
//! |----------|-------------|
//! | `table1` | Table I — benchmark list + average dynamic instruction counts (AVX & SSE) |
//! | `fig10`  | Fig. 10 — % scalar vs vector instructions per fault-site category |
//! | `fig11`  | Fig. 11 — SDC / Benign / Crash rates per benchmark × category × ISA |
//! | `fig12`  | Fig. 12 — detector overhead, SDC rate, and SDC detection rate on the micro-benchmarks |
//!
//! Run with `--release`; the default configuration is CI-sized, `--paper`
//! switches to paper-scale campaign counts (much slower).

use std::fmt::Write as _;

use spmdc::VectorIsa;
use vbench::Scale;
use vulfi::StudyConfig;

/// Shared command-line options of the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    pub scale: Scale,
    /// Study configuration (experiments per campaign, stopping rule).
    pub study: StudyConfig,
    /// Experiments per micro-benchmark cell (fig12; paper: 2000).
    pub micro_experiments: usize,
    /// Restrict to one benchmark by name.
    pub only: Option<String>,
    /// Emit a JSON blob after the human-readable table.
    pub json: bool,
    /// Result-store directory for the study binaries (fig11/fig12):
    /// completed studies are cached here and interrupted ones resume.
    pub store: String,
    /// Worker-thread cap (0 = all cores).
    pub jobs: usize,
}

impl Default for HarnessOpts {
    fn default() -> HarnessOpts {
        HarnessOpts {
            scale: Scale::Test,
            study: StudyConfig {
                experiments_per_campaign: 25,
                target_margin: 3.0,
                min_campaigns: 4,
                max_campaigns: 8,
                seed: 0xDEAD_BEEF,
                ..StudyConfig::default()
            },
            micro_experiments: 400,
            only: None,
            json: false,
            store: "results/store".to_string(),
            jobs: 0,
        }
    }
}

impl HarnessOpts {
    /// Parse `args` (without `argv[0]`). Recognized flags:
    /// `--paper`, `--experiments N`, `--campaigns N`, `--seed N`,
    /// `--only NAME`, `--json`, `--store DIR`, `--jobs N`.
    pub fn parse(args: &[String]) -> Result<HarnessOpts, String> {
        let mut o = HarnessOpts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--paper" => {
                    o.scale = Scale::Paper;
                    o.study.experiments_per_campaign = 100;
                    o.study.max_campaigns = 20;
                    o.micro_experiments = 2000;
                }
                "--experiments" => {
                    o.study.experiments_per_campaign = next_num(&mut it, a)? as usize;
                    o.micro_experiments = o.study.experiments_per_campaign * 16;
                }
                "--campaigns" => o.study.max_campaigns = next_num(&mut it, a)? as usize,
                "--seed" => o.study.seed = next_num(&mut it, a)?,
                "--only" => {
                    o.only = Some(
                        it.next()
                            .ok_or_else(|| format!("{a} needs a value"))?
                            .clone(),
                    )
                }
                "--json" => o.json = true,
                "--store" => {
                    o.store = it
                        .next()
                        .ok_or_else(|| format!("{a} needs a value"))?
                        .clone()
                }
                "--jobs" => o.jobs = next_num(&mut it, a)? as usize,
                "--help" | "-h" => {
                    return Err(
                        "flags: --paper --experiments N --campaigns N --seed N --only NAME \
                         --json --store DIR --jobs N"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(o)
    }

    pub fn from_env() -> HarnessOpts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match HarnessOpts::parse(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Should this benchmark run?
    pub fn selected(&self, name: &str) -> bool {
        self.only.as_deref().is_none_or(|o| o == name)
    }
}

fn next_num<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<u64, String> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}

/// A simple fixed-width text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(headers: &[&str]) -> TextTable {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "| {:w$} ", h, w = widths[i]);
        }
        out.push_str("|\n");
        sep(&mut out);
        for r in &self.rows {
            for i in 0..ncols {
                let _ = write!(out, "| {:w$} ", r[i], w = widths[i]);
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

/// Open (creating if needed) the orchestration store selected by
/// `--store` and apply the `--jobs` cap. The study binaries route every
/// campaign through this store, so a killed run resumes where it
/// stopped and a finished table re-renders from cache.
pub fn open_store(opts: &HarnessOpts) -> vulfi_orch::Store {
    if opts.jobs != 0 {
        vulfi_orch::set_jobs(opts.jobs);
    }
    vulfi_orch::Store::open(&opts.store)
        .unwrap_or_else(|e| panic!("open store {}: {e}", opts.store))
}

/// Per-shard progress callback keeping a live status line on stderr —
/// only when stderr is a terminal, so piped/CI output stays clean.
pub fn stderr_progress() -> Option<vulfi_orch::RunHook> {
    use std::io::IsTerminal as _;
    if std::io::stderr().is_terminal() {
        Some(vulfi_orch::progress_hook(|s| {
            eprint!("\r\x1b[K{}", s.render_line());
        }))
    } else {
        None
    }
}

/// Erase the live status line left by [`stderr_progress`].
pub fn clear_progress() {
    use std::io::IsTerminal as _;
    if std::io::stderr().is_terminal() {
        eprint!("\r\x1b[K");
    }
}

/// Both ISAs, in the paper's presentation order.
pub fn isas() -> [VectorIsa; 2] {
    [VectorIsa::Avx, VectorIsa::Sse4]
}

/// Format a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = HarnessOpts::parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.study.experiments_per_campaign, 25);
        assert!(o.selected("anything"));
    }

    #[test]
    fn parse_paper_mode() {
        let o = HarnessOpts::parse(&s(&["--paper"])).unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.study.experiments_per_campaign, 100);
        assert_eq!(o.study.max_campaigns, 20);
        assert_eq!(o.micro_experiments, 2000);
    }

    #[test]
    fn parse_overrides_and_only() {
        let o = HarnessOpts::parse(&s(&[
            "--experiments",
            "10",
            "--seed",
            "7",
            "--only",
            "Stencil",
        ]))
        .unwrap();
        assert_eq!(o.study.experiments_per_campaign, 10);
        assert_eq!(o.study.seed, 7);
        assert!(o.selected("Stencil"));
        assert!(!o.selected("Jacobi"));
    }

    #[test]
    fn parse_store_and_jobs() {
        let o = HarnessOpts::parse(&s(&["--store", "/tmp/r", "--jobs", "3"])).unwrap();
        assert_eq!(o.store, "/tmp/r");
        assert_eq!(o.jobs, 3);
        assert!(HarnessOpts::parse(&s(&["--jobs", "many"])).is_err());
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(HarnessOpts::parse(&s(&["--bogus"])).is_err());
        assert!(HarnessOpts::parse(&s(&["--seed"])).is_err());
        assert!(HarnessOpts::parse(&s(&["--seed", "xyz"])).is_err());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(s(&["a", "1"]));
        t.row(s(&["long-name", "2.5%"]));
        let r = t.render();
        assert!(r.contains("| long-name | 2.5%  |"), "{r}");
        assert!(r.lines().all(|l| l.starts_with('+') || l.starts_with('|')));
    }
}

//! Property tests for the fault-model library: every model's merged
//! study result is a pure function of the study config — shard size and
//! thread count must never leak into it — and the default
//! `SingleBitFlip` model is byte-identical to the pre-model injector,
//! pinned by a store fixture generated before the model layer existed.
//! A second fixture pins every experiment path (plain, traced, pruned;
//! value and engine models) record for record.

use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

use vir::analysis::SiteCategory;
use vulfi::{
    build_prune_context, campaign_seed, prepare, run_experiment_range, run_experiment_range_pruned,
    run_experiment_range_traced, run_study, Experiment, ExperimentTrace, StudyConfig, StudyResult,
    VulfiHost, Workload,
};
use vulfi_orch::{run_study_persistent, set_jobs, RunOptions, Store};

mod common;
use common::MODELS;

fn workload() -> &'static vbench::SpmdWorkload {
    static W: OnceLock<vbench::SpmdWorkload> = OnceLock::new();
    W.get_or_init(|| {
        vbench::micro_benchmark("dot product", spmdc::VectorIsa::Sse4, vbench::Scale::Test).unwrap()
    })
}

fn bits(r: &StudyResult) -> (Vec<u64>, u64, bool) {
    (
        r.samples.iter().map(|x| x.to_bits()).collect(),
        r.counts.sdc << 32 | r.counts.crash << 16 | r.counts.benign,
        r.converged,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_model_merges_bit_identical(
        model_idx in 0usize..MODELS.len(),
        shard_size in 1usize..20,
        jobs in 1usize..4,
        seed in 0u64..3,
    ) {
        let model = MODELS[model_idx];
        let cfg = StudyConfig {
            experiments_per_campaign: 6,
            target_margin: 50.0,
            min_campaigns: 3,
            max_campaigns: 3,
            seed: 0x4A0D_0000 + seed,
            model,
            prune: false,
        };
        // `Prepared` carries the model, so build it fresh per case.
        let mut prog = prepare(workload(), SiteCategory::PureData).unwrap();
        prog.model = model;
        let reference = run_study(&prog, workload(), &cfg).unwrap();

        set_jobs(jobs);
        let dir = std::env::temp_dir().join(format!(
            "vulfi_model_prop_{}_{}_{}_{}_{}",
            std::process::id(), model_idx, shard_size, jobs, seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let out = run_study_persistent(
            &prog,
            workload(),
            "dot product",
            "sse",
            &cfg,
            &store,
            RunOptions { shard_size, max_shards: None, hook: None, trace: None },
        )
        .unwrap();
        set_jobs(0);
        let merged = out.result.expect("all shards ran; study must be complete");
        prop_assert_eq!(bits(&merged), bits(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The committed fixture was produced by `vulfi study --bench "vector
/// sum" --isa avx --category pure-data --experiments 10 --campaigns 4
/// --seed 7 --shard-size 5` on the commit *before* the fault-model
/// layer landed. The default model must reproduce it exactly: same
/// content-addressed key (legacy stores stay valid) and the same
/// per-experiment records (the injector draws the same RNG stream).
#[test]
fn single_bit_flip_matches_pre_model_fixture() {
    const KEY: &str = "cdc391201dd7794d2f5ad54acf082a72";
    // The key constant is re-derived below rather than trusted blindly;
    // a typo here must fail loudly, not silently pass.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pre_pr_store");
    let w = vbench::micro_benchmark("vector sum", spmdc::VectorIsa::Avx, vbench::Scale::Test)
        .expect("fixture benchmark exists");
    let cfg = StudyConfig {
        experiments_per_campaign: 10,
        max_campaigns: 4,
        seed: 7,
        ..StudyConfig::default()
    };
    let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
    prog.model = cfg.model;
    let key = vulfi_orch::study_key(&prog, w.name(), "avx", &cfg);

    let fixture_store = Store::open(&fixture).unwrap();
    let study = fixture_store.study(&key);
    assert!(
        study.exists(),
        "default-model key {key} must address the pre-model fixture study \
         (expected ~{KEY}); legacy stores would be orphaned otherwise"
    );
    let mut fixture_shards = study.shards().unwrap();
    assert_eq!(fixture_shards.len(), 8, "fixture holds 8 shards of 5");

    // Re-run from scratch in a temp store and compare every experiment
    // record (outcome, injection, input, site counts) bit for bit.
    // wall_ns is informational and excluded by comparing `experiments`.
    let dir = std::env::temp_dir().join(format!("vulfi_fixture_check_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fresh_store = Store::open(&dir).unwrap();
    let out = run_study_persistent(
        &prog,
        &w,
        w.name(),
        "avx",
        &cfg,
        &fresh_store,
        RunOptions {
            shard_size: 5,
            max_shards: None,
            hook: None,
            trace: None,
        },
    )
    .unwrap();
    assert_eq!(out.key.0, key.0);
    let mut fresh_shards = fresh_store.study(&key).shards().unwrap();
    assert_eq!(fresh_shards.len(), fixture_shards.len());
    // Parallel shards append in completion order, which the store does
    // not promise; compare them by coordinate.
    for shards in [&mut fixture_shards, &mut fresh_shards] {
        shards.sort_by_key(|r| (r.campaign, r.start, r.end));
    }
    for (old, new) in fixture_shards.iter().zip(&fresh_shards) {
        assert_eq!(
            (old.campaign, old.start, old.end),
            (new.campaign, new.start, new.end)
        );
        assert_eq!(
            old.experiments, new.experiments,
            "shard c{}:{}..{}",
            old.campaign, old.start, old.end
        );
    }
    let result = out.result.expect("complete");
    assert_eq!(
        (result.counts.sdc, result.counts.benign, result.counts.crash),
        (32, 7, 1),
        "fixture-era outcome tallies"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every experiment path of one fault model over one campaign slice.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct ModelPaths {
    model: String,
    /// `run_experiment_range` records.
    records: Vec<Experiment>,
    /// `run_experiment_range_traced` spans, `wall_ns` zeroed.
    spans: Vec<ExperimentTrace>,
}

/// One input's golden census as the pruner sees it: a logging golden run
/// of the instrumented module.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct CensusPin {
    golden_dyn_insts: u64,
    site_log_len: u64,
}

/// The committed `experiment_paths.json` fixture: records and spans of
/// all seven models, the pruned single-bit-flip records, and the prune
/// census, for campaign 0 (experiments `0..20`) of the workload and seed
/// of `single_bit_flip_matches_pre_model_fixture`.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct ExperimentPaths {
    models: Vec<ModelPaths>,
    pruned: Vec<Experiment>,
    census: Vec<CensusPin>,
}

fn experiment_paths_fixture() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/experiment_paths.json")
}

fn experiment_paths() -> ExperimentPaths {
    let w = vbench::micro_benchmark("vector sum", spmdc::VectorIsa::Avx, vbench::Scale::Test)
        .expect("fixture benchmark exists");
    let seed = campaign_seed(7, 0);
    let models = MODELS
        .iter()
        .map(|&model| {
            let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
            prog.model = model;
            let records = run_experiment_range(&prog, &w, seed, 0..20).unwrap();
            let (traced, mut spans) = run_experiment_range_traced(&prog, &w, seed, 0..20).unwrap();
            assert_eq!(traced, records, "{model}: tracing must not perturb records");
            for s in &mut spans {
                s.wall_ns = 0;
            }
            ModelPaths {
                model: model.name(),
                records,
                spans,
            }
        })
        .collect();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();
    let ctx = build_prune_context(&prog, &w).unwrap();
    let pruned = run_experiment_range_pruned(&prog, &w, &ctx, seed, 0..20).unwrap();
    let census = (0..w.num_inputs())
        .map(|input| {
            let mut interp = vexec::Interp::new(&prog.module);
            let setup = w.setup(&mut interp.mem, input).unwrap();
            let mut host = VulfiHost::profile_logging();
            let run = interp.run(&prog.entry, &setup.args, &mut host).unwrap();
            CensusPin {
                golden_dyn_insts: run.dyn_insts,
                site_log_len: host.site_log.map_or(0, |log| log.len() as u64),
            }
        })
        .collect();
    ExperimentPaths {
        models,
        pruned,
        census,
    }
}

/// Every experiment path (plain, traced and pruned range runners, value
/// and engine models) must reproduce the records and spans pinned in
/// `tests/fixtures/experiment_paths.json`: the same RNG draws, the same
/// outcomes, the same injection coordinates and propagation profiles.
#[test]
fn experiment_paths_match_committed_fixture() {
    let text = std::fs::read_to_string(experiment_paths_fixture())
        .expect("committed experiment_paths.json fixture");
    let pinned: ExperimentPaths = serde_json::from_str(&text).unwrap();
    let fresh = experiment_paths();
    assert_eq!(pinned.models.len(), MODELS.len());
    for (old, new) in pinned.models.iter().zip(&fresh.models) {
        assert_eq!(old.model, new.model);
        assert_eq!(old.records, new.records, "{} records", old.model);
        assert_eq!(old.spans, new.spans, "{} spans", old.model);
    }
    assert_eq!(
        pinned.pruned, fresh.pruned,
        "pruned single-bit-flip records"
    );
    assert_eq!(pinned.census, fresh.census, "prune census");
}

/// Rewrites the fixture from the current code. Run it only to re-pin a
/// deliberate behaviour change:
/// `cargo test -p vulfi-orch --test model_prop -- --ignored regenerate_experiment_paths_fixture`
#[test]
#[ignore = "rewrites tests/fixtures/experiment_paths.json"]
fn regenerate_experiment_paths_fixture() {
    let text = serde_json::to_string_pretty(&experiment_paths()).unwrap();
    std::fs::write(experiment_paths_fixture(), text + "\n").unwrap();
}

//! Pinned study keys. A key names a study's store directory, so a key
//! that moves orphans every cached study minted under the old one. The
//! tables below were recorded before the key was hashed while the module
//! is printed; the streaming key must reproduce every entry bit for bit.
//!
//! Coverage: all 54 `paper-matrix` cells (9 study benchmarks x AVX/SSE4
//! x 3 categories at `Scale::Test`, seed 42, 4 campaigns of 10), whose
//! modules carry float vector constants, phis and shuffles; one
//! Blackscholes cell under each non-default fault model (the
//! `fault-model:` suffix); and one with pruning on (the `prune:on`
//! suffix). On drift, the failure prints the computed table.

use spmdc::VectorIsa;
use vbench::Scale;
use vir::analysis::SiteCategory;
use vulfi::{prepare, FaultModel, StudyConfig, Workload};
use vulfi_orch::study_key;

mod common;
use common::MODELS;

/// `<key> <benchmark>/<isa>/<category>` for every `paper-matrix` cell.
const PAPER_MATRIX: &str = "\
20516dcfd29a42b3558d3768a50f7376 Fluidanimate/avx/pure-data
1e2ad6342622feb9ec3b1e8f79f0e6ee Fluidanimate/avx/control
eddcfa0a1f0bd12d22768964cc4bae22 Fluidanimate/avx/address
bca8e2a90dc852c5b2d7ea45cb7956b0 Fluidanimate/sse/pure-data
3bcb068499a9e96b02940a0e1ae87c10 Fluidanimate/sse/control
2b649a044dd9d23b0b96b359cb859c18 Fluidanimate/sse/address
74cf2c8e12909c5308c445102735247a Swaptions/avx/pure-data
c152bc872f2606d747174108e6f43d70 Swaptions/avx/control
e1ebbfab52bbe27d6fb8bc44d3b9da68 Swaptions/avx/address
b42cf888d84c79f34974f0362a3a44d4 Swaptions/sse/pure-data
9b200c2c01dbd0f5a5b8e854ec759e5c Swaptions/sse/control
6682f41ed6b3823cff6087d1ee048a89 Swaptions/sse/address
1511a2bbb70284c56845852e9351a530 Blackscholes/avx/pure-data
8c77775279b7023a6591a4227963d2cd Blackscholes/avx/control
cd16a76ce2127900be3f1b0f6c5b1525 Blackscholes/avx/address
ead4bcac260655f7cf883554175e8aae Blackscholes/sse/pure-data
8001173941f48d08a932ed8405d618d3 Blackscholes/sse/control
a20dc87ed328b1cedcc71d3dc37d6e2b Blackscholes/sse/address
1f19c754aabc8c3199ab6249531e894e Sorting/avx/pure-data
6ee2f54e3b4215ef36fafdcfc8727c7a Sorting/avx/control
05bd9740d4121e2c4c51b4d0a9a27389 Sorting/avx/address
f7f63773c6d5f65c06c2f9d5006a19db Sorting/sse/pure-data
00aeeff0d0a455610ea27b89ad6ed9f4 Sorting/sse/control
6cb36e562061c41138ad10240b96d996 Sorting/sse/address
59c35a9e48180f02fa9ebb0b50061831 Stencil/avx/pure-data
da788addd4a8666c60b7fe2b0e08250d Stencil/avx/control
0b981f851f0457a934672a4c83db2f7a Stencil/avx/address
e57745345e5490c226ab71f54ce55bd1 Stencil/sse/pure-data
16cd480340786a0438a03a63ecc3432d Stencil/sse/control
8d3125e4074980a9781b5a283ac434ba Stencil/sse/address
40f4da9711a75145f8d5e0011ff62306 Ray tracing/avx/pure-data
a876675c054ffc38add7d381833ebaf9 Ray tracing/avx/control
257acef8cb60f000f19b7014674b5e87 Ray tracing/avx/address
6f2a7bb8a3ac4f439b9608db85637fd0 Ray tracing/sse/pure-data
1b8943cb04e659a6dfb2b15bf8c1a42f Ray tracing/sse/control
38ed2c6676f07952c098bfc80e6bc331 Ray tracing/sse/address
dc034f13685059e84d3d77f4e43476f9 Chebyshev/avx/pure-data
cd0048303052cf9d7c1e89fe16bb9fe4 Chebyshev/avx/control
2ba153b3efc08153d2788b55286fd5f6 Chebyshev/avx/address
03e6061c0079c34ef3a437b55ebab6f7 Chebyshev/sse/pure-data
76a5bc293f66e0e3b77752eaca1dadfa Chebyshev/sse/control
ce8f74657ff3c275d8b5d3b2821d43b0 Chebyshev/sse/address
1f8045f552ef20d2031f3609ced07921 Jacobi/avx/pure-data
f09b9c30d27a2f6b88e515fcaefa1c46 Jacobi/avx/control
2fa795c219404858f288b83bab192801 Jacobi/avx/address
e7812231a0ed31babef6520d14cf1865 Jacobi/sse/pure-data
7e8f08b9800c851b98a61ce6af88f95a Jacobi/sse/control
c82e6b3339084b0cb6d652b560628101 Jacobi/sse/address
f780f1ec0d51ab2d38a3742fdffe6626 ConjugateGradient/avx/pure-data
de3977e79ae93c9bdd8ac6de10e055fa ConjugateGradient/avx/control
c5f21555d5753c5d06a1608d5d03f098 ConjugateGradient/avx/address
8828cb4f27c2c8c3701776f403c0b32c ConjugateGradient/sse/pure-data
88ed3f50e204898136e97a56ebbed296 ConjugateGradient/sse/control
81d089422dd8e71177fb884ec220d318 ConjugateGradient/sse/address
";

/// `<key> <variant>` for Blackscholes AVX pure-data: one row per
/// non-default fault model (named by [`FaultModel::name`]), then
/// `prune`.
const VARIANTS: &str = "\
147d3a88af1172c6835ac82641fdcb03 multi-bit-burst:3
4561307d1b17c012b3007884d91f168d stuck-at:5=1
0d5da7a7f3296bbd26bf6283de5c0aca mask-corrupt
6a3b643bd006864e96be66541d3ff6e1 address-line:2
fbe7ad4b129c2cf2d6b96b8679d96417 temporal-pair:4
2a9db6ee8f2da995461c87f65dfb90f8 memory-cell
644e04d8228c3716492e713c98fb2cd5 prune
";

fn config(model: FaultModel, prune: bool) -> StudyConfig {
    StudyConfig {
        experiments_per_campaign: 10,
        min_campaigns: 4,
        max_campaigns: 4,
        seed: 42,
        model,
        prune,
        ..StudyConfig::default()
    }
}

fn isa_name(isa: VectorIsa) -> &'static str {
    match isa {
        VectorIsa::Avx => "avx",
        VectorIsa::Sse4 => "sse",
    }
}

/// Compare the computed table against the pinned one, printing the
/// computed table on drift.
fn check(what: &str, computed: &str, pinned: &str) {
    assert!(
        computed == pinned,
        "{what} study keys drifted; computed table:\n{computed}"
    );
}

#[test]
fn paper_matrix_keys_are_pinned() {
    let mut computed = String::new();
    for bench in vbench::STUDY_NAMES {
        for isa in [VectorIsa::Avx, VectorIsa::Sse4] {
            let w = vbench::study_benchmark(bench, isa, Scale::Test).expect("study benchmark");
            for category in SiteCategory::ALL {
                let prog = prepare(&w, category).unwrap();
                let cfg = config(FaultModel::SingleBitFlip, false);
                let key = study_key(&prog, w.name(), isa_name(isa), &cfg);
                computed += &format!("{key} {bench}/{}/{}\n", isa_name(isa), category.name());
            }
        }
    }
    check("paper-matrix", &computed, PAPER_MATRIX);
}

#[test]
fn fault_model_and_prune_keys_are_pinned() {
    let w = vbench::study_benchmark("Blackscholes", VectorIsa::Avx, Scale::Test)
        .expect("study benchmark");
    let mut cells: Vec<(String, StudyConfig)> = MODELS
        .iter()
        .filter(|&&m| m != FaultModel::default())
        .map(|&m| (m.name(), config(m, false)))
        .collect();
    cells.push(("prune".to_string(), config(FaultModel::SingleBitFlip, true)));
    let mut computed = String::new();
    for (variant, cfg) in cells {
        let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
        prog.model = cfg.model;
        let key = study_key(&prog, w.name(), "avx", &cfg);
        computed += &format!("{key} {variant}\n");
    }
    check("fault-model/prune", &computed, VARIANTS);
}

//! The concrete [`Workload`] implementation for SPMD-C benchmark kernels.

use spmdc::VectorIsa;
use vexec::{Memory, Trap};
use vir::Module;
use vulfi::workload::{SetupResult, Workload};

/// Setup callback type: deterministically materialize input `i`.
pub type SetupFn = Box<dyn Fn(&mut Memory, u64) -> Result<SetupResult, Trap> + Send + Sync>;

/// A benchmark: a compiled SPMD-C kernel plus its input family.
pub struct SpmdWorkload {
    name: String,
    entry: String,
    module: Module,
    isa: VectorIsa,
    num_inputs: u64,
    setup: SetupFn,
    /// Source language label for Table I ("C++ (SPMD-C)" or "ISPC (SPMD-C)").
    pub language: &'static str,
    /// Suite label for Table I ("Parvec", "ISPC", "SCL", "Micro").
    pub suite: &'static str,
    /// Test-input description for Table I.
    pub input_desc: String,
}

impl SpmdWorkload {
    /// Compile `src` for `isa` and wrap it as a workload.
    #[allow(clippy::too_many_arguments)]
    pub fn compile(
        name: impl Into<String>,
        suite: &'static str,
        language: &'static str,
        input_desc: impl Into<String>,
        src: &str,
        entry: impl Into<String>,
        isa: VectorIsa,
        num_inputs: u64,
        setup: SetupFn,
    ) -> Result<SpmdWorkload, spmdc::CompileError> {
        let name = name.into();
        let entry = entry.into();
        let module = spmdc::compile(src, isa, &name)?;
        Ok(SpmdWorkload {
            name,
            entry,
            module,
            isa,
            num_inputs,
            setup,
            language,
            suite,
            input_desc: input_desc.into(),
        })
    }

    pub fn isa(&self) -> VectorIsa {
        self.isa
    }
}

impl Workload for SpmdWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn entry(&self) -> &str {
        &self.entry
    }

    fn module(&self) -> &Module {
        &self.module
    }

    fn num_inputs(&self) -> u64 {
        self.num_inputs
    }

    fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
        (self.setup)(mem, input % self.num_inputs.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::{RtVal, Scalar};
    use vulfi::workload::OutputRegion;

    #[test]
    fn compile_and_run_a_workload() {
        let src = r#"
export void negate(uniform float a[], uniform int n) {
    foreach (i = 0 ... n) {
        a[i] = -a[i];
    }
}
"#;
        let w = SpmdWorkload::compile(
            "negate",
            "Micro",
            "SPMD-C",
            "n in {6}",
            src,
            "negate",
            VectorIsa::Avx,
            1,
            Box::new(|mem, _| {
                let a = mem.alloc_f32_slice(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0])?;
                Ok(SetupResult {
                    args: vec![RtVal::Scalar(Scalar::ptr(a)), RtVal::Scalar(Scalar::i32(6))],
                    outputs: vec![OutputRegion { addr: a, bytes: 24 }],
                })
            }),
        )
        .unwrap();
        assert_eq!(w.name(), "negate");
        assert_eq!(w.isa(), VectorIsa::Avx);
        let d = vulfi::campaign::measure_dyn_insts(&w, 0).unwrap();
        assert!(d > 0);
    }
}

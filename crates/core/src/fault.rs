//! Fault models: what the injector corrupts, beyond the paper's single
//! bit flip.
//!
//! The paper evaluates exactly one model — flip one random bit of one
//! uniformly chosen dynamic fault site (§II-B). Real silicon studies
//! also need multi-bit bursts, stuck-at faults, mask-register
//! corruption, address-line upsets, temporally correlated double flips,
//! and memory-cell upsets. [`FaultModel`] names each of those; the
//! campaign layer threads it from [`StudySpec`](crate::StudySpec)
//! through [`StudyConfig`](crate::StudyConfig) down to the injection
//! hook.
//!
//! Two mechanically different families share the enum:
//!
//! - **value models** ([`SingleBitFlip`](FaultModel::SingleBitFlip),
//!   [`MultiBitBurst`](FaultModel::MultiBitBurst),
//!   [`StuckAt`](FaultModel::StuckAt),
//!   [`TemporalPair`](FaultModel::TemporalPair)) corrupt the lane value
//!   handed to the instrumented `vulfi.inject` call — same dynamic-site
//!   census as the paper's model;
//! - **engine models** ([`MaskCorrupt`](FaultModel::MaskCorrupt),
//!   [`AddressLine`](FaultModel::AddressLine),
//!   [`MemoryCell`](FaultModel::MemoryCell)) corrupt interpreter state
//!   (mask registers, pointer operands, guarded memory) via the
//!   [`vexec::EngineInjector`] hook, with their own event census.
//!
//! Every model draws all randomness from the experiment RNG stream the
//! paper's model uses (target index + 64 bits of entropy), so studies
//! stay bit-reproducible across shard sizes and thread counts, and
//! `SingleBitFlip` remains byte-identical to the pre-model injector.

use vexec::Scalar;

/// Serialized names of every model kind, in [`FaultModel::kind_index`]
/// order (parameters elided) — the metrics dimension and the
/// valid-model list in parse errors.
pub const MODEL_KINDS: [&str; 7] = [
    "single-bit-flip",
    "multi-bit-burst",
    "stuck-at",
    "mask-corrupt",
    "address-line",
    "temporal-pair",
    "memory-cell",
];

/// A fault model. Serialized as a compact string:
/// `single-bit-flip`, `multi-bit-burst:W`, `stuck-at:B=V` (V ∈ 0|1),
/// `mask-corrupt`, `address-line:B`, `temporal-pair:G`, `memory-cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// The paper's §II-B model: flip one random bit of the target
    /// dynamic site's lane value. The default; byte-identical to the
    /// pre-model injector.
    #[default]
    SingleBitFlip,
    /// Flip `width` contiguous bits starting at a random bit (wrapping
    /// within the lane's scalar type).
    MultiBitBurst { width: u32 },
    /// Force bit `bit` (mod the lane width) of the target value to
    /// `value`. May be a no-op when the bit already holds `value`.
    StuckAt { bit: u32, value: bool },
    /// Overwrite the whole mask register of the target masked intrinsic
    /// (masked load/store) with an entropy-derived lane pattern.
    MaskCorrupt,
    /// Flip bit `bit` of the address operand of the target guarded
    /// memory access (load/store, masked or not).
    AddressLine { bit: u32 },
    /// Two flips in the same run: the paper's flip at the target site,
    /// then a second flip at the first site executed at least `gap`
    /// dynamic instructions later.
    TemporalPair { gap: u64 },
    /// Flip one bit of one byte of live guarded memory once the faulty
    /// run reaches the target dynamic instruction.
    MemoryCell,
}

impl FaultModel {
    /// The model kind's serialized base name (parameters elided).
    pub fn kind(&self) -> &'static str {
        MODEL_KINDS[self.kind_index()]
    }

    /// Index into [`MODEL_KINDS`] — the fixed metrics dimension.
    pub fn kind_index(&self) -> usize {
        match self {
            FaultModel::SingleBitFlip => 0,
            FaultModel::MultiBitBurst { .. } => 1,
            FaultModel::StuckAt { .. } => 2,
            FaultModel::MaskCorrupt => 3,
            FaultModel::AddressLine { .. } => 4,
            FaultModel::TemporalPair { .. } => 5,
            FaultModel::MemoryCell => 6,
        }
    }

    /// The full serialized form, parameters included (inverse of
    /// [`FaultModel::parse`]).
    pub fn name(&self) -> String {
        match *self {
            FaultModel::SingleBitFlip => "single-bit-flip".to_string(),
            FaultModel::MultiBitBurst { width } => format!("multi-bit-burst:{width}"),
            FaultModel::StuckAt { bit, value } => {
                format!("stuck-at:{bit}={}", u8::from(value))
            }
            FaultModel::MaskCorrupt => "mask-corrupt".to_string(),
            FaultModel::AddressLine { bit } => format!("address-line:{bit}"),
            FaultModel::TemporalPair { gap } => format!("temporal-pair:{gap}"),
            FaultModel::MemoryCell => "memory-cell".to_string(),
        }
    }

    /// Parse a serialized model name. Errors name the offending input
    /// and enumerate every valid model so a typo in a spec or scenario
    /// is self-explanatory.
    pub fn parse(s: &str) -> Result<FaultModel, String> {
        let bad = |detail: &str| {
            Err(format!(
                "unknown fault model '{s}'{}{detail} (valid: single-bit-flip, \
                 multi-bit-burst:W, stuck-at:B=0|1, mask-corrupt, address-line:B, \
                 temporal-pair:G, memory-cell)",
                if detail.is_empty() { "" } else { ": " }
            ))
        };
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        let model = match (kind, arg) {
            ("single-bit-flip", None) => FaultModel::SingleBitFlip,
            ("mask-corrupt", None) => FaultModel::MaskCorrupt,
            ("memory-cell", None) => FaultModel::MemoryCell,
            ("multi-bit-burst", Some(a)) => match a.parse::<u32>() {
                Ok(width) => FaultModel::MultiBitBurst { width },
                Err(_) => return bad("burst width must be a number"),
            },
            ("multi-bit-burst", None) => return bad("needs a width, e.g. multi-bit-burst:3"),
            ("stuck-at", Some(a)) => match a.split_once('=') {
                Some((b, v)) => {
                    let bit = match b.parse::<u32>() {
                        Ok(bit) => bit,
                        Err(_) => return bad("stuck-at bit must be a number"),
                    };
                    let value = match v {
                        "0" => false,
                        "1" => true,
                        _ => return bad("stuck-at value must be 0 or 1"),
                    };
                    FaultModel::StuckAt { bit, value }
                }
                None => return bad("needs bit=value, e.g. stuck-at:3=1"),
            },
            ("stuck-at", None) => return bad("needs bit=value, e.g. stuck-at:3=1"),
            ("address-line", Some(a)) => match a.parse::<u32>() {
                Ok(bit) => FaultModel::AddressLine { bit },
                Err(_) => return bad("address-line bit must be a number"),
            },
            ("address-line", None) => return bad("needs a bit, e.g. address-line:12"),
            ("temporal-pair", Some(a)) => match a.parse::<u64>() {
                Ok(gap) => FaultModel::TemporalPair { gap },
                Err(_) => return bad("temporal-pair gap must be a number"),
            },
            ("temporal-pair", None) => return bad("needs a gap, e.g. temporal-pair:100"),
            _ => return bad(""),
        };
        model.validate()?;
        Ok(model)
    }

    /// Bounds checks on model parameters, with errors naming the limit.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FaultModel::MultiBitBurst { width } if !(2..=64).contains(&width) => Err(format!(
                "multi-bit-burst width {width} out of range (2..=64; use \
                 single-bit-flip for width 1)"
            )),
            FaultModel::StuckAt { bit, .. } | FaultModel::AddressLine { bit } if bit >= 64 => {
                Err(format!("fault-model bit {bit} out of range (0..=63)"))
            }
            FaultModel::TemporalPair { gap: 0 } => {
                Err("temporal-pair gap must be at least 1 dynamic instruction".to_string())
            }
            _ => Ok(()),
        }
    }

    /// The interpreter-level model for the models the engine (not the
    /// instrumented inject hook) applies: mask, address, and memory
    /// corruption. `None` for value models.
    pub fn engine_model(&self) -> Option<vexec::EngineModel> {
        match *self {
            FaultModel::MaskCorrupt => Some(vexec::EngineModel::MaskCorrupt),
            FaultModel::AddressLine { bit } => Some(vexec::EngineModel::AddressLine { bit }),
            FaultModel::MemoryCell => Some(vexec::EngineModel::MemoryCell),
            _ => None,
        }
    }

    /// Apply a value model to one lane scalar, returning the corrupted
    /// scalar and the primary bit coordinate to record. Engine models
    /// never reach this path and return the value unchanged.
    pub fn mutate_value(&self, val: Scalar, entropy: u64) -> (Scalar, u32) {
        let width = val.ty.bits() as u64;
        match *self {
            // TemporalPair's first flip is the paper's flip; the second
            // is applied by the host's pending-flip state.
            FaultModel::SingleBitFlip | FaultModel::TemporalPair { .. } => {
                let bit = (entropy % width) as u32;
                (val.flip_bit(bit), bit)
            }
            FaultModel::MultiBitBurst { width: burst } => {
                let start = (entropy % width) as u32;
                let mut out = val;
                for k in 0..burst.min(width as u32) {
                    out = out.flip_bit((start + k) % width as u32);
                }
                (out, start)
            }
            FaultModel::StuckAt { bit, value } => {
                let b = bit % width as u32;
                let bits = if value {
                    val.bits | (1u64 << b)
                } else {
                    val.bits & !(1u64 << b)
                };
                (Scalar::new(val.ty, bits), b)
            }
            FaultModel::MaskCorrupt | FaultModel::AddressLine { .. } | FaultModel::MemoryCell => {
                (val, 0)
            }
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl serde::Serialize for FaultModel {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name())
    }
}

impl serde::Deserialize for FaultModel {
    fn from_value(v: &serde::Value) -> Result<FaultModel, serde::DeError> {
        let s = String::from_value(v)?;
        FaultModel::parse(&s).map_err(serde::DeError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vir::ScalarTy;

    #[test]
    fn names_round_trip_through_parse() {
        let models = [
            FaultModel::SingleBitFlip,
            FaultModel::MultiBitBurst { width: 3 },
            FaultModel::StuckAt {
                bit: 7,
                value: true,
            },
            FaultModel::StuckAt {
                bit: 0,
                value: false,
            },
            FaultModel::MaskCorrupt,
            FaultModel::AddressLine { bit: 12 },
            FaultModel::TemporalPair { gap: 100 },
            FaultModel::MemoryCell,
        ];
        for m in models {
            assert_eq!(FaultModel::parse(&m.name()).unwrap(), m, "{m}");
            // serde round-trip through the vendored Value tree.
            use serde::{Deserialize as _, Serialize as _};
            let back = FaultModel::from_value(&m.to_value()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn parse_errors_list_valid_models() {
        for bad in [
            "bit-rot",
            "multi-bit-burst",
            "multi-bit-burst:x",
            "multi-bit-burst:1",
            "multi-bit-burst:65",
            "stuck-at",
            "stuck-at:3",
            "stuck-at:3=2",
            "stuck-at:64=1",
            "address-line",
            "address-line:64",
            "temporal-pair:0",
            "single-bit-flip:1",
        ] {
            let e = FaultModel::parse(bad).unwrap_err();
            assert!(
                e.contains("single-bit-flip")
                    && e.contains("mask-corrupt")
                    && e.contains("memory-cell")
                    || e.contains("out of range")
                    || e.contains("at least 1"),
                "error for '{bad}' must name valid models or the bound: {e}"
            );
        }
    }

    #[test]
    fn kind_index_spans_the_metrics_dimension() {
        let all = [
            FaultModel::SingleBitFlip,
            FaultModel::MultiBitBurst { width: 2 },
            FaultModel::StuckAt {
                bit: 1,
                value: false,
            },
            FaultModel::MaskCorrupt,
            FaultModel::AddressLine { bit: 1 },
            FaultModel::TemporalPair { gap: 1 },
            FaultModel::MemoryCell,
        ];
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.kind_index(), i);
            assert_eq!(m.kind(), MODEL_KINDS[i]);
            assert!(m.name().starts_with(MODEL_KINDS[i]));
        }
    }

    #[test]
    fn value_mutations_are_deterministic_and_bounded() {
        let v = Scalar::new(ScalarTy::F32, 0x3f80_0000);
        let (flipped, bit) = FaultModel::SingleBitFlip.mutate_value(v, 37);
        assert_eq!(bit, 37 % 32);
        assert_eq!(flipped.bits ^ v.bits, 1 << bit);

        // A burst flips exactly `width` distinct bits (wrapping).
        let (burst, start) = FaultModel::MultiBitBurst { width: 3 }.mutate_value(v, 31);
        assert_eq!(start, 31);
        assert_eq!(
            burst.bits ^ v.bits,
            (1 << 31) | (1 << 0) | (1 << 1),
            "burst wraps within the lane"
        );

        // Stuck-at to the current value is a no-op; to the other is one
        // bit.
        let (same, _) = FaultModel::StuckAt {
            bit: 23,
            value: true,
        }
        .mutate_value(v, 0);
        assert_eq!(same.bits, v.bits, "bit 23 of 1.0f32 is already set");
        let (forced, b) = FaultModel::StuckAt {
            bit: 23,
            value: false,
        }
        .mutate_value(v, 0);
        assert_eq!(forced.bits, v.bits & !(1 << 23));
        assert_eq!(b, 23);

        // Engine models never mutate register values.
        for m in [
            FaultModel::MaskCorrupt,
            FaultModel::AddressLine { bit: 3 },
            FaultModel::MemoryCell,
        ] {
            assert_eq!(m.mutate_value(v, 99).0.bits, v.bits);
        }
    }
}

//! The VULFI runtime: the host-side implementation of the injected
//! `vulfi.inject.*` API calls and of the detector runtime checks.
//!
//! Fault model (paper §II-B): exactly one single-bit fault per program
//! execution, at a dynamic fault site chosen uniformly at random. A
//! *dynamic fault site* is one active-lane execution of one instrumented
//! static site — calls whose execution-mask element is off are **not**
//! fault sites and pass through uncounted.

use vexec::{HostEnv, Memory, RtVal, Trap};

use crate::fault::FaultModel;

/// Execution mode of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Count dynamic fault sites; never inject (the golden run).
    Profile,
    /// Inject one bit flip when the running dynamic-site count reaches
    /// `target` (1-based). `bit_entropy` is reduced modulo the value width
    /// at the site.
    Inject { target: u64, bit_entropy: u64 },
}

/// Record of the (primary) injection performed.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    pub site_id: u32,
    pub lane: u32,
    /// 1-based dynamic occurrence index.
    pub occurrence: u64,
    pub bit: u32,
    pub bits_before: u64,
    pub bits_after: u64,
    /// Fault model that produced this corruption.
    pub model: FaultModel,
}

// Manual serde: the `model` field is omitted when it is the default
// single-bit flip (and defaulted when absent on read), so records written
// before the fault-model library existed parse — and default-model
// records stay byte-identical to what that era wrote.
impl serde::Serialize for InjectionRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("site_id".to_string(), self.site_id.to_value()),
            ("lane".to_string(), self.lane.to_value()),
            ("occurrence".to_string(), self.occurrence.to_value()),
            ("bit".to_string(), self.bit.to_value()),
            ("bits_before".to_string(), self.bits_before.to_value()),
            ("bits_after".to_string(), self.bits_after.to_value()),
        ];
        if self.model != FaultModel::default() {
            fields.push(("model".to_string(), self.model.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl serde::Deserialize for InjectionRecord {
    fn from_value(v: &serde::Value) -> Result<InjectionRecord, serde::DeError> {
        Ok(InjectionRecord {
            site_id: serde::field(v, "site_id")?,
            lane: serde::field(v, "lane")?,
            occurrence: serde::field(v, "occurrence")?,
            bit: serde::field(v, "bit")?,
            bits_before: serde::field(v, "bits_before")?,
            bits_after: serde::field(v, "bits_after")?,
            model: match v.get("model") {
                Some(m) => FaultModel::from_value(m)?,
                None => FaultModel::default(),
            },
        })
    }
}

/// Statistics from detector runtime checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Number of detector check calls executed.
    pub checks: u64,
    /// Number of checks whose invariant did not hold.
    pub violations: u64,
}

impl DetectorStats {
    pub fn detected(&self) -> bool {
        self.violations > 0
    }
}

/// The combined VULFI host environment: fault-injection API plus detector
/// runtime. Any other host call is rejected.
pub struct VulfiHost {
    mode: RunMode,
    /// Fault model applied at the target site (value models only; engine
    /// models bypass the instrumented API entirely).
    model: FaultModel,
    /// Dynamic fault sites observed so far (active lanes only).
    pub dynamic_sites: u64,
    pub injection: Option<InjectionRecord>,
    /// Dynamic instruction count at the moment of injection (from the
    /// interpreter's host clock). Observability only — not serialized
    /// with the experiment record.
    pub injection_at: Option<u64>,
    /// Host-clock deadline for the second flip of a temporal pair.
    second_due: Option<u64>,
    pub detectors: DetectorStats,
    /// When present, every counted dynamic site is appended as
    /// `(site_id, lane)` — the census the campaign pruner replays to
    /// predict which coordinate a given target index would hit.
    pub site_log: Option<Vec<(u32, u32)>>,
}

impl VulfiHost {
    /// Golden-run host: counts sites, never injects.
    pub fn profile() -> VulfiHost {
        VulfiHost {
            mode: RunMode::Profile,
            model: FaultModel::default(),
            dynamic_sites: 0,
            injection: None,
            injection_at: None,
            second_due: None,
            detectors: DetectorStats::default(),
            site_log: None,
        }
    }

    /// Golden-run host that also records the ordered `(site_id, lane)`
    /// census of every counted dynamic site.
    pub fn profile_logging() -> VulfiHost {
        VulfiHost {
            site_log: Some(Vec::new()),
            ..VulfiHost::profile()
        }
    }

    /// Faulty-run host: flips one bit at dynamic site `target` (1-based).
    pub fn inject(target: u64, bit_entropy: u64) -> VulfiHost {
        VulfiHost::inject_model(target, bit_entropy, FaultModel::default())
    }

    /// Faulty-run host applying `model` at dynamic site `target`
    /// (1-based). `bit_entropy` feeds every random choice the model
    /// makes.
    pub fn inject_model(target: u64, bit_entropy: u64, model: FaultModel) -> VulfiHost {
        VulfiHost {
            mode: RunMode::Inject {
                target,
                bit_entropy,
            },
            model,
            dynamic_sites: 0,
            injection: None,
            injection_at: None,
            second_due: None,
            detectors: DetectorStats::default(),
            site_log: None,
        }
    }

    /// Is the injection over: the fault applied, and no second flip of a
    /// temporal pair still pending? From then on the host never changes
    /// a value again.
    pub fn settled(&self) -> bool {
        self.injection.is_some() && self.second_due.is_none()
    }

    fn handle_inject(
        &mut self,
        name: &str,
        args: &[RtVal],
        mem: &Memory,
    ) -> Result<Option<RtVal>, Trap> {
        let bad = |m: &str| Trap::HostError(format!("@{name}: {m}"));
        if args.len() < 4 {
            return Err(bad("expects (value, mask, site, lane)"));
        }
        let val = match &args[0] {
            RtVal::Scalar(s) => *s,
            RtVal::Vector(..) => return Err(bad("value must be scalar (per-lane calls)")),
        };
        let mask = match &args[1] {
            RtVal::Scalar(s) => *s,
            RtVal::Vector(..) => return Err(bad("mask must be scalar")),
        };
        if !mask.mask_active() {
            // Masked-off lane: not a fault site (paper §II-D).
            return Ok(Some(RtVal::Scalar(val)));
        }
        self.dynamic_sites += 1;
        if let Some(log) = &mut self.site_log {
            log.push((
                args[2].lane(0).as_u64() as u32,
                args[3].lane(0).as_u64() as u32,
            ));
        }
        if let RunMode::Inject {
            target,
            bit_entropy,
        } = self.mode
        {
            if self.dynamic_sites == target && self.injection.is_none() {
                let (flipped, bit) = self.model.mutate_value(val, bit_entropy);
                self.injection = Some(InjectionRecord {
                    site_id: args[2].lane(0).as_u64() as u32,
                    lane: args[3].lane(0).as_u64() as u32,
                    occurrence: self.dynamic_sites,
                    bit,
                    bits_before: val.bits,
                    bits_after: flipped.bits,
                    model: self.model,
                });
                self.injection_at = Some(mem.host_clock());
                if let FaultModel::TemporalPair { gap } = self.model {
                    self.second_due = Some(mem.host_clock().saturating_add(gap));
                }
                return Ok(Some(RtVal::Scalar(flipped)));
            }
            // Second flip of a temporal pair: the next active site once
            // the dynamic-instruction clock has advanced past the gap.
            // Only the primary is recorded; the pair shares one entropy
            // draw (high half selects the second bit).
            if let Some(due) = self.second_due {
                if self.injection.is_some() && mem.host_clock() >= due {
                    self.second_due = None;
                    let bit = ((bit_entropy >> 32) % val.ty.bits() as u64) as u32;
                    return Ok(Some(RtVal::Scalar(val.flip_bit(bit))));
                }
            }
        }
        Ok(Some(RtVal::Scalar(val)))
    }

    fn handle_check(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        match name {
            // checkInvariantsForeachFullBody(new_counter, aligned_end, Vl, id)
            // — the three invariants of paper Fig. 8, checked on loop exit.
            "vulfi.check.foreach" => {
                if args.len() < 3 {
                    return Err(Trap::HostError(
                        "@vulfi.check.foreach expects (new_counter, aligned_end, Vl)".into(),
                    ));
                }
                let nc = args[0].lane(0).as_i64();
                let ae = args[1].lane(0).as_i64();
                let vl = args[2].lane(0).as_i64();
                self.detectors.checks += 1;
                let ok = vl > 0 && nc >= 0 && nc <= ae && nc % vl == 0;
                if !ok {
                    self.detectors.violations += 1;
                }
                Ok(None)
            }
            // checkUniformBroadcast(vec) — all lanes must hold one value
            // (paper §III-B).
            "vulfi.check.uniform" => {
                let v = &args[0];
                self.detectors.checks += 1;
                let first = v.lane(0).bits;
                // An XOR-reduction in spirit: any differing lane trips it.
                if (1..v.num_lanes()).any(|i| v.lane(i).bits != first) {
                    self.detectors.violations += 1;
                }
                Ok(None)
            }
            other => Err(Trap::UnknownFunction(other.to_string())),
        }
    }
}

impl HostEnv for VulfiHost {
    fn call(
        &mut self,
        name: &str,
        args: &[RtVal],
        mem: &mut Memory,
    ) -> Result<Option<RtVal>, Trap> {
        if name.starts_with("vulfi.inject.") {
            return self.handle_inject(name, args, mem);
        }
        if name.starts_with("vulfi.check.") {
            return self.handle_check(name, args);
        }
        Err(Trap::UnknownFunction(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::{Memory, Scalar};

    fn call(h: &mut VulfiHost, name: &str, args: Vec<RtVal>) -> Result<Option<RtVal>, Trap> {
        let mut mem = Memory::default();
        h.call(name, &args, &mut mem)
    }

    fn inject_args(v: f32, mask_on: bool) -> Vec<RtVal> {
        vec![
            RtVal::Scalar(Scalar::f32(v)),
            RtVal::Scalar(Scalar::i1(mask_on)),
            RtVal::Scalar(Scalar::i64(7)),
            RtVal::Scalar(Scalar::i32(3)),
        ]
    }

    #[test]
    fn profile_counts_active_lanes_only() {
        let mut h = VulfiHost::profile();
        call(&mut h, "vulfi.inject.f32", inject_args(1.0, true)).unwrap();
        call(&mut h, "vulfi.inject.f32", inject_args(2.0, false)).unwrap();
        call(&mut h, "vulfi.inject.f32", inject_args(3.0, true)).unwrap();
        assert_eq!(h.dynamic_sites, 2);
        assert!(h.injection.is_none());
    }

    #[test]
    fn profile_logging_records_active_lane_census() {
        let mut h = VulfiHost::profile_logging();
        call(&mut h, "vulfi.inject.f32", inject_args(1.0, true)).unwrap();
        call(&mut h, "vulfi.inject.f32", inject_args(2.0, false)).unwrap();
        call(&mut h, "vulfi.inject.f32", inject_args(3.0, true)).unwrap();
        assert_eq!(h.dynamic_sites, 2);
        assert_eq!(h.site_log.as_deref(), Some(&[(7, 3), (7, 3)][..]));
    }

    #[test]
    fn inject_flips_exactly_one_bit_at_target() {
        let mut h = VulfiHost::inject(2, 31); // bit 31 of f32 = sign bit
        let r1 = call(&mut h, "vulfi.inject.f32", inject_args(1.0, true))
            .unwrap()
            .unwrap();
        assert_eq!(r1.scalar().as_f32(), 1.0, "first occurrence untouched");
        let r2 = call(&mut h, "vulfi.inject.f32", inject_args(1.0, true))
            .unwrap()
            .unwrap();
        assert_eq!(r2.scalar().as_f32(), -1.0, "sign bit flipped");
        let r3 = call(&mut h, "vulfi.inject.f32", inject_args(1.0, true))
            .unwrap()
            .unwrap();
        assert_eq!(r3.scalar().as_f32(), 1.0, "only one injection ever");
        let rec = h.injection.unwrap();
        assert_eq!(rec.site_id, 7);
        assert_eq!(rec.lane, 3);
        assert_eq!(rec.occurrence, 2);
        assert_eq!(rec.bit, 31);
    }

    #[test]
    fn masked_lanes_are_not_counted_toward_target() {
        let mut h = VulfiHost::inject(1, 0);
        let r = call(&mut h, "vulfi.inject.f32", inject_args(1.0, false))
            .unwrap()
            .unwrap();
        assert_eq!(r.scalar().as_f32(), 1.0);
        assert!(h.injection.is_none(), "masked lane must not be injected");
        call(&mut h, "vulfi.inject.f32", inject_args(1.0, true)).unwrap();
        assert!(h.injection.is_some());
    }

    #[test]
    fn bit_entropy_reduced_by_width() {
        let mut h = VulfiHost::inject(1, 64 + 5); // i32 width 32 → bit 5... (69 % 32 = 5)
        let args = vec![
            RtVal::Scalar(Scalar::i32(0)),
            RtVal::Scalar(Scalar::i1(true)),
            RtVal::Scalar(Scalar::i64(0)),
            RtVal::Scalar(Scalar::i32(0)),
        ];
        let r = call(&mut h, "vulfi.inject.i32", args).unwrap().unwrap();
        assert_eq!(r.scalar().as_u64(), 1 << 5);
    }

    #[test]
    fn foreach_invariants() {
        let args = |nc: i32, ae: i32, vl: i32| {
            vec![
                RtVal::Scalar(Scalar::i32(nc)),
                RtVal::Scalar(Scalar::i32(ae)),
                RtVal::Scalar(Scalar::i32(vl)),
                RtVal::Scalar(Scalar::i64(0)),
            ]
        };
        let mut h = VulfiHost::profile();
        // Holds: 16 ≤ 16, 16 % 8 == 0, ≥ 0.
        call(&mut h, "vulfi.check.foreach", args(16, 16, 8)).unwrap();
        assert_eq!(h.detectors.violations, 0);
        // Invariant 2 violated: counter ran past aligned_end.
        call(&mut h, "vulfi.check.foreach", args(24, 16, 8)).unwrap();
        assert_eq!(h.detectors.violations, 1);
        // Invariant 3 violated: misaligned counter.
        call(&mut h, "vulfi.check.foreach", args(13, 16, 8)).unwrap();
        assert_eq!(h.detectors.violations, 2);
        // Invariant 1 violated: negative counter.
        call(&mut h, "vulfi.check.foreach", args(-8, 16, 8)).unwrap();
        assert_eq!(h.detectors.violations, 3);
        assert_eq!(h.detectors.checks, 4);
        assert!(h.detectors.detected());
    }

    #[test]
    fn uniform_broadcast_check() {
        let mut h = VulfiHost::profile();
        let uniform = RtVal::Vector(vir::ScalarTy::F32, vec![0x40000000; 8]);
        call(&mut h, "vulfi.check.uniform", vec![uniform]).unwrap();
        assert_eq!(h.detectors.violations, 0);
        let mut lanes = vec![0x40000000u64; 8];
        lanes[5] ^= 1 << 12;
        let corrupted = RtVal::Vector(vir::ScalarTy::F32, lanes);
        call(&mut h, "vulfi.check.uniform", vec![corrupted]).unwrap();
        assert_eq!(h.detectors.violations, 1);
    }

    #[test]
    fn unknown_hosts_rejected() {
        let mut h = VulfiHost::profile();
        assert!(matches!(
            call(&mut h, "mystery.fn", vec![]),
            Err(Trap::UnknownFunction(_))
        ));
    }
}

//! The VULFI runtime: the host-side implementation of the injected
//! `vulfi.inject.*` API calls and of the detector runtime checks.
//!
//! Fault model (paper §II-B): exactly one single-bit fault per program
//! execution, at a dynamic fault site chosen uniformly at random. A
//! *dynamic fault site* is one active-lane execution of one instrumented
//! static site — calls whose execution-mask element is off are **not**
//! fault sites and pass through uncounted.
//!
//! [`VulfiHost`] resolves `vulfi.inject.*` and `vulfi.check.*` to callee
//! ids once per program (see [`vexec::HostEnv`]) and works on the
//! caller's lane words: a call compares no string, builds no `RtVal` and
//! allocates nothing.

use vexec::{HostArgs, HostCall, HostEnv, Scalar, Trap};
use vir::ScalarTy;

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
    /// Dynamic instruction count at the moment of injection.
    /// Observability only — not serialized with the experiment record.
    pub injection_at: Option<u64>,
    /// Dynamic-instruction deadline for the second flip of a temporal
    /// pair.
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

    /// `vulfi.inject.*(value, mask, site, lane)`: count an active lane
    /// as a dynamic fault site and return the value, corrupted at the
    /// target site.
    fn inject_lane(&mut self, call: HostCall<'_>) -> Result<bool, Trap> {
        let bad = |m: &str| Trap::HostError(format!("@{}: {m}", call.name));
        let args = call.args;
        if args.len() < 4 {
            return Err(bad("expects (value, mask, site, lane)"));
        }
        let scalar = |i: usize, what: &str| match args.get(i) {
            Some(a) if !a.ty.is_vector() => a.lane(0).ok_or_else(|| bad(what)),
            _ => Err(bad(what)),
        };
        let val = scalar(0, "value must be scalar (per-lane calls)")?;
        let mask = scalar(1, "mask must be scalar")?;
        let out = self
            .inject_value(val, mask.mask_active(), args, call.executed)
            .unwrap_or(val);
        if let Some(w) = call.ret.first_mut() {
            *w = out.bits;
        }
        Ok(true)
    }

    /// Count a lane holding `val` as a dynamic fault site when it is
    /// `active`, and return its corrupted value when this call, at dyn
    /// inst `executed`, injects. `args` holds the site and lane ids.
    fn inject_value(
        &mut self,
        val: Scalar,
        active: bool,
        args: HostArgs<'_>,
        executed: u64,
    ) -> Option<Scalar> {
        if !active {
            // Masked-off lane: not a fault site (paper §II-D).
            return None;
        }
        self.dynamic_sites += 1;
        let coordinate = || {
            let word = |i| args.scalar(i).map_or(0, |s| s.bits as u32);
            (word(2), word(3))
        };
        if let Some(log) = &mut self.site_log {
            log.push(coordinate());
        }
        let RunMode::Inject {
            target,
            bit_entropy,
        } = self.mode
        else {
            return None;
        };
        if self.dynamic_sites == target && self.injection.is_none() {
            let (flipped, bit) = self.model.mutate_value(val, bit_entropy);
            let (site_id, lane) = coordinate();
            self.injection = Some(InjectionRecord {
                site_id,
                lane,
                occurrence: self.dynamic_sites,
                bit,
                bits_before: val.bits,
                bits_after: flipped.bits,
                model: self.model,
            });
            self.injection_at = Some(executed);
            if let FaultModel::TemporalPair { gap } = self.model {
                self.second_due = Some(executed.saturating_add(gap));
            }
            return Some(flipped);
        }
        // Second flip of a temporal pair: the next active site once the
        // dynamic-instruction count has advanced past the gap. Only the
        // primary is recorded; the pair shares one entropy draw (high
        // half selects the second bit).
        let due = self.second_due?;
        if self.injection.is_some() && executed >= due {
            self.second_due = None;
            let bit = ((bit_entropy >> 32) % val.ty.bits() as u64) as u32;
            return Some(val.flip_bit(bit));
        }
        None
    }

    /// checkInvariantsForeachFullBody(new_counter, aligned_end, Vl, id):
    /// the three invariants of paper Fig. 8, checked on loop exit.
    fn check_foreach(&mut self, args: HostArgs<'_>) -> Result<bool, Trap> {
        if args.len() < 3 {
            return Err(Trap::HostError(
                "@vulfi.check.foreach expects (new_counter, aligned_end, Vl)".into(),
            ));
        }
        let int = |i| args.scalar(i).map_or(0, Scalar::as_i64);
        let (nc, ae, vl) = (int(0), int(1), int(2));
        self.detectors.checks += 1;
        let ok = vl > 0 && nc >= 0 && nc <= ae && nc % vl == 0;
        if !ok {
            self.detectors.violations += 1;
        }
        Ok(false)
    }

    /// checkUniformBroadcast(vec): all lanes must hold one value (paper
    /// §III-B).
    fn check_uniform(&mut self, args: HostArgs<'_>) -> Result<bool, Trap> {
        let Some(v) = args.get(0) else {
            return Err(Trap::HostError("@vulfi.check.uniform expects (vec)".into()));
        };
        self.detectors.checks += 1;
        // An XOR-reduction in spirit: any differing lane trips it.
        if let Some((first, rest)) = v.words.split_first() {
            let mask = v.ty.elem().map_or(0, ScalarTy::bit_mask);
            if rest.iter().any(|w| (w ^ first) & mask != 0) {
                self.detectors.violations += 1;
            }
        }
        Ok(false)
    }
}

/// [`VulfiHost`]'s callee ids.
const INJECT: u32 = 0;
const CHECK_FOREACH: u32 = 1;
const CHECK_UNIFORM: u32 = 2;

impl HostEnv for VulfiHost {
    fn resolve(&self, name: &str) -> Option<u32> {
        if name.starts_with("vulfi.inject.") {
            return Some(INJECT);
        }
        match name {
            "vulfi.check.foreach" => Some(CHECK_FOREACH),
            "vulfi.check.uniform" => Some(CHECK_UNIFORM),
            _ => None,
        }
    }

    fn call(&mut self, id: u32, call: HostCall<'_>) -> Result<bool, Trap> {
        match id {
            INJECT => self.inject_lane(call),
            CHECK_FOREACH => self.check_foreach(call.args),
            CHECK_UNIFORM => self.check_uniform(call.args),
            _ => Err(Trap::UnknownFunction(call.name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexec::{Interp, Memory, RtVal, Slot};

    /// Call `name` on `args` laid out in one run of words, as the
    /// interpreter would; the value it returns has the first argument's
    /// type.
    fn call(h: &mut VulfiHost, name: &str, args: Vec<RtVal>) -> Result<Option<Scalar>, Trap> {
        let (mut slots, mut words) = (Vec::new(), Vec::new());
        for a in &args {
            slots.push(Slot {
                off: words.len() as u32,
                ty: a.ty(),
            });
            words.extend(a.lanes().iter().map(|s| s.bits));
        }
        let id = h
            .resolve(name)
            .ok_or_else(|| Trap::UnknownFunction(name.to_string()))?;
        let mut ret = [0];
        let wrote = h.call(
            id,
            HostCall {
                name,
                args: HostArgs::new(&slots, &words),
                ret: &mut ret,
                executed: 0,
                mem: &mut Memory::default(),
            },
        )?;
        let ty = args.first().map_or(ScalarTy::I64, |a| a.lane(0).ty);
        Ok(wrote.then(|| Scalar::new(ty, ret[0])))
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
        assert_eq!(r1.as_f32(), 1.0, "first occurrence untouched");
        let r2 = call(&mut h, "vulfi.inject.f32", inject_args(1.0, true))
            .unwrap()
            .unwrap();
        assert_eq!(r2.as_f32(), -1.0, "sign bit flipped");
        let r3 = call(&mut h, "vulfi.inject.f32", inject_args(1.0, true))
            .unwrap()
            .unwrap();
        assert_eq!(r3.as_f32(), 1.0, "only one injection ever");
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
        assert_eq!(r.as_f32(), 1.0);
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
        assert_eq!(r.as_u64(), 1 << 5);
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
    fn uniform_check_without_arguments_is_a_host_error() {
        let mut h = VulfiHost::profile();
        assert_eq!(
            call(&mut h, "vulfi.check.uniform", vec![]),
            Err(Trap::HostError("@vulfi.check.uniform expects (vec)".into()))
        );
        // The same through the interpreter, from a module the verifier
        // accepts.
        let src = "declare void @vulfi.check.uniform(...)\n\ndefine void @f() {\nentry:\n  call void @vulfi.check.uniform()\n  ret void\n}\n";
        let m = vir::parser::parse_module(src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let e = Interp::new(&m).run("f", &[], &mut h);
        assert_eq!(
            e,
            Err(Trap::HostError("@vulfi.check.uniform expects (vec)".into()))
        );
        assert_eq!(h.detectors.checks, 0);
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

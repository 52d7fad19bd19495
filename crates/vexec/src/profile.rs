//! Dynamic execution profiles.
//!
//! The paper's Table I reports dynamic instruction counts and Fig. 10 the
//! vector/scalar composition. [`InstMix`] captures both *dynamically*: how
//! many executed instructions were vector instructions (per the paper's
//! §II-A definition — at least one vector operand or result), broken down
//! by opcode.
//!
//! On top of the opcode mix, the profile records **lane occupancy**: for
//! every executed vector instruction whose active-lane set is knowable
//! (masked loads/stores consult their mask operand, vector selects their
//! condition vector, everything else runs all lanes), how many of its
//! lanes were architecturally live. The paper's §IV discussion leans on
//! exactly this — faults into masked-off lanes are absorbed — so reports
//! use the occupancy histogram to *explain* vector SDC rates, not just
//! state them.

use std::collections::{BTreeMap, HashMap};

use crate::observe::{At, Observer, Step};
use crate::program::Active;
use crate::value::Scalar;

/// Aggregated dynamic instruction mix of one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstMix {
    /// All executed instructions, terminators included.
    pub total: u64,
    /// Executed *vector* instructions (paper §II-A definition).
    pub vector: u64,
    /// Executed scalar instructions (incl. terminators).
    pub scalar: u64,
    /// Per-opcode dynamic counts.
    pub by_opcode: BTreeMap<&'static str, u64>,
    /// Sum of *active* lanes over executed vector instructions.
    pub lanes_active: u64,
    /// Sum of lane slots (vector widths) over the same instructions.
    pub lanes_total: u64,
    /// `occupancy[k]` = vector instructions that executed with exactly
    /// `k` active lanes. Grown on demand to the widest vector seen.
    pub occupancy: Vec<u64>,
}

impl InstMix {
    pub fn record(&mut self, opcode: &'static str, is_vector: bool) {
        self.total += 1;
        if is_vector {
            self.vector += 1;
        } else {
            self.scalar += 1;
        }
        *self.by_opcode.entry(opcode).or_insert(0) += 1;
    }

    /// Record one executed vector instruction along with its lane
    /// occupancy: `active` of `width` lanes were architecturally live.
    pub fn record_vector_lanes(&mut self, opcode: &'static str, active: u32, width: u32) {
        self.record(opcode, true);
        self.lanes_active += active as u64;
        self.lanes_total += width as u64;
        let k = active as usize;
        if self.occupancy.len() <= k {
            self.occupancy.resize(k + 1, 0);
        }
        self.occupancy[k] += 1;
    }

    /// Mean active lanes per vector instruction with lane information.
    pub fn avg_active_lanes(&self) -> f64 {
        let insts: u64 = self.occupancy.iter().sum();
        if insts == 0 {
            0.0
        } else {
            self.lanes_active as f64 / insts as f64
        }
    }

    /// Fraction of lane slots that were active (`0.0` with no lane info).
    pub fn lane_utilization(&self) -> f64 {
        if self.lanes_total == 0 {
            0.0
        } else {
            self.lanes_active as f64 / self.lanes_total as f64
        }
    }

    /// The mask-occupancy histogram as `(active_lanes, instructions)`
    /// pairs, zero-count buckets omitted.
    pub fn occupancy_histogram(&self) -> Vec<(u32, u64)> {
        self.occupancy
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (k as u32, n))
            .collect()
    }

    /// Percentage of executed instructions that were vector instructions.
    pub fn vector_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.vector as f64 / self.total as f64
        }
    }

    /// Opcodes sorted by descending dynamic count.
    pub fn hottest(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> =
            self.by_opcode.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

impl Observer for InstMix {
    fn step(&mut self, Step(_, f, at): Step<'_>) {
        let (m, regs, base) = match at {
            At::Inst(pc, regs, base) => (&f.meta[pc], regs, base),
            At::Term(_, opcode) => return self.record(opcode, false),
        };
        if !m.is_vec {
            return self.record(m.opcode, false);
        }
        // Active-lane count: masked memory ops consult their mask operand
        // and vector selects their condition; everything else executes all
        // lanes. Purely observational: reads already computed operands.
        let lanes = |off: u32, n: u32| &regs[base + off as usize..][..n as usize];
        let active = match m.active {
            Active::Full => m.width,
            Active::Mask { off, n, elem } => lanes(off, n)
                .iter()
                .filter(|&&w| Scalar::new(elem, w).mask_active())
                .count() as u32,
            // Select semantics test lane bit 0 (see the interpreter's
            // `exec_op`), not the sign bit the AVX mask convention uses.
            Active::Cond { off, n } => lanes(off, n).iter().filter(|&&w| w & 1 == 1).count() as u32,
        };
        self.record_vector_lanes(m.opcode, active.min(m.width), m.width);
    }
}

/// Where a hotspot site lives inside its function: a numbered
/// instruction, or a block terminator (`br`/`condbr`/`ret`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HotLoc {
    /// `InstId.0` of a body or phi instruction.
    Inst(u32),
    /// `BlockId.0` of the block whose terminator executed.
    Term(u32),
}

impl std::fmt::Display for HotLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HotLoc::Inst(i) => write!(f, "inst{i}"),
            HotLoc::Term(b) => write!(f, "term.bb{b}"),
        }
    }
}

/// One static site's accumulated hotspot stats.
#[derive(Debug, Clone)]
pub struct HotSite {
    pub func: String,
    pub loc: HotLoc,
    pub opcode: &'static str,
    /// Dynamic executions of this site.
    pub count: u64,
}

/// Per-opcode rollup of the hotspot table.
#[derive(Debug, Clone)]
pub struct Hotspot {
    pub opcode: &'static str,
    pub count: u64,
    /// Static sites contributing to this opcode.
    pub sites: u64,
}

/// Hot-path profile: exact dynamic counts per static site. Purely
/// observational — recording never touches execution state, so profiled
/// runs stay bit-identical to bare runs (property-tested in the
/// interpreter).
#[derive(Debug, Default)]
pub struct HotProfile {
    /// `(function id, site)` → index into `sites`. The id is only ever a
    /// map key; exported views sort by `(func, loc)` so output is
    /// deterministic across runs.
    index: HashMap<(usize, HotLoc), usize>,
    sites: Vec<HotSite>,
}

impl HotProfile {
    /// Record one dynamic execution of `(func_id, loc)`. `func_id` is
    /// any value that identifies the function for the profile's lifetime
    /// (the interpreter passes the function's index in its program);
    /// `func` is cloned once, on the site's first execution.
    pub fn record(&mut self, func_id: usize, func: &str, loc: HotLoc, opcode: &'static str) {
        let idx = *self.index.entry((func_id, loc)).or_insert_with(|| {
            self.sites.push(HotSite {
                func: func.to_string(),
                loc,
                opcode,
                count: 0,
            });
            self.sites.len() - 1
        });
        self.sites[idx].count += 1;
    }

    /// Total recorded dynamic instructions.
    pub fn total(&self) -> u64 {
        self.sites.iter().map(|s| s.count).sum()
    }

    /// Every site, sorted by descending dynamic count (ties broken by
    /// `(func, loc)` so the order is deterministic).
    pub fn sites(&self) -> Vec<HotSite> {
        let mut v = self.sites.clone();
        v.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.func.cmp(&b.func))
                .then(a.loc.cmp(&b.loc))
        });
        v
    }

    /// Per-opcode hotspot table, descending by dynamic count.
    pub fn hotspots(&self) -> Vec<Hotspot> {
        let mut by_op: BTreeMap<&'static str, Hotspot> = BTreeMap::new();
        for s in &self.sites {
            let h = by_op.entry(s.opcode).or_insert(Hotspot {
                opcode: s.opcode,
                count: 0,
                sites: 0,
            });
            h.count += s.count;
            h.sites += 1;
        }
        let mut v: Vec<Hotspot> = by_op.into_values().collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.opcode.cmp(b.opcode)));
        v
    }

    /// Folded-stack text (`func;opcode count` per line, sorted), the
    /// format flamegraph tooling consumes directly.
    pub fn folded(&self) -> String {
        let mut rolled: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
        for s in &self.sites {
            *rolled.entry((s.func.clone(), s.opcode)).or_insert(0) += s.count;
        }
        let mut out = String::new();
        for ((func, opcode), count) in rolled {
            out.push_str(&format!("{func};{opcode} {count}\n"));
        }
        out
    }
}

impl Observer for HotProfile {
    fn step(&mut self, Step(func, f, at): Step<'_>) {
        let (loc, opcode) = match at {
            At::Inst(pc, ..) => (HotLoc::Inst(f.meta[pc].iid), f.meta[pc].opcode),
            At::Term(block, opcode) => (HotLoc::Term(block), opcode),
        };
        self.record(func, &f.name, loc, opcode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_percentages() {
        let mut m = InstMix::default();
        m.record("fadd", true);
        m.record("fadd", true);
        m.record("add", false);
        m.record("br", false);
        assert_eq!(m.total, 4);
        assert_eq!(m.vector, 2);
        assert_eq!(m.scalar, 2);
        assert_eq!(m.vector_pct(), 50.0);
        assert_eq!(m.by_opcode["fadd"], 2);
    }

    #[test]
    fn hottest_ranks_by_count_then_name() {
        let mut a = InstMix::default();
        a.record("add", false);
        a.record("add", false);
        a.record("fmul", true);
        a.record("fmul", true);
        a.record("br", false);
        assert_eq!(a.hottest(), vec![("add", 2), ("fmul", 2), ("br", 1)]);
    }

    #[test]
    fn empty_mix() {
        let m = InstMix::default();
        assert_eq!(m.vector_pct(), 0.0);
        assert!(m.hottest().is_empty());
        assert_eq!(m.avg_active_lanes(), 0.0);
        assert_eq!(m.lane_utilization(), 0.0);
        assert!(m.occupancy_histogram().is_empty());
    }

    #[test]
    fn lane_occupancy_counts() {
        let mut m = InstMix::default();
        m.record_vector_lanes("fmul", 8, 8); // full-width body iteration
        m.record_vector_lanes("fmul", 8, 8);
        m.record_vector_lanes("maskstore", 3, 8); // masked tail
        m.record("add", false);
        assert_eq!(m.vector, 3);
        assert_eq!(m.lanes_active, 19);
        assert_eq!(m.lanes_total, 24);
        assert!((m.avg_active_lanes() - 19.0 / 3.0).abs() < 1e-12);
        assert!((m.lane_utilization() - 19.0 / 24.0).abs() < 1e-12);
        assert_eq!(m.occupancy_histogram(), vec![(3, 1), (8, 2)]);
    }

    #[test]
    fn hot_profile_counts_sites_and_rolls_up_opcodes() {
        let mut h = HotProfile::default();
        for _ in 0..3 {
            h.record(0x1000, "kernel", HotLoc::Inst(4), "fmul");
        }
        h.record(0x1000, "kernel", HotLoc::Inst(7), "fmul");
        h.record(0x1000, "kernel", HotLoc::Term(0), "br");
        h.record(0x2000, "helper", HotLoc::Inst(4), "add");
        assert_eq!(h.total(), 6);

        let sites = h.sites();
        assert_eq!(sites.len(), 4);
        assert_eq!((sites[0].func.as_str(), sites[0].count), ("kernel", 3));
        assert_eq!(sites[0].loc, HotLoc::Inst(4));

        let hot = h.hotspots();
        assert_eq!(hot[0].opcode, "fmul");
        assert_eq!(hot[0].count, 4);
        assert_eq!(hot[0].sites, 2);
        assert!(hot.iter().any(|x| x.opcode == "br" && x.count == 1));
    }

    #[test]
    fn hot_profile_folded_output_is_deterministic() {
        let mut h = HotProfile::default();
        h.record(7, "kernel", HotLoc::Inst(0), "fmul");
        h.record(7, "kernel", HotLoc::Inst(3), "fmul");
        h.record(7, "kernel", HotLoc::Term(1), "condbr");
        h.record(9, "aux", HotLoc::Inst(0), "load");
        assert_eq!(h.folded(), "aux;load 1\nkernel;condbr 1\nkernel;fmul 2\n");
    }
}

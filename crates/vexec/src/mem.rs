//! Guarded flat memory model.
//!
//! The interpreter simulates a process address space as a set of disjoint
//! allocations inside one flat byte array. Every access must fall entirely
//! within a single live allocation; anything else raises
//! [`Trap::OutOfBounds`], which the fault-injection campaign classifies as
//! a **Crash** — "an invalid memory reference" in the paper's terminology
//! (§II-C, §IV-B).
//!
//! Allocations are separated by unmapped guard gaps and the address space
//! starts well above zero, so single-bit flips in pointer registers
//! frequently (but not always) produce invalid addresses — low-order bit
//! flips can land inside the same allocation and surface as silent data
//! corruption instead, which is exactly the behaviour the paper's address
//! category experiments measure.

use vir::ScalarTy;

use crate::value::Scalar;

/// An execution trap: the "Crash" outcomes of the fault model.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Memory access outside any live allocation.
    OutOfBounds { addr: u64, size: u64 },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Reached an `unreachable` terminator.
    Unreachable,
    /// Call to a function that is neither defined, an intrinsic, nor
    /// provided by the host environment.
    UnknownFunction(String),
    /// The dynamic-instruction budget was exhausted (fault-induced hang).
    HangBudget,
    /// Call stack exceeded the depth limit (fault-induced runaway
    /// recursion).
    StackOverflow,
    /// `alloca` or host allocation exhausted simulated memory.
    OutOfMemory,
    /// The wall-clock watchdog fired (fault-induced hang that the
    /// instruction budget alone did not bound in acceptable real time).
    WallClock,
    /// The engine reached an internal state that only malformed (faulted)
    /// input can produce — a would-be panic converted into a trap so one
    /// pathological experiment cannot take down a whole campaign.
    EngineFault(String),
    /// A host function reported a fatal error.
    HostError(String),
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::OutOfBounds { addr, size } => {
                write!(f, "out-of-bounds access of {size} bytes at 0x{addr:x}")
            }
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::Unreachable => write!(f, "executed unreachable"),
            Trap::UnknownFunction(n) => write!(f, "call to unknown function @{n}"),
            Trap::HangBudget => write!(f, "dynamic instruction budget exhausted"),
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::OutOfMemory => write!(f, "simulated memory exhausted"),
            Trap::WallClock => write!(f, "wall-clock watchdog fired"),
            Trap::EngineFault(m) => write!(f, "engine fault: {m}"),
            Trap::HostError(m) => write!(f, "host error: {m}"),
        }
    }
}

impl std::error::Error for Trap {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    base: u64,
    size: u64,
}

/// Base of the simulated address space; addresses below are never valid,
/// so null (and near-null) dereferences trap.
const BASE_ADDR: u64 = 0x1_0000;
/// Guard gap between consecutive allocations.
const GUARD: u64 = 64;
/// Allocation alignment.
const ALIGN: u64 = 64;

/// The simulated memory.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    regions: Vec<Region>,
    next: u64,
    limit: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new(64 << 20)
    }
}

impl Memory {
    /// Create a memory with a byte capacity limit.
    pub fn new(limit: u64) -> Memory {
        Memory {
            data: Vec::new(),
            regions: Vec::new(),
            next: BASE_ADDR,
            limit: BASE_ADDR + limit,
        }
    }

    /// Allocate `size` bytes; returns the base address.
    pub fn alloc(&mut self, size: u64) -> Result<u64, Trap> {
        let size = size.max(1);
        let base = (self.next + ALIGN - 1) & !(ALIGN - 1);
        let end = base.checked_add(size).ok_or(Trap::OutOfMemory)?;
        if end > self.limit {
            return Err(Trap::OutOfMemory);
        }
        let need = (end - BASE_ADDR) as usize;
        if self.data.len() < need {
            self.data.resize(need, 0);
        }
        self.regions.push(Region { base, size });
        self.next = end + GUARD;
        Ok(base)
    }

    /// The bytes this memory holds: its image and its allocation table.
    pub(crate) fn bytes(&self) -> usize {
        self.data.len() + std::mem::size_of_val(&self.regions[..])
    }

    /// Total bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.size).sum()
    }

    /// Flip bit `bit` (mod 8) of the `k`-th live allocated byte (counted
    /// in allocation order, `k` taken mod the allocated total), returning
    /// `(addr, before, after)`. The memory-cell fault-model primitive:
    /// deterministic given the allocation history, `None` when nothing is
    /// allocated.
    pub fn corrupt_byte(&mut self, k: u64, bit: u32) -> Option<(u64, u8, u8)> {
        let total = self.allocated_bytes();
        if total == 0 {
            return None;
        }
        let mut k = k % total;
        let mut addr = None;
        for r in &self.regions {
            if k < r.size {
                addr = Some(r.base + k);
                break;
            }
            k -= r.size;
        }
        let addr = addr?;
        let off = (addr - BASE_ADDR) as usize;
        let before = self.data[off];
        let after = before ^ (1u8 << (bit % 8));
        self.data[off] = after;
        Some((addr, before, after))
    }

    /// Do two memories hold the same allocations and bytes, with the same
    /// next allocation address? The ceiling and the host clock are not
    /// compared: neither changes what the memory holds.
    pub fn same_contents(&self, other: &Memory) -> bool {
        self.next == other.next && self.regions == other.regions && self.data == other.data
    }

    /// Does every allocation end under a ceiling of `bytes` (as
    /// [`Memory::set_limit`] sets it), so that allocating them again
    /// under that ceiling would not trap?
    pub fn fits(&self, bytes: u64) -> bool {
        let limit = BASE_ADDR.saturating_add(bytes);
        self.regions.last().is_none_or(|r| r.base + r.size <= limit)
    }

    /// Cap the address space at `bytes` beyond the base address. Future
    /// allocations past the ceiling raise [`Trap::OutOfMemory`]; existing
    /// allocations are unaffected. Campaigns use this so a fault-induced
    /// allocation runaway is contained as a **Crash** outcome instead of
    /// exhausting host memory.
    pub fn set_limit(&mut self, bytes: u64) {
        self.limit = BASE_ADDR.saturating_add(bytes);
    }

    /// Validate that `[addr, addr+size)` lies entirely inside one live
    /// allocation; returns the byte offset into the backing store.
    fn check(&self, addr: u64, size: u64) -> Result<usize, Trap> {
        // Linear scan is fine: programs allocate a handful of buffers.
        for r in &self.regions {
            if addr >= r.base && addr.saturating_add(size) <= r.base + r.size {
                return Ok((addr - BASE_ADDR) as usize);
            }
        }
        Err(Trap::OutOfBounds { addr, size })
    }

    /// Is the whole range valid? (Query without side effects.)
    pub fn is_valid(&self, addr: u64, size: u64) -> bool {
        self.check(addr, size).is_ok()
    }

    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), Trap> {
        let off = self.check(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.data[off..off + buf.len()]);
        Ok(())
    }

    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), Trap> {
        let off = self.check(addr, buf.len() as u64)?;
        self.data[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Read one scalar of type `ty` (little-endian).
    pub fn read_scalar(&self, ty: ScalarTy, addr: u64) -> Result<Scalar, Trap> {
        let n = ty.bytes() as usize;
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..n])?;
        Ok(Scalar::new(ty, u64::from_le_bytes(buf)))
    }

    /// Write one scalar (little-endian).
    #[inline]
    pub fn write_scalar(&mut self, addr: u64, s: Scalar) -> Result<(), Trap> {
        let n = s.ty.bytes() as usize;
        let bytes = s.bits.to_le_bytes();
        self.write_bytes(addr, &bytes[..n])
    }

    /// Read `out.len()` consecutive scalars of type `ty` from `addr` into
    /// lane words: one bounds check for the run, or lane by lane (trapping
    /// at the first bad lane, as separate reads would) when the run leaves
    /// its allocation.
    pub(crate) fn read_lanes(&self, ty: ScalarTy, addr: u64, out: &mut [u64]) -> Result<(), Trap> {
        let n = ty.bytes();
        let Ok(off) = self.check(addr, n * out.len() as u64) else {
            for (i, w) in out.iter_mut().enumerate() {
                *w = self.read_scalar(ty, addr.wrapping_add(i as u64 * n))?.bits;
            }
            return Ok(());
        };
        let n = n as usize;
        for (w, bytes) in out.iter_mut().zip(self.data[off..].chunks_exact(n)) {
            let mut buf = [0u8; 8];
            buf[..n].copy_from_slice(bytes);
            *w = u64::from_le_bytes(buf) & ty.bit_mask();
        }
        Ok(())
    }

    /// Write consecutive lane words of type `ty` from `addr`; the
    /// counterpart of [`Memory::read_lanes`], writing every lane before
    /// the first bad one when the run leaves its allocation.
    pub(crate) fn write_lanes(
        &mut self,
        ty: ScalarTy,
        addr: u64,
        lanes: &[u64],
    ) -> Result<(), Trap> {
        let n = ty.bytes();
        let Ok(off) = self.check(addr, n * lanes.len() as u64) else {
            for (i, &w) in lanes.iter().enumerate() {
                self.write_scalar(addr.wrapping_add(i as u64 * n), Scalar::new(ty, w))?;
            }
            return Ok(());
        };
        let n = n as usize;
        for (&w, bytes) in lanes.iter().zip(self.data[off..].chunks_exact_mut(n)) {
            bytes.copy_from_slice(&(w & ty.bit_mask()).to_le_bytes()[..n]);
        }
        Ok(())
    }

    // Typed bulk helpers for setting up program inputs and reading outputs.

    pub fn alloc_f32_slice(&mut self, vals: &[f32]) -> Result<u64, Trap> {
        let base = self.alloc(vals.len() as u64 * 4)?;
        for (i, &v) in vals.iter().enumerate() {
            self.write_scalar(base + i as u64 * 4, Scalar::f32(v))?;
        }
        Ok(base)
    }

    pub fn alloc_i32_slice(&mut self, vals: &[i32]) -> Result<u64, Trap> {
        let base = self.alloc(vals.len() as u64 * 4)?;
        for (i, &v) in vals.iter().enumerate() {
            self.write_scalar(base + i as u64 * 4, Scalar::i32(v))?;
        }
        Ok(base)
    }

    pub fn read_f32_slice(&self, addr: u64, len: usize) -> Result<Vec<f32>, Trap> {
        (0..len)
            .map(|i| {
                Ok(self
                    .read_scalar(ScalarTy::F32, addr + i as u64 * 4)?
                    .as_f32())
            })
            .collect()
    }

    pub fn read_i32_slice(&self, addr: u64, len: usize) -> Result<Vec<i32>, Trap> {
        (0..len)
            .map(|i| {
                Ok(self
                    .read_scalar(ScalarTy::I32, addr + i as u64 * 4)?
                    .as_i64() as i32)
            })
            .collect()
    }

    /// Raw bytes of a buffer — the bit-exact output comparison the SDC
    /// classifier performs.
    pub fn snapshot(&self, addr: u64, size: u64) -> Result<Vec<u8>, Trap> {
        let mut buf = vec![0u8; size as usize];
        self.read_bytes(addr, &mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_roundtrip() {
        let mut m = Memory::default();
        let a = m.alloc(64).unwrap();
        m.write_scalar(a, Scalar::f32(3.25)).unwrap();
        m.write_scalar(a + 4, Scalar::i32(-7)).unwrap();
        assert_eq!(m.read_scalar(ScalarTy::F32, a).unwrap().as_f32(), 3.25);
        assert_eq!(m.read_scalar(ScalarTy::I32, a + 4).unwrap().as_i64(), -7);
    }

    #[test]
    fn null_and_low_addresses_trap() {
        let m = Memory::default();
        assert!(matches!(
            m.read_scalar(ScalarTy::I32, 0),
            Err(Trap::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.read_scalar(ScalarTy::I32, 8),
            Err(Trap::OutOfBounds { .. })
        ));
    }

    #[test]
    fn oob_past_end_traps() {
        let mut m = Memory::default();
        let a = m.alloc(16).unwrap();
        assert!(m.is_valid(a, 16));
        assert!(!m.is_valid(a, 17));
        assert!(matches!(
            m.read_scalar(ScalarTy::I64, a + 12),
            Err(Trap::OutOfBounds { .. })
        ));
        // The guard gap between allocations is unmapped.
        let b = m.alloc(16).unwrap();
        assert!(b >= a + 16 + 64);
        assert!(!m.is_valid(a + 16, 1));
    }

    #[test]
    fn access_cannot_straddle_allocations() {
        let mut m = Memory::default();
        let a = m.alloc(8).unwrap();
        let _b = m.alloc(8).unwrap();
        assert!(!m.is_valid(a + 4, 8), "straddling the guard must fail");
    }

    #[test]
    fn slices_roundtrip() {
        let mut m = Memory::default();
        let vals = vec![1.0f32, -2.5, 3.75, 0.0];
        let a = m.alloc_f32_slice(&vals).unwrap();
        assert_eq!(m.read_f32_slice(a, 4).unwrap(), vals);
        let ints = vec![5, -6, 7];
        let b = m.alloc_i32_slice(&ints).unwrap();
        assert_eq!(m.read_i32_slice(b, 3).unwrap(), ints);
    }

    #[test]
    fn limit_enforced() {
        let mut m = Memory::new(1024);
        assert!(m.alloc(512).is_ok());
        assert!(matches!(m.alloc(4096), Err(Trap::OutOfMemory)));
    }

    #[test]
    fn snapshot_is_bit_exact() {
        let mut m = Memory::default();
        let a = m.alloc_f32_slice(&[1.0, 2.0]).unwrap();
        let snap = m.snapshot(a, 8).unwrap();
        assert_eq!(&snap[..4], &1.0f32.to_le_bytes());
        assert_eq!(&snap[4..], &2.0f32.to_le_bytes());
    }
}

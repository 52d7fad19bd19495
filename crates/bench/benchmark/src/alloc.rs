//! Counting global allocator for the traced run's per-experiment
//! allocation counters.
//!
//! Counting is scoped to one thread and one closure ([`count`]): the
//! replay that feeds `campaign.allocs_per_exp` and
//! `vexec.allocs_per_kinst` runs single-threaded, so the count is exact
//! and repeats run to run, even while other threads (rayon workers, a
//! parallel test) allocate. Outside a [`count`] scope the allocator adds
//! one thread-local flag test to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn note_alloc() {
    // `try_with`: allocations can happen while thread-locals are being
    // torn down; those are simply not counted.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f`, returning its result and the heap allocations (including
/// reallocations) it made on this thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let was_on = COUNTING.with(|on| on.replace(true));
    let r = f();
    COUNTING.with(|on| on.set(was_on));
    (r, ALLOCS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_inside_the_scope() {
        let (v, n) = super::count(|| vec![1u8; 1024]);
        assert_eq!(v.len(), 1024);
        assert_eq!(n, 1);
        let ((), none) = super::count(|| ());
        assert_eq!(none, 0);
    }
}

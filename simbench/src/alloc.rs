//! A counting global allocator: allocation calls, bytes requested, live
//! bytes and their high-water mark, kept per thread in plain cells (the
//! benchmark runs on one thread) so counting costs a few
//! non-atomic adds per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with counting.
pub struct Counting;

/// This thread's allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> =
        const { Cell::new(Counts { allocs: 0, bytes: 0, live: 0, peak: 0 }) };
}

fn note(grow: usize, shrink: usize) {
    // `try_with` because the allocator can run while this thread's
    // locals are being torn down; those calls go uncounted.
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        if grow > 0 {
            v.allocs += 1;
            v.bytes += grow as u64;
        }
        v.live = (v.live + grow as u64).saturating_sub(shrink as u64);
        v.peak = v.peak.max(v.live);
        c.set(v);
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are thread-local statistics that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// This thread's counters now.
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    COUNTS.with(|c| {
        let mut v = c.get();
        v.peak = v.live;
        c.set(v);
    });
}

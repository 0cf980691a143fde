//! A counting global allocator for allocation-budget measurements.
//!
//! The runtime's serving contract is *zero steady-state heap allocations
//! per request* ([`ant_runtime::CompiledPlan::forward_rows`] +
//! [`ant_runtime::Scratch`]). Counters in this module make that claim
//! measurable from outside: install [`CountingAlloc`] as the binary's
//! `#[global_allocator]` (the `antc` binary and the `alloc_steady`
//! integration test do), snapshot [`alloc_count`] around a request burst,
//! and divide.
//!
//! Counts are **per thread**, so tests running in parallel in one
//! process never see each other's allocations: drive the measured work
//! on the reading thread (a plan `with_threads(1)` runs GEMMs inline).
//!
//! When the counting allocator is *not* installed (library consumers,
//! other binaries), the counters simply stay at zero; [`is_counting`]
//! distinguishes "zero allocations" from "nobody is counting" by probing
//! with a real heap allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised plain cells: no lazy init and no destructor, so
    // touching them from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Adds one allocation of `bytes` to the calling thread's counters.
fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// A [`System`]-backed allocator that counts every allocation
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`).
///
/// # Example
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ant_bench::alloc::CountingAlloc = ant_bench::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations the calling thread has made so far (0 forever when
/// [`CountingAlloc`] is not the global allocator).
pub fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has requested from the allocator so far
/// (`alloc` + `alloc_zeroed` sizes plus `realloc` targets; frees are not
/// subtracted). Together with [`alloc_count`] this separates "many tiny
/// allocations" from "few huge ones" when chasing a budget regression.
pub fn alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Whether allocation counting is live in this process, determined by
/// performing a heap allocation and watching the counter.
pub fn is_counting() -> bool {
    let before = alloc_count();
    let probe = vec![0u8; 64];
    std::hint::black_box(&probe);
    alloc_count() > before
}

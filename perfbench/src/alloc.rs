//! An allocation-counting global allocator. It counts only while a
//! [`Counting`] guard is alive, so untraced measurements pay one relaxed
//! load per allocator call and nothing else.
//!
//! Counts are kept per thread: a callback's allocations are the
//! difference of [`thread_count`] around it, on the thread that ran it,
//! so concurrent measurements on other threads never leak in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`
/// calls (not frees) while counting is on.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Number of live [`Counting`] guards; counting is on while it is nonzero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn record() {
    if ACTIVE.load(Ordering::Relaxed) > 0 {
        // `try_with` because the allocator can run while this thread's
        // locals are being torn down; such late calls go uncounted.
        let _ = THREAD_ALLOCS.try_with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract. `record` touches only an atomic
// and a const-initialised thread-local `Cell<u64>` without a destructor;
// neither allocates, so the allocator never re-enters itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls counted on the current thread so far.
pub fn thread_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Turns counting on for as long as it lives (guards nest).
pub struct Counting(());

impl Counting {
    /// Starts counting.
    pub fn on() -> Self {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
        Counting(())
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

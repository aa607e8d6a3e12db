//! Recording allocator shared by the suites that hold "no allocation beyond
//! what the input can back" as a test (included by path, like `mod.rs`
//! beside it): installs itself as the test binary's global allocator and
//! reports the largest single request a closure made on its own thread,
//! and the process-wide live and peak heap bytes. The byte counters see
//! every thread, so a suite that reads them runs one test per process.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Largest single allocation this thread has requested since the last
    /// reset (tests run on parallel threads, so the mark is per thread).
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// Heap bytes allocated and not yet freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are a thread-local high-water
// mark held in a const-initialised `Cell` and two atomic byte counters,
// none of which allocates or unwinds.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same block, same layout, as the caller guarantees.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                }
            }
        }
        out
    }
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
}

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// Run `f` and return its result with the largest single allocation it made.
pub fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ALLOC.with(|m| m.set(0));
    let out = f();
    (out, LARGEST_ALLOC.with(|m| m.get()))
}

/// Heap bytes live right now, across every thread.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live heap, across every thread, since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Start a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

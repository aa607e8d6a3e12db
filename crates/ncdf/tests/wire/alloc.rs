//! Recording allocator shared by the suites that hold "no allocation beyond
//! what the input can back" as a test (included by path, like `mod.rs`
//! beside it): installs itself as the test binary's global allocator and
//! reports the largest single request a closure made on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread has requested since the last
    /// reset (tests run on parallel threads, so the mark is per thread).
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local high-water
// mark held in a const-initialised `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same block, same layout, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// Run `f` and return its result with the largest single allocation it made.
pub fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ALLOC.with(|m| m.set(0));
    let out = f();
    (out, LARGEST_ALLOC.with(|m| m.get()))
}

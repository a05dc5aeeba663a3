//! A counting global allocator: wraps [`std::alloc::System`] and keeps
//! per-thread live / peak and process-wide cumulative byte counters.
//!
//! Binaries that want memory figures install it once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: maglog_engine::alloc::CountingAlloc = maglog_engine::alloc::CountingAlloc;
//! ```
//!
//! Library code never installs it — a host without the allocator simply
//! reads zeros from [`current_bytes`] / [`peak_bytes`], and every consumer
//! ([`crate::profile::MetricsSink`], the run-summary phase split, the
//! bench harness) treats zero as "not wired".
//!
//! Live and peak bytes are kept per thread: an evaluation runs on one
//! thread, so [`current_bytes`] / [`peak_bytes`] read on that thread
//! describe that evaluation alone, not whatever other threads (a
//! concurrent test, the `/metrics` server) allocate meanwhile. A block
//! freed on a thread other than the one that allocated it lowers the
//! freeing thread's live count, which may therefore go negative; the
//! readers clamp at zero. [`peak_bytes`] is monotone until [`reset_peak`]
//! re-seats it at the current level; scope a phase by resetting first
//! and reading after. The cumulative total is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}
static TOTAL: AtomicUsize = AtomicUsize::new(0);

/// Live heap bytes of the calling thread right now (0 if the allocator
/// is not installed).
pub fn current_bytes() -> usize {
    LIVE.with(Cell::get).max(0) as usize
}

/// High-water mark of the calling thread's live heap bytes since it
/// started or last called [`reset_peak`] (0 if the allocator is not
/// installed).
pub fn peak_bytes() -> usize {
    PEAK.with(Cell::get).max(0) as usize
}

/// Cumulative bytes ever allocated by any thread — a phase's delta
/// measures its allocation traffic even when everything is freed again.
pub fn total_allocated_bytes() -> usize {
    TOTAL.load(Relaxed)
}

/// Whether a [`CountingAlloc`] is installed in this binary (any live
/// Rust program has allocated by the time user code runs).
pub fn installed() -> bool {
    TOTAL.load(Relaxed) > 0
}

/// Re-seat the calling thread's peak at its current level, so the next
/// [`peak_bytes`] read reports the high-water mark of the scope that
/// follows.
pub fn reset_peak() {
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
}

// `Layout` caps sizes at `isize::MAX`, so the casts below are lossless.
// `try_with` because the allocator can run while a thread's locals are
// being torn down; such allocations go uncounted per thread.
fn count_alloc(size: usize) {
    TOTAL.fetch_add(size, Relaxed);
    let _ = LIVE.try_with(|live| {
        let now = live.get().saturating_add(size as isize);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn count_dealloc(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(size as isize)));
}

/// The counting allocator itself. A unit struct so installing it is a
/// one-liner; all state is in module-level counters.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_dealloc(layout.size());
            count_alloc(new_size);
        }
        p
    }
}

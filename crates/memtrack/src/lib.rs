//! `memtrack` — a counting global allocator.
//!
//! The paper measures the *memory overhead* of each reduction scheme as the
//! difference between the maximum resident set size of the parallel program
//! and that of the sequential program, using GNU `time` (§VI, noting ±5 MB
//! run-to-run noise). A counting allocator measures the same quantity —
//! extra heap claimed by privatization/bookkeeping — deterministically and
//! per-phase, which is what the benchmark harness wants.
//!
//! Usage: declare [`CountingAlloc`] as the global allocator in a binary,
//! then bracket a measured phase with [`reset_peak`] / [`peak_bytes`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;
//!
//! memtrack::reset_peak();
//! run_workload();
//! let overhead = memtrack::peak_bytes() - baseline_peak;
//! ```
//!
//! The counters are updated with relaxed atomics; the peak is maintained
//! with a CAS loop. Counting costs a couple of atomic ops per allocation,
//! which is negligible next to the allocation itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Global allocator that forwards to the system allocator while tracking
/// live bytes, peak live bytes and the total number of allocations.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record_alloc(size: usize) {
        TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        // Maintain the high-water mark.
        let mut peak = PEAK.load(Ordering::Relaxed);
        while live > peak {
            match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    #[inline]
    fn record_dealloc(size: usize) {
        CURRENT.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: forwards allocation to `System` unchanged; only counters are
// maintained on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::record_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::record_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::record_dealloc(layout.size());
            Self::record_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes right now.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Total number of allocations performed since process start.
pub fn total_allocations() -> usize {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// Resets the peak to the current live size, starting a new measured phase.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Convenience: runs `f` and returns `(result, peak_extra_bytes)` where
/// `peak_extra_bytes` is how far the heap high-water mark rose above the
/// level at entry — the paper's "memory overhead" for the phase.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let guard = PhaseGuard::begin();
    let r = f();
    (r, guard.peak_extra())
}

/// RAII variant of [`measure_peak`]: begin a measured phase, query
/// [`PhaseGuard::peak_extra`] at any point (e.g. in a `Drop` report).
pub struct PhaseGuard {
    baseline: usize,
}

impl PhaseGuard {
    /// Starts a measured phase (resets the peak to the current level).
    pub fn begin() -> Self {
        let baseline = current_bytes();
        reset_peak();
        PhaseGuard { baseline }
    }

    /// Live bytes when the phase began.
    pub fn baseline(&self) -> usize {
        self.baseline
    }

    /// How far the heap high-water mark has risen above the baseline so
    /// far in this phase.
    pub fn peak_extra(&self) -> usize {
        peak_bytes().saturating_sub(self.baseline)
    }
}

#[cfg(test)]
mod tests {
    // NOTE: these tests do not install the allocator (a test harness cannot),
    // so they only exercise the counter plumbing via the record hooks.
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The counters are process-wide: each test holds this lock, so the
    /// harness's parallel threads cannot move them mid-assertion.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_track_alloc_dealloc() {
        let _serial = serial();
        let base = current_bytes();
        CountingAlloc::record_alloc(1000);
        assert_eq!(current_bytes(), base + 1000);
        assert!(peak_bytes() >= base + 1000);
        CountingAlloc::record_dealloc(1000);
        assert_eq!(current_bytes(), base);
    }

    #[test]
    fn reset_peak_rebases() {
        let _serial = serial();
        CountingAlloc::record_alloc(5000);
        CountingAlloc::record_dealloc(5000);
        reset_peak();
        assert_eq!(peak_bytes(), current_bytes());
    }

    #[test]
    fn phase_guard_measures_rise() {
        let _serial = serial();
        let g = PhaseGuard::begin();
        CountingAlloc::record_alloc(4096);
        CountingAlloc::record_dealloc(4096);
        assert!(g.peak_extra() >= 4096);
        assert_eq!(g.baseline(), current_bytes());
    }
}

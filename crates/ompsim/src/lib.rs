//! `ompsim` — a small OpenMP-like fork/join runtime.
//!
//! The SPRAY paper targets OpenMP's `#pragma omp parallel for` with its
//! default *static* schedule; SPRAY's performance characteristics depend
//! directly on which loop indices land on which thread. This crate provides
//! an explicit, dependency-free stand-in for that runtime:
//!
//! * a persistent [`ThreadPool`] with fork/join [`ThreadPool::parallel`]
//!   regions (the calling thread participates as thread 0, like OpenMP's
//!   master thread),
//! * OpenMP-style loop [`Schedule`]s (`static`, `static,chunk`, `dynamic`,
//!   `guided`) with exactly OpenMP's chunk-assignment semantics,
//! * team-wide [`Team::barrier`] synchronization, and
//! * convenience wrappers [`ThreadPool::parallel_for`] /
//!   [`ThreadPool::for_each`].
//!
//! # Example
//!
//! ```
//! use ompsim::{ThreadPool, Schedule};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let sum = AtomicUsize::new(0);
//! pool.for_each(0..1000, Schedule::default(), |i| {
//!     sum.fetch_add(i, Ordering::Relaxed);
//! });
//! assert_eq!(sum.into_inner(), 999 * 1000 / 2);
//! ```

mod constructs;
mod pool;
mod scalar;
mod schedule;
pub mod verify;

pub use constructs::{single_sync, Single};
pub use pool::{Team, ThreadPool};
pub use schedule::{ChunkIter, ParseScheduleError, Schedule, ScheduleInstance};

use std::sync::OnceLock;

/// Environment variable read by [`global`] to pick the global pool width
/// (analogous to `OMP_NUM_THREADS`).
pub const NUM_THREADS_ENV: &str = "OMPSIM_NUM_THREADS";

/// Environment variable read by [`schedule_from_env`] (analogous to
/// `OMP_SCHEDULE`).
pub const SCHEDULE_ENV: &str = "OMPSIM_SCHEDULE";

/// Reads the default schedule from `OMPSIM_SCHEDULE` (e.g. `dynamic,16`),
/// falling back to plain `static` when unset or unparsable.
pub fn schedule_from_env() -> Schedule {
    std::env::var(SCHEDULE_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_default()
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// A lazily-initialized process-global pool.
///
/// Width is `OMPSIM_NUM_THREADS` if set, otherwise
/// [`std::thread::available_parallelism`].
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let n = std::env::var(NUM_THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ThreadPool::new(n)
    })
}

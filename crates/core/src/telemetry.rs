//! Run telemetry: per-strategy counters, per-phase wall times, and the
//! extended [`RunReport`] every region executor invocation returns.
//!
//! The paper frames strategy choice as depending on "the hardware,
//! application, and input data" (§I) but leaves measuring those inputs to
//! the user. This module is the measurement layer:
//!
//! * **[`Counters`]** — per-thread event counts. Cold-path events
//!   (first touches, conflicts, privatizations, forwards) are tallied on
//!   the strategy views' private fields; the hot-path `applies` count is
//!   kept by the *driver* per schedule chunk, in a chunk-local counter
//!   ([`crate::ReducerView::run_chunk`] or a [`crate::CountedView`]), and
//!   credited via [`crate::Reduction::record_applies`]. Everything is published once per
//!   phase into cache-line-padded per-thread slots ([`TelemetryBoard`]),
//!   so counting never false-shares.
//! * **[`PhaseTimes`]** — wall time of the region's four phases (loop,
//!   barrier wait, epilogue/merge, finish), measured per thread by the
//!   driver via the [`ompsim`] timing hooks and reduced to the critical
//!   path (max across threads).
//! * **[`RunReport`]** — strategy label, memory overhead, counters and
//!   phases in one value, with hand-rolled JSON serialization
//!   ([`RunReport::to_json`]) for the bench harnesses (the workspace is
//!   offline-first, so no serde).
//!
//! Counter semantics are cumulative since the reduction object was
//! constructed. [`crate::RegionExecutor`] builds a fresh reduction per
//! region (reusing only detached scratch), so executor-produced reports
//! are per-region.

use crate::shared::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The workspace's one JSON emitter (the workspace is offline-first, so
/// no serde): a push-style writer producing compact, strictly valid JSON
/// that `bench::json`'s strict parser round-trips.
///
/// Before this type, every emitter — [`RunReport::to_json`], its nested
/// [`Counters`]/[`PhaseTimes`] blocks, and each bench bin's artifact
/// block — hand-rolled its own `format!` JSON, and the copies drifted one
/// escaping bug at a time. They all route through here now.
///
/// Separator bookkeeping is automatic: containers track whether a comma
/// is due, and a [`key`](JsonWriter::key) binds to the next value without
/// one. Floats are formatted with `{:?}` (shortest round-trippable form),
/// matching what the bench regression tooling has always parsed.
///
/// ```
/// use spray::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_obj();
/// w.field_str("name", "tmv");
/// w.key("threads").begin_arr();
/// w.u64_val(2).u64_val(4);
/// w.end_arr();
/// w.end_obj();
/// assert_eq!(w.finish(), r#"{"name": "tmv", "threads": [2, 4]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Needs-comma flag per open container; index 0 is the top level.
    comma: Vec<bool>,
    /// A key was just written: the next value binds without a separator.
    pending: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter {
            buf: String::new(),
            comma: vec![false],
            pending: false,
        }
    }

    fn sep(&mut self) {
        if self.pending {
            self.pending = false;
            return;
        }
        if let Some(c) = self.comma.last_mut() {
            if *c {
                self.buf.push_str(", ");
            } else {
                *c = true;
            }
        }
    }

    fn push_escaped(&mut self, s: &str) {
        for ch in s.chars() {
            match ch {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
    }

    /// Writes an object key; the next value call binds to it.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        self.push_escaped(k);
        self.buf.push_str("\": ");
        self.pending = true;
        self
    }

    /// Opens an object (as a value or array element).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('{');
        self.comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.buf.push('}');
        self.comma.pop();
        self
    }

    /// Opens an array (as a value or array element).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('[');
        self.comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.buf.push(']');
        self.comma.pop();
        self
    }

    /// Writes a string value (escaped).
    pub fn str_val(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        self.push_escaped(s);
        self.buf.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64_val(&mut self, v: u64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Writes a float value in `{:?}` (round-trippable) form.
    pub fn f64_val(&mut self, v: f64) -> &mut Self {
        self.sep();
        self.buf.push_str(&format!("{v:?}"));
        self
    }

    /// Writes a boolean value.
    pub fn bool_val(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// `key` + [`str_val`](JsonWriter::str_val) in one call.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).str_val(v)
    }

    /// `key` + [`u64_val`](JsonWriter::u64_val) in one call.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64_val(v)
    }

    /// `key` + [`f64_val`](JsonWriter::f64_val) in one call.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).f64_val(v)
    }

    /// The serialized document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Event counts recorded by one thread of one reduction.
///
/// Which fields a strategy drives (all others stay zero):
///
/// | field | strategies | meaning |
/// |---|---|---|
/// | `applies` | all | `ReducerView::apply` calls serviced |
/// | `block_first_touches` | block-\* | blocks resolved for the first time by this thread |
/// | `ownership_conflicts` | block-lock, block-CAS | ownership claims lost to another thread (CAS acquire failures / lock-table losses) |
/// | `fallback_privatizations` | block-\* | private block copies allocated (for the direct-ownership flavors: the lock/CAS fallback path) |
/// | `remote_enqueues` | keeper | updates forwarded to a foreign owner's queue |
/// | `remote_flushed` | keeper | forwarded updates this thread drained as owner |
/// | `merged_bytes` | all privatizing | bytes this thread combined into the output during the merge phase |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `apply` calls serviced by this thread's view.
    pub applies: u64,
    /// Blocks resolved (claimed or privatized) for the first time.
    pub block_first_touches: u64,
    /// Ownership claims lost to another thread (CAS acquire failures for
    /// block-CAS, lock-table losses for block-lock).
    pub ownership_conflicts: u64,
    /// Blocks resolved to a private copy (for the direct-ownership
    /// flavors: the lock/CAS fallback path; for block-private: every
    /// first touch).
    pub fallback_privatizations: u64,
    /// Keeper updates forwarded to a foreign owner's queue.
    pub remote_enqueues: u64,
    /// Forwarded keeper updates drained by this thread as owner.
    pub remote_flushed: u64,
    /// Bytes combined into the output array during the merge phase.
    pub merged_bytes: u64,
}

impl Counters {
    /// Field-wise sum of `self` and `other`.
    pub fn merged(&self, other: &Counters) -> Counters {
        Counters {
            applies: self.applies + other.applies,
            block_first_touches: self.block_first_touches + other.block_first_touches,
            ownership_conflicts: self.ownership_conflicts + other.ownership_conflicts,
            fallback_privatizations: self.fallback_privatizations + other.fallback_privatizations,
            remote_enqueues: self.remote_enqueues + other.remote_enqueues,
            remote_flushed: self.remote_flushed + other.remote_flushed,
            merged_bytes: self.merged_bytes + other.merged_bytes,
        }
    }

    /// Fraction of applies that hit a contention event (ownership
    /// conflicts + keeper remote forwards); 0 when nothing was applied.
    pub fn contention_ratio(&self) -> f64 {
        if self.applies == 0 {
            0.0
        } else {
            (self.ownership_conflicts + self.remote_enqueues) as f64 / self.applies as f64
        }
    }

    fn write_json(self, w: &mut JsonWriter) {
        w.begin_obj()
            .field_u64("applies", self.applies)
            .field_u64("block_first_touches", self.block_first_touches)
            .field_u64("ownership_conflicts", self.ownership_conflicts)
            .field_u64("fallback_privatizations", self.fallback_privatizations)
            .field_u64("remote_enqueues", self.remote_enqueues)
            .field_u64("remote_flushed", self.remote_flushed)
            .field_u64("merged_bytes", self.merged_bytes)
            .end_obj();
    }
}

/// Per-thread [`Counters`] of one reduction, as returned by
/// [`crate::Reduction::telemetry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// One entry per team thread.
    pub per_thread: Vec<Counters>,
}

impl Telemetry {
    /// All-zero telemetry for an `nthreads`-wide team (the default for
    /// strategies that do not record counters).
    pub fn empty(nthreads: usize) -> Self {
        Telemetry {
            per_thread: vec![Counters::default(); nthreads],
        }
    }

    /// Field-wise sum over all threads.
    pub fn totals(&self) -> Counters {
        self.per_thread
            .iter()
            .fold(Counters::default(), |acc, c| acc.merged(c))
    }
}

/// One thread's counter slot: padded so neighboring threads' stash-time
/// publishes never share a cache line. Written with relaxed atomics —
/// each slot is only ever written by its owning thread, the atomics just
/// make the cross-phase publication safe without `unsafe`.
#[derive(Default)]
struct CounterCell {
    applies: AtomicU64,
    block_first_touches: AtomicU64,
    ownership_conflicts: AtomicU64,
    fallback_privatizations: AtomicU64,
    remote_enqueues: AtomicU64,
    remote_flushed: AtomicU64,
    merged_bytes: AtomicU64,
}

/// Shared per-thread counter slots a reduction owns; views publish into
/// slot `tid` at stash time, merge phases add into their own slot.
#[derive(Default)]
pub(crate) struct TelemetryBoard {
    slots: Vec<CachePadded<CounterCell>>,
}

impl TelemetryBoard {
    pub(crate) fn new(nthreads: usize) -> Self {
        TelemetryBoard {
            slots: (0..nthreads).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Adds `c` into thread `tid`'s slot (loop-phase publication).
    pub(crate) fn record(&self, tid: usize, c: &Counters) {
        let s = &self.slots[tid].0;
        s.applies.fetch_add(c.applies, Ordering::Relaxed);
        s.block_first_touches
            .fetch_add(c.block_first_touches, Ordering::Relaxed);
        s.ownership_conflicts
            .fetch_add(c.ownership_conflicts, Ordering::Relaxed);
        s.fallback_privatizations
            .fetch_add(c.fallback_privatizations, Ordering::Relaxed);
        s.remote_enqueues
            .fetch_add(c.remote_enqueues, Ordering::Relaxed);
        s.remote_flushed
            .fetch_add(c.remote_flushed, Ordering::Relaxed);
        s.merged_bytes.fetch_add(c.merged_bytes, Ordering::Relaxed);
    }

    /// Adds merge-phase bytes into thread `tid`'s slot.
    pub(crate) fn add_merged_bytes(&self, tid: usize, bytes: u64) {
        self.slots[tid]
            .0
            .merged_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Adds keeper flush counts into owner `tid`'s slot.
    pub(crate) fn add_remote_flushed(&self, tid: usize, n: u64, bytes: u64) {
        let s = &self.slots[tid].0;
        s.remote_flushed.fetch_add(n, Ordering::Relaxed);
        s.merged_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Snapshot of every thread's counters.
    pub(crate) fn snapshot(&self) -> Telemetry {
        Telemetry {
            per_thread: self
                .slots
                .iter()
                .map(|s| Counters {
                    applies: s.0.applies.load(Ordering::Relaxed),
                    block_first_touches: s.0.block_first_touches.load(Ordering::Relaxed),
                    ownership_conflicts: s.0.ownership_conflicts.load(Ordering::Relaxed),
                    fallback_privatizations: s.0.fallback_privatizations.load(Ordering::Relaxed),
                    remote_enqueues: s.0.remote_enqueues.load(Ordering::Relaxed),
                    remote_flushed: s.0.remote_flushed.load(Ordering::Relaxed),
                    merged_bytes: s.0.merged_bytes.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Wall time of each region phase, in seconds.
///
/// The parallel phases (`loop_secs`, `barrier_secs`, `epilogue_secs`)
/// report the **maximum across team threads** — the critical path.
/// `finish_secs` is the single-threaded cleanup after the region, and
/// `region_secs` the wall time of the whole parallel region including the
/// pool's fork/join handoff (measured by
/// [`ompsim::ThreadPool::parallel_timed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Slowest thread's loop phase (view + body + stash).
    pub loop_secs: f64,
    /// Slowest thread's wait at the team barrier.
    pub barrier_secs: f64,
    /// Slowest thread's merge phase.
    pub epilogue_secs: f64,
    /// Single-threaded cleanup after the region.
    pub finish_secs: f64,
    /// Whole parallel region including fork/join handoff.
    pub region_secs: f64,
}

impl PhaseTimes {
    /// Fraction of the measured parallel phases spent waiting at the
    /// barrier — a direct load-imbalance signal (0 when nothing was
    /// measured).
    pub fn barrier_fraction(&self) -> f64 {
        let total = self.loop_secs + self.barrier_secs + self.epilogue_secs;
        if total <= 0.0 {
            0.0
        } else {
            self.barrier_secs / total
        }
    }

    fn write_json(self, w: &mut JsonWriter) {
        w.begin_obj()
            .field_f64("loop_secs", self.loop_secs)
            .field_f64("barrier_secs", self.barrier_secs)
            .field_f64("epilogue_secs", self.epilogue_secs)
            .field_f64("finish_secs", self.finish_secs)
            .field_f64("region_secs", self.region_secs)
            .end_obj();
    }
}

/// One thread's phase-time slot (nanoseconds), padded like the counters.
#[derive(Default)]
struct PhaseCell {
    loop_ns: AtomicU64,
    barrier_ns: AtomicU64,
    epilogue_ns: AtomicU64,
}

/// Per-thread phase times for one region, filled by the phased driver.
pub(crate) struct PhaseBoard {
    slots: Vec<CachePadded<PhaseCell>>,
    finish_ns: AtomicU64,
    region_ns: AtomicU64,
}

impl PhaseBoard {
    pub(crate) fn new(nthreads: usize) -> Self {
        PhaseBoard {
            slots: (0..nthreads).map(|_| CachePadded::default()).collect(),
            finish_ns: AtomicU64::new(0),
            region_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(
        &self,
        tid: usize,
        loop_d: Duration,
        barrier_d: Duration,
        epilogue_d: Duration,
    ) {
        let s = &self.slots[tid].0;
        s.loop_ns.store(loop_d.as_nanos() as u64, Ordering::Relaxed);
        s.barrier_ns
            .store(barrier_d.as_nanos() as u64, Ordering::Relaxed);
        s.epilogue_ns
            .store(epilogue_d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn set_finish(&self, d: Duration) {
        self.finish_ns.store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn set_region(&self, d: Duration) {
        self.region_ns.store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Critical-path summary (max across threads per parallel phase).
    pub(crate) fn summarize(&self) -> PhaseTimes {
        let max_of = |f: fn(&PhaseCell) -> &AtomicU64| {
            self.slots
                .iter()
                .map(|s| f(&s.0).load(Ordering::Relaxed))
                .max()
                .unwrap_or(0) as f64
                / 1e9
        };
        PhaseTimes {
            loop_secs: max_of(|s| &s.loop_ns),
            barrier_secs: max_of(|s| &s.barrier_ns),
            epilogue_secs: max_of(|s| &s.epilogue_ns),
            finish_secs: self.finish_ns.load(Ordering::Relaxed) as f64 / 1e9,
            region_secs: self.region_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Outcome of one region run: strategy label, memory overhead, and the
/// telemetry the region recorded. Returned by every path through the
/// [`crate::RegionExecutor`] ([`crate::reduce_strategy`],
/// [`crate::reduce_dyn`], [`crate::ReusableReducer::run`]).
///
/// Every field describes this one region except `planned_regions`, the
/// report's one cumulative field. Executor-lifetime totals (plan build
/// time, migrations, per-strategy region tallies, delta totals) live
/// behind the executor's getters, and a reduction service's admission
/// counts behind the service's, not in reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy label (paper naming).
    pub strategy: String,
    /// Peak extra bytes the reducer allocated.
    pub memory_overhead: usize,
    /// Privatization scratch this region was planned (or measured) to
    /// spend. For planned block regions this is the plan's
    /// [`crate::RegionPlan::scratch_bytes`] (its shared-copy bytes);
    /// elsewhere it equals `memory_overhead`.
    pub scratch_bytes: usize,
    /// Regions that replayed one of this executor's plans to completion
    /// without deviating, since its plans were last cleared — the
    /// report's one **cumulative** field: a caller tells whether this
    /// region replayed by subtracting the previous report's value. Zero
    /// for executors that never planned.
    pub planned_regions: u64,
    /// Per-thread event counters the strategy recorded.
    pub counters: Telemetry,
    /// Per-phase wall times of the region.
    pub phases: PhaseTimes,
    /// Bytes/sec the merge phase streamed into the output: total
    /// `merged_bytes` over the critical-path `epilogue_secs`
    /// (see [`RunReport::derive_merge_bandwidth`]); `0.0` when the region
    /// merged nothing or ran untimed. The `apply_overhead` bench prints a
    /// same-buffer `memcpy` baseline next to this — a fused kernel merge
    /// should approach it.
    pub merge_bandwidth: f64,
}

impl RunReport {
    /// Merge-phase bandwidth implied by `counters` and `phases`: the
    /// team's total merged bytes over the slowest thread's epilogue time,
    /// or `0.0` when nothing was merged or the epilogue was untimed. The
    /// executor calls this when assembling a report; it is public so
    /// harnesses can recompute the figure from parsed artifacts.
    pub fn derive_merge_bandwidth(counters: &Telemetry, phases: &PhaseTimes) -> f64 {
        let bytes = counters.totals().merged_bytes as f64;
        if bytes > 0.0 && phases.epilogue_secs > 0.0 {
            bytes / phases.epilogue_secs
        } else {
            0.0
        }
    }

    /// Serializes the report as a JSON object (schema documented in
    /// DESIGN.md §"Telemetry layer") through the workspace's shared
    /// [`JsonWriter`], which handles quoting/escaping and separators.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .field_str("strategy", &self.strategy)
            .field_u64("memory_overhead", self.memory_overhead as u64)
            .field_u64("scratch_bytes", self.scratch_bytes as u64)
            .field_u64("planned_regions", self.planned_regions)
            .field_f64("merge_bandwidth", self.merge_bandwidth);
        w.key("phases");
        self.phases.write_json(&mut w);
        w.key("counters").begin_obj();
        w.key("totals");
        self.counters.totals().write_json(&mut w);
        w.key("per_thread").begin_arr();
        for c in &self.counters.per_thread {
            c.write_json(&mut w);
        }
        w.end_arr().end_obj().end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_nests_separates_and_escapes() {
        let mut w = JsonWriter::new();
        w.begin_obj().field_str("label", "a\"b\\c\nd");
        w.key("empty_obj").begin_obj();
        w.end_obj();
        w.key("arr").begin_arr();
        w.u64_val(1).f64_val(2.5).bool_val(true).str_val("x");
        w.begin_obj().field_f64("neg", -0.25).end_obj();
        w.end_arr();
        w.key("tail").u64_val(9);
        w.end_obj();
        assert_eq!(
            w.finish(),
            "{\"label\": \"a\\\"b\\\\c\\nd\", \"empty_obj\": {}, \
             \"arr\": [1, 2.5, true, \"x\", {\"neg\": -0.25}], \"tail\": 9}"
        );
    }

    #[test]
    fn counters_merge_and_ratio() {
        let a = Counters {
            applies: 10,
            ownership_conflicts: 2,
            remote_enqueues: 3,
            ..Counters::default()
        };
        let b = Counters {
            applies: 10,
            merged_bytes: 64,
            ..Counters::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.applies, 20);
        assert_eq!(m.merged_bytes, 64);
        assert_eq!(m.contention_ratio(), 0.25);
        assert_eq!(Counters::default().contention_ratio(), 0.0);
    }

    #[test]
    fn board_accumulates_per_thread() {
        let board = TelemetryBoard::new(2);
        board.record(
            0,
            &Counters {
                applies: 5,
                ..Counters::default()
            },
        );
        board.record(
            0,
            &Counters {
                applies: 2,
                ..Counters::default()
            },
        );
        board.add_merged_bytes(1, 128);
        board.add_remote_flushed(1, 3, 24);
        let t = board.snapshot();
        assert_eq!(t.per_thread[0].applies, 7);
        assert_eq!(t.per_thread[1].merged_bytes, 152);
        assert_eq!(t.per_thread[1].remote_flushed, 3);
        assert_eq!(t.totals().applies, 7);
    }

    #[test]
    fn phase_board_reports_critical_path() {
        let board = PhaseBoard::new(2);
        board.record(
            0,
            Duration::from_millis(4),
            Duration::from_millis(1),
            Duration::from_millis(2),
        );
        board.record(
            1,
            Duration::from_millis(3),
            Duration::from_millis(5),
            Duration::from_millis(1),
        );
        board.set_finish(Duration::from_millis(7));
        board.set_region(Duration::from_millis(11));
        let p = board.summarize();
        assert_eq!(p.loop_secs, 0.004);
        assert_eq!(p.barrier_secs, 0.005);
        assert_eq!(p.epilogue_secs, 0.002);
        assert_eq!(p.finish_secs, 0.007);
        assert_eq!(p.region_secs, 0.011);
        assert!(p.barrier_fraction() > 0.45 && p.barrier_fraction() < 0.46);
    }

    #[test]
    fn report_json_contains_all_sections() {
        let report = RunReport {
            strategy: "block-CAS-1024".into(),
            memory_overhead: 4096,
            scratch_bytes: 2048,
            planned_regions: 9,
            counters: Telemetry {
                per_thread: vec![
                    Counters {
                        applies: 3,
                        ..Counters::default()
                    },
                    Counters {
                        applies: 4,
                        merged_bytes: 32,
                        ..Counters::default()
                    },
                ],
            },
            phases: PhaseTimes {
                loop_secs: 0.5,
                barrier_secs: 0.25,
                epilogue_secs: 0.125,
                finish_secs: 0.0625,
                region_secs: 1.0,
            },
            merge_bandwidth: 256.0,
        };
        let json = report.to_json();
        for needle in [
            "\"strategy\": \"block-CAS-1024\"",
            "\"memory_overhead\": 4096",
            "\"scratch_bytes\": 2048",
            "\"planned_regions\": 9",
            "\"merge_bandwidth\": 256.0",
            "\"loop_secs\": 0.5",
            "\"applies\": 7",
            "\"per_thread\": [",
            "\"merged_bytes\": 32",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}

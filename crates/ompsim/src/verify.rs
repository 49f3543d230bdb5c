//! Deterministic schedule perturbation for concurrency verification.
//!
//! The pool and the reducers built on it call [`perturb`] at the
//! schedule-sensitive points of their protocols (barrier entry, ownership
//! claims, queue pushes/drains, merge-epilogue steps, shared-slot
//! read-modify-writes). Without the `verify` cargo feature every call
//! compiles to an empty `#[inline(always)]` function — zero hot-path
//! cost. With the feature, an installed controller session (`install`) turns
//! those calls into seeded, *replayable* preemption decisions:
//!
//! * each thread derives its own splitmix64 stream from
//!   `mix(seed, tid)`, so a thread's sequence of yield/sleep decisions
//!   is a pure function of `(seed, tid)` and the order in which *that
//!   thread* crosses hook points — independent of what the other
//!   threads do. Re-running a region with the same seed replays every
//!   thread's decision trace exactly (PCT-style randomized preemption
//!   with a per-thread budget);
//! * a `FaultSpec` upgrades one crossing — the `nth` time thread
//!   `tid` hits hook `point` — into an injected panic, exercising the
//!   pool's barrier panic detection and the executors' scratch/plan
//!   recovery paths mid-region;
//! * every controller records per-thread hook-crossing counts and a
//!   bounded per-thread event trace, which the fuzz driver fingerprints
//!   to assert replay determinism.
//!
//! Single-core note: a lost-update race between two threads almost never
//! manifests on one CPU because each read-modify-write completes within
//! a timeslice. The reducers therefore *widen* their RMW race windows
//! under the feature (load, `perturb`, store) — a yield inside the
//! window hands the core to the other thread mid-RMW, which is exactly
//! the interleaving a correct ownership protocol must make harmless and
//! a broken one turns into a lost update the differential oracle sees.

/// A schedule-sensitive point in the pool's or a reducer's protocol.
///
/// The hook-point map (who calls what, and where) lives in DESIGN.md's
/// "Verification" section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HookPoint {
    /// A thread entered a parallel region (pool, before the body runs).
    RegionStart,
    /// A thread is about to enter [`crate::Team::barrier`].
    BarrierEnter,
    /// A block reducer is about to decide ownership of a block
    /// (`idx` = block index).
    OwnershipClaim,
    /// A thread is inside a shared-slot read-modify-write, between the
    /// load and the store (`idx` = element index).
    SharedWrite,
    /// A keeper view is about to enqueue a remote update
    /// (`idx` = owning thread).
    QueuePush,
    /// A keeper epilogue is about to drain one writer's queue
    /// (`idx` = writer thread).
    QueueDrain,
    /// A merge epilogue is about to fold one privatized block into the
    /// output (`idx` = block index).
    MergeStep,
    /// An adaptive executor is evaluating (or mid-way through) a strategy
    /// migration between regions (`idx` = adaptive region sequence
    /// number). Crossed on the orchestrating thread — which never enters
    /// a parallel region — so the controller tracks it with a dedicated
    /// process-wide stream instead of a per-thread one; see
    /// [`migration_choice`].
    MigrationDecision,
    /// A delta executor is about to stage one dirty block — applying
    /// retractions/updates against the previous result or refolding the
    /// block's contribution log (`idx` = dirty block index). Crossed
    /// *before* the staged value is committed, so an injected fault here
    /// must leave the previous result untouched (poison, not corrupt).
    DeltaApply,
}

/// Number of distinct hook points (array dimension for counters).
pub const NPOINTS: usize = 9;

impl HookPoint {
    /// Every hook point, in counter-index order.
    pub const ALL: [HookPoint; NPOINTS] = [
        HookPoint::RegionStart,
        HookPoint::BarrierEnter,
        HookPoint::OwnershipClaim,
        HookPoint::SharedWrite,
        HookPoint::QueuePush,
        HookPoint::QueueDrain,
        HookPoint::MergeStep,
        HookPoint::MigrationDecision,
        HookPoint::DeltaApply,
    ];

    /// Stable index into per-point counter arrays.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name (CLI / report output).
    pub fn name(self) -> &'static str {
        match self {
            HookPoint::RegionStart => "region_start",
            HookPoint::BarrierEnter => "barrier_enter",
            HookPoint::OwnershipClaim => "ownership_claim",
            HookPoint::SharedWrite => "shared_write",
            HookPoint::QueuePush => "queue_push",
            HookPoint::QueueDrain => "queue_drain",
            HookPoint::MergeStep => "merge_step",
            HookPoint::MigrationDecision => "migration_decision",
            HookPoint::DeltaApply => "delta_apply",
        }
    }
}

/// splitmix64: the per-thread decision stream. Public so drivers can
/// derive auxiliary per-seed parameters from the same generator.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// No-op stubs: always compiled without the feature so call sites need no
// cfg of their own. Every stub must stay an empty #[inline(always)]
// function — the hot-path acceptance bar is "no measurable per-apply
// cost without the feature".
// ---------------------------------------------------------------------

/// Hook crossing without a meaningful index. No-op without `verify`.
#[cfg(not(feature = "verify"))]
#[inline(always)]
pub fn perturb(_point: HookPoint) {}

/// Hook crossing with an index (block, element, or thread id, depending
/// on the point). No-op without `verify`.
#[cfg(not(feature = "verify"))]
#[inline(always)]
pub fn perturb_idx(_point: HookPoint, _idx: u64) {}

/// Region entry: binds the calling thread's id for the controller. The
/// pool calls this at the top of every region body. No-op without
/// `verify`.
#[cfg(not(feature = "verify"))]
#[inline(always)]
pub fn enter_region(_tid: usize) {}

/// [`HookPoint::MigrationDecision`] crossing: an adaptive executor asks
/// the controller whether to *force* a strategy migration at this region
/// boundary (and to which of `n_choices` candidates). Always `None`
/// without `verify` — migrations then come from the cost model alone.
#[cfg(not(feature = "verify"))]
#[inline(always)]
pub fn migration_choice(_idx: u64, _n_choices: u64) -> Option<u64> {
    None
}

#[cfg(feature = "verify")]
mod active {
    use super::{mix64, HookPoint, NPOINTS};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::Duration;

    /// Upper bound on team sizes the controller tracks. Threads with
    /// larger ids pass through unperturbed.
    pub const MAX_THREADS: usize = 64;

    /// One injected fault: the `nth` (1-based) time thread `tid` crosses
    /// `point`, the hook panics instead of returning.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultSpec {
        pub tid: usize,
        pub point: HookPoint,
        pub nth: u64,
    }

    /// Controller parameters. `seed` and the crossing order fully
    /// determine every decision.
    #[derive(Debug, Clone)]
    pub struct VerifyConfig {
        /// Root of every per-thread decision stream.
        pub seed: u64,
        /// Preemption probability per hook crossing, in 1/1000ths.
        pub preempt_per_mille: u16,
        /// Maximum preemptions charged per thread (PCT-style budget).
        pub budget: u32,
        /// When nonzero, a quarter of preemptions sleep this long instead
        /// of yielding — models a descheduled thread, not just a polite
        /// one.
        pub delay_nanos: u64,
        /// Probability (in 1/1000ths) that a [`HookPoint::MigrationDecision`]
        /// crossing *forces* a strategy migration ([`migration_choice`]
        /// returns `Some`). 0 leaves migrations to the executor's cost
        /// model.
        pub migrate_per_mille: u16,
        /// Optional injected panic.
        pub fault: Option<FaultSpec>,
    }

    impl Default for VerifyConfig {
        fn default() -> Self {
            VerifyConfig {
                seed: 0,
                preempt_per_mille: 200,
                budget: 64,
                delay_nanos: 0,
                migrate_per_mille: 0,
                fault: None,
            }
        }
    }

    /// What a hook crossing did (recorded in the trace).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Action {
        /// Passed straight through.
        Pass,
        /// Yielded the core `n` times.
        Yield(u32),
        /// Slept for the configured delay.
        Sleep,
        /// Panicked (injected fault). Recorded just before unwinding.
        Fault,
    }

    /// One recorded hook crossing. `nth` is this thread's 1-based
    /// crossing count for `point` at the time of the event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TraceEvent {
        pub point: HookPoint,
        pub idx: u64,
        pub nth: u64,
        pub action: Action,
    }

    /// Hook crossings per thread are counted in padded slots so the
    /// fast path never bounces a cache line between threads.
    #[repr(align(64))]
    struct Padded<T>(T);

    struct ControllerState {
        cfg: VerifyConfig,
        gen: u64,
        counts: Vec<Padded<[AtomicU64; NPOINTS]>>,
        preempts: Vec<Padded<AtomicU64>>,
        traces: Vec<Mutex<Vec<TraceEvent>>>,
        /// Process-wide [`HookPoint::MigrationDecision`] crossing count
        /// (migration decisions happen on the orchestrating thread,
        /// outside any parallel region, so they get one shared stream).
        mig_count: AtomicU64,
    }

    /// Cap on retained trace events per thread; hot points are only
    /// recorded when they actually preempt, so real traces stay far
    /// below this.
    const TRACE_CAP: usize = 1 << 16;

    /// Generation of the installed controller; 0 = none (fast-path
    /// early return in `perturb_idx`).
    static GEN: AtomicU64 = AtomicU64::new(0);
    static NEXT_GEN: AtomicU64 = AtomicU64::new(1);
    static ACTIVE: Mutex<Option<Arc<ControllerState>>> = Mutex::new(None);
    /// Serializes controller sessions: schedule fuzzing is a
    /// whole-process experiment, so concurrent installs (e.g. parallel
    /// test threads) queue here.
    static SESSION: Mutex<()> = Mutex::new(());

    struct TlState {
        gen: u64,
        tid: usize,
        rng: u64,
        ctl: Arc<ControllerState>,
    }

    thread_local! {
        static TL: RefCell<Option<TlState>> = const { RefCell::new(None) };
    }

    /// An installed schedule controller. Dropping it uninstalls the
    /// controller and releases the session lock.
    pub struct VerifySession {
        state: Arc<ControllerState>,
        _serial: MutexGuard<'static, ()>,
    }

    /// Installs a controller for the duration of the returned session.
    /// Blocks until any other session ends (sessions are process-global).
    pub fn install(cfg: VerifyConfig) -> VerifySession {
        let serial = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        let gen = NEXT_GEN.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(ControllerState {
            cfg,
            gen,
            counts: (0..MAX_THREADS)
                .map(|_| Padded(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            preempts: (0..MAX_THREADS)
                .map(|_| Padded(AtomicU64::new(0)))
                .collect(),
            traces: (0..MAX_THREADS).map(|_| Mutex::new(Vec::new())).collect(),
            mig_count: AtomicU64::new(0),
        });
        *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&state));
        GEN.store(gen, Ordering::Release);
        VerifySession {
            state,
            _serial: serial,
        }
    }

    impl Drop for VerifySession {
        fn drop(&mut self) {
            GEN.store(0, Ordering::Release);
            *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    impl VerifySession {
        /// Total crossings of `point` summed over all threads.
        pub fn total(&self, point: HookPoint) -> u64 {
            self.state
                .counts
                .iter()
                .map(|c| c.0[point.index()].load(Ordering::Relaxed))
                .sum()
        }

        /// Crossing totals for every hook point, indexed like
        /// [`HookPoint::ALL`].
        pub fn totals(&self) -> [u64; NPOINTS] {
            std::array::from_fn(|k| self.total(HookPoint::ALL[k]))
        }

        /// Crossings of `point` by thread `tid`.
        pub fn count(&self, tid: usize, point: HookPoint) -> u64 {
            self.state.counts[tid].0[point.index()].load(Ordering::Relaxed)
        }

        /// Preemptions charged against all threads' budgets.
        pub fn preemptions(&self) -> u64 {
            self.state
                .preempts
                .iter()
                .map(|p| p.0.load(Ordering::Relaxed))
                .sum()
        }

        /// Thread `tid`'s recorded event trace.
        pub fn trace(&self, tid: usize) -> Vec<TraceEvent> {
            self.state.traces[tid]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
        }

        /// The sequence of block indices thread `tid` merged
        /// ([`HookPoint::MergeStep`] events, in order).
        pub fn merge_order(&self, tid: usize) -> Vec<u64> {
            self.trace(tid)
                .into_iter()
                .filter(|e| e.point == HookPoint::MergeStep)
                .map(|e| e.idx)
                .collect()
        }
    }

    fn refresh(slot: &mut Option<TlState>, tid_hint: Option<usize>) {
        let ctl = {
            let guard = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                // A controller newer than `gen` may have been installed
                // between our GEN load and here; adopt whatever is
                // current (its gen check below will route future calls).
                Some(c) => Arc::clone(c),
                None => {
                    // Session ended between the GEN load and here: drop
                    // any stale state so the caller bails out instead of
                    // charging a dead controller.
                    *slot = None;
                    return;
                }
            }
        };
        let tid = tid_hint
            .or(slot.as_ref().map(|s| s.tid))
            .unwrap_or(usize::MAX);
        let rng = mix64(ctl.cfg.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        *slot = Some(TlState {
            gen: ctl.gen,
            tid,
            rng,
            ctl,
        });
    }

    /// Region entry: binds `tid` for this thread and reseeds its
    /// decision stream, then crosses [`HookPoint::RegionStart`].
    pub fn enter_region(tid: usize) {
        if GEN.load(Ordering::Acquire) == 0 {
            return;
        }
        TL.with(|tl| {
            let mut slot = tl.borrow_mut();
            let gen = GEN.load(Ordering::Acquire);
            if gen == 0 {
                return;
            }
            // Always rebind: the same pool thread may take different
            // tids across pools, and each region restarts the stream so
            // regions are independently replayable.
            refresh(&mut slot, Some(tid));
        });
        perturb(HookPoint::RegionStart);
    }

    /// Hook crossing without a meaningful index.
    #[inline]
    pub fn perturb(point: HookPoint) {
        perturb_idx(point, 0)
    }

    /// [`HookPoint::MigrationDecision`] crossing. Unlike the per-thread
    /// hooks this runs on the orchestrating thread (which never binds a
    /// tid), so the controller keeps a single process-wide crossing
    /// counter and a *stateless* decision stream: crossing `nth` draws
    /// `mix64(seed ^ salt ^ nth)`, making the whole forced-migration
    /// schedule a pure function of the seed and the executor's region
    /// order — exactly replayable. With probability
    /// `migrate_per_mille/1000` the crossing returns `Some(k)`, forcing
    /// a migration to candidate `k < n_choices` (`n_choices == 0` never
    /// forces — used for the mid-drain crossing). A
    /// [`FaultSpec`] targeting this point matches on `nth` alone
    /// (`tid` is ignored); crossings are counted and traced under
    /// thread slot 0.
    pub fn migration_choice(idx: u64, n_choices: u64) -> Option<u64> {
        if GEN.load(Ordering::Acquire) == 0 {
            return None;
        }
        let ctl = {
            let guard = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(c) => Arc::clone(c),
                None => return None,
            }
        };
        let point = HookPoint::MigrationDecision;
        let nth = ctl.mig_count.fetch_add(1, Ordering::Relaxed) + 1;
        ctl.counts[0].0[point.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(f) = ctl.cfg.fault {
            if f.point == point && f.nth == nth {
                record(
                    &ctl,
                    0,
                    TraceEvent {
                        point,
                        idx,
                        nth,
                        action: Action::Fault,
                    },
                );
                panic!("ompsim-verify: injected fault at migration_decision crossing #{nth}");
            }
        }
        record(
            &ctl,
            0,
            TraceEvent {
                point,
                idx,
                nth,
                action: Action::Pass,
            },
        );
        let p = u64::from(ctl.cfg.migrate_per_mille);
        if p == 0 || n_choices == 0 {
            return None;
        }
        let r =
            mix64(ctl.cfg.seed ^ 0x4D49_4752_4154_4531 ^ nth.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if r % 1000 < p {
            Some((r >> 32) % n_choices)
        } else {
            None
        }
    }

    /// Hook crossing with an index. The controller counts it, may charge
    /// a preemption (yield or sleep), may panic (injected fault), and
    /// records cold points — and any crossing that acted — in the trace.
    #[inline]
    pub fn perturb_idx(point: HookPoint, idx: u64) {
        let gen = GEN.load(Ordering::Acquire);
        if gen == 0 {
            return;
        }
        TL.with(|tl| {
            let mut slot = tl.borrow_mut();
            let stale = match slot.as_ref() {
                Some(s) => s.gen != gen,
                None => true,
            };
            if stale {
                refresh(&mut slot, None);
            }
            let Some(st) = slot.as_mut() else { return };
            if st.tid >= MAX_THREADS {
                return;
            }
            let ctl = Arc::clone(&st.ctl);
            let tid = st.tid;
            let nth = ctl.counts[tid].0[point.index()].fetch_add(1, Ordering::Relaxed) + 1;

            if let Some(f) = ctl.cfg.fault {
                if f.tid == tid && f.point == point && f.nth == nth {
                    record(
                        &ctl,
                        tid,
                        TraceEvent {
                            point,
                            idx,
                            nth,
                            action: Action::Fault,
                        },
                    );
                    drop(slot);
                    panic!(
                        "ompsim-verify: injected fault at {} crossing #{nth} on tid {tid}",
                        point.name()
                    );
                }
            }

            let mut action = Action::Pass;
            let p = u64::from(ctl.cfg.preempt_per_mille);
            if p > 0 {
                st.rng = mix64(st.rng);
                let r = st.rng;
                if r % 1000 < p
                    && ctl.preempts[tid].0.load(Ordering::Relaxed) < u64::from(ctl.cfg.budget)
                {
                    ctl.preempts[tid].0.fetch_add(1, Ordering::Relaxed);
                    if ctl.cfg.delay_nanos > 0 && (r >> 10) % 4 == 0 {
                        action = Action::Sleep;
                    } else {
                        action = Action::Yield(1 + ((r >> 12) % 3) as u32);
                    }
                }
            }

            // Hot points (per-apply) are traced only when they act;
            // cold points (per-block / per-region) always.
            let hot = matches!(point, HookPoint::SharedWrite | HookPoint::QueuePush);
            if !hot || action != Action::Pass {
                record(
                    &ctl,
                    tid,
                    TraceEvent {
                        point,
                        idx,
                        nth,
                        action,
                    },
                );
            }

            // Release the thread-local borrow before blocking: the
            // injected sleep/yield may run arbitrary other code on this
            // core, and a panic inside it must not poison the slot.
            drop(slot);
            match action {
                Action::Pass | Action::Fault => {}
                Action::Yield(n) => {
                    for _ in 0..n {
                        std::thread::yield_now();
                    }
                }
                Action::Sleep => std::thread::sleep(Duration::from_nanos(ctl.cfg.delay_nanos)),
            }
        });
    }

    fn record(ctl: &ControllerState, tid: usize, ev: TraceEvent) {
        let mut tr = ctl.traces[tid].lock().unwrap_or_else(|e| e.into_inner());
        if tr.len() < TRACE_CAP {
            tr.push(ev);
        }
    }
}

#[cfg(feature = "verify")]
pub use active::{
    enter_region, install, migration_choice, perturb, perturb_idx, Action, FaultSpec, TraceEvent,
    VerifyConfig, VerifySession, MAX_THREADS,
};

//! # spray-service — a reduction service over one shared thread pool
//!
//! Workloads in this repository historically owned their reductions end
//! to end: build an executor, run regions, read the report. That model
//! breaks down when several independent consumers (solver iterations,
//! concurrent request handlers, pipeline stages) each need sparse
//! reductions but the machine has exactly one set of cores. This crate
//! adds the missing layer: a [`ReductionService`] whose one dispatcher
//! thread owns one [`ompsim::ThreadPool`], one executor session per batch
//! shape and its [`AdmissionCounters`], and runs the *jobs* any thread
//! submits.
//!
//! The service buys two things a per-caller executor cannot:
//!
//! * **Fair-share admission** — jobs queue per tenant; the dispatcher
//!   serves tenant head-of-line jobs round-robin, so a chatty tenant
//!   cannot starve a quiet one.
//! * **Batching** — queued jobs of the same *shape class* (same
//!   [`Job::class`] and output length) are coalesced into a single
//!   region over one concatenated buffer: one plan lookup, one merge
//!   schedule, one barrier set for up to [`ServiceConfig::batch_window`]
//!   jobs. Each job's updates are redirected into its own segment by an
//!   offsetting view, so outputs stay per-job.
//!
//! The dispatcher delivers each batch itself, right after its region. A
//! lone job reduces straight into its own output, with no copies; a
//! batch of two or more copies each member's segment back into that
//! member's output, drops the member's body and then replies.
//!
//! Results are exact in the usual spray sense: integer reductions are
//! bit-identical to the sequential loop no matter how jobs are batched
//! or interleaved; floats reassociate within a region exactly as a
//! standalone region of the same strategy would. The `verify`-gated
//! `fuzz` module turns that claim into a seeded differential oracle
//! (`schedule_fuzz --service`).
//!
//! See DESIGN.md §9 for what each session owns and the batching and
//! delivery rules in one place.

#![warn(missing_docs)]

use ompsim::{Schedule, ThreadPool};
use spray::{
    AtomicElement, Element, ExecutorPolicy, Kernel, ReduceOp, ReducerView, RegionExecutor,
    RunReport, Strategy,
};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "verify")]
pub mod fuzz;

/// Service-wide configuration, fixed at [`ReductionService::new`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Team width of the service's [`ThreadPool`].
    pub threads: usize,
    /// Strategy each executor session starts on.
    pub strategy: Strategy,
    /// Strategy-selection policy per session ([`ExecutorPolicy::Fixed`]
    /// or adaptive with a candidate set).
    pub policy: ExecutorPolicy,
    /// Loop schedule for every region the service runs.
    pub schedule: Schedule,
    /// Maximum jobs coalesced into one region. `1` disables batching
    /// (every job runs as its own region, the serial baseline the
    /// `service_throughput` bench compares against).
    pub batch_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 4,
            strategy: Strategy::BlockCas { block_size: 64 },
            policy: ExecutorPolicy::Fixed,
            schedule: Schedule::default(),
            batch_window: 8,
        }
    }
}

/// The service's cumulative admission counters, read through
/// [`ReductionService::shared`]; each job's queue wait travels on its
/// own [`JobResult`].
#[derive(Debug, Default)]
pub struct AdmissionCounters {
    jobs: AtomicU64,
    batched_regions: AtomicU64,
}

impl AdmissionCounters {
    /// Counts one region that ran `k` coalesced jobs (a batched region
    /// only when `k >= 2`).
    fn note_batch(&self, k: usize) {
        self.jobs.fetch_add(k as u64, Ordering::Relaxed);
        if k >= 2 {
            self.batched_regions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Regions that coalesced two or more jobs.
    pub fn batched_regions(&self) -> u64 {
        self.batched_regions.load(Ordering::Relaxed)
    }
}

/// A job body: invoked once per iteration with a view into the job's
/// own output segment. The `usize` is the job-local iteration index.
pub type JobBody<'a, T> = Box<dyn Fn(&mut dyn ReducerView<T>, usize) + Send + Sync + 'a>;

/// One reduction job: an owned output array, an iteration count, and a
/// body applying contributions through a [`ReducerView`].
///
/// The output vector travels with the job: a job that runs alone reduces
/// straight into it, and a batched job into a concatenated buffer seeded
/// from it, whose segment is copied back. Either way initial contents
/// participate exactly as they would in a standalone region.
pub struct Job<'a, T> {
    /// Fair-share queueing key: jobs queue FIFO per tenant and tenants
    /// are served round-robin.
    pub tenant: u64,
    /// Shape class: only jobs with equal `class` *and* equal output
    /// length are batched into one region. Use it to separate kernels
    /// whose sparsity patterns should not share a cached plan.
    pub class: u64,
    /// The output array; returned (with the reduction applied) in
    /// [`JobResult::out`].
    pub out: Vec<T>,
    /// Number of iterations the body runs, `0..iters`.
    pub iters: usize,
    /// The loop body.
    pub body: JobBody<'a, T>,
}

/// What the service hands back per job.
#[derive(Debug)]
pub struct JobResult<T> {
    /// The job's output array with all contributions merged.
    pub out: Vec<T>,
    /// Telemetry of the region that ran this job (shared verbatim by
    /// every job coalesced into the same region).
    pub report: RunReport,
    /// Time from submission to admission into a region: the job's own
    /// queue wait, and the service's only queue-wait figure.
    pub queue_wait: Duration,
    /// Jobs coalesced into this job's region (1 = ran alone).
    pub batch_size: usize,
}

/// Handle to one submitted job; redeem with [`Ticket::wait`].
pub struct Ticket<T> {
    rx: mpsc::Receiver<JobResult<T>>,
}

impl<T> Ticket<T> {
    /// Blocks until the job completes.
    ///
    /// # Panics
    /// If the service dropped the job without replying (dispatcher
    /// panic) — this cannot happen on healthy runs, and for `'static`
    /// submissions unwinding is safe.
    pub fn wait(self) -> JobResult<T> {
        self.rx
            .recv()
            .expect("reduction service dropped the job (dispatcher died)")
    }
}

/// A job queued inside the service: body already `'static` (either
/// genuinely, via [`ReductionService::submit`], or erased-and-guarded
/// via [`ReductionService::run_scoped`]).
struct Queued<T> {
    job: Job<'static, T>,
    enqueued: Instant,
    reply: mpsc::Sender<JobResult<T>>,
}

/// The kernel of a lone job's region: its body on the region's own view.
struct LoneKernel<'a, T>(&'a (dyn Fn(&mut dyn ReducerView<T>, usize) + Send + Sync));

impl<T: Element> Kernel<T> for LoneKernel<'_, T> {
    #[inline(always)]
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        (self.0)(view, i);
    }
}

/// One slot of a batched region: where this job's iterations start in
/// the fused range and where its segment starts in the concat buffer.
struct Slot<'a, T> {
    body: &'a (dyn Fn(&mut dyn ReducerView<T>, usize) + Send + Sync),
    start: usize,
    offset: usize,
}

/// Redirects a member job's indices into its segment of the concat
/// buffer.
struct OffsetView<'v, T, V: ?Sized> {
    inner: &'v mut V,
    offset: usize,
    _t: PhantomData<fn() -> T>,
}

impl<T: Element, V: ReducerView<T> + ?Sized> ReducerView<T> for OffsetView<'_, T, V> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        self.inner.apply(i + self.offset, v);
    }
}

/// The fused kernel of one batched region: iteration `i` of the fused
/// range `0..total` is located in its member job (uniform stride or
/// binary search over iteration starts) and dispatched to that job's
/// body under an offsetting view.
struct BatchKernel<'a, T> {
    slots: &'a [Slot<'a, T>],
    /// `Some(m)` when every member runs exactly `m > 0` iterations —
    /// the common case, located by division instead of binary search.
    uniform: Option<usize>,
}

impl<T: Element> Kernel<T> for BatchKernel<'_, T> {
    #[inline(always)]
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        let slot = match self.uniform {
            Some(m) => &self.slots[i / m],
            None => {
                let j = self.slots.partition_point(|s| s.start <= i) - 1;
                &self.slots[j]
            }
        };
        let mut ov = OffsetView {
            inner: view,
            offset: slot.offset,
            _t: PhantomData,
        };
        (slot.body)(&mut ov, i - slot.start);
    }
}

/// Deterministic region id for a (class, per-job length, batch size)
/// shape — equal shapes replay each other's cached plans.
fn region_id(class: u64, n: usize, k: usize) -> u64 {
    ompsim::verify::mix64(class ^ ompsim::verify::mix64((n as u64) << 20 ^ k as u64))
}

/// Per-tenant FIFO queues plus the round-robin cursor.
struct Admission<T> {
    tenants: BTreeMap<u64, VecDeque<Queued<T>>>,
    cursor: u64,
    /// The tenant visit order of a batched pick, kept so that every pick
    /// reuses one buffer.
    order: Vec<u64>,
}

impl<T> Admission<T> {
    fn new() -> Self {
        Admission {
            tenants: BTreeMap::new(),
            cursor: 0,
            order: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    fn enqueue(&mut self, q: Queued<T>) {
        self.tenants.entry(q.job.tenant).or_default().push_back(q);
    }

    /// Picks the next batch: the head-of-line job of the next tenant at
    /// or after the cursor (wrapping), plus up to `window - 1` more
    /// head-of-line jobs of the same shape class gathered round-robin
    /// across tenants (per-tenant FIFO order is never reordered — only
    /// heads are eligible, repeatedly, so one tenant's back-to-back
    /// same-shape jobs can still fill a window).
    fn pick(&mut self, window: usize) -> Option<Vec<Queued<T>>> {
        let primary_tenant = self
            .tenants
            .keys()
            .copied()
            .min_by_key(|&t| (t < self.cursor, t))?;
        let primary = self
            .tenants
            .get_mut(&primary_tenant)
            .unwrap()
            .pop_front()
            .unwrap();
        let key = (primary.job.class, primary.job.out.len());
        let mut batch = vec![primary];
        if window > 1 {
            // Visit order: tenants after the primary first, wrapping,
            // the primary's own queue last in each pass.
            let order = &mut self.order;
            order.clear();
            order.extend(self.tenants.keys().copied());
            let pivot = order.partition_point(|&t| t <= primary_tenant) % order.len().max(1);
            order.rotate_left(pivot);
            loop {
                let mut took = false;
                for t in order.iter() {
                    if batch.len() >= window {
                        break;
                    }
                    let Some(q) = self.tenants.get_mut(t) else {
                        continue;
                    };
                    if q.front()
                        .is_some_and(|h| (h.job.class, h.job.out.len()) == key)
                    {
                        batch.push(q.pop_front().unwrap());
                        took = true;
                    }
                }
                if !took || batch.len() >= window {
                    break;
                }
            }
        }
        self.cursor = primary_tenant.wrapping_add(1);
        self.tenants.retain(|_, q| !q.is_empty());
        Some(batch)
    }
}

/// Dispatcher-side state (lives entirely on the dispatcher thread).
struct Dispatcher<T: AtomicElement, O: ReduceOp<T>> {
    cfg: ServiceConfig,
    pool: ThreadPool,
    counters: Arc<AdmissionCounters>,
    /// Executor sessions keyed by concat length: scratch retention only
    /// pays off when the array shape repeats, so a per-shape session
    /// keeps its block scratch and the plans of its region ids warm
    /// across same-shape batches.
    sessions: BTreeMap<usize, RegionExecutor<T, O>>,
    admission: Admission<T>,
    /// The concatenated output of a batch of two or more jobs. Only one
    /// batch is live at a time, so every batch reuses this buffer.
    concat: Vec<T>,
}

impl<T: AtomicElement, O: ReduceOp<T>> Dispatcher<T, O> {
    /// Runs `batch` as one region, then delivers each member's result.
    fn run_batch(&mut self, mut batch: Vec<Queued<T>>) {
        let admitted = Instant::now();
        let k = batch.len();
        let n = batch[0].job.out.len();
        let region = region_id(batch[0].job.class, n, k);
        self.counters.note_batch(k);
        let session = self.sessions.entry(k * n).or_insert_with(|| {
            RegionExecutor::with_policy(self.cfg.strategy, self.cfg.policy.clone())
        });
        let (pool, schedule) = (&self.pool, self.cfg.schedule);
        let concat = &mut self.concat;

        let report = if let [lone] = &mut batch[..] {
            let job = &mut lone.job;
            let kernel = LoneKernel(&*job.body);
            session.run_planned(region, pool, &mut job.out, 0..job.iters, schedule, &kernel)
        } else {
            // Seed the concat buffer from the members' outputs: initial
            // contents participate exactly as in a standalone region.
            concat.clear();
            let mut slots = Vec::with_capacity(k);
            let mut total = 0usize;
            for (j, q) in batch.iter().enumerate() {
                concat.extend_from_slice(&q.job.out);
                slots.push(Slot {
                    body: &*q.job.body,
                    start: total,
                    offset: j * n,
                });
                total += q.job.iters;
            }
            let m = batch[0].job.iters;
            let kernel = BatchKernel {
                slots: &slots,
                uniform: (m > 0 && batch.iter().all(|q| q.job.iters == m)).then_some(m),
            };
            session.run_planned(region, pool, concat, 0..total, schedule, &kernel)
        };

        let deliver = |j: usize, q: Queued<T>, report: RunReport| {
            let Queued {
                job: Job { mut out, body, .. },
                enqueued,
                reply,
            } = q;
            if k > 1 {
                out.copy_from_slice(&concat[j * n..(j + 1) * n]);
            }
            // Drop the body before replying: once a scoped submitter
            // observes its result, no reference into its borrows may
            // remain anywhere in the service.
            drop(body);
            // A submitter that dropped its ticket simply forfeits the result.
            let _ = reply.send(JobResult {
                out,
                report,
                queue_wait: admitted.duration_since(enqueued),
                batch_size: k,
            });
        };
        // Every member but the last gets a copy of the report; the last
        // takes it.
        let last = batch.pop().expect("a batch holds at least one job");
        for (j, q) in batch.into_iter().enumerate() {
            deliver(j, q, report.clone());
        }
        deliver(k - 1, last, report);
    }
}

fn dispatcher_main<T: AtomicElement, O: ReduceOp<T>>(
    cfg: ServiceConfig,
    rx: mpsc::Receiver<Vec<Queued<T>>>,
    counters: Arc<AdmissionCounters>,
) {
    let window = cfg.batch_window.max(1);
    let mut d = Dispatcher::<T, O> {
        pool: ThreadPool::new(cfg.threads),
        cfg,
        counters,
        sessions: BTreeMap::new(),
        admission: Admission::new(),
        concat: Vec::new(),
    };
    loop {
        if d.admission.is_empty() {
            // Queue drained: block for the next submission (or shutdown).
            match rx.recv() {
                Ok(group) => {
                    for q in group {
                        d.admission.enqueue(q);
                    }
                }
                Err(_) => break,
            }
        }
        // Admit everything already queued so the batcher sees the full
        // backlog, then run one batch.
        while let Ok(group) = rx.try_recv() {
            for q in group {
                d.admission.enqueue(q);
            }
        }
        if let Some(batch) = d.admission.pick(window) {
            d.run_batch(batch);
        }
    }
    // Channel closed: drain the backlog.
    while let Some(batch) = d.admission.pick(window) {
        d.run_batch(batch);
    }
}

/// A reduction service: one pool, an executor session per batch shape,
/// a queue.
///
/// Create with [`new`](ReductionService::new); submit owned jobs with
/// [`submit`](ReductionService::submit)/[`Ticket::wait`] from any
/// thread, or borrowed-body jobs with
/// [`run_scoped`](ReductionService::run_scoped). Dropping the service
/// drains the queue and joins its dispatcher thread.
pub struct ReductionService<T: AtomicElement, O: ReduceOp<T>> {
    /// Each message is a submission *group*: [`submit`](ReductionService::submit)
    /// sends singletons, [`run_scoped`](ReductionService::run_scoped)
    /// sends its whole job set in one message so the dispatcher admits
    /// the group atomically — co-submitted same-shape jobs are
    /// *guaranteed* to see each other in the batcher, not merely likely.
    tx: Option<mpsc::Sender<Vec<Queued<T>>>>,
    dispatcher: Option<JoinHandle<()>>,
    counters: Arc<AdmissionCounters>,
    _op: PhantomData<fn() -> O>,
}

impl<T: AtomicElement, O: ReduceOp<T>> ReductionService<T, O> {
    /// Starts the service: spawns the dispatcher thread, which owns the
    /// pool, runs every batch and delivers every result.
    pub fn new(cfg: ServiceConfig) -> Self {
        let counters = Arc::new(AdmissionCounters::default());
        let (tx, rx) = mpsc::channel();
        let counters2 = Arc::clone(&counters);
        let dispatcher = std::thread::Builder::new()
            .name("spray-service".into())
            .spawn(move || dispatcher_main::<T, O>(cfg, rx, counters2))
            .expect("spawn service dispatcher thread");
        ReductionService {
            tx: Some(tx),
            dispatcher: Some(dispatcher),
            counters,
            _op: PhantomData,
        }
    }

    /// The cumulative admission counters (`jobs`, `batched_regions`),
    /// shared with the dispatcher thread that updates them.
    pub fn shared(&self) -> &AdmissionCounters {
        &self.counters
    }

    /// Submits one owned job; redeem the ticket with [`Ticket::wait`].
    pub fn submit(&self, job: Job<'static, T>) -> Ticket<T> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .as_ref()
            .expect("service running")
            .send(vec![Queued {
                job,
                enqueued: Instant::now(),
                reply,
            }])
            .expect("service dispatcher alive");
        Ticket { rx }
    }

    /// Submits a group of jobs whose bodies may borrow from the caller's
    /// stack, and blocks until **all** of them complete.
    ///
    /// This is the scoped entry point the workload ports use (a LULESH
    /// force kernel borrows its `Domain`; PageRank borrows the frontier
    /// ranks) — the bodies' borrows outlive the call because the call
    /// does not return until every job's result (sent only after its
    /// body has been dropped) has been received.
    ///
    /// If the service cannot prove a job retired — the dispatcher died
    /// with jobs in flight — the process **aborts**: returning (or
    /// unwinding) with a borrowed body possibly still referenced
    /// elsewhere would be unsound, and this cannot happen on healthy
    /// runs.
    pub fn run_scoped<'a>(&self, jobs: Vec<Job<'a, T>>) -> Vec<JobResult<T>> {
        let fail = |what: &str| -> ! {
            eprintln!("reduction service {what} with scoped jobs in flight; aborting");
            std::process::abort()
        };
        let mut group = Vec::with_capacity(jobs.len());
        let tickets: Vec<Ticket<T>> = jobs
            .into_iter()
            .map(|job| {
                // SAFETY: the body's borrows stay alive until this
                // function returns, and the service drops every body
                // before replying; the recv loop below refuses to
                // return (aborts) unless every reply arrived.
                let job: Job<'static, T> =
                    unsafe { std::mem::transmute::<Job<'a, T>, Job<'static, T>>(job) };
                let (reply, rx) = mpsc::channel();
                group.push(Queued {
                    job,
                    enqueued: Instant::now(),
                    reply,
                });
                Ticket { rx }
            })
            .collect();
        // One message carries the whole group: the dispatcher admits it
        // atomically, so co-submitted same-shape jobs are guaranteed to
        // see each other in the batcher.
        match self.tx.as_ref() {
            Some(tx) => {
                if tx.send(group).is_err() {
                    fail("shut down");
                }
            }
            None => fail("shut down"),
        }
        tickets
            .into_iter()
            .map(|t| match t.rx.recv() {
                Ok(r) => r,
                Err(_) => fail("dropped a job"),
            })
            .collect()
    }
}

impl<T: AtomicElement, O: ReduceOp<T>> Drop for ReductionService<T, O> {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spray::Sum;

    fn scatter_body(n: usize, salt: u64) -> JobBody<'static, i64> {
        Box::new(move |view, i| {
            let h = ompsim::verify::mix64(salt ^ (i as u64).wrapping_mul(0x9E37_79B9));
            view.apply((h as usize) % n, 1 + (h >> 32) as i64 % 5);
        })
    }

    fn expected(n: usize, iters: usize, salt: u64, init: &[i64]) -> Vec<i64> {
        let mut out = init.to_vec();
        for i in 0..iters {
            let h = ompsim::verify::mix64(salt ^ (i as u64).wrapping_mul(0x9E37_79B9));
            out[(h as usize) % n] += 1 + (h >> 32) as i64 % 5;
        }
        out
    }

    fn job(n: usize, tenant: u64, salt: u64) -> Job<'static, i64> {
        Job {
            tenant,
            class: 7,
            out: vec![0i64; n],
            iters: 500,
            body: scatter_body(n, salt),
        }
    }

    #[test]
    fn single_job_matches_sequential() {
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        });
        let r = svc.submit(job(128, 0, 42)).wait();
        assert_eq!(r.out, expected(128, 500, 42, &vec![0; 128]));
        assert_eq!(r.batch_size, 1);
        assert_eq!(svc.shared().jobs(), 1);
        assert_eq!(svc.shared().batched_regions(), 0);
    }

    #[test]
    fn batched_jobs_keep_outputs_separate_and_exact() {
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 4,
            batch_window: 4,
            ..ServiceConfig::default()
        });
        // Submit a burst before waiting so the dispatcher sees a backlog
        // it can batch.
        let tickets: Vec<_> = (0..8u64)
            .map(|j| svc.submit(job(96, j % 3, 100 + j)))
            .collect();
        let results: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        for (j, r) in results.iter().enumerate() {
            assert_eq!(
                r.out,
                expected(96, 500, 100 + j as u64, &vec![0; 96]),
                "job {j} corrupted"
            );
        }
        assert_eq!(svc.shared().jobs(), 8);
        // Batching is timing-dependent (the burst may drain one by one
        // on a slow machine), so only the invariant is asserted: batch
        // sizes sum to the job count.
        let total: usize = {
            let mut seen = 0usize;
            let mut sizes = Vec::new();
            for r in &results {
                sizes.push(r.batch_size);
                seen += 1;
            }
            assert!(sizes.iter().all(|&s| (1..=4).contains(&s)));
            seen
        };
        assert_eq!(total, 8);
    }

    #[test]
    fn mixed_shapes_never_share_a_region() {
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            batch_window: 8,
            ..ServiceConfig::default()
        });
        let a = svc.submit(Job {
            class: 1,
            ..job(64, 0, 1)
        });
        let b = svc.submit(Job {
            class: 2,
            ..job(64, 0, 2)
        });
        let c = svc.submit(job(32, 1, 3));
        let (a, b, c) = (a.wait(), b.wait(), c.wait());
        assert_eq!(a.out, expected(64, 500, 1, &vec![0; 64]));
        assert_eq!(b.out, expected(64, 500, 2, &vec![0; 64]));
        assert_eq!(c.out, expected(32, 500, 3, &vec![0; 32]));
        assert_eq!(a.batch_size, 1);
        assert_eq!(b.batch_size, 1);
        assert_eq!(c.batch_size, 1);
        assert_eq!(b.report.planned_regions, 0);
        // Each class keeps its own plan in the n = 64 session: two more
        // rounds of both classes replay them, 4 clean replays.
        let mut last = None;
        for _ in 0..2 {
            for (class, salt) in [(1, 1), (2, 2)] {
                let r = svc
                    .submit(Job {
                        class,
                        ..job(64, 0, salt)
                    })
                    .wait();
                assert_eq!(r.out, expected(64, 500, salt, &vec![0; 64]));
                last = Some(r);
            }
        }
        assert_eq!(last.unwrap().report.planned_regions, 4);
    }

    #[test]
    fn sessions_keep_their_plans_across_another_sessions_migration() {
        // A dense shape records, then replays, in its session. A sparse
        // class runs in another session until the adaptive policy moves
        // it from block-CAS to atomic, which clears that session's
        // plans. The dense shape's next job must still replay its own.
        //
        // Under the verify feature, another test's schedule controller
        // could plant migrations in these adaptive sessions; holding an
        // inert controller (installs serialize) keeps them out.
        #[cfg(feature = "verify")]
        let _inert = ompsim::verify::install(ompsim::verify::VerifyConfig {
            preempt_per_mille: 0,
            ..Default::default()
        });
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            policy: ExecutorPolicy::Adaptive(spray::AdaptiveConfig::density_only(vec![
                Strategy::BlockCas { block_size: 64 },
                Strategy::Atomic,
            ])),
            batch_window: 1,
            ..ServiceConfig::default()
        });
        let dense = || svc.submit(job(64, 0, 1)).wait();
        assert_eq!(dense().report.planned_regions, 0);
        assert_eq!(dense().report.planned_regions, 1);
        let mut sparse = None;
        for salt in 0..4 {
            let r = svc
                .submit(Job {
                    class: 8,
                    ..job(8192, 1, 100 + salt)
                })
                .wait();
            assert_eq!(r.out, expected(8192, 500, 100 + salt, &vec![0; 8192]));
            sparse = Some(r);
        }
        assert_eq!(sparse.unwrap().report.strategy, "atomic");
        let r = dense();
        assert_eq!(r.out, expected(64, 500, 1, &vec![0; 64]));
        assert_eq!(r.report.strategy, "block-CAS-64");
        assert_eq!(
            r.report.planned_regions, 2,
            "the dense session lost its plan to another session's migration"
        );
    }

    #[test]
    fn initial_output_contents_participate() {
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        });
        let init: Vec<i64> = (0..64).map(|i| i as i64 * 10).collect();
        let mut j = job(64, 0, 9);
        j.out = init.clone();
        let r = svc.submit(j).wait();
        assert_eq!(r.out, expected(64, 500, 9, &init));
    }

    #[test]
    fn batched_initial_outputs_participate_per_segment() {
        // A batch of k >= 2 seeds its concat buffer from the members'
        // outputs and copies each segment back: distinct nonzero initial
        // contents must land in their own job's result.
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            batch_window: 4,
            ..ServiceConfig::default()
        });
        let inits: Vec<Vec<i64>> = (0..3i64)
            .map(|t| (0..64).map(|i| (t + 1) * 1000 + i).collect())
            .collect();
        let jobs = inits
            .iter()
            .enumerate()
            .map(|(t, init)| Job {
                out: init.clone(),
                ..job(64, t as u64, 20 + t as u64)
            })
            .collect();
        let results = svc.run_scoped(jobs);
        for (t, r) in results.iter().enumerate() {
            assert_eq!(
                r.out,
                expected(64, 500, 20 + t as u64, &inits[t]),
                "job {t}"
            );
            assert_eq!(r.batch_size, 3);
        }
    }

    #[test]
    fn lone_scoped_job_drops_its_body_before_returning() {
        // A lone job reduces straight into its own output; its borrowed
        // body (and everything it holds) must be gone by the time
        // `run_scoped` returns.
        struct Guard<'a>(&'a AtomicU64);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dropped = AtomicU64::new(0);
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        });
        let weights: Vec<i64> = (0..300).map(|i| i % 11 - 5).collect();
        let guard = Guard(&dropped);
        let w = &weights;
        let results = svc.run_scoped(vec![Job {
            tenant: 0,
            class: 4,
            out: vec![0i64; 96],
            iters: 300,
            body: Box::new(move |view, i| {
                let _held = &guard;
                view.apply(i * 7 % 96, w[i]);
            }),
        }]);
        assert_eq!(
            dropped.load(Ordering::Relaxed),
            1,
            "body outlived run_scoped"
        );
        let mut want = vec![0i64; 96];
        for (i, &w) in weights.iter().enumerate() {
            want[i * 7 % 96] += w;
        }
        assert_eq!(results[0].out, want);
        assert_eq!(results[0].batch_size, 1);
    }

    #[test]
    fn scoped_jobs_borrow_caller_data() {
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            batch_window: 2,
            ..ServiceConfig::default()
        });
        let weights: Vec<i64> = (0..256).map(|i| (i % 7) as i64).collect();
        let jobs: Vec<Job<'_, i64>> = (0..4u64)
            .map(|t| {
                let w = &weights;
                Job {
                    tenant: t,
                    class: 3,
                    out: vec![0i64; 64],
                    iters: 256,
                    body: Box::new(move |view, i| view.apply(i % 64, w[i])),
                }
            })
            .collect();
        let results = svc.run_scoped(jobs);
        let mut want = vec![0i64; 64];
        for i in 0..256 {
            want[i % 64] += weights[i];
        }
        // The group is admitted whole, so the window of 2 runs it as two
        // batched regions. Every member, the last of each batch included,
        // reports its batch's strategy and applies.
        for r in &results {
            assert_eq!(r.out, want);
            assert_eq!(r.batch_size, 2);
            assert_eq!(r.report.strategy, "block-CAS-64");
            assert_eq!(r.report.counters.totals().applies, 2 * 256);
        }
        assert_eq!(svc.shared().jobs(), 4);
        assert_eq!(svc.shared().batched_regions(), 2);
    }

    #[test]
    fn uneven_iteration_counts_locate_correctly() {
        // Non-uniform iters forces the binary-search member lookup.
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            batch_window: 4,
            ..ServiceConfig::default()
        });
        let jobs: Vec<Job<'_, i64>> = (0..3u64)
            .map(|t| Job {
                tenant: 0,
                class: 5,
                out: vec![0i64; 48],
                iters: 100 + 37 * t as usize,
                body: Box::new(move |view, i| view.apply(i % 48, 1 + t as i64)),
            })
            .collect();
        let results = svc.run_scoped(jobs);
        for (t, r) in results.iter().enumerate() {
            let iters = 100 + 37 * t;
            let mut want = vec![0i64; 48];
            for i in 0..iters {
                want[i % 48] += 1 + t as i64;
            }
            assert_eq!(r.out, want, "job {t}");
        }
    }

    #[test]
    fn fair_share_serves_all_tenants() {
        // A chatty tenant floods the queue; a quiet tenant's single job
        // must still complete (round-robin head-of-line service).
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            batch_window: 1,
            ..ServiceConfig::default()
        });
        let chatty: Vec<_> = (0..16).map(|j| svc.submit(job(64, 0, j))).collect();
        let quiet = svc.submit(job(64, 9, 999));
        let r = quiet.wait();
        assert_eq!(r.out, expected(64, 500, 999, &vec![0; 64]));
        for (j, t) in chatty.into_iter().enumerate() {
            assert_eq!(t.wait().out, expected(64, 500, j as u64, &vec![0; 64]));
        }
    }

    #[test]
    fn drop_drains_queue() {
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            batch_window: 4,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = (0..6u64).map(|j| svc.submit(job(80, j, j))).collect();
        drop(svc); // must drain, not discard
        for (j, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().out, expected(80, 500, j as u64, &vec![0; 80]));
        }
    }
}

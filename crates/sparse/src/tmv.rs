//! Transpose-matrix-vector products as spray reductions.

use crate::{Csr, Num};
use ompsim::{Schedule, ThreadPool};
use spray::{
    reduce_strategy, ExecutorPolicy, Kernel, PlanBudget, ReducerView, RegionExecutor, RunReport,
    Strategy,
};

/// The Fig. 10 loop body as a [`spray::Kernel`] over rows:
/// `for k in row(i): y[cols[k]] += vals[k] * x[i]`.
pub struct TmvKernel<'a, T> {
    /// The matrix (iterated row-wise; output is indexed by column).
    pub a: &'a Csr<T>,
    /// Input vector (length `nrows`).
    pub x: &'a [T],
}

impl<T: Num> Kernel<T> for TmvKernel<'_, T> {
    #[inline(always)]
    fn item<V: ReducerView<T>>(&self, view: &mut V, row: usize) {
        let xi = self.x[row];
        let (cols, vals) = self.a.row(row);
        for (&c, &v) in cols.iter().zip(vals) {
            view.apply(c as usize, v * xi);
        }
    }
}

/// Computes `y += Aᵀ·x` with the given reduction strategy, parallelized
/// over rows with the paper's default static schedule.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn tmv_with_strategy<T: Num>(
    strategy: Strategy,
    pool: &ThreadPool,
    a: &Csr<T>,
    x: &[T],
    y: &mut [T],
) -> RunReport {
    assert_eq!(x.len(), a.nrows(), "x must have nrows elements");
    assert_eq!(y.len(), a.ncols(), "y must have ncols elements");
    let kernel = TmvKernel { a, x };
    reduce_strategy::<T, spray::Sum, _>(
        strategy,
        pool,
        y,
        0..a.nrows(),
        Schedule::default(),
        &kernel,
    )
}

/// Repeated `y += Aᵀ·x` with a cached region plan — spray's answer to
/// MKL's `mkl_sparse_optimize()`: the first product records the column
/// scatter footprint, every later product with the *same matrix* replays
/// it (exclusive blocks write `y` directly, only genuinely shared blocks
/// privatize, the merge visits only dirty copies). Unlike MKL's untimed
/// inspection, the plan-build time is reported in the returned
/// [`RunReport::plan_build_secs`], so amortization claims stay fair.
///
/// Swapping in a matrix with a different sparsity pattern is correct (the
/// deviating product falls back and rebuilds the plan) but wastes the
/// recording; use one `PlannedTmv` per matrix.
pub struct PlannedTmv<T: Num> {
    executor: RegionExecutor<T, spray::Sum>,
}

impl<T: Num> PlannedTmv<T> {
    /// A planned-TMV context for `strategy`, with nothing recorded yet.
    pub fn new(strategy: Strategy) -> Self {
        Self::with_policy(strategy, ExecutorPolicy::Fixed)
    }

    /// A planned-TMV context with an explicit [`ExecutorPolicy`]: under
    /// [`ExecutorPolicy::Adaptive`] repeated products may migrate
    /// strategies (re-recording the plan lazily after each migration).
    pub fn with_policy(strategy: Strategy, policy: ExecutorPolicy) -> Self {
        PlannedTmv {
            executor: RegionExecutor::with_policy(strategy, policy),
        }
    }

    /// Caps the privatized scratch of every later product at `budget`
    /// (see [`PlanBudget`]): the recorded column-scatter plan demotes its
    /// costliest shared blocks to batched striped-lock updates until the
    /// projection fits. MKL's inspector has no such knob — its optimize
    /// step buys speed with unbounded workspace; here the time-memory
    /// trade is explicit, and each product's
    /// [`RunReport::scratch_bytes`] shows what the cap bought. Takes
    /// effect on the next recording; pair with a fresh `PlannedTmv` (or a
    /// deviating matrix) to re-record under a tighter cap.
    pub fn set_budget(&mut self, budget: PlanBudget) {
        self.executor.set_budget(budget);
    }

    /// Computes `y += Aᵀ·x`, replaying (or first recording) the plan.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn run(&mut self, pool: &ThreadPool, a: &Csr<T>, x: &[T], y: &mut [T]) -> RunReport {
        assert_eq!(x.len(), a.nrows(), "x must have nrows elements");
        assert_eq!(y.len(), a.ncols(), "y must have ncols elements");
        let kernel = TmvKernel { a, x };
        self.executor
            .run_planned(0, pool, y, 0..a.nrows(), Schedule::default(), &kernel)
    }

    /// Cumulative seconds spent building plans (the inspection cost).
    pub fn plan_build_secs(&self) -> f64 {
        self.executor.plan_build_secs()
    }

    /// Products so far that replayed a plan without deviating.
    pub fn planned_regions(&self) -> u64 {
        self.executor.planned_regions()
    }

    /// Strategy migrations performed so far (0 under a fixed policy).
    pub fn migrations(&self) -> u64 {
        self.executor.migrations()
    }
}

/// Computes `y += Aᵀ·x` by submitting the product as a job to a shared
/// [`spray_service::ReductionService`] — the service analog of
/// [`PlannedTmv`]: the first product with a given `class` records a
/// region plan in the service's shared cache and every later product of
/// the same class (from this caller *or any other thread* using the
/// same service) replays it; same-shape products queued concurrently
/// may batch into a single region.
///
/// `class` identifies the matrix's sparsity pattern — use one value per
/// matrix, exactly like "one [`PlannedTmv`] per matrix" (a collision is
/// correct but re-records the plan). The job is also queued under
/// `class` as its fair-share tenant.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn tmv_via_service<T: Num>(
    svc: &spray_service::ReductionService<T, spray::Sum>,
    class: u64,
    a: &Csr<T>,
    x: &[T],
    y: &mut Vec<T>,
) -> RunReport {
    assert_eq!(x.len(), a.nrows(), "x must have nrows elements");
    assert_eq!(y.len(), a.ncols(), "y must have ncols elements");
    let job = spray_service::Job {
        tenant: class,
        class,
        out: std::mem::take(y),
        iters: a.nrows(),
        body: Box::new(move |view, row| {
            let xi = x[row];
            let (cols, vals) = a.row(row);
            for (&c, &v) in cols.iter().zip(vals) {
                view.apply(c as usize, v * xi);
            }
        }),
    };
    let result = svc
        .run_scoped(vec![job])
        .pop()
        .expect("one job in, one out");
    *y = result.out;
    result.report
}

/// Disjoint-write shared output used by the row-parallel gather.
struct RowOut<T>(*mut T);
// SAFETY: each row index is written by exactly one schedule chunk.
unsafe impl<T: Send> Send for RowOut<T> {}
unsafe impl<T: Send> Sync for RowOut<T> {}

impl<T> RowOut<T> {
    /// # Safety
    /// `i` in bounds and written by exactly one thread.
    #[inline(always)]
    unsafe fn add_to(&self, i: usize, v: T)
    where
        T: Num,
    {
        let p = self.0.add(i);
        *p = *p + v;
    }
}

/// Parallel `y += A·x` (row gather, DOALL — each `y[r]` written by one
/// thread). Used by the inspector/executor baseline after transposition,
/// and useful on its own.
pub fn par_matvec<T: Num>(pool: &ThreadPool, a: &Csr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols(), "x must have ncols elements");
    assert_eq!(y.len(), a.nrows(), "y must have nrows elements");
    let out = RowOut(y.as_mut_ptr());
    pool.for_each(0..a.nrows(), Schedule::default(), |r| {
        let (cols, vals) = a.row(r);
        let mut acc = T::default();
        for (&c, &v) in cols.iter().zip(vals) {
            acc = acc + v * x[c as usize];
        }
        // SAFETY: row r belongs to exactly one schedule chunk.
        unsafe { out.add_to(r, acc) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn tmv_all_strategies_match_seq() {
        let a = gen::random(200, 150, 2000, 42);
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut expected = vec![0.0f64; 150];
        a.tmatvec_seq(&x, &mut expected);

        let pool = ThreadPool::new(4);
        for strategy in Strategy::all(32) {
            let mut y = vec![0.0f64; 150];
            let report = tmv_with_strategy(strategy, &pool, &a, &x, &mut y);
            for (i, (&got, &want)) in y.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "{} differs at {i}: {got} vs {want}",
                    report.strategy
                );
            }
        }
    }

    #[test]
    fn planned_tmv_matches_seq_and_replays() {
        let a = gen::random(400, 256, 4000, 9);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.02).cos()).collect();
        let mut expected = vec![0.0f64; 256];
        a.tmatvec_seq(&x, &mut expected);

        let pool = ThreadPool::new(4);
        let mut tmv = PlannedTmv::new(Strategy::BlockCas { block_size: 32 });
        // Several products with the same matrix: the first records, the
        // rest replay; all must match the sequential reference.
        for rep in 0..3 {
            let mut y = vec![0.0f64; 256];
            let report = tmv.run(&pool, &a, &x, &mut y);
            for (i, (&got, &want)) in y.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "rep {rep} differs at {i}: {got} vs {want}"
                );
            }
            assert_eq!(report.planned_regions, rep as u64);
        }
        assert_eq!(tmv.planned_regions(), 2);
        assert!(tmv.plan_build_secs() >= 0.0);
    }

    #[test]
    fn adaptive_planned_tmv_matches_seq() {
        let a = gen::random(400, 256, 4000, 9);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.02).cos()).collect();
        let mut expected = vec![0.0f64; 256];
        a.tmatvec_seq(&x, &mut expected);

        let pool = ThreadPool::new(4);
        let mut tmv = PlannedTmv::with_policy(
            Strategy::BlockCas { block_size: 32 },
            ExecutorPolicy::Adaptive(spray::AdaptiveConfig::default()),
        );
        for rep in 0..4 {
            let mut y = vec![0.0f64; 256];
            tmv.run(&pool, &a, &x, &mut y);
            for (i, (&got, &want)) in y.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "rep {rep} differs at {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn budgeted_planned_tmv_match_seq() {
        let a = gen::random(400, 256, 4000, 9);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.02).cos()).collect();
        let mut expected = vec![0.0f64; 256];
        a.tmatvec_seq(&x, &mut expected);

        let pool = ThreadPool::new(4);
        // Budget ladder on the block plan (zero demotes every shared
        // block): all must match the sequential product on replays too.
        let configs = [
            (Strategy::BlockCas { block_size: 32 }, PlanBudget::new(0)),
            (Strategy::BlockCas { block_size: 32 }, PlanBudget::new(2048)),
        ];
        for (strategy, budget) in configs {
            let mut tmv = PlannedTmv::new(strategy);
            tmv.set_budget(budget);
            for rep in 0..3 {
                let mut y = vec![0.0f64; 256];
                let report = tmv.run(&pool, &a, &x, &mut y);
                for (i, (&got, &want)) in y.iter().zip(&expected).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-9,
                        "{} budget {budget:?} rep {rep} differs at {i}: {got} vs {want}",
                        strategy.label()
                    );
                }
                if !budget.is_unlimited() {
                    assert_eq!(report.budget_bytes, budget.max_scratch_bytes);
                }
            }
        }
    }

    #[test]
    fn tmv_via_service_matches_seq_and_replays() {
        let a = gen::random(400, 256, 4000, 9);
        let b = gen::random(300, 256, 2500, 11);
        let x_a: Vec<f64> = (0..400).map(|i| (i as f64 * 0.02).cos()).collect();
        let x_b: Vec<f64> = (0..300).map(|i| (i as f64 * 0.05).sin()).collect();
        let mut want_a = vec![0.0f64; 256];
        let mut want_b = vec![0.0f64; 256];
        a.tmatvec_seq(&x_a, &mut want_a);
        b.tmatvec_seq(&x_b, &mut want_b);

        // Two matrices multiplex one service under distinct classes.
        let svc =
            spray_service::ReductionService::<f64, spray::Sum>::new(spray_service::ServiceConfig {
                threads: 4,
                strategy: Strategy::BlockCas { block_size: 32 },
                ..spray_service::ServiceConfig::default()
            });
        let mut last = None;
        for rep in 0..3 {
            for (class, m, x, want) in [(1u64, &a, &x_a, &want_a), (2, &b, &x_b, &want_b)] {
                let mut y = vec![0.0f64; 256];
                let report = tmv_via_service(&svc, class, m, x, &mut y);
                for (i, (&got, &want)) in y.iter().zip(want).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-9,
                        "class {class} rep {rep} differs at {i}: {got} vs {want}"
                    );
                }
                last = Some(report);
            }
        }
        // Both classes replay their own plan after the first product:
        // 4 of the 6 products are clean replays.
        assert_eq!(last.unwrap().planned_regions, 4);
        assert_eq!(svc.shared().jobs(), 6);
    }

    #[test]
    fn par_matvec_matches_seq() {
        let a = gen::random(300, 200, 3000, 7);
        let x: Vec<f64> = (0..200).map(|i| (i % 11) as f64).collect();
        let mut seq = vec![0.0f64; 300];
        a.matvec_seq(&x, &mut seq);
        let pool = ThreadPool::new(4);
        let mut par = vec![0.0f64; 300];
        par_matvec(&pool, &a, &x, &mut par);
        for (u, v) in seq.iter().zip(&par) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "x must have nrows")]
    fn dimension_mismatch_panics() {
        let a = gen::random(10, 10, 20, 1);
        let pool = ThreadPool::new(1);
        let mut y = vec![0.0f64; 10];
        let _ = tmv_with_strategy(Strategy::Atomic, &pool, &a, &[1.0; 5], &mut y);
    }
}

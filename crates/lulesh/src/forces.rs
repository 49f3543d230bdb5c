//! Nodal force computation — the sparse-reduction heart of the proxy.
//!
//! Two sweeps over elements scatter 8×3 corner-force contributions each to
//! the shared nodal force array, mirroring LULESH's
//! `IntegrateStressForElems` and `CalcFBHourglassForceForElems` (the two
//! functions the paper rewrites with SPRAY). The scatter runs under a
//! selectable [`ForceScheme`]:
//!
//! * [`ForceScheme::Seq`] — sequential reference;
//! * [`ForceScheme::Spray`] — any spray reduction strategy over the
//!   interleaved nodal force array;
//! * [`ForceScheme::EightCopy`] — LULESH's domain-specific parallelization:
//!   the force array is replicated 8×, element-parallel writes go to the
//!   replica selected by the *local corner number* (race-free because a
//!   node is corner `c` of at most one element), and an extra sweep
//!   combines the replicas. This is the baseline Fig. 16 compares against:
//!   its memory footprint jumps as soon as more than one thread runs.

use crate::domain::Domain;
use crate::hex::{node_normals, GAMMA};
use ompsim::{Schedule, ThreadPool};
use spray::{ExecutorPolicy, Kernel, PlanBudget, ReducerView, ReusableReducer, Strategy, Sum};

/// How nodal force contributions are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceScheme {
    /// Sequential reference sweep.
    Seq,
    /// Spray reduction with the given strategy.
    Spray(Strategy),
    /// LULESH's 8-replica domain-specific scheme.
    EightCopy,
}

impl ForceScheme {
    /// Label used in benchmark reports.
    pub fn label(&self) -> String {
        match self {
            ForceScheme::Seq => "sequential".into(),
            ForceScheme::Spray(s) => s.label(),
            ForceScheme::EightCopy => "lulesh-8copy".into(),
        }
    }
}

/// Corner forces from the isotropic stress `σ = -(p+q)·I`:
/// `f_k = -σ · B_k = (p+q) · B_k` (LULESH `IntegrateStressForElems` +
/// `SumElemStressesToNodeForces`). With outward node normals `B = ∂V/∂x`,
/// positive pressure pushes nodes outward, expanding the element.
#[inline]
pub(crate) fn stress_corner_forces(d: &Domain, e: usize) -> ([f64; 8], [f64; 8], [f64; 8]) {
    let (x, y, z) = d.elem_coords(e);
    let (bx, by, bz) = node_normals(&x, &y, &z);
    let s = d.p[e] + d.q[e];
    (bx.map(|b| s * b), by.map(|b| s * b), bz.map(|b| s * b))
}

/// Corner forces of the Flanagan–Belytschko hourglass filter
/// (LULESH `CalcFBHourglassForceForElems` per-element part): the four Γ
/// modes are orthogonalized against the element geometry (using the node
/// normals as the volume derivative), the velocity field is projected onto
/// them, and a restoring force proportional to `ss·mass/∛V` pushes back.
#[inline]
pub(crate) fn hourglass_corner_forces(d: &Domain, e: usize) -> ([f64; 8], [f64; 8], [f64; 8]) {
    let (x, y, z) = d.elem_coords(e);
    let (xd, yd, zd) = d.elem_velocities(e);
    let (bx, by, bz) = node_normals(&x, &y, &z);
    let volume = d.volo[e] * d.v[e];
    let volinv = 1.0 / volume;

    // Orthogonalized hourglass shape vectors.
    let mut hourgam = [[0.0f64; 8]; 4];
    for (m, gamma) in GAMMA.iter().enumerate() {
        let hx: f64 = (0..8).map(|j| gamma[j] * x[j]).sum();
        let hy: f64 = (0..8).map(|j| gamma[j] * y[j]).sum();
        let hz: f64 = (0..8).map(|j| gamma[j] * z[j]).sum();
        for k in 0..8 {
            hourgam[m][k] = gamma[k] - volinv * (bx[k] * hx + by[k] * hy + bz[k] * hz);
        }
    }

    let coefficient = -d.params.hgcoef * 0.01 * d.ss[e] * d.elem_mass[e] / volume.cbrt();

    let mut fx = [0.0f64; 8];
    let mut fy = [0.0f64; 8];
    let mut fz = [0.0f64; 8];
    for hg in &hourgam {
        let hxd: f64 = (0..8).map(|j| hg[j] * xd[j]).sum();
        let hyd: f64 = (0..8).map(|j| hg[j] * yd[j]).sum();
        let hzd: f64 = (0..8).map(|j| hg[j] * zd[j]).sum();
        for k in 0..8 {
            fx[k] += coefficient * hg[k] * hxd;
            fy[k] += coefficient * hg[k] * hyd;
            fz[k] += coefficient * hg[k] * hzd;
        }
    }
    (fx, fy, fz)
}

/// Error from parsing a [`ForceScheme`] with `str::parse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseForceSchemeError(String);

impl std::fmt::Display for ParseForceSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid force scheme '{}': expected seq | 8copy | <spray strategy label>",
            self.0
        )
    }
}

impl std::error::Error for ParseForceSchemeError {}

impl std::str::FromStr for ForceScheme {
    type Err = ParseForceSchemeError;

    /// Parses `seq`, `8copy`/`lulesh-8copy`, or any spray strategy label
    /// (e.g. `block-lock-1024`, `keeper`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "seq" | "sequential" => Ok(ForceScheme::Seq),
            "8copy" | "lulesh-8copy" | "eightcopy" => Ok(ForceScheme::EightCopy),
            other => other
                .parse::<Strategy>()
                .map(ForceScheme::Spray)
                .map_err(|_| ParseForceSchemeError(s.to_string())),
        }
    }
}

/// Which of the two force sweeps a pass runs (also the index of the
/// pass's retained reducer in [`ForceAccum`]).
#[derive(Clone, Copy)]
enum Pass {
    Stress = 0,
    Hourglass = 1,
}

struct ForceKernel<'a> {
    d: &'a Domain,
    pass: Pass,
}

impl Kernel<f64> for ForceKernel<'_> {
    #[inline]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, e: usize) {
        let (fx, fy, fz) = match self.pass {
            Pass::Stress => stress_corner_forces(self.d, e),
            Pass::Hourglass => hourglass_corner_forces(self.d, e),
        };
        let en = &self.d.mesh.elem_node[e];
        for k in 0..8 {
            let n = en[k] as usize * 3;
            view.apply(n, fx[k]);
            view.apply(n + 1, fy[k]);
            view.apply(n + 2, fz[k]);
        }
    }
}

/// Raw shared output for the 8-copy scheme (see safety notes at use sites).
struct RawOut(*mut f64);
unsafe impl Send for RawOut {}
unsafe impl Sync for RawOut {}
impl RawOut {
    /// # Safety
    /// Caller guarantees index exclusivity per the 8-copy protocol.
    #[inline(always)]
    unsafe fn add(&self, i: usize, v: f64) {
        *self.0.add(i) += v;
    }
}

/// Outcome of a force computation (for benchmark memory reports).
#[derive(Debug, Default, Clone, Copy)]
pub struct ForceStats {
    /// Peak extra bytes allocated by the accumulation scheme.
    pub memory_overhead: usize,
    /// Corner-force contributions applied through spray reducers (both
    /// sweeps). Zero for the sequential and 8-copy schemes, which bypass
    /// the reduction telemetry.
    pub applies: u64,
}

/// Reusable force-accumulation state for a fixed [`ForceScheme`].
///
/// The timestep loop runs the force scatter twice per cycle (stress +
/// hourglass) for thousands of cycles over the same nodal array shape.
/// Holding the spray reducers' block scratch (and the 8-copy scheme's
/// replica buffer) here means those allocations happen once, on the first
/// sweep, instead of every pass — build one with [`ForceAccum::new`] and
/// thread it through [`crate::step_with`]/[`calc_force_for_nodes_with`].
/// It is deliberately *not* stored in [`Domain`], which stays a plain
/// bitwise-checkpointable value.
pub struct ForceAccum {
    scheme: ForceScheme,
    /// One reducer per pass so each sweep's ownership pattern warms its
    /// own scratch (the two passes scatter identically, but keeping them
    /// separate costs one extra table and avoids any cross-pass reset
    /// subtleties).
    reducers: Option<[ReusableReducer<f64, Sum>; 2]>,
    /// Retained 8-replica buffer for [`ForceScheme::EightCopy`].
    copies: Vec<f64>,
}

impl ForceAccum {
    /// Fresh accumulation state for `scheme` (no scratch retained yet).
    pub fn new(scheme: ForceScheme) -> Self {
        Self::with_policy(scheme, ExecutorPolicy::Fixed)
    }

    /// Like [`ForceAccum::new`] with an explicit [`ExecutorPolicy`] for
    /// the spray reducers: under [`ExecutorPolicy::Adaptive`] each pass's
    /// executor may migrate strategies between timestep sweeps. Ignored
    /// by the non-spray schemes.
    pub fn with_policy(scheme: ForceScheme, policy: ExecutorPolicy) -> Self {
        Self::with_budget(scheme, policy, PlanBudget::UNLIMITED)
    }

    /// Like [`ForceAccum::with_policy`] with a [`PlanBudget`] cap on each
    /// sweep's privatized scratch — the knob LULESH's own 8-copy scheme
    /// lacks (it always pays 8 full nodal replicas). Both the stress and
    /// hourglass passes run under the cap: their element→node scatter
    /// plans demote the costliest shared node blocks to batched
    /// striped-lock updates until the projection fits. Ignored by the
    /// non-spray schemes.
    pub fn with_budget(scheme: ForceScheme, policy: ExecutorPolicy, budget: PlanBudget) -> Self {
        ForceAccum {
            scheme,
            reducers: match scheme {
                ForceScheme::Spray(s) => {
                    let mut pair = [
                        ReusableReducer::with_policy(s, policy.clone()),
                        ReusableReducer::with_policy(s, policy),
                    ];
                    for r in &mut pair {
                        r.set_budget(budget);
                    }
                    Some(pair)
                }
                _ => None,
            },
            copies: Vec::new(),
        }
    }

    /// The scheme this state accumulates with.
    pub fn scheme(&self) -> ForceScheme {
        self.scheme
    }
}

fn run_pass(
    d: &Domain,
    f: &mut [f64],
    pool: &ThreadPool,
    accum: &mut ForceAccum,
    pass: Pass,
) -> ForceStats {
    let nelem = d.nelem();
    match accum.scheme {
        ForceScheme::Seq => {
            let kernel = ForceKernel { d, pass };
            spray::reduce_seq::<f64, Sum, _>(f, 0..nelem, |view, e| kernel.item(view, e));
            ForceStats::default()
        }
        ForceScheme::Spray(_) => {
            let kernel = ForceKernel { d, pass };
            let reducer = &mut accum.reducers.as_mut().expect("spray scheme")[pass as usize];
            // Both passes scatter along the fixed element→node incidence,
            // so one plan per mesh replays across all timesteps. Each pass
            // already has its own reducer (own plan cache); keying by pass
            // keeps the ids meaningful if the reducers are ever merged.
            let report =
                reducer.run_planned(pass as u64, pool, f, 0..nelem, Schedule::default(), &kernel);
            ForceStats {
                memory_overhead: report.memory_overhead,
                applies: report.counters.totals().applies,
            }
        }
        ForceScheme::EightCopy => {
            let stride = f.len(); // 3 * nnode
                                  // The domain-specific scheme's memory cost: 8 full replicas
                                  // (retained across passes/cycles; re-zeroed, not re-allocated).
            accum.copies.clear();
            accum.copies.resize(8 * stride, 0.0);
            let copies = &mut accum.copies;
            let out = RawOut(copies.as_mut_ptr());
            pool.for_each(0..nelem, Schedule::default(), |e| {
                let (fx, fy, fz) = match pass {
                    Pass::Stress => stress_corner_forces(d, e),
                    Pass::Hourglass => hourglass_corner_forces(d, e),
                };
                let en = &d.mesh.elem_node[e];
                for k in 0..8 {
                    let base = k * stride + en[k] as usize * 3;
                    // SAFETY: a node is local corner k of at most one
                    // element (structured-mesh property, verified in
                    // mesh tests), so replica k's slot for this node is
                    // written by exactly one element — and each element
                    // belongs to one thread.
                    unsafe {
                        out.add(base, fx[k]);
                        out.add(base + 1, fy[k]);
                        out.add(base + 2, fz[k]);
                    }
                }
            });
            // Combination sweep: each f[i] gathers its 8 replicas.
            let fout = RawOut(f.as_mut_ptr());
            let copies_ref = &copies;
            pool.for_each(0..stride, Schedule::default(), |i| {
                let mut acc = 0.0;
                for k in 0..8 {
                    acc += copies_ref[k * stride + i];
                }
                // SAFETY: index i belongs to exactly one schedule chunk.
                unsafe { fout.add(i, acc) };
            });
            ForceStats {
                memory_overhead: 8 * stride * std::mem::size_of::<f64>(),
                applies: 0,
            }
        }
    }
}

/// Computes all nodal forces (stress sweep + hourglass sweep) into `d.f`,
/// replacing its previous contents, reusing `accum`'s retained scratch.
pub fn calc_force_for_nodes_with(
    d: &mut Domain,
    pool: &ThreadPool,
    accum: &mut ForceAccum,
) -> ForceStats {
    let mut f = std::mem::take(&mut d.f);
    f.fill(0.0);
    let s1 = run_pass(d, &mut f, pool, accum, Pass::Stress);
    let s2 = run_pass(d, &mut f, pool, accum, Pass::Hourglass);
    d.f = f;
    ForceStats {
        memory_overhead: s1.memory_overhead.max(s2.memory_overhead),
        applies: s1.applies + s2.applies,
    }
}

/// One-shot form of [`calc_force_for_nodes_with`] (fresh scratch; loops
/// should build a [`ForceAccum`] once and use the `_with` variant).
pub fn calc_force_for_nodes(d: &mut Domain, pool: &ThreadPool, scheme: ForceScheme) -> ForceStats {
    calc_force_for_nodes_with(d, pool, &mut ForceAccum::new(scheme))
}

/// Computes all nodal forces into `d.f` by submitting the stress and
/// hourglass sweeps as **two concurrent jobs** to a shared
/// [`spray_service::ReductionService`] (whose configuration supplies
/// strategy, schedule and pool — there is no scheme choice here).
///
/// The two sweeps scatter along the same element→node incidence into
/// same-length outputs, so the service coalesces them into a single
/// batched region when its window allows: one plan, one merge schedule,
/// both sweeps' corner forces applied in one parallel phase. Each sweep
/// reduces into its own segment; their sums combine into `d.f`
/// afterwards, which reassociates the stress/hourglass addition exactly
/// like the zero-initialized two-pass accumulation in
/// [`calc_force_for_nodes_with`].
///
/// `class` identifies the mesh shape (use one value per mesh so the
/// recorded incidence plan replays across timesteps).
pub fn calc_force_for_nodes_service(
    d: &mut Domain,
    svc: &spray_service::ReductionService<f64, Sum>,
    class: u64,
) -> ForceStats {
    let nelem = d.nelem();
    let mut f = std::mem::take(&mut d.f);
    f.fill(0.0);
    let flen = f.len();
    let dref: &Domain = d;
    let jobs: Vec<spray_service::Job<'_, f64>> =
        [(Pass::Stress, f), (Pass::Hourglass, vec![0.0; flen])]
            .into_iter()
            .map(|(pass, out)| spray_service::Job {
                // Distinct tenants so both sweeps are head-of-line at once
                // (one tenant would serialize them FIFO, forfeiting the batch).
                tenant: pass as u64,
                class,
                out,
                iters: nelem,
                body: Box::new(move |view, e| {
                    // `ForceKernel::item` inlined: its generic view parameter
                    // cannot take the service's `&mut dyn ReducerView` directly.
                    let (fx, fy, fz) = match pass {
                        Pass::Stress => stress_corner_forces(dref, e),
                        Pass::Hourglass => hourglass_corner_forces(dref, e),
                    };
                    let en = &dref.mesh.elem_node[e];
                    for k in 0..8 {
                        let n = en[k] as usize * 3;
                        view.apply(n, fx[k]);
                        view.apply(n + 1, fy[k]);
                        view.apply(n + 2, fz[k]);
                    }
                }),
            })
            .collect();
    let mut results = svc.run_scoped(jobs);
    let hourglass = results.pop().expect("hourglass job");
    let stress = results.pop().expect("stress job");
    let mut f = stress.out;
    for (fi, hg) in f.iter_mut().zip(&hourglass.out) {
        *fi += hg;
    }
    d.f = f;
    // When the sweeps coalesced into one region its counters already
    // cover both; separate regions are summed.
    let applies = if stress.batch_size == 2 && hourglass.batch_size == 2 {
        stress.report.counters.totals().applies
    } else {
        stress.report.counters.totals().applies + hourglass.report.counters.totals().applies
    };
    ForceStats {
        memory_overhead: stress
            .report
            .memory_overhead
            .max(hourglass.report.memory_overhead),
        applies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Params;

    fn forces_with(scheme: ForceScheme, threads: usize) -> Vec<f64> {
        let mut d = Domain::new(4, Params::default());
        // Perturb velocities so the hourglass sweep produces nonzero work.
        for n in 0..d.nnode() {
            d.xd[n] = ((n * 13 % 7) as f64 - 3.0) * 1e3;
            d.yd[n] = ((n * 5 % 11) as f64 - 5.0) * 1e3;
            d.zd[n] = ((n * 17 % 5) as f64 - 2.0) * 1e3;
        }
        let pool = ThreadPool::new(threads);
        calc_force_for_nodes(&mut d, &pool, scheme);
        d.f
    }

    #[test]
    fn all_schemes_agree_with_sequential() {
        let reference = forces_with(ForceScheme::Seq, 1);
        let scale: f64 = reference.iter().fold(0.0, |a, &b| a.max(b.abs()));
        assert!(scale > 0.0, "reference forces are all zero");
        let schemes = [
            ForceScheme::EightCopy,
            ForceScheme::Spray(Strategy::Dense),
            ForceScheme::Spray(Strategy::Atomic),
            ForceScheme::Spray(Strategy::BlockPrivate { block_size: 64 }),
            ForceScheme::Spray(Strategy::BlockLock { block_size: 64 }),
            ForceScheme::Spray(Strategy::BlockCas { block_size: 64 }),
            ForceScheme::Spray(Strategy::Keeper),
        ];
        for scheme in schemes {
            let f = forces_with(scheme, 4);
            for (i, (&got, &want)) in f.iter().zip(&reference).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9 * scale,
                    "{} differs at {i}: {got} vs {want}",
                    scheme.label()
                );
            }
        }
    }

    #[test]
    fn budgeted_forces_match_sequential() {
        let reference = forces_with(ForceScheme::Seq, 1);
        let scale: f64 = reference.iter().fold(0.0, |a, &b| a.max(b.abs()));
        assert!(scale > 0.0, "reference forces are all zero");

        // Budget ladder on the block plan (zero demotes every shared node
        // block); repeated sweeps also cover the plan-replay path under
        // demotion.
        let configs = [
            (
                ForceScheme::Spray(Strategy::BlockPrivate { block_size: 64 }),
                PlanBudget::new(0),
            ),
            (
                ForceScheme::Spray(Strategy::BlockPrivate { block_size: 64 }),
                PlanBudget::new(4096),
            ),
        ];
        for (scheme, budget) in configs {
            let mut d = Domain::new(4, Params::default());
            for n in 0..d.nnode() {
                d.xd[n] = ((n * 13 % 7) as f64 - 3.0) * 1e3;
                d.yd[n] = ((n * 5 % 11) as f64 - 5.0) * 1e3;
                d.zd[n] = ((n * 17 % 5) as f64 - 2.0) * 1e3;
            }
            let pool = ThreadPool::new(4);
            let mut accum = ForceAccum::with_budget(scheme, ExecutorPolicy::Fixed, budget);
            for step in 0..3 {
                calc_force_for_nodes_with(&mut d, &pool, &mut accum);
                for (i, (&got, &want)) in d.f.iter().zip(&reference).enumerate() {
                    assert!(
                        (got - want).abs() < 1e-9 * scale,
                        "{} budget {budget:?} step {step} differs at {i}: {got} vs {want}",
                        scheme.label()
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_policy_matches_sequential_forces() {
        let reference = forces_with(ForceScheme::Seq, 1);
        let scale: f64 = reference.iter().fold(0.0, |a, &b| a.max(b.abs()));
        assert!(scale > 0.0, "reference forces are all zero");

        let mut d = Domain::new(4, Params::default());
        for n in 0..d.nnode() {
            d.xd[n] = ((n * 13 % 7) as f64 - 3.0) * 1e3;
            d.yd[n] = ((n * 5 % 11) as f64 - 5.0) * 1e3;
            d.zd[n] = ((n * 17 % 5) as f64 - 2.0) * 1e3;
        }
        let pool = ThreadPool::new(4);
        let mut accum = ForceAccum::with_policy(
            ForceScheme::Spray(Strategy::BlockPrivate { block_size: 64 }),
            ExecutorPolicy::Adaptive(spray::AdaptiveConfig::default()),
        );
        // Several timesteps' worth of sweeps so the cost model gets a
        // chance to migrate; every sweep must stay exact either way.
        for step in 0..4 {
            calc_force_for_nodes_with(&mut d, &pool, &mut accum);
            for (i, (&got, &want)) in d.f.iter().zip(&reference).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9 * scale,
                    "adaptive step {step} differs at {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn service_forces_agree_with_sequential() {
        let reference = forces_with(ForceScheme::Seq, 1);
        let scale: f64 = reference.iter().fold(0.0, |a, &b| a.max(b.abs()));
        assert!(scale > 0.0, "reference forces are all zero");

        let mut d = Domain::new(4, Params::default());
        for n in 0..d.nnode() {
            d.xd[n] = ((n * 13 % 7) as f64 - 3.0) * 1e3;
            d.yd[n] = ((n * 5 % 11) as f64 - 5.0) * 1e3;
            d.zd[n] = ((n * 17 % 5) as f64 - 2.0) * 1e3;
        }
        let svc = spray_service::ReductionService::<f64, Sum>::new(spray_service::ServiceConfig {
            threads: 4,
            strategy: Strategy::BlockCas { block_size: 64 },
            batch_window: 2,
            ..spray_service::ServiceConfig::default()
        });
        let mut batched = 0u64;
        for step in 0..4 {
            let stats = calc_force_for_nodes_service(&mut d, &svc, 1);
            assert!(stats.applies > 0, "service sweeps bypassed the reducers");
            batched = svc.shared().batched_regions();
            for (i, (&got, &want)) in d.f.iter().zip(&reference).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9 * scale,
                    "service step {step} differs at {i}: {got} vs {want}"
                );
            }
        }
        assert_eq!(svc.shared().jobs(), 8);
        // Both sweeps of a step are submitted together before either is
        // awaited, so at least some steps must coalesce them. (Timing
        // could in principle split a step's pair; across 4 steps on a
        // blocked submitter that would leave a telltale zero.)
        assert!(batched > 0, "stress+hourglass never shared a region");
    }

    #[test]
    fn global_momentum_balance_of_internal_forces() {
        // Internal forces (stress + hourglass) must sum to zero over the
        // whole mesh: Newton's third law, discretely. This holds per
        // element (below) and therefore globally after the scatter.
        let mut d = Domain::new(4, Params::default());
        for e in 0..d.nelem() {
            d.e[e] = 1.0 + (e % 7) as f64;
            d.update_eos(e);
        }
        for n in 0..d.nnode() {
            d.xd[n] = ((n * 13 % 11) as f64 - 5.0) * 10.0;
            d.yd[n] = ((n * 7 % 13) as f64 - 6.0) * 10.0;
            d.zd[n] = ((n * 3 % 5) as f64 - 2.0) * 10.0;
        }
        let pool = ThreadPool::new(2);
        calc_force_for_nodes(&mut d, &pool, ForceScheme::Seq);
        let (mut fx, mut fy, mut fz) = (0.0f64, 0.0, 0.0);
        let mut scale = 0.0f64;
        for n in 0..d.nnode() {
            fx += d.f[3 * n];
            fy += d.f[3 * n + 1];
            fz += d.f[3 * n + 2];
            scale = scale.max(d.f[3 * n].abs());
        }
        assert!(scale > 0.0);
        assert!(fx.abs() < 1e-9 * scale, "fx = {fx}");
        assert!(fy.abs() < 1e-9 * scale, "fy = {fy}");
        assert!(fz.abs() < 1e-9 * scale, "fz = {fz}");
    }

    #[test]
    fn hourglass_forces_sum_to_zero_per_element() {
        let mut d = Domain::new(3, Params::default());
        d.e.fill(2.0);
        d.update_eos_all();
        for n in 0..d.nnode() {
            d.xd[n] = ((n * 17 % 23) as f64 - 11.0) * 5.0;
        }
        for e in 0..d.nelem() {
            let (fx, fy, fz) = hourglass_corner_forces(&d, e);
            let scale = fx
                .iter()
                .chain(&fy)
                .chain(&fz)
                .fold(0.0f64, |a, &b| a.max(b.abs()))
                .max(1e-300);
            assert!(fx.iter().sum::<f64>().abs() < 1e-9 * scale.max(1.0));
            assert!(fy.iter().sum::<f64>().abs() < 1e-9 * scale.max(1.0));
            assert!(fz.iter().sum::<f64>().abs() < 1e-9 * scale.max(1.0));
        }
    }

    #[test]
    fn force_scheme_parsing() {
        assert_eq!("seq".parse::<ForceScheme>().unwrap(), ForceScheme::Seq);
        assert_eq!(
            "8copy".parse::<ForceScheme>().unwrap(),
            ForceScheme::EightCopy
        );
        assert_eq!(
            "block-lock-512".parse::<ForceScheme>().unwrap(),
            ForceScheme::Spray(Strategy::BlockLock { block_size: 512 })
        );
        assert!("bogus".parse::<ForceScheme>().is_err());
        // Labels round-trip (8copy prints as lulesh-8copy).
        let s = ForceScheme::Spray(Strategy::Keeper);
        assert_eq!(s.label().parse::<ForceScheme>().unwrap(), s);
    }

    #[test]
    fn stress_forces_sum_to_zero_per_element() {
        // Internal stresses exert no net force on the element.
        let d = Domain::new(3, Params::default());
        let (fx, fy, fz) = stress_corner_forces(&d, 0);
        let scale = d.p[0].abs().max(1.0);
        assert!(fx.iter().sum::<f64>().abs() < 1e-9 * scale);
        assert!(fy.iter().sum::<f64>().abs() < 1e-9 * scale);
        assert!(fz.iter().sum::<f64>().abs() < 1e-9 * scale);
    }

    #[test]
    fn hourglass_forces_vanish_for_rigid_motion() {
        // Uniform translation velocity excites no hourglass mode.
        let mut d = Domain::new(3, Params::default());
        for n in 0..d.nnode() {
            d.xd[n] = 3.0;
            d.yd[n] = -1.0;
            d.zd[n] = 0.5;
        }
        for e in 0..d.nelem() {
            let (fx, fy, fz) = hourglass_corner_forces(&d, e);
            for k in 0..8 {
                assert!(fx[k].abs() < 1e-9, "hg fx {k} = {}", fx[k]);
                assert!(fy[k].abs() < 1e-9);
                assert!(fz[k].abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hourglass_forces_oppose_hourglass_velocity() {
        // A pure hourglass-mode velocity field must be damped: the force
        // projected on the mode velocity is negative (dissipative).
        let mut d = Domain::new(1, Params::default());
        d.e[0] = 1.0; // give the element a sound speed
        d.update_eos(0);
        let en = d.mesh.elem_node[0];
        for (k, &n) in en.iter().enumerate() {
            d.xd[n as usize] = GAMMA[0][k];
        }
        let (fx, _, _) = hourglass_corner_forces(&d, 0);
        let (xd, _, _) = d.elem_velocities(0);
        let power: f64 = (0..8).map(|k| fx[k] * xd[k]).sum();
        assert!(
            power < 0.0,
            "hourglass filter must dissipate, power={power}"
        );
    }

    #[test]
    fn static_uniform_pressure_forces_balance_in_interior() {
        // With uniform p and no motion, interior nodes feel zero net force.
        let mut d = Domain::new(3, Params::default());
        for e in 0..d.nelem() {
            d.e[e] = 2.0;
            d.update_eos(e);
        }
        let pool = ThreadPool::new(2);
        calc_force_for_nodes(&mut d, &pool, ForceScheme::Seq);
        // Interior node of the 3x3x3 mesh: grid point (1..3)^3 range —
        // count neighbors == 8.
        let np = d.mesh.nx + 1;
        let scale = d.p[0] * d.params.edge * d.params.edge;
        for k in 1..np - 1 {
            for j in 1..np - 1 {
                for i in 1..np - 1 {
                    let n = (k * np + j) * np + i;
                    for c in 0..3 {
                        assert!(
                            d.f[3 * n + c].abs() < 1e-9 * scale,
                            "interior node {n} comp {c}: {}",
                            d.f[3 * n + c]
                        );
                    }
                }
            }
        }
    }
}

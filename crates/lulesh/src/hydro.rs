//! Lagrangian leapfrog time integration (LULESH `LagrangeLeapFrog`).
//!
//! Per cycle: nodal forces (the spray-reduced scatter, `forces.rs`) →
//! acceleration → symmetry boundary conditions → velocity → position →
//! element kinematics (volume, characteristic length, volume-change rate)
//! → artificial viscosity (monotonic neighbor-limited by default, plain
//! VNR selectable) → energy work term → gamma-law EOS → next dt. The EOS
//! is simplified relative to real LULESH (see DESIGN.md substitution 4);
//! the data-movement pattern — and in particular the force scatter the
//! paper measures — is preserved, and like LULESH every phase besides the
//! (cheap) boundary fix-ups runs in parallel: DOALL loops for nodal and
//! element updates, a team min-reduction for the time-step constraint.

use crate::domain::{Domain, QMode};
use crate::forces::{calc_force_for_nodes_with, ForceAccum, ForceScheme, ForceStats};
use crate::hex::{char_length, elem_volume};
use crate::qmono;
use ompsim::{Schedule, ThreadPool};

/// Raw shared output for DOALL element/node loops (each index written by
/// exactly one thread — exact-cover property of ompsim schedules).
struct RawF64(*mut f64);
unsafe impl Send for RawF64 {}
unsafe impl Sync for RawF64 {}
impl RawF64 {
    fn new(v: &mut [f64]) -> Self {
        RawF64(v.as_mut_ptr())
    }
    /// # Safety
    /// `i` in bounds; no concurrent access to index `i`.
    #[inline(always)]
    unsafe fn set(&self, i: usize, v: f64) {
        *self.0.add(i) = v;
    }
    /// # Safety
    /// `i` in bounds; no concurrent writer to index `i`.
    #[inline(always)]
    unsafe fn get(&self, i: usize) -> f64 {
        *self.0.add(i)
    }
}

/// Summary of a simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Completed cycles.
    pub cycles: usize,
    /// Final simulated time.
    pub final_time: f64,
    /// Final time-step size.
    pub final_dt: f64,
    /// Peak memory overhead of the force-accumulation scheme.
    pub memory_overhead: usize,
    /// Total corner-force contributions applied through spray reducers
    /// over the whole run (zero for non-spray schemes).
    pub applies: u64,
    /// Final total (internal + kinetic) energy.
    pub total_energy: f64,
    /// Maximum absolute nodal velocity at the end (sanity/NaN guard).
    pub max_velocity: f64,
}

/// Advances the simulation by one cycle with a fresh [`ForceAccum`].
/// Loops should build the accumulator once and call [`step_with`].
///
/// # Panics
/// Panics if an element inverts (negative volume) — the simulation has
/// gone unstable, as LULESH would abort with `VolumeError`.
pub fn step(d: &mut Domain, pool: &ThreadPool, scheme: ForceScheme) -> ForceStats {
    step_with(d, pool, &mut ForceAccum::new(scheme))
}

/// Advances the simulation by one cycle, reusing `accum`'s retained force
/// scratch. Returns the force-scheme stats.
///
/// # Panics
/// Panics if an element inverts (negative volume) — the simulation has
/// gone unstable, as LULESH would abort with `VolumeError`.
pub fn step_with(d: &mut Domain, pool: &ThreadPool, accum: &mut ForceAccum) -> ForceStats {
    let stats = calc_force_for_nodes_with(d, pool, accum);
    let dt = d.dt;
    let nnode = d.nnode();
    let nelem = d.nelem();

    // --- nodal update: a = f/m, v += a·dt (parallel DOALL) ---
    {
        let mut xd = std::mem::take(&mut d.xd);
        let mut yd = std::mem::take(&mut d.yd);
        let mut zd = std::mem::take(&mut d.zd);
        let (pxd, pyd, pzd) = (
            RawF64::new(&mut xd),
            RawF64::new(&mut yd),
            RawF64::new(&mut zd),
        );
        let dref = &*d;
        pool.for_each(0..nnode, Schedule::default(), |n| {
            let inv_m = dt / dref.nodal_mass[n];
            // SAFETY: node n belongs to exactly one schedule chunk.
            unsafe {
                pxd.set(n, pxd.get(n) + dref.f[3 * n] * inv_m);
                pyd.set(n, pyd.get(n) + dref.f[3 * n + 1] * inv_m);
                pzd.set(n, pzd.get(n) + dref.f[3 * n + 2] * inv_m);
            }
        });
        d.xd = xd;
        d.yd = yd;
        d.zd = zd;
    }
    // Symmetry planes: zero the normal velocity component (cheap, serial).
    for &n in &d.symm_x {
        d.xd[n as usize] = 0.0;
    }
    for &n in &d.symm_y {
        d.yd[n as usize] = 0.0;
    }
    for &n in &d.symm_z {
        d.zd[n as usize] = 0.0;
    }
    // Positions (parallel DOALL).
    {
        let mut x = std::mem::take(&mut d.x);
        let mut y = std::mem::take(&mut d.y);
        let mut z = std::mem::take(&mut d.z);
        let (px, py, pz) = (
            RawF64::new(&mut x),
            RawF64::new(&mut y),
            RawF64::new(&mut z),
        );
        let dref = &*d;
        pool.for_each(0..nnode, Schedule::default(), |n| {
            // SAFETY: node n belongs to exactly one schedule chunk.
            unsafe {
                px.set(n, px.get(n) + dref.xd[n] * dt);
                py.set(n, py.get(n) + dref.yd[n] * dt);
                pz.set(n, pz.get(n) + dref.zd[n] * dt);
            }
        });
        d.x = x;
        d.y = y;
        d.z = z;
    }

    // --- element phase A: kinematics + (monotonic) gradients (parallel) ---
    {
        let mut v = std::mem::take(&mut d.v);
        let mut vdov = std::mem::take(&mut d.vdov);
        let mut arealg = std::mem::take(&mut d.arealg);
        let (pv, pvdov, parealg) = (
            RawF64::new(&mut v),
            RawF64::new(&mut vdov),
            RawF64::new(&mut arealg),
        );
        let dref = &*d;
        pool.for_each(0..nelem, Schedule::default(), |e| {
            let (ex, ey, ez) = dref.elem_coords(e);
            let vol = elem_volume(&ex, &ey, &ez);
            assert!(
                vol > 0.0,
                "element {e} inverted at cycle {} (VolumeError)",
                dref.cycle
            );
            let vnew = vol / dref.volo[e];
            // SAFETY: element e belongs to exactly one schedule chunk.
            unsafe {
                let vold = pv.get(e);
                pvdov.set(e, (vnew - vold) / (vold * dt));
                parealg.set(e, char_length(&ex, &ey, &ez, vol));
                pv.set(e, vnew);
            }
        });
        d.v = v;
        d.vdov = vdov;
        d.arealg = arealg;
    }
    if d.params.q_mode == QMode::Monotonic {
        qmono::calc_gradients_par(d, pool);
    }

    // --- element phase B: viscosity, energy work, EOS (parallel) ---
    {
        let mut q = std::mem::take(&mut d.q);
        let mut en = std::mem::take(&mut d.e);
        let mut p = std::mem::take(&mut d.p);
        let mut ss = std::mem::take(&mut d.ss);
        let (pq, pe, pp, pss) = (
            RawF64::new(&mut q),
            RawF64::new(&mut en),
            RawF64::new(&mut p),
            RawF64::new(&mut ss),
        );
        let dref = &*d;
        let prm = d.params;
        pool.for_each(0..nelem, Schedule::default(), |e| {
            // SAFETY (this whole body): element e belongs to exactly one
            // schedule chunk, so all RawF64 accesses at index e are
            // exclusive.
            unsafe {
                let rho = dref.rho(e);
                let ss_old = pss.get(e);
                let q_old = pq.get(e);
                let vdov = dref.vdov[e];

                let q_new = match prm.q_mode {
                    QMode::Monotonic => qmono::monotonic_q(dref, e, ss_old, rho),
                    QMode::Vnr => {
                        if vdov < 0.0 {
                            let du = dref.arealg[e] * vdov.abs();
                            rho * (prm.qqc * prm.qqc * du * du + prm.qlc * ss_old * du)
                        } else {
                            0.0
                        }
                    }
                };
                pq.set(e, q_new);

                // Energy work term with a predictor–corrector (half-step
                // pressure), the stabilized form LULESH's
                // CalcEnergyForElems uses — a fully explicit update blows
                // up at Sedov-strength pressure ratios.
                let dvol = dref.volo[e] * vdov * pv_old_times_dt(dref, e, dt);
                let inv_m = 1.0 / dref.elem_mass[e];
                let e_old = pe.get(e);
                let p_old = pp.get(e);
                let gamma = dref.gamma(e);
                let e_pred = (e_old - 0.5 * (p_old + q_old) * dvol * inv_m).max(prm.emin);
                let p_half = ((gamma - 1.0) * rho * e_pred).max(prm.pmin);
                let e_new = (e_old - (0.5 * (p_old + p_half) + q_new) * dvol * inv_m).max(prm.emin);
                pe.set(e, e_new);

                // Gamma-law EOS (per-region material).
                let p_new = ((gamma - 1.0) * rho * e_new).max(prm.pmin);
                pp.set(e, p_new);
                pss.set(e, (gamma * p_new / rho).max(1e-20).sqrt());
            }
        });
        d.q = q;
        d.e = en;
        d.p = p;
        d.ss = ss;
    }

    // --- next dt (parallel min-reduction) ---
    d.dt = d.suggested_dt_par(pool).min(d.dt * d.params.dtmax_growth);
    d.time += dt;
    d.cycle += 1;
    stats
}

/// Reconstructs the absolute volume change of element `e` over the step:
/// `ΔV = volo · (vnew − vold)` where `vdov = (vnew − vold)/(vold·dt)`, so
/// `ΔV = volo · vdov · vold · dt` with `vold = vnew / (1 + vdov·dt)`.
#[inline]
fn pv_old_times_dt(d: &Domain, e: usize, dt: f64) -> f64 {
    let vnew = d.v[e];
    let vold = vnew / (1.0 + d.vdov[e] * dt);
    vold * dt
}

/// Runs `cycles` steps and reports summary statistics. Force-accumulation
/// scratch (reducer tables, replica buffers) is built on the first cycle
/// and reused for the rest of the run.
pub fn run(d: &mut Domain, pool: &ThreadPool, scheme: ForceScheme, cycles: usize) -> RunStats {
    let mut accum = ForceAccum::new(scheme);
    let mut mem = 0usize;
    let mut applies = 0u64;
    for _ in 0..cycles {
        let s = step_with(d, pool, &mut accum);
        mem = mem.max(s.memory_overhead);
        applies += s.applies;
    }
    let mut stats = run_stats_of(d, mem);
    stats.applies = applies;
    stats
}

/// Builds the summary statistics for the current state.
pub(crate) fn run_stats_of(d: &Domain, memory_overhead: usize) -> RunStats {
    let max_velocity = (0..d.nnode())
        .map(|n| (d.xd[n] * d.xd[n] + d.yd[n] * d.yd[n] + d.zd[n] * d.zd[n]).sqrt())
        .fold(0.0f64, f64::max);
    RunStats {
        cycles: d.cycle,
        final_time: d.time,
        final_dt: d.dt,
        memory_overhead,
        applies: 0,
        total_energy: d.total_energy(),
        max_velocity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Params;
    use spray::Strategy;

    #[test]
    fn blast_wave_runs_stably() {
        let mut d = Domain::new(6, Params::default());
        let pool = ThreadPool::new(2);
        let stats = run(&mut d, &pool, ForceScheme::Seq, 30);
        assert_eq!(stats.cycles, 30);
        assert!(stats.final_time > 0.0);
        assert!(stats.final_dt > 0.0 && stats.final_dt.is_finite());
        assert!(stats.max_velocity.is_finite());
        assert!(stats.max_velocity > 0.0, "blast should set nodes in motion");
        assert!(d.v.iter().all(|&v| v > 0.0));
        assert!(d.e.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn both_q_modes_run_stably() {
        let pool = ThreadPool::new(2);
        for q_mode in [QMode::Vnr, QMode::Monotonic] {
            let mut d = Domain::new(
                5,
                Params {
                    q_mode,
                    ..Params::default()
                },
            );
            let e0 = d.total_energy();
            let stats = run(&mut d, &pool, ForceScheme::Seq, 25);
            assert!(
                stats.final_dt > 0.0 && stats.final_dt.is_finite(),
                "{q_mode:?}"
            );
            assert!(d.v.iter().all(|&v| v > 0.0), "{q_mode:?}");
            assert!(
                stats.total_energy <= e0 * (1.0 + 1e-9),
                "{q_mode:?}: energy grew"
            );
        }
    }

    #[test]
    fn energy_approximately_conserved() {
        let mut d = Domain::new(6, Params::default());
        let e0 = d.total_energy();
        let pool = ThreadPool::new(2);
        let stats = run(&mut d, &pool, ForceScheme::Seq, 40);
        // The hourglass filter and artificial viscosity are dissipative, so
        // the total may drift down a few percent — but must never grow.
        assert!(
            stats.total_energy <= e0 * (1.0 + 1e-9),
            "energy grew: {e0} -> {}",
            stats.total_energy
        );
        let drift = (e0 - stats.total_energy) / e0;
        assert!(drift < 0.15, "energy drift {:.3}% too large", drift * 100.0);
    }

    #[test]
    fn solution_is_axis_symmetric() {
        // The Sedov setup is symmetric under permuting the three axes;
        // the energy field must inherit that symmetry.
        let nx = 4;
        let mut d = Domain::new(nx, Params::default());
        let pool = ThreadPool::new(2);
        run(&mut d, &pool, ForceScheme::Seq, 20);
        let idx = |i: usize, j: usize, k: usize| (k * nx + j) * nx + i;
        for k in 0..nx {
            for j in 0..nx {
                for i in 0..nx {
                    let a = d.e[idx(i, j, k)];
                    for &b in &[d.e[idx(j, i, k)], d.e[idx(k, j, i)], d.e[idx(i, k, j)]] {
                        assert!(
                            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                            "axis symmetry broken at ({i},{j},{k}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn schemes_produce_identical_trajectories() {
        let pool = ThreadPool::new(4);
        let mut reference = Domain::new(4, Params::default());
        run(&mut reference, &pool, ForceScheme::Seq, 10);

        for scheme in [
            ForceScheme::EightCopy,
            ForceScheme::Spray(Strategy::Atomic),
            ForceScheme::Spray(Strategy::BlockCas { block_size: 128 }),
            ForceScheme::Spray(Strategy::Keeper),
        ] {
            let mut d = Domain::new(4, Params::default());
            run(&mut d, &pool, scheme, 10);
            let scale = reference.e.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            for (i, (&got, &want)) in d.e.iter().zip(&reference.e).enumerate() {
                assert!(
                    (got - want).abs() < 1e-6 * scale,
                    "{} energy differs at {i}: {got} vs {want}",
                    scheme.label()
                );
            }
        }
    }

    #[test]
    fn multi_material_regions_run_and_differ() {
        let pool = ThreadPool::new(2);
        let run_with = |gammas: Vec<f64>| {
            let mut d = Domain::new(5, Params::default());
            let nx = 5;
            // Two materials: stiff gas in the lower-z half.
            d.set_regions(|e| u8::from(e / (nx * nx) < nx / 2), gammas);
            run(&mut d, &pool, ForceScheme::Seq, 15);
            d
        };
        let uniform = run_with(vec![1.4, 1.4]);
        let mixed = run_with(vec![1.4, 5.0 / 3.0]);
        assert!(mixed.e.iter().all(|e| e.is_finite()));
        assert!(mixed.v.iter().all(|&v| v > 0.0));
        // The stiffer material must change the solution.
        let diff: f64 = uniform
            .e
            .iter()
            .zip(&mixed.e)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.0, "region gammas had no effect");
    }

    #[test]
    fn regions_survive_checkpoint_restart() {
        let pool = ThreadPool::new(1);
        let mut d = Domain::new(4, Params::default());
        d.set_regions(|e| (e % 3) as u8, vec![1.4, 1.6, 5.0 / 3.0]);
        run(&mut d, &pool, ForceScheme::Seq, 5);

        let mut buf = Vec::new();
        crate::write_checkpoint(&mut buf, &d).unwrap();
        let restored = crate::read_checkpoint(buf.as_slice()).unwrap();
        assert_eq!(restored.region, d.region);
        assert_eq!(restored.region_gamma, d.region_gamma);
    }

    #[test]
    fn eight_copy_reports_replica_memory() {
        let mut d = Domain::new(4, Params::default());
        let pool = ThreadPool::new(2);
        let stats = step(&mut d, &pool, ForceScheme::EightCopy);
        assert_eq!(stats.memory_overhead, 8 * 3 * d.nnode() * 8);
    }
}

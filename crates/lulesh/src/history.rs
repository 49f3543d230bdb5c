//! Per-cycle time-series recording (the proxy's analogue of LULESH's
//! progress output), used by the examples and for post-hoc analysis of
//! benchmark runs.

use crate::domain::Domain;
use crate::forces::ForceAccum;
use crate::forces::ForceScheme;
use crate::hydro::{run_stats_of, step_with};
use crate::RunStats;
use ompsim::ThreadPool;
use std::io::Write;

/// One recorded cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleStats {
    /// Cycle number (after the step).
    pub cycle: usize,
    /// Simulated time.
    pub time: f64,
    /// Time-step used.
    pub dt: f64,
    /// Total (internal + kinetic) energy.
    pub total_energy: f64,
    /// Specific internal energy of the origin element.
    pub origin_energy: f64,
    /// Maximum nodal speed.
    pub max_velocity: f64,
}

/// A recorded run.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// One entry per executed cycle.
    pub cycles: Vec<CycleStats>,
}

impl History {
    /// Writes the series as CSV.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "cycle,time,dt,total_energy,origin_energy,max_velocity")?;
        for c in &self.cycles {
            writeln!(
                w,
                "{},{:e},{:e},{:e},{:e},{:e}",
                c.cycle, c.time, c.dt, c.total_energy, c.origin_energy, c.max_velocity
            )?;
        }
        Ok(())
    }
}

/// Like [`crate::run`], but records per-cycle statistics.
pub fn run_with_history(
    d: &mut Domain,
    pool: &ThreadPool,
    scheme: ForceScheme,
    cycles: usize,
) -> (RunStats, History) {
    let mut history = History::default();
    let mut accum = ForceAccum::new(scheme);
    let mut mem = 0usize;
    let mut applies = 0u64;
    for _ in 0..cycles {
        let dt_used = d.dt;
        let s = step_with(d, pool, &mut accum);
        mem = mem.max(s.memory_overhead);
        applies += s.applies;
        let max_velocity = (0..d.nnode())
            .map(|n| (d.xd[n] * d.xd[n] + d.yd[n] * d.yd[n] + d.zd[n] * d.zd[n]).sqrt())
            .fold(0.0f64, f64::max);
        history.cycles.push(CycleStats {
            cycle: d.cycle,
            time: d.time,
            dt: dt_used,
            total_energy: d.total_energy(),
            origin_energy: d.e[0],
            max_velocity,
        });
    }
    let mut stats = run_stats_of(d, mem);
    stats.applies = applies;
    (stats, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Params;

    #[test]
    fn history_records_every_cycle_monotonically() {
        let mut d = Domain::new(4, Params::default());
        let pool = ThreadPool::new(2);
        let (stats, h) = run_with_history(&mut d, &pool, ForceScheme::Seq, 12);
        assert_eq!(stats.cycles, 12);
        assert_eq!(h.cycles.len(), 12);
        for w in h.cycles.windows(2) {
            assert_eq!(w[1].cycle, w[0].cycle + 1);
            assert!(w[1].time > w[0].time);
            assert!(w[1].dt > 0.0);
        }
        // Blast decays the origin element's energy monotonically.
        assert!(h.cycles.last().unwrap().origin_energy < h.cycles[0].origin_energy);
    }

    #[test]
    fn csv_output_shape() {
        let mut d = Domain::new(3, Params::default());
        let pool = ThreadPool::new(1);
        let (_, h) = run_with_history(&mut d, &pool, ForceScheme::Seq, 3);
        let mut buf = Vec::new();
        h.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 cycles
        assert!(lines[0].starts_with("cycle,"));
        assert_eq!(lines[1].split(',').count(), 6);
    }
}

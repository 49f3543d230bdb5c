//! Seeded concurrent-jobs differential oracle for the service.
//!
//! One case per seed: a deterministic set of integer scatter jobs is
//! run twice through a [`ReductionService`] — once submitted serially
//! with batching disabled (`batch_window = 1`, inline epilogues), once
//! submitted concurrently from two OS threads with batching and the
//! pipelined epilogue enabled — and both runs execute under ompsim's
//! seeded schedule controller with planted strategy migrations
//! (`migrate_per_mille` + a density-only adaptive policy, the same
//! determinism envelope as `schedule_fuzz --migrations`). Because the
//! element type is `i64` under `Sum`, every run must be **bit-identical**
//! to the sequential loop regardless of interleaving, batch composition,
//! or where a migration lands — so serial and concurrent submission are
//! also bit-identical to each other, including across a mid-sweep
//! migration. Any divergence is a one-line repro:
//! `schedule_fuzz --service 1 --start <seed>`.

use crate::{Job, JobResult, ReductionService, ServiceConfig};
use ompsim::verify::{self, mix64, VerifyConfig};
use spray::{AdaptiveConfig, ExecutorPolicy, Strategy, Sum};

/// Everything one service fuzz iteration observed.
pub struct ServiceOutcome {
    /// `Ok` when both runs matched the sequential loop bit-for-bit.
    pub result: Result<(), String>,
    /// Jobs, across both runs, whose region ran on a strategy other than
    /// the configured start strategy — each one ran after a planted or
    /// cost-model migration. The sweep checks the aggregate so the mode
    /// keeps its teeth.
    pub off_start_jobs: u64,
}

/// One deterministic scatter job derived from `(seed, j)`.
struct CaseJob {
    tenant: u64,
    class: u64,
    init: Vec<i64>,
    iters: usize,
    salt: u64,
    n: usize,
}

impl CaseJob {
    #[inline]
    fn update(&self, i: usize) -> (usize, i64) {
        let h = mix64(self.salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ((h as usize) % self.n, 1 + ((h >> 32) % 7) as i64)
    }

    fn expected(&self) -> Vec<i64> {
        let mut out = self.init.clone();
        for i in 0..self.iters {
            let (idx, v) = self.update(i);
            out[idx] += v;
        }
        out
    }

    fn to_job(&self) -> Job<'static, i64> {
        let (n, salt, iters) = (self.n, self.salt, self.iters);
        Job {
            tenant: self.tenant,
            class: self.class,
            out: self.init.clone(),
            iters,
            body: Box::new(move |view, i| {
                let h = mix64(salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                view.apply((h as usize) % n, 1 + ((h >> 32) % 7) as i64);
            }),
        }
    }
}

/// Controller parameters for a service seed: moderate preemption plus a
/// high planted-migration rate, mirroring the migration fuzz envelope.
fn service_params(seed: u64) -> VerifyConfig {
    let h = mix64(seed ^ 0x5E2F_1CE5);
    VerifyConfig {
        seed,
        preempt_per_mille: (50 + h % 250) as u16,
        budget: (16 + ((h >> 16) % 64)) as u32,
        delay_nanos: 0,
        migrate_per_mille: (250 + ((h >> 24) % 500)) as u16,
        fault: None,
    }
}

/// Builds the seed's deterministic job set: 4–10 jobs across three
/// tenants and up to two shape classes (so some batches coalesce and
/// some refuse to), with jittered per-job iteration counts.
fn case_jobs(seed: u64) -> Vec<CaseJob> {
    let h = mix64(seed ^ 0xCA5E_CA5E);
    let n = 64 + (h % 193) as usize;
    let njobs = 4 + ((h >> 8) % 7) as usize;
    (0..njobs)
        .map(|j| {
            let jh = mix64(seed ^ 0xB10B ^ (j as u64) << 32);
            CaseJob {
                tenant: j as u64 % 3,
                class: jh % 2,
                init: (0..n).map(|i| (mix64(jh ^ i as u64) % 5) as i64).collect(),
                iters: 200 + (jh >> 16) as usize % 600,
                salt: mix64(seed ^ 0x5A17 ^ j as u64),
                n,
            }
        })
        .collect()
}

/// The sweep's per-seed service configurations (shared shape, distinct
/// admission): adaptive over a density-only candidate set so planted
/// migrations replay deterministically.
fn service_cfg(seed: u64, batch_window: usize, pipeline: bool) -> ServiceConfig {
    let h = mix64(seed ^ 0xC0F1_6000);
    let block_size = 16 << (h % 3); // 16 | 32 | 64
    let threads = 2 + (h >> 8) as usize % 3;
    ServiceConfig {
        threads,
        strategy: Strategy::BlockCas { block_size },
        policy: ExecutorPolicy::Adaptive(AdaptiveConfig::density_only(vec![
            Strategy::BlockCas { block_size },
            Strategy::Dense,
            Strategy::Atomic,
            Strategy::BlockPrivate { block_size },
        ])),
        schedule: if h & 0x1000 == 0 {
            ompsim::Schedule::default()
        } else {
            ompsim::Schedule::Dynamic { chunk: 8 }
        },
        batch_window,
        pipeline,
    }
}

fn check_outputs(
    label: &str,
    seed: u64,
    jobs: &[CaseJob],
    results: &[(usize, JobResult<i64>)],
) -> Result<(), String> {
    for (j, r) in results {
        let want = jobs[*j].expected();
        if r.out != want {
            let bad = (0..want.len()).find(|&i| r.out[i] != want[i]).unwrap();
            return Err(format!(
                "seed {seed} {label}: job {j} diverges from sequential at index {bad} \
                 (got {}, want {})",
                r.out[bad], want[bad]
            ));
        }
    }
    Ok(())
}

/// Jobs in `results` whose region did not run on `start`.
fn count_off_start(start: Strategy, results: &[(usize, JobResult<i64>)]) -> u64 {
    let label = start.label();
    results
        .iter()
        .filter(|(_, r)| r.report.strategy != label)
        .count() as u64
}

/// One service fuzz iteration; see the module docs for the full shape.
pub fn service_case(seed: u64) -> ServiceOutcome {
    let jobs = case_jobs(seed);
    let start = service_cfg(seed, 1, false).strategy;
    let mut off_start_jobs = 0u64;

    // Run A: serial submission, no batching, inline epilogues.
    let serial: Vec<(usize, JobResult<i64>)> = {
        let _session = verify::install(service_params(seed));
        let svc = ReductionService::<i64, Sum>::new(service_cfg(seed, 1, false));
        let out = jobs
            .iter()
            .enumerate()
            .map(|(j, cj)| (j, svc.submit(cj.to_job()).wait()))
            .collect::<Vec<_>>();
        off_start_jobs += count_off_start(start, &out);
        out
    };
    if let Err(e) = check_outputs("serial", seed, &jobs, &serial) {
        return ServiceOutcome {
            result: Err(e),
            off_start_jobs,
        };
    }

    // Run B: two submitter threads interleaving (evens vs odds), with
    // batching and the pipelined epilogue on.
    let batch_window = 2 + (mix64(seed ^ 0xBA7C) % 3) as usize;
    let concurrent: Vec<(usize, JobResult<i64>)> = {
        let _session = verify::install(service_params(seed));
        let svc = ReductionService::<i64, Sum>::new(service_cfg(seed, batch_window, true));
        let mut out = std::thread::scope(|s| {
            let halves: Vec<_> = [0usize, 1]
                .map(|parity| {
                    let svc = &svc;
                    let jobs = &jobs;
                    s.spawn(move || {
                        let tickets: Vec<(usize, crate::Ticket<i64>)> = jobs
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| j % 2 == parity)
                            .map(|(j, cj)| (j, svc.submit(cj.to_job())))
                            .collect();
                        tickets
                            .into_iter()
                            .map(|(j, t)| (j, t.wait()))
                            .collect::<Vec<_>>()
                    })
                })
                .into_iter()
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect::<Vec<_>>()
        });
        out.sort_by_key(|(j, _)| *j);
        off_start_jobs += count_off_start(start, &out);
        out
    };
    if let Err(e) = check_outputs("concurrent", seed, &jobs, &concurrent) {
        return ServiceOutcome {
            result: Err(e),
            off_start_jobs,
        };
    }

    // Bit-identity across submission modes follows from both matching
    // the sequential loop, but assert it directly so the oracle's claim
    // is checked where it is made.
    for ((j, a), (_, b)) in serial.iter().zip(concurrent.iter()) {
        if a.out != b.out {
            return ServiceOutcome {
                result: Err(format!(
                    "seed {seed}: job {j} serial vs concurrent submission diverge"
                )),
                off_start_jobs,
            };
        }
    }

    ServiceOutcome {
        result: Ok(()),
        off_start_jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeds_pass() {
        let mut off_start_jobs = 0;
        for seed in 0..4 {
            let o = service_case(seed);
            o.result.unwrap();
            off_start_jobs += o.off_start_jobs;
        }
        // With migrate_per_mille >= 250 across four seeds, at least one
        // job running after a planted migration is overwhelmingly likely;
        // a zero here means the envelope is wired wrong, not bad luck.
        assert!(off_start_jobs > 0, "no job ran off the start strategy");
    }
}

//! Reduction-service throughput: batched admission vs the serial path.
//!
//! A burst of same-shape scatter jobs (one `class`, one output length,
//! so every pair is batchable) is pushed through a [`ReductionService`]
//! twice per thread count:
//!
//! * **serial** — `batch_window = 1`, one submitter that waits for each
//!   job before submitting the next: every job pays its own region
//!   fork/join and plan lookup, reducing straight into its own output;
//! * **batched** — `batch_window = 8`, two submitter threads bursting
//!   the whole job set: the admission loop coalesces same-shape jobs
//!   into shared regions (one plan, one fork/join, per-job output
//!   segments of one concatenated buffer).
//!
//! Either way the dispatcher delivers each result itself, right after
//! the region: a batched job's segment is copied back into its output
//! before its reply.
//!
//! Per column the report is jobs/sec (best of `--reps`) plus the p99
//! queue wait from each job's [`JobResult`](spray_service::JobResult)
//! and the service's cumulative `batched_regions` counter. Prints CSV
//! and writes `BENCH_service_throughput.json`. With `--check`, exits
//! nonzero if the batched column fails to reach 1.3× the serial
//! jobs/sec at any measured thread count, or if no region actually
//! batched (the column under test silently degraded to serial). The
//! gate is calibrated for team widths ≥ 4, where per-region fork/join
//! is expensive enough that coalescing pays well past the slack (CI
//! runs `--threads 4`); at 2 threads batching still wins, by less
//! (about 1.4–1.5× on a 2-vCPU host).

use bench::args::Opts;
use ompsim::verify::mix64;
use spray::{ExecutorPolicy, JsonWriter, Strategy, Sum};
use spray_service::{Job, JobBody, ReductionService, ServiceConfig};
use std::io::Write;
use std::time::Instant;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Scatter body for job `salt`: iteration `i` bumps a hashed index.
fn scatter_body(n: usize, salt: u64) -> JobBody<'static, i64> {
    Box::new(move |view, i| {
        let h = mix64(salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        view.apply((h as usize) % n, 1 + ((h >> 32) % 5) as i64);
    })
}

fn job(n: usize, iters: usize, j: u64) -> Job<'static, i64> {
    Job {
        // Two tenants so the batched column's fair-share rotation is
        // exercised, one class so every job is batchable.
        tenant: j % 2,
        class: 1,
        out: vec![0i64; n],
        iters,
        body: scatter_body(n, mix64(j ^ 0x5EED)),
    }
}

fn config(threads: usize, batch_window: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        strategy: Strategy::BlockCas { block_size: 64 },
        policy: ExecutorPolicy::Fixed,
        schedule: ompsim::Schedule::default(),
        batch_window,
    }
}

/// One measured column at one thread count.
struct Measured {
    jobs_per_sec: f64,
    p99_wait_secs: f64,
    batched_regions: u64,
}

fn p99(mut waits: Vec<f64>) -> f64 {
    if waits.is_empty() {
        return 0.0;
    }
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    waits[(waits.len() * 99).div_ceil(100).saturating_sub(1)]
}

/// Serial column: submit-wait-submit through a window-1 service, so
/// every job runs as its own region over its own output.
fn run_serial(threads: usize, njobs: u64, n: usize, iters: usize) -> Measured {
    let svc = ReductionService::<i64, Sum>::new(config(threads, 1));
    // Warm the session (scratch arena + recorded plan) outside the timer.
    svc.submit(job(n, iters, u64::MAX)).wait();
    let mut waits = Vec::with_capacity(njobs as usize);
    let t0 = Instant::now();
    for j in 0..njobs {
        let r = svc.submit(job(n, iters, j)).wait();
        waits.push(r.queue_wait.as_secs_f64());
    }
    let dt = t0.elapsed().as_secs_f64();
    Measured {
        jobs_per_sec: njobs as f64 / dt,
        p99_wait_secs: p99(waits),
        batched_regions: svc.shared().batched_regions(),
    }
}

/// Batched column: two submitter threads burst the whole job set into a
/// window-8 service, then redeem their tickets.
fn run_batched(threads: usize, njobs: u64, n: usize, iters: usize) -> Measured {
    let svc = ReductionService::<i64, Sum>::new(config(threads, 8));
    svc.submit(job(n, iters, u64::MAX)).wait();
    let t0 = Instant::now();
    let waits: Vec<f64> = std::thread::scope(|s| {
        let halves: Vec<_> = [0u64, 1]
            .map(|parity| {
                let svc = &svc;
                s.spawn(move || {
                    let tickets: Vec<_> = (0..njobs)
                        .filter(|j| j % 2 == parity)
                        .map(|j| svc.submit(job(n, iters, j)))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| t.wait().queue_wait.as_secs_f64())
                        .collect::<Vec<_>>()
                })
            })
            .into_iter()
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    let dt = t0.elapsed().as_secs_f64();
    Measured {
        jobs_per_sec: njobs as f64 / dt,
        p99_wait_secs: p99(waits),
        batched_regions: svc.shared().batched_regions(),
    }
}

struct Row {
    mode: &'static str,
    threads: usize,
    m: Measured,
}

fn main() {
    let opts = Opts::parse();
    // Batching is a small-job throughput tier: it amortizes per-region
    // fork/join and plan lookup across jobs, and pays for that with two
    // copies of each batched job's output (concat seed + scatter-back)
    // that a job running alone does not make.
    // The bench therefore holds the per-job shape small — the regime the
    // tier exists for — and scales the *number* of jobs for the full-size
    // run; `--n` raises the per-job shape if you want to watch batching
    // stop paying once regions are big enough to amortize themselves.
    let n = opts.n.unwrap_or(1 << 11);
    let njobs: u64 = if opts.quick { 64 } else { 512 };
    let iters = n / 2;

    println!("# service_throughput: batched vs serial admission, same-shape scatter jobs");
    println!(
        "# n = {n}, jobs = {njobs}, iters/job = {iters}, reps = {}",
        opts.reps
    );
    println!("mode,threads,jobs_per_sec,p99_queue_wait_secs,batched_regions");

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &opts.threads {
        // Best-of-reps, interleaved so runner noise decorrelates from
        // the column under test.
        let mut best: [Option<Measured>; 2] = [None, None];
        for _ in 0..opts.reps {
            for (slot, m) in [
                (0, run_serial(threads, njobs, n, iters)),
                (1, run_batched(threads, njobs, n, iters)),
            ] {
                if best[slot]
                    .as_ref()
                    .is_none_or(|b| m.jobs_per_sec > b.jobs_per_sec)
                {
                    best[slot] = Some(m);
                }
            }
        }
        let [serial, batched] = best;
        rows.push(Row {
            mode: "serial",
            threads,
            m: serial.expect("reps >= 1"),
        });
        rows.push(Row {
            mode: "batched",
            threads,
            m: batched.expect("reps >= 1"),
        });
    }

    for r in &rows {
        println!(
            "{},{},{:.6e},{:.6e},{}",
            r.mode, r.threads, r.m.jobs_per_sec, r.m.p99_wait_secs, r.m.batched_regions
        );
    }

    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_u64("n", n as u64)
        .field_u64("jobs", njobs)
        .field_u64("iters_per_job", iters as u64)
        .field_u64("reps", opts.reps as u64);
    w.key("results").begin_arr();
    for r in &rows {
        w.begin_obj()
            .field_str("mode", r.mode)
            .field_u64("threads", r.threads as u64)
            .field_f64("jobs_per_sec", r.m.jobs_per_sec)
            .field_f64("p99_queue_wait_secs", r.m.p99_wait_secs)
            .field_u64("batched_regions", r.m.batched_regions)
            .end_obj();
    }
    w.end_arr().end_obj();
    let path = "BENCH_service_throughput.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(w.finish().as_bytes()))
        .expect("write BENCH_service_throughput.json");
    eprintln!("wrote {path}");

    if opts.check {
        let mut bad = 0;
        for &threads in &opts.threads {
            let cell = |mode: &str| {
                rows.iter()
                    .find(|r| r.mode == mode && r.threads == threads)
                    .unwrap_or_else(|| panic!("missing row {mode}/{threads}t"))
            };
            let (serial, batched) = (cell("serial"), cell("batched"));
            let need = serial.m.jobs_per_sec * 1.3;
            if batched.m.jobs_per_sec < need {
                eprintln!(
                    "CHECK FAIL: batched @{threads}t {:.3e} jobs/s < 1.3x serial \
                     ({:.3e} jobs/s)",
                    batched.m.jobs_per_sec, serial.m.jobs_per_sec
                );
                bad += 1;
            }
            if batched.m.batched_regions == 0 {
                eprintln!("CHECK FAIL: batched column @{threads}t never coalesced a region");
                bad += 1;
            }
        }
        if bad > 0 {
            eprintln!("service_throughput check: {bad} failure(s)");
            std::process::exit(1);
        }
        eprintln!("service_throughput check: batched >= 1.3x serial at every thread count");
    }
}

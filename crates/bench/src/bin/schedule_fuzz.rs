//! Schedule fuzzer: sweeps seeds through the differential oracle.
//!
//! Each seed runs every strategy (unplanned + plan-recording + replays,
//! i64 and f64) against the sequential reduction. Built with
//! `--features verify`, each sweep also installs ompsim's seeded
//! schedule controller, so the interleaving is perturbed PCT-style and
//! any failure is a one-line repro: re-running with `--seed <S>`
//! replays the exact decision stream that exposed it. Without the
//! feature the binary degenerates to an unperturbed differential sweep
//! (and says so).
//!
//! Modes:
//!
//! * default — sweep `--seeds` seeds from `--start` (or just `--seed`),
//!   failing if any seed mismatches;
//! * `--broken` — run the planted-bug canary (block-CAS with the
//!   ownership CAS dropped) and exit 0 only if some seed in the budget
//!   *catches* the bug (CI inverts the gate: not catching is the
//!   failure);
//! * `--faults N` — N fault-injection iterations: an injected mid-region
//!   panic must poison the region (never deadlock) and leave pool +
//!   executor able to produce exact results afterwards;
//! * `--migrations N` — N seeds through the adaptive differential
//!   oracle: each seed installs a controller that plants forced strategy
//!   migrations at region boundaries (plus the cost model's own) and
//!   checks the adaptive executor bit-for-bit (i64) against the
//!   sequential loop, then injects a fault during a migration drain and
//!   requires poison-not-deadlock with no lost updates afterwards. The
//!   sweep fails if NO seed planted a migration (the mode lost its
//!   teeth). Without `--features verify` it degrades to the unperturbed
//!   adaptive oracle (cost-model migrations only, no fault injection);
//! * `--arena N` — N seeds through the arena-retention fingerprint
//!   check: the seeded controller must observe identical hook totals
//!   and per-thread merge orders whether regions run on fresh arena
//!   slabs or on scratch recycled from a previous region, and the
//!   planted-migration drain fingerprint must replay identically.
//!   Requires `--features verify`;
//! * `--service N` — N seeds through the reduction-service concurrent
//!   jobs oracle: each seed runs a deterministic job set through a
//!   [`ReductionService`](spray_service::ReductionService) twice —
//!   serial submission with batching off, then two submitter threads
//!   with batching and the pipelined epilogue on — under a seeded
//!   controller with planted strategy migrations, and requires both
//!   runs bit-identical (i64) to the sequential loop and to each
//!   other. Requires `--features verify`;
//! * `--delta N` — N seeds through the incremental-reduction oracle:
//!   each seed drives two streams of delta batches (invertible i64 Sum
//!   hitting both the dirty-block and full-refold paths, and i64 Min on
//!   the refold-only path) through
//!   [`run_delta`](spray::RegionExecutor::run_delta) under a seeded
//!   controller with planted strategy migrations, checking every round
//!   bit-identical against a canonical replay of the live contribution
//!   set; then plants panics at seed-chosen `DeltaApply` crossings on
//!   both the parallel and serial staging paths and requires
//!   poison-not-corrupt (pre-batch result intact) plus an exact
//!   post-fault replay. The sweep fails if NO seed applied deltas or
//!   retractions (the mode lost its teeth). Requires
//!   `--features verify`.

use spray::verify::OracleCfg;
use spray::Strategy;

struct FuzzOpts {
    seeds: u64,
    start: u64,
    threads: usize,
    n: usize,
    updates: usize,
    block_size: usize,
    dynamic: bool,
    no_floats: bool,
    replays: usize,
    broken: bool,
    faults: u64,
    migrations: u64,
    arena: u64,
    service: u64,
    delta: u64,
    quiet: bool,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            seeds: 16,
            start: 0,
            threads: 4,
            n: 512,
            updates: 4096,
            block_size: 32,
            dynamic: false,
            no_floats: false,
            replays: 2,
            broken: false,
            faults: 0,
            migrations: 0,
            arena: 0,
            service: 0,
            delta: 0,
            quiet: false,
        }
    }
}

const USAGE: &str = "usage: schedule_fuzz [--seed S | --seeds N --start S] [--threads T] \
[--n N] [--updates U] [--block-size B] [--replays R] [--dynamic] [--no-floats] \
[--broken] [--faults N] [--migrations N] [--arena N] [--service N] \
[--delta N] [--quiet]";

fn parse_opts() -> FuzzOpts {
    let mut o = FuzzOpts::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                o.start = value(&mut args, "--seed").parse().expect("--seed: u64");
                o.seeds = 1;
            }
            "--seeds" => o.seeds = value(&mut args, "--seeds").parse().expect("--seeds: u64"),
            "--start" => o.start = value(&mut args, "--start").parse().expect("--start: u64"),
            "--threads" => {
                o.threads = value(&mut args, "--threads")
                    .parse()
                    .expect("--threads: usize")
            }
            "--n" => o.n = value(&mut args, "--n").parse().expect("--n: usize"),
            "--updates" => {
                o.updates = value(&mut args, "--updates")
                    .parse()
                    .expect("--updates: usize")
            }
            "--block-size" => {
                o.block_size = value(&mut args, "--block-size")
                    .parse()
                    .expect("--block-size: usize")
            }
            "--replays" => {
                o.replays = value(&mut args, "--replays")
                    .parse()
                    .expect("--replays: usize")
            }
            "--dynamic" => o.dynamic = true,
            "--no-floats" => o.no_floats = true,
            "--broken" => o.broken = true,
            "--faults" => o.faults = value(&mut args, "--faults").parse().expect("--faults: u64"),
            "--migrations" => {
                o.migrations = value(&mut args, "--migrations")
                    .parse()
                    .expect("--migrations: u64")
            }
            "--arena" => o.arena = value(&mut args, "--arena").parse().expect("--arena: u64"),
            "--service" => {
                o.service = value(&mut args, "--service")
                    .parse()
                    .expect("--service: u64")
            }
            "--delta" => o.delta = value(&mut args, "--delta").parse().expect("--delta: u64"),
            "--quiet" => o.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    o
}

fn oracle_cfg(o: &FuzzOpts) -> OracleCfg {
    OracleCfg {
        n: o.n,
        updates: o.updates,
        threads: o.threads,
        block_size: o.block_size,
        strategies: Strategy::all(o.block_size),
        check_floats: !o.no_floats,
        dynamic: o.dynamic,
        replays: o.replays,
    }
}

fn repro_line(o: &FuzzOpts, seed: u64) -> String {
    let mut extra = String::new();
    if o.dynamic {
        extra.push_str(" --dynamic");
    }
    if o.no_floats {
        extra.push_str(" --no-floats");
    }
    format!(
        "repro: cargo run --release -p bench --features verify --bin schedule_fuzz -- \
         --seed {seed} --threads {} --n {} --updates {} --block-size {} --replays {}{extra}",
        o.threads, o.n, o.updates, o.block_size, o.replays
    )
}

#[cfg(feature = "verify")]
fn sweep(o: &FuzzOpts) -> u64 {
    use spray::verify::fuzz::fuzz_case;
    let cfg = oracle_cfg(o);
    let mut failures = 0u64;
    for seed in o.start..o.start + o.seeds {
        let outcome = fuzz_case(&cfg, seed);
        match outcome.result {
            Ok(stats) => {
                if !o.quiet {
                    let crossings: u64 = outcome.hook_totals.iter().sum();
                    println!(
                        "seed {seed}: ok ({} regions, {crossings} hook crossings, \
                         {} preemptions, {} merges by t0)",
                        stats.regions,
                        outcome.preemptions,
                        outcome.merge_orders.first().map_or(0, |m| m.len())
                    );
                }
            }
            Err(m) => {
                failures += 1;
                eprintln!("FAIL {m}");
                eprintln!("{}", repro_line(o, seed));
            }
        }
    }
    failures
}

#[cfg(not(feature = "verify"))]
fn sweep(o: &FuzzOpts) -> u64 {
    use ompsim::ThreadPool;
    use spray::verify::check_seed;
    eprintln!(
        "note: built without --features verify — running the unperturbed differential \
         oracle only (no schedule control, no replay)"
    );
    let cfg = oracle_cfg(o);
    let pool = ThreadPool::new(o.threads);
    let mut failures = 0u64;
    for seed in o.start..o.start + o.seeds {
        match check_seed(&pool, &cfg, seed) {
            Ok(stats) => {
                if !o.quiet {
                    println!("seed {seed}: ok ({} regions)", stats.regions);
                }
            }
            Err(m) => {
                failures += 1;
                eprintln!("FAIL {m}");
                eprintln!("{}", repro_line(o, seed));
            }
        }
    }
    failures
}

#[cfg(feature = "verify")]
fn broken_main(o: &FuzzOpts) -> i32 {
    use spray::verify::fuzz::broken_case;
    for seed in o.start..o.start + o.seeds {
        if broken_case(o.threads, seed) {
            println!(
                "broken-CAS canary: lost updates exposed at seed {seed} \
                 ({} seed(s) into the sweep)",
                seed - o.start + 1
            );
            return 0;
        }
    }
    eprintln!(
        "broken-CAS canary NOT caught in {} seed(s) — the fuzzer lost its teeth",
        o.seeds
    );
    1
}

#[cfg(feature = "verify")]
fn faults_main(o: &FuzzOpts) -> i32 {
    use spray::verify::fuzz::fault_case;
    let mut bad = 0;
    for seed in o.start..o.start + o.faults {
        match fault_case(o.threads, seed) {
            Ok(()) => {
                if !o.quiet {
                    println!("fault seed {seed}: poisoned cleanly, rerun exact");
                }
            }
            Err(e) => {
                bad += 1;
                eprintln!("FAIL fault seed {seed}: {e}");
            }
        }
    }
    if bad > 0 {
        eprintln!("fault injection: {bad} failure(s)");
        1
    } else {
        println!("fault injection: {} iteration(s) clean", o.faults);
        0
    }
}

/// One-line repro for a failing migration seed.
fn migration_repro_line(o: &FuzzOpts, seed: u64) -> String {
    let mut extra = String::new();
    if o.no_floats {
        extra.push_str(" --no-floats");
    }
    format!(
        "repro: cargo run --release -p bench --features verify --bin schedule_fuzz -- \
         --migrations 1 --start {seed} --threads {} --n {} --updates {} --block-size {} \
         --replays {}{extra}",
        o.threads, o.n, o.updates, o.block_size, o.replays
    )
}

#[cfg(feature = "verify")]
fn migrations_main(o: &FuzzOpts) -> i32 {
    use spray::verify::fuzz::{migration_case, migration_fault_case};
    let cfg = oracle_cfg(o);
    let mut bad = 0u64;
    let mut planted = 0u64;
    for seed in o.start..o.start + o.migrations {
        let outcome = migration_case(&cfg, seed);
        planted += outcome.migrations;
        match outcome.result {
            Ok(stats) => {
                if !o.quiet {
                    println!(
                        "migration seed {seed}: ok ({} regions, {} migrations, \
                         {} decision crossings)",
                        stats.regions, outcome.migrations, outcome.decision_crossings
                    );
                }
            }
            Err(m) => {
                bad += 1;
                eprintln!("FAIL {m}");
                eprintln!("{}", migration_repro_line(o, seed));
            }
        }
        // A fault injected during a migration drain must poison the
        // region — never deadlock — and lose no updates afterwards.
        if let Err(e) = migration_fault_case(o.threads, seed) {
            bad += 1;
            eprintln!("FAIL migration fault seed {seed}: {e}");
            eprintln!("{}", migration_repro_line(o, seed));
        }
    }
    if bad > 0 {
        eprintln!(
            "migration fuzz: {bad} failure(s) over {} seed(s)",
            o.migrations
        );
        return 1;
    }
    if planted == 0 {
        eprintln!(
            "migration fuzz: {} seed(s) planted NO migrations — the mode lost its teeth",
            o.migrations
        );
        return 1;
    }
    println!(
        "migration fuzz: {} seed(s) from {} clean ({planted} migrations exercised, {} threads)",
        o.migrations, o.start, o.threads
    );
    0
}

#[cfg(not(feature = "verify"))]
fn migrations_main(o: &FuzzOpts) -> i32 {
    use ompsim::ThreadPool;
    use spray::verify::check_adaptive_seed;
    eprintln!(
        "note: built without --features verify — running the unperturbed adaptive \
         oracle only (cost-model migrations, no planted schedule, no fault injection)"
    );
    let cfg = oracle_cfg(o);
    let pool = ThreadPool::new(o.threads);
    let mut bad = 0u64;
    let mut migrations = 0u64;
    for seed in o.start..o.start + o.migrations {
        match check_adaptive_seed(&pool, &cfg, seed) {
            Ok(stats) => {
                migrations += stats.migrations;
                if !o.quiet {
                    println!(
                        "migration seed {seed}: ok ({} regions, {} migrations)",
                        stats.regions, stats.migrations
                    );
                }
            }
            Err(m) => {
                bad += 1;
                eprintln!("FAIL {m}");
                eprintln!("{}", migration_repro_line(o, seed));
            }
        }
    }
    if bad > 0 {
        eprintln!(
            "migration fuzz: {bad} failure(s) over {} seed(s)",
            o.migrations
        );
        return 1;
    }
    if migrations == 0 {
        eprintln!(
            "migration fuzz: {} seed(s) drove NO migrations — the mode lost its teeth",
            o.migrations
        );
        return 1;
    }
    println!(
        "migration fuzz: {} seed(s) from {} clean ({migrations} migrations exercised, {} threads)",
        o.migrations, o.start, o.threads
    );
    0
}

#[cfg(feature = "verify")]
fn arena_main(o: &FuzzOpts) -> i32 {
    use spray::verify::fuzz::arena_case;
    let mut bad = 0u64;
    for seed in o.start..o.start + o.arena {
        match arena_case(o.threads, seed) {
            Ok(()) => {
                if !o.quiet {
                    println!(
                        "arena seed {seed}: fresh and retained-scratch fingerprints \
                         identical, migration drain replays"
                    );
                }
            }
            Err(e) => {
                bad += 1;
                eprintln!("FAIL arena seed {seed}: {e}");
                eprintln!(
                    "repro: cargo run --release -p bench --features verify --bin \
                     schedule_fuzz -- --arena 1 --start {seed} --threads {}",
                    o.threads
                );
            }
        }
    }
    if bad > 0 {
        eprintln!("arena fuzz: {bad} failure(s) over {} seed(s)", o.arena);
        return 1;
    }
    println!(
        "arena fuzz: {} seed(s) from {} clean ({} threads)",
        o.arena, o.start, o.threads
    );
    0
}

#[cfg(not(feature = "verify"))]
fn arena_main(_o: &FuzzOpts) -> i32 {
    eprintln!("--arena requires --features verify");
    2
}

#[cfg(feature = "verify")]
fn service_main(o: &FuzzOpts) -> i32 {
    use spray_service::fuzz::service_case;
    let mut bad = 0u64;
    let mut off_start_jobs = 0u64;
    for seed in o.start..o.start + o.service {
        let outcome = service_case(seed);
        off_start_jobs += outcome.off_start_jobs;
        match outcome.result {
            Ok(()) => {
                if !o.quiet {
                    println!(
                        "service seed {seed}: serial and concurrent submission \
                         bit-identical ({} jobs off the start strategy)",
                        outcome.off_start_jobs
                    );
                }
            }
            Err(e) => {
                bad += 1;
                eprintln!("FAIL {e}");
                eprintln!(
                    "repro: cargo run --release -p bench --features verify --bin \
                     schedule_fuzz -- --service 1 --start {seed}"
                );
            }
        }
    }
    if bad > 0 {
        eprintln!("service fuzz: {bad} failure(s) over {} seed(s)", o.service);
        return 1;
    }
    if off_start_jobs == 0 {
        eprintln!(
            "service fuzz: {} seed(s) ran NO job off the start strategy — the mode lost its teeth",
            o.service
        );
        return 1;
    }
    println!(
        "service fuzz: {} seed(s) from {} clean ({off_start_jobs} jobs ran after a migration)",
        o.service, o.start
    );
    0
}

#[cfg(not(feature = "verify"))]
fn service_main(_o: &FuzzOpts) -> i32 {
    eprintln!("--service requires --features verify");
    2
}

#[cfg(feature = "verify")]
fn delta_main(o: &FuzzOpts) -> i32 {
    use spray::verify::fuzz::{delta_case, delta_fault_case};
    let mut bad = 0u64;
    let mut applies = 0u64;
    let mut retractions = 0u64;
    for seed in o.start..o.start + o.delta {
        let outcome = delta_case(o.threads, seed);
        applies += outcome.delta_applies;
        retractions += outcome.retractions;
        match outcome.result {
            Ok(()) => {
                if !o.quiet {
                    println!(
                        "delta seed {seed}: incremental bit-identical to replay \
                         ({} delta applies, {} retractions, {} migrations, {} preemptions)",
                        outcome.delta_applies,
                        outcome.retractions,
                        outcome.migrations,
                        outcome.preemptions
                    );
                }
            }
            Err(e) => {
                bad += 1;
                eprintln!("FAIL {e}");
                eprintln!(
                    "repro: cargo run --release -p bench --features verify --bin \
                     schedule_fuzz -- --delta 1 --start {seed} --threads {}",
                    o.threads
                );
            }
        }
        // A fault injected mid-staging must poison the batch — never
        // corrupt the retained result — and an unperturbed replay of
        // the same batch must land exactly.
        if let Err(e) = delta_fault_case(o.threads, seed) {
            bad += 1;
            eprintln!("FAIL delta fault seed {seed}: {e}");
            eprintln!(
                "repro: cargo run --release -p bench --features verify --bin \
                 schedule_fuzz -- --delta 1 --start {seed} --threads {}",
                o.threads
            );
        }
    }
    if bad > 0 {
        eprintln!("delta fuzz: {bad} failure(s) over {} seed(s)", o.delta);
        return 1;
    }
    if applies == 0 || retractions == 0 {
        eprintln!(
            "delta fuzz: {} seed(s) drove NO delta applies/retractions \
             ({applies} applies, {retractions} retractions) — the mode lost its teeth",
            o.delta
        );
        return 1;
    }
    println!(
        "delta fuzz: {} seed(s) from {} clean ({applies} delta applies, \
         {retractions} retractions exercised, {} threads)",
        o.delta, o.start, o.threads
    );
    0
}

#[cfg(not(feature = "verify"))]
fn delta_main(_o: &FuzzOpts) -> i32 {
    eprintln!("--delta requires --features verify");
    2
}

#[cfg(not(feature = "verify"))]
fn broken_main(_o: &FuzzOpts) -> i32 {
    eprintln!("--broken requires --features verify");
    2
}

#[cfg(not(feature = "verify"))]
fn faults_main(_o: &FuzzOpts) -> i32 {
    eprintln!("--faults requires --features verify");
    2
}

fn main() {
    let o = parse_opts();
    if o.broken {
        std::process::exit(broken_main(&o));
    }
    if o.faults > 0 {
        std::process::exit(faults_main(&o));
    }
    if o.migrations > 0 {
        std::process::exit(migrations_main(&o));
    }
    if o.arena > 0 {
        std::process::exit(arena_main(&o));
    }
    if o.service > 0 {
        std::process::exit(service_main(&o));
    }
    if o.delta > 0 {
        std::process::exit(delta_main(&o));
    }
    let failures = sweep(&o);
    if failures > 0 {
        eprintln!("schedule_fuzz: {failures} failing seed(s) of {}", o.seeds);
        std::process::exit(1);
    }
    println!(
        "schedule_fuzz: {} seed(s) from {} clean ({} threads)",
        o.seeds, o.start, o.threads
    );
}

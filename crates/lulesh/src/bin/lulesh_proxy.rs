//! Standalone LULESH-proxy driver, mirroring how the paper runs LULESH
//! 2.0 as "a standalone application" timed by an external script.
//!
//! ```sh
//! cargo run --release -p spray-lulesh --bin lulesh_proxy -- \
//!     --nx 30 --iters 20 --threads 4 --scheme block-lock
//! ```

use ompsim::ThreadPool;
use spray::Strategy;
use spray_lulesh::{run, Domain, ForceScheme, Params};
use std::time::Instant;

fn parse_scheme(name: &str) -> ForceScheme {
    match name {
        "seq" => ForceScheme::Seq,
        "8copy" => ForceScheme::EightCopy,
        "dense" => ForceScheme::Spray(Strategy::Dense),
        "atomic" => ForceScheme::Spray(Strategy::Atomic),
        "block-private" => ForceScheme::Spray(Strategy::BlockPrivate { block_size: 1024 }),
        "block-lock" => ForceScheme::Spray(Strategy::BlockLock { block_size: 1024 }),
        "block-cas" => ForceScheme::Spray(Strategy::BlockCas { block_size: 1024 }),
        "keeper" => ForceScheme::Spray(Strategy::Keeper),
        // Anything else goes through the full scheme grammar, so every
        // spray strategy label works (block-CAS-64, map-hash, ...).
        other => other.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            eprintln!(
                "choices: seq 8copy dense atomic block-private block-lock block-cas keeper \
                 or any spray strategy label (e.g. block-CAS-64, map-hash)"
            );
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut nx = 30usize;
    let mut iters = 20usize;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut scheme = ForceScheme::Spray(Strategy::BlockLock { block_size: 1024 });

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--nx" => nx = val("--nx").parse().expect("bad --nx"),
            "--iters" => iters = val("--iters").parse().expect("bad --iters"),
            "--threads" => threads = val("--threads").parse().expect("bad --threads"),
            "--scheme" => scheme = parse_scheme(&val("--scheme")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    println!("Running problem size {nx}^3 per domain for a maximum of {iters} iterations");
    println!("Force accumulation scheme: {}", scheme.label());
    println!("Num threads: {threads}\n");

    let pool = ThreadPool::new(threads);
    let mut d = Domain::new(nx, Params::default());
    let t0 = Instant::now();
    let stats = run(&mut d, &pool, scheme, iters);
    let elapsed = t0.elapsed().as_secs_f64();

    // Output block modeled on LULESH 2.0's final report.
    println!("Run completed:");
    println!("   Problem size        =  {nx}");
    println!("   Iteration count     =  {}", stats.cycles);
    println!("   Final simulated time = {:.6e}", stats.final_time);
    println!("   Final origin energy  = {:.6e}", d.e[0]);
    println!("   Total energy         = {:.6e}", stats.total_energy);
    println!();
    println!("Elapsed time         = {elapsed:>10.2} (s)");
    println!(
        "Grind time (us/z/c)  = {:>10.4} (per dom)",
        elapsed * 1e6 / (d.nelem() as f64 * stats.cycles as f64)
    );
    println!(
        "Reduction mem overhead = {:.2} MiB",
        stats.memory_overhead as f64 / (1024.0 * 1024.0)
    );
}

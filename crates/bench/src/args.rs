//! Tiny shared command-line parser for the figure binaries.
//!
//! Flag grammar lives here once — in particular `--strategy` defers to
//! [`spray::Strategy`]'s central `FromStr` grammar and `--churn` to
//! [`parse_churn_list`], so the delta/dirty flags are never re-parsed
//! (or re-invented) per binary.

/// Options common to every figure binary.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Thread counts to sweep (`--threads 1,2,4,8`). Default: powers of two
    /// up to twice the available parallelism (the paper sweeps 1..56 on a
    /// 28-core socket, i.e. into 2× oversubscription).
    pub threads: Vec<usize>,
    /// Timed repetitions per configuration (`--reps N`, default 5).
    pub reps: usize,
    /// Shrink the workload for smoke-testing (`--quick`).
    pub quick: bool,
    /// Problem-size override (`--n N`), meaning depends on the binary.
    pub n: Option<usize>,
    /// Gate mode (`--check`): exit nonzero when the binary's acceptance
    /// assertion fails, for use as a CI smoke gate.
    pub check: bool,
    /// Scatter strategy override (`--strategy block-cas-64`), parsed by
    /// [`spray::Strategy`]'s `FromStr` — the one grammar every binary
    /// shares. `None` = the binary's own default.
    pub strategy: Option<spray::Strategy>,
    /// Churn fractions to sweep (`--churn 0.0005,0.001,0.01`): the share
    /// of elements mutated per delta batch. Empty = the binary's default
    /// sweep.
    pub churn: Vec<f64>,
}

impl Default for Opts {
    fn default() -> Self {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut threads = vec![1usize];
        while *threads.last().unwrap() < 2 * hw {
            threads.push(threads.last().unwrap() * 2);
        }
        Opts {
            threads,
            reps: 5,
            quick: false,
            n: None,
            check: false,
            strategy: None,
            churn: Vec::new(),
        }
    }
}

/// Parses a comma-separated list of churn fractions, each in `(0, 1]`.
/// The one parser for every `--churn`-taking binary.
pub fn parse_churn_list(v: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for s in v.split(',') {
        let f = s
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("bad churn fraction '{}': {e}", s.trim()))?;
        if !(f > 0.0 && f <= 1.0) {
            return Err(format!("churn fraction {f} outside (0, 1]"));
        }
        out.push(f);
    }
    if out.is_empty() {
        return Err("churn list is empty".into());
    }
    Ok(out)
}

impl Opts {
    /// Parses `std::env::args()`, exiting with a usage message on error.
    pub fn parse() -> Opts {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable form of [`Opts::parse`]).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Opts {
        let mut opts = Opts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--threads needs a value"));
                    opts.threads = v
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n > 0)
                                .unwrap_or_else(|| usage("bad thread count"))
                        })
                        .collect();
                    if opts.threads.is_empty() {
                        usage("--threads list is empty");
                    }
                }
                "--reps" => {
                    let v = it.next().unwrap_or_else(|| usage("--reps needs a value"));
                    opts.reps = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage("bad rep count"));
                }
                "--n" => {
                    let v = it.next().unwrap_or_else(|| usage("--n needs a value"));
                    opts.n = Some(
                        v.parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage("bad problem size")),
                    );
                }
                "--strategy" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--strategy needs a value"));
                    opts.strategy = Some(
                        v.parse::<spray::Strategy>()
                            .unwrap_or_else(|e| usage(&e.to_string())),
                    );
                }
                "--churn" => {
                    let v = it.next().unwrap_or_else(|| usage("--churn needs a value"));
                    opts.churn = parse_churn_list(&v).unwrap_or_else(|e| usage(&e));
                }
                "--quick" => opts.quick = true,
                "--check" => opts.check = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        opts
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--threads 1,2,4] [--reps N] [--n SIZE] \
         [--strategy LABEL] [--churn F1,F2] [--quick] [--check]\n\
         prints CSV to stdout; lines starting with # are context"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Opts {
        Opts::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let o = parse("");
        assert!(!o.quick);
        assert_eq!(o.reps, 5);
        assert!(o.threads.contains(&1));
        assert!(o.n.is_none());
    }

    #[test]
    fn full_flags() {
        let o = parse("--threads 1,3,9 --reps 2 --n 1000 --quick --check");
        assert_eq!(o.threads, vec![1, 3, 9]);
        assert_eq!(o.reps, 2);
        assert_eq!(o.n, Some(1000));
        assert!(o.quick);
        assert!(o.check);
    }

    #[test]
    fn strategy_uses_central_grammar() {
        let o = parse("--strategy block-cas-64");
        assert_eq!(
            o.strategy,
            Some(spray::Strategy::BlockCas { block_size: 64 })
        );
        let o = parse("--strategy map-hash");
        assert_eq!(o.strategy, Some(spray::Strategy::MapHash));
        assert!(parse("").strategy.is_none());
    }

    #[test]
    fn churn_list_parses_and_validates() {
        let o = parse("--churn 0.0005,0.01,1.0");
        assert_eq!(o.churn, vec![0.0005, 0.01, 1.0]);
        assert!(parse("").churn.is_empty());
        assert!(parse_churn_list("0.5, 0.25").is_ok());
        assert!(parse_churn_list("0").is_err());
        assert!(parse_churn_list("1.5").is_err());
        assert!(parse_churn_list("nope").is_err());
    }
}

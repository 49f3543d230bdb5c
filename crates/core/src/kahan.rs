//! Compensated (Kahan–Babuška) summation as a reduction element type.
//!
//! §V of the paper: reducer objects "can therefore be used with arbitrary
//! precision numbers, types that implement reproducible or more accurate
//! summation, …". This module demonstrates that claim concretely: a
//! [`Kahan64`] carries a running sum and a compensation term, implements
//! [`SumOps`](crate::SumOps), and therefore works with every privatizing
//! strategy (dense, block, keeper, maps) unmodified — accumulating
//! with far smaller rounding error than plain `f64`.
//!
//! `Kahan64` is 16 bytes and has no atomic form, so the `atomic` strategy
//! (which requires [`AtomicElement`](crate::AtomicElement)) cannot be used
//! with it — exactly the kind of trade-off the SPRAY design
//! surfaces as a type-level fact rather than a runtime surprise.

use crate::elem::SumOps;

/// A compensated double-precision accumulator (Neumaier's variant of
/// Kahan summation, which also handles the case where the addend exceeds
/// the running sum).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Kahan64 {
    sum: f64,
    compensation: f64,
}

impl Kahan64 {
    /// Zero accumulator.
    pub const ZERO: Kahan64 = Kahan64 {
        sum: 0.0,
        compensation: 0.0,
    };

    /// Wraps a plain value.
    pub fn new(v: f64) -> Self {
        Kahan64 {
            sum: v,
            compensation: 0.0,
        }
    }

    /// The compensated total.
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }

    /// Adds a plain `f64` with compensation.
    #[inline]
    pub fn add_f64(self, v: f64) -> Self {
        let t = self.sum + v;
        // Neumaier: compensate whichever operand lost low-order bits.
        let c = if self.sum.abs() >= v.abs() {
            (self.sum - t) + v
        } else {
            (v - t) + self.sum
        };
        Kahan64 {
            sum: t,
            compensation: self.compensation + c,
        }
    }

    /// Merges two compensated accumulators.
    #[inline]
    pub fn merge(self, other: Kahan64) -> Self {
        self.add_f64(other.sum).add_f64(other.compensation)
    }
}

impl From<f64> for Kahan64 {
    fn from(v: f64) -> Self {
        Kahan64::new(v)
    }
}

impl SumOps for Kahan64 {
    #[inline(always)]
    fn zero() -> Self {
        Kahan64::ZERO
    }
    #[inline(always)]
    fn add(a: Self, b: Self) -> Self {
        a.merge(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reduce, BlockPrivateReduction, DenseReduction, KeeperReduction, ReducerView, Sum};
    use ompsim::{Schedule, ThreadPool};

    /// A value stream engineered to destroy naive f64 summation: a huge
    /// value, many tiny ones, then the huge value removed.
    fn adversarial(i: usize) -> f64 {
        match i {
            0 => 1e16,
            99_992 => -1e16, // same residue mod 8 as index 0
            _ => 1.0,
        }
    }

    #[test]
    fn kahan_beats_naive_summation() {
        let n = 100_000;
        let exact = (n - 2) as f64; // the 1.0s (the 1e16 pair cancels)

        let naive: f64 = (0..n).map(adversarial).sum();
        let kahan = (0..n)
            .map(adversarial)
            .fold(Kahan64::ZERO, |acc, v| acc.add_f64(v));

        let kahan_err = (kahan.value() - exact).abs();
        let naive_err = (naive - exact).abs();
        assert_eq!(kahan_err, 0.0, "kahan should be exact here");
        assert!(naive_err > 0.0, "naive should actually lose bits here");
    }

    #[test]
    fn merge_is_associative_enough() {
        // Merging partial compensated sums preserves the compensation.
        let mut a = Kahan64::ZERO;
        let mut b = Kahan64::ZERO;
        for i in 0..50_000 {
            a = a.add_f64(adversarial(i));
        }
        for i in 50_000..100_000 {
            b = b.add_f64(adversarial(i));
        }
        assert_eq!(a.merge(b).value(), 99_998.0);
    }

    #[test]
    fn works_with_privatizing_strategies() {
        // A spray reduction over Kahan64 elements: every thread's partial
        // sums stay compensated through privatization and merge.
        let pool = ThreadPool::new(4);
        let n_bins = 8;
        let run = |red_kind: usize| -> Vec<f64> {
            let mut out = vec![Kahan64::ZERO; n_bins];
            match red_kind {
                0 => {
                    let red = DenseReduction::<Kahan64, Sum>::new(&mut out, 4);
                    reduce(&pool, &red, 0..100_000, Schedule::default(), |v, i| {
                        v.apply(i % n_bins, Kahan64::new(adversarial(i)));
                    });
                }
                1 => {
                    let red = BlockPrivateReduction::<Kahan64, Sum>::new(&mut out, 4, 2);
                    reduce(&pool, &red, 0..100_000, Schedule::default(), |v, i| {
                        v.apply(i % n_bins, Kahan64::new(adversarial(i)));
                    });
                }
                _ => {
                    let red = KeeperReduction::<Kahan64, Sum>::new(&mut out, 4);
                    reduce(&pool, &red, 0..100_000, Schedule::default(), |v, i| {
                        v.apply(i % n_bins, Kahan64::new(adversarial(i)));
                    });
                }
            }
            out.iter().map(|k| k.value()).collect()
        };

        // Both huge values land in bin 0 (indices ≡ 0 mod 8) and cancel;
        // compensated accumulation must keep the 12498 ones exactly.
        for kind in 0..3 {
            let bins = run(kind);
            assert_eq!(bins[0], 12_498.0, "kind {kind}: bin0 {}", bins[0]);
            for (b, &x) in bins.iter().enumerate().skip(1) {
                assert_eq!(x, 12_500.0, "kind {kind}: bin {b}");
            }
        }
    }

    #[test]
    fn value_and_from_roundtrip() {
        let k: Kahan64 = 3.25.into();
        assert_eq!(k.value(), 3.25);
        assert_eq!(Kahan64::ZERO.value(), 0.0);
    }
}

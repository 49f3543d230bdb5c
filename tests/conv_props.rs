//! Property tests for the convolution kernels: adjoint identities with
//! random weights/inputs in 1-D and 2-D, and strategy equivalence of the
//! parallel backward passes.

use ompsim::{Schedule, ThreadPool};
use proptest::prelude::*;
// `spray::Strategy` shadows proptest's trait; re-import it anonymously.
use proptest::strategy::Strategy as _;
use spray::nd::Grid2;
use spray::{reduce_strategy, Strategy, Sum};
use spray_conv::conv2d::{backprop2, backprop2_seq, forward2_seq, Stencil2};
use spray_conv::{backprop_seq, forward_seq, BackpropKernel};

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adjoint_identity_1d_random_weights(
        weights in prop::collection::vec(-2.0f64..2.0, 1..9)
            .prop_filter("odd width", |w| w.len() % 2 == 1),
        seed in any::<u32>(),
    ) {
        let n = 80;
        let x: Vec<f64> = (0..n).map(|i| ((i as u32).wrapping_mul(seed) % 97) as f64 * 0.1).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i as u32).wrapping_add(seed) % 89) as f64 * 0.1).collect();

        let mut fx = vec![0.0; n];
        forward_seq(&mut fx, &x, &weights);
        let mut fty = vec![0.0; n];
        backprop_seq(&mut fty, &y, &weights);

        let (lhs, rhs) = (dot(&fx, &y), dot(&x, &fty));
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn parallel_backprop_1d_equals_seq(
        weights in prop::collection::vec(-1.0f64..1.0, 1..6)
            .prop_filter("odd width", |w| w.len() % 2 == 1),
        threads in 1usize..5,
    ) {
        let n = 200;
        let inp: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.25).collect();
        let r = weights.len() / 2;
        let mut want = vec![0.0f64; n];
        backprop_seq(&mut want, &inp, &weights);

        let pool = ThreadPool::new(threads);
        let kernel = BackpropKernel { inp: &inp, weights: &weights };
        for strategy in [Strategy::Keeper, Strategy::BlockCas { block_size: 32 }] {
            let mut out = vec![0.0f64; n];
            reduce_strategy::<f64, Sum, _>(
                strategy, &pool, &mut out, r..n - r, Schedule::default(), &kernel,
            );
            for (i, (a, b)) in out.iter().zip(&want).enumerate() {
                prop_assert!((a - b).abs() < 1e-9, "{} at {i}", strategy.label());
            }
        }
    }

    #[test]
    fn adjoint_identity_2d_random_stencils(
        wvals in prop::collection::vec(-1.0f64..1.0, 9..10),
        seed in any::<u32>(),
    ) {
        let st = Stencil2::new(wvals, 3, 3);
        let (nr, nc) = (14, 17);
        let mk = |salt: u32| -> Grid2<f64> {
            Grid2::from_vec(
                (0..nr * nc)
                    .map(|i| ((i as u32).wrapping_mul(seed ^ salt) % 101) as f64 * 0.05)
                    .collect(),
                nr,
                nc,
            )
        };
        let x = mk(0x1234);
        let y = mk(0x9876);
        let mut fx = Grid2::zeros(nr, nc);
        forward2_seq(&mut fx, &x, &st);
        let mut fty = Grid2::zeros(nr, nc);
        backprop2_seq(&mut fty, &y, &st);
        let lhs = dot(fx.as_slice(), y.as_slice());
        let rhs = dot(x.as_slice(), fty.as_slice());
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn parallel_backprop_2d_equals_seq(threads in 1usize..4, seed in any::<u32>()) {
        let st = Stencil2::new(vec![0.1, 0.2, 0.1, 0.2, 0.4, 0.2, 0.05, 0.1, 0.05], 3, 3);
        let (nr, nc) = (18, 25);
        let inp = Grid2::from_vec(
            (0..nr * nc)
                .map(|i| ((i as u32).wrapping_mul(seed | 1) % 61) as f64 * 0.1)
                .collect(),
            nr,
            nc,
        );
        let mut want = Grid2::zeros(nr, nc);
        backprop2_seq(&mut want, &inp, &st);

        let pool = ThreadPool::new(threads);
        let mut out = Grid2::zeros(nr, nc);
        backprop2(Strategy::BlockCas { block_size: 64 }, &pool, &mut out, &inp, &st);
        for (a, b) in out.as_slice().iter().zip(want.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}

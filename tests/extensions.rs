//! End-to-end integration of the beyond-the-paper extensions, driven
//! through the umbrella crate: CSC/SpMM kernels, Kahan elements, and
//! LULESH checkpoint/restart across force schemes.

use spray_repro::lulesh;
use spray_repro::ompsim::{Schedule, ThreadPool};
use spray_repro::sparse;
use spray_repro::spray::{self, Kernel, ReducerView, Strategy, Sum};

#[test]
fn csc_and_csr_paths_agree_through_umbrella() {
    let a = sparse::gen::banded(800, 20, 4, 3);
    let csc = sparse::Csc::from_csr(&a);
    let x: Vec<f64> = (0..800).map(|i| (i % 13) as f64 * 0.25).collect();
    let pool = ThreadPool::new(3);

    // A symmetric: A·x == Aᵀ·x, computed via two different kernels.
    let mut y_csc = vec![0.0f64; 800];
    sparse::csc_matvec_with_strategy(
        Strategy::BlockLock { block_size: 64 },
        &pool,
        &csc,
        &x,
        &mut y_csc,
    );
    let mut y_tmv = vec![0.0f64; 800];
    sparse::tmv_with_strategy(Strategy::Keeper, &pool, &a, &x, &mut y_tmv);
    for (u, v) in y_csc.iter().zip(&y_tmv) {
        assert!((u - v).abs() < 1e-9);
    }
}

#[test]
fn spmm_block_equals_repeated_tmv() {
    let a = sparse::gen::random(300, 200, 2500, 17);
    let k = 3;
    let pool = ThreadPool::new(4);

    let xcols: Vec<Vec<f64>> = (0..k)
        .map(|j| (0..300).map(|i| ((i + j * 7) % 11) as f64).collect())
        .collect();
    let mut flat = Vec::with_capacity(300 * k);
    for i in 0..300 {
        for col in &xcols {
            flat.push(col[i]);
        }
    }
    let x = spray::nd::Grid2::from_vec(flat, 300, k);

    let mut y = spray::nd::Grid2::zeros(200, k);
    sparse::spmm::tmm_with_strategy(Strategy::Atomic, &pool, &a, &x, &mut y);

    for (j, xj) in xcols.iter().enumerate() {
        let mut yj = vec![0.0f64; 200];
        sparse::tmv_with_strategy(Strategy::Keeper, &pool, &a, xj, &mut yj);
        for r in 0..200 {
            assert!((y[(r, j)] - yj[r]).abs() < 1e-9, "col {j} row {r}");
        }
    }
}

#[test]
fn kahan_histogram_through_every_privatizing_strategy() {
    use spray::Kahan64;
    let pool = ThreadPool::new(3);
    let n_bins = 10;

    struct KahanHist;
    impl Kernel<Kahan64> for KahanHist {
        fn item<V: ReducerView<Kahan64>>(&self, view: &mut V, i: usize) {
            let v = if i == 0 { 1e15 } else { 1e-1 };
            view.apply(i % 10, Kahan64::new(v));
            if i == 5000 {
                view.apply(0, Kahan64::new(-1e15));
            }
        }
    }
    for strategy in [
        Strategy::Dense,
        Strategy::BlockPrivate { block_size: 4 },
        Strategy::Keeper,
        Strategy::MapBTree,
    ] {
        let mut out = vec![Kahan64::ZERO; n_bins];
        // reduce_strategy requires AtomicElement; use the typed driver.
        match strategy {
            Strategy::Dense => {
                let red = spray::DenseReduction::<Kahan64, Sum>::new(&mut out, 3);
                spray::reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
                    KahanHist.item(v, i)
                });
            }
            Strategy::BlockPrivate { block_size } => {
                let red =
                    spray::BlockPrivateReduction::<Kahan64, Sum>::new(&mut out, 3, block_size);
                spray::reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
                    KahanHist.item(v, i)
                });
            }
            Strategy::Keeper => {
                let red = spray::KeeperReduction::<Kahan64, Sum>::new(&mut out, 3);
                spray::reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
                    KahanHist.item(v, i)
                });
            }
            _ => {
                let red = spray::BTreeMapReduction::<Kahan64, Sum>::new(&mut out, 3);
                spray::reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
                    KahanHist.item(v, i)
                });
            }
        }
        // Bin 0: 1e15 - 1e15 + 999 × 0.1 — compensation keeps the tail.
        let b0 = out[0].value();
        assert!(
            (b0 - 99.9).abs() < 1e-9,
            "{}: bin0 = {b0}",
            strategy.label()
        );
    }
}

#[test]
fn lulesh_checkpoint_roundtrips_through_spray_schemes() {
    let pool = ThreadPool::new(2);
    let mut d = lulesh::Domain::new(4, lulesh::Params::default());
    lulesh::run(
        &mut d,
        &pool,
        lulesh::ForceScheme::Spray(Strategy::BlockCas { block_size: 256 }),
        6,
    );
    let mut buf = Vec::new();
    lulesh::write_checkpoint(&mut buf, &d).unwrap();
    let mut restored = lulesh::read_checkpoint(buf.as_slice()).unwrap();
    assert_eq!(restored.cycle, 6);

    // Continue with a *different* scheme: physics must stay finite and
    // energy must not grow (schemes are interchangeable mid-run).
    let stats = lulesh::run(&mut restored, &pool, lulesh::ForceScheme::EightCopy, 6);
    assert_eq!(stats.cycles, 12);
    assert!(stats.total_energy.is_finite());
    assert!(restored.v.iter().all(|&v| v > 0.0));
}

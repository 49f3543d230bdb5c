//! 2-D convolution back-propagation on a synthetic image — exercising the
//! multidimensional-array support the paper lists as future work (§IX).
//!
//! A Gaussian 3×3 blur is applied forward (gather, trivially parallel);
//! its reverse-mode derivative scatters each adjoint pixel to a 3×3
//! neighborhood — a 2-D sparse reduction run here under several spray
//! strategies, with a finite-difference gradient check.
//!
//! ```sh
//! cargo run --release --example image_blur_backprop
//! ```

use ompsim::ThreadPool;
use spray::nd::Grid2;
use spray::Strategy;
use spray_conv::conv2d::{backprop2, backprop2_seq, forward2_seq, Stencil2};
use std::time::Instant;

/// Synthetic "image": smooth gradient plus a few bright blobs.
fn synthetic_image(h: usize, w: usize) -> Grid2<f64> {
    let mut img = Grid2::zeros(h, w);
    for r in 0..h {
        for c in 0..w {
            let base = (r as f64 / h as f64) * 0.5 + (c as f64 / w as f64) * 0.3;
            let blob = if (r % 97, c % 83) == (13, 7) {
                3.0
            } else {
                0.0
            };
            img[(r, c)] = base + blob;
        }
    }
    img
}

fn loss(blurred: &Grid2<f64>) -> f64 {
    // L = ½ Σ y²  ⇒  ∂L/∂y = y.
    blurred.as_slice().iter().map(|&y| 0.5 * y * y).sum()
}

fn main() {
    let (h, w) = (720, 1280);
    let pool = ThreadPool::new(4);
    let st = Stencil2::new(
        vec![
            0.0625, 0.125, 0.0625, //
            0.125, 0.25, 0.125, //
            0.0625, 0.125, 0.0625,
        ],
        3,
        3,
    );

    let img = synthetic_image(h, w);
    let mut blurred = Grid2::zeros(h, w);
    forward2_seq(&mut blurred, &img, &st);
    println!("image {h}x{w}, loss = {:.6e}", loss(&blurred));

    // Backward: dL/dimg = convT(dL/dblurred), computed with spray.
    for strategy in [
        Strategy::Atomic,
        Strategy::BlockCas { block_size: 4096 },
        Strategy::Keeper,
        Strategy::BlockPrivate { block_size: 4096 },
    ] {
        let mut grad = Grid2::zeros(h, w);
        let t0 = Instant::now();
        let report = backprop2(strategy, &pool, &mut grad, &blurred, &st);
        println!(
            "{:<22} {:>8.2} ms   mem {:>9} B",
            report.strategy,
            t0.elapsed().as_secs_f64() * 1e3,
            report.memory_overhead
        );
    }

    // Finite-difference check of one pixel's gradient.
    let mut grad = Grid2::zeros(h, w);
    backprop2_seq(&mut grad, &blurred, &st);
    let probe = (h / 2, w / 2);
    let eps = 1e-5;
    let mut bumped = img.clone();
    bumped[probe] += eps;
    let mut reblurred = Grid2::zeros(h, w);
    forward2_seq(&mut reblurred, &bumped, &st);
    let fd = (loss(&reblurred) - loss(&blurred)) / eps;
    let analytic = grad[probe];
    println!("gradient check at {probe:?}: finite-diff {fd:.6}, analytic {analytic:.6}");
    assert!(
        (fd - analytic).abs() < 1e-3 * analytic.abs().max(1.0),
        "gradient mismatch"
    );
    println!("gradient check passed");
}

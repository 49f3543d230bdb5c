//! # spray-sparse — sparse matrices and transpose-matrix-vector products
//!
//! Substrate for the paper's §VI-B test case: CSR matrices, the
//! transpose-matrix-vector product `y += Aᵀx` (a scatter to data-dependent
//! locations, Fig. 10), synthetic stand-ins for the two evaluation matrices
//! (s3dkt3m2 and debr), a Matrix Market reader/writer so the genuine files
//! can be dropped in, and simulated Intel-MKL baselines (legacy one-call
//! and inspector/executor, with and without hints).
//!
//! ```
//! use spray_sparse::{Csr, TmvKernel};
//! use spray::{reduce_strategy, Strategy, Sum};
//! use ompsim::{Schedule, ThreadPool};
//!
//! let a = Csr::from_triplets(3, 3, vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
//! let x = [1.0, 1.0, 1.0];
//! let mut y = vec![0.0f64; 3];
//! let pool = ThreadPool::new(2);
//! let kernel = TmvKernel { a: &a, x: &x };
//! reduce_strategy::<f64, Sum, _>(
//!     Strategy::BlockCas { block_size: 2 },
//!     &pool, &mut y, 0..a.nrows(), Schedule::default(), &kernel,
//! );
//! assert_eq!(y, vec![4.0, 2.0, 3.0]);
//! ```

#![warn(missing_docs)]

use std::ops::{Add, Mul};

mod coo;
mod csc;
mod csr;
pub mod gen;
pub mod mkl_sim;
pub mod mm;
pub mod spmm;
mod tmv;

pub use coo::Coo;
pub use csc::{csc_matvec_with_strategy, Csc, CscMvKernel};
pub use csr::Csr;
pub use tmv::{par_matvec, tmv_with_strategy, PlannedTmv, TmvKernel};

/// Minimal numeric bound for matrix elements: spray-reducible (including
/// summation, via [`spray::SumOps`]) plus `*`/`+`.
pub trait Num:
    spray::AtomicElement + spray::SumOps + Mul<Output = Self> + Add<Output = Self> + Default
{
}
impl<T> Num for T where
    T: spray::AtomicElement + spray::SumOps + Mul<Output = T> + Add<Output = T> + Default
{
}

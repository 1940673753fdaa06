//! The evaluation benchmarks — the paper's twelve (Table 1) plus four
//! pattern-language extensions — each with:
//!
//! * a **C-subset source** (inline-expanded, as the paper's methodology
//!   requires) that the `subsub-core` analysis pipeline consumes to make
//!   the parallelization decision,
//! * a **serial** Rust implementation (the baseline of Figures 14 and 17),
//! * an **outer-parallel** implementation (the strategy enabled by the
//!   paper's analysis, where applicable),
//! * an **inner-parallel** implementation (what classical parallelization
//!   settles for, where applicable),
//! * a **work model** feeding the `omprt::sim` scheduling simulator.
//!
//! | Benchmark | Paper source | Parallelizable by |
//! |---|---|---|
//! | AMGmk | CORAL | NewAlgo (intermittent SMA, LEMMA 1) |
//! | CHOLMOD-Supernodal | SuiteSparse | BaseAlgo (continuous SRA) |
//! | SDDMM | Nisa et al. | NewAlgo (intermittent SMA, segments) |
//! | UA (transf) | NPB 3.3 | NewAlgo (multi-dim SMA, LEMMA 2) |
//! | CG | NPB 3.3 | classical |
//! | heat-3d | PolyBench | classical (spatial loops) |
//! | fdtd-2d | PolyBench | classical (spatial loops) |
//! | gramschmidt | PolyBench | classical (inner loops) |
//! | syrk | PolyBench | classical |
//! | MG | NPB 3.3 | classical |
//! | IS | NPB 3.3 | none (pattern too complex) |
//! | Incomplete Cholesky | SparseLib++ | none (input-dependent) |
//! | CSRoCSR | synthetic (arXiv 1911.05839) | NewAlgo (two-level composed SMA) |
//! | StridedScatter | synthetic (arXiv 1911.05839) | BaseAlgo (strided SRA, `#SMA+2`) |
//! | GuardedPrefix | synthetic (arXiv 2511.06052) | NewAlgo (guarded recurrence) |
//! | BlockHist | synthetic (arXiv 2511.06052) | none at compile time (block-monotone, runtime-licensed) |

pub mod amgmk;
pub mod blockhist;
pub mod cg;
pub mod cholmod;
pub mod common;
pub mod csrocsr;
pub mod dispatch;
pub mod fdtd2d;
pub mod gprefix;
pub mod gramschmidt;
pub mod heat3d;
pub mod icholesky;
pub mod is;
pub mod mg;
pub mod registry;
pub mod sddmm;
pub mod sscatter;
pub mod syrk;
pub mod ua;

pub use common::{InnerGroup, Kernel, KernelInstance, Variant};
pub use dispatch::{dispatch, run_serial_on};
pub use registry::{all_kernels, kernel_by_name};

//! # crystal-bench — the experiment harness
//!
//! One module per evaluation artifact of the paper. The `reproduce` binary
//! regenerates every table and figure; its `microbench` experiment is the
//! wall-clock kernel benchmark (`BENCH_kernels.json`), and the end-to-end
//! benchmark is the `e2e` package under `src/bin/e2e/`.
//!
//! Two kinds of numbers are reported side by side (see EXPERIMENTS.md):
//!
//! * **paper-scale** — simulated GPU runtimes (trace-driven, Table 2
//!   V100) and modeled CPU runtimes (Table 2 i7-6900), at the paper's
//!   workload sizes. These are the reproduction targets.
//! * **host-measured** — wall-clock times of the real CPU implementations
//!   on the current machine at a reduced scale; they validate *relative*
//!   behaviour (predication vs branching, SIMD join overhead, fused vs
//!   materializing engines), not absolute paper numbers.

pub mod ablation;
pub mod calibration;
pub mod contention;
pub mod fusion;
pub mod kernels;
pub mod micro;
pub mod overlap;
pub mod scorecard;
pub mod sharded;
pub mod ssb_exp;
pub mod stream;
pub mod tables;
pub mod util;

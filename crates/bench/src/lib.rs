//! # crystal-bench — the experiment harness
//!
//! The harness is one table (`EXPERIMENTS` in the `reproduce` binary) of
//! `fn(&Config, smoke) -> Vec<Check>`: an experiment measures, prints and
//! saves its own table, and returns a [`check::Check`] for every claim it
//! pins — a [`check::Band`] declared once, beside the measurement that
//! feeds it. [`check::verdict`] is where a reproduced number meets its
//! band, for the six `--smoke` gates, the scorecard (the paper-model claims
//! plus the sharded, fusion and overlap experiments' own checks at its
//! pinned scale), their unit tests and CI alike. Underneath, every SSB
//! query stream runs through one [`stream::replay`]: an experiment is a
//! dataset scale, a query set, a session policy, the columns it derives
//! and the bands on them.
//!
//! `reproduce microbench` is the wall-clock kernel benchmark
//! (`BENCH_kernels.json`); the end-to-end benchmark is the `e2e` package
//! under `src/bin/e2e/`.
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
pub mod check;
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

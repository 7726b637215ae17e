//! # crystal-cpu — state-of-the-art CPU operator implementations
//!
//! The CPU side of the paper's comparison (Sections 3.2 and 4): real,
//! executable, multi-threaded Rust implementations of the operators,
//! following the designs the paper adopts — Polychroniou et al.'s
//! SIMD-conscious selections and partitioning, Chen et al.'s group
//! prefetching for hash probes, and the vector-at-a-time selection scheme
//! with a global atomic output cursor described in Section 3.2.
//!
//! Two notes on fidelity (see DESIGN.md §2):
//!
//! * Stable Rust has no `std::simd`; the "SIMD" variants are written as
//!   fixed 8-lane chunk loops (the AVX2 shape) that LLVM auto-vectorizes,
//!   and they faithfully include the *algorithmic* overheads the paper
//!   highlights (e.g. the two-gathers-plus-de-interleave of vertically
//!   vectorized probing).
//! * Group prefetching uses `core::arch::x86_64::_mm_prefetch` where
//!   available and degrades to a no-op elsewhere.
//!
//! Wall-clock behaviour of these implementations is measured by the bench
//! harness; the *paper-scale* CPU timings in the figures come from
//! `crystal-models`, which models this hardware class analytically.
//!
//! The selection scan ([`select::select`]) is generic over
//! `crystal_storage::encoding::ColumnRead`, so plain and bit-packed
//! columns share one implementation (Section 5.5's compression
//! direction; the CPU side pays its unpack shifts on the scalar pipes,
//! which is why compression helps the CPU less than the GPU).

pub mod exec;
pub mod join;
pub mod project;
pub mod radix;
pub mod radix_join;
pub mod select;

pub use join::CpuHashTable;

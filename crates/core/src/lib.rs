//! # crystal-core — the Crystal library
//!
//! This is the Rust analog of the paper's primary contribution: **Crystal**,
//! "a library of block-wide functions that can be composed to create a full
//! SQL query" (Section 3.3). The library implements the *tile-based
//! execution model*: instead of treating GPU threads as independent units,
//! a thread block is the basic execution unit, and each block processes one
//! **tile** of items at a time (the GPU analog of the CPU's vector-at-a-time
//! processing, Figure 5).
//!
//! The block-wide functions of the paper's Table 1 are provided in
//! [`primitives`]:
//!
//! | Primitive | Here |
//! |---|---|
//! | `BlockLoad` | [`primitives::block_load`] |
//! | `BlockLoadSel` | [`primitives::block_load_sel`], over a lane list ([`tile`]) |
//! | `BlockStore` | [`primitives::block_store`] |
//! | `BlockPred` | [`primitives::block_pred`] (+ `block_pred_and` over a lane list) |
//! | `BlockScan` | [`primitives::block_scan`] |
//! | `BlockShuffle` | [`primitives::block_shuffle`] |
//! | `BlockLookup` | [`primitives::block_lookup`], the bitmap adapter of the lane-list [`hash::DeviceHashTable::probe_tile`] |
//! | `BlockAggregate` | [`primitives::block_agg_sum`] |
//!
//! [`kernels`] composes them into the operators the paper evaluates in
//! Section 4 (select, project, hash join, radix partitioning and sort) plus
//! the Section 3.2/3.3 baselines (the pre-Crystal "independent threads"
//! selection). `crystal-ssb` composes the same primitives into the 13 Star
//! Schema Benchmark queries.
//!
//! Kernels run on [`crystal_gpu_sim::Gpu`], which executes them functionally
//! (real results) while accounting memory traffic for the paper's timing
//! model; see that crate's docs for the simulation argument.
//!
//! [`selvec`] is the CPU-side counterpart: selection-vector kernels (init /
//! refine / probe / compact) that `crystal-ssb`'s morsel-driven executor
//! composes into full star queries, mirroring how the GPU engine composes
//! the block-wide primitives.

pub mod hash;
pub mod kernels;
pub mod primitives;
pub mod selvec;
pub mod tile;

pub use hash::DeviceHashTable;
pub use tile::Tile;

//! # Crystal-RS
//!
//! A Rust reproduction of the system from *"A Study of the Fundamental
//! Performance Characteristics of GPUs and CPUs for Database Analytics"*
//! (Shanbhag, Madden, Yu — SIGMOD 2020): the **Crystal** library of
//! block-wide functions implementing a tile-based execution model for GPU
//! query processing, an optimized multi-threaded CPU operator engine, the
//! Star Schema Benchmark, and the paper's analytical cost models.
//!
//! The GPU is provided by [`gpu_sim`], a functional + timing simulator of a
//! V100-class device (this workspace targets machines without GPUs; see
//! `DESIGN.md` §2 for the substitution argument).
//!
//! ## Quick start
//!
//! ```
//! use crystal::prelude::*;
//!
//! // A simulated V100 with the paper's Table-2 characteristics.
//! let mut gpu = Gpu::new(nvidia_v100());
//!
//! // SELECT y FROM r WHERE y > 100 — on the GPU, via Crystal primitives.
//! let data: Vec<i32> = (0..4096).collect();
//! let col = gpu.alloc_from(&data);
//! let (out, report) = crystal_core::kernels::select_gt(&mut gpu, &col, 100);
//! assert_eq!(out.len(), data.iter().filter(|&&v| v > 100).count());
//! assert!(report.time.total_secs() > 0.0);
//! ```
//!
//! The facade re-exports each workspace crate under a stable name.

pub use crystal_core as core;
pub use crystal_cpu as cpu;
pub use crystal_gpu_sim as gpu_sim;
pub use crystal_hardware as hardware;
pub use crystal_models as models;
pub use crystal_runtime as runtime;
pub use crystal_server as server;
pub use crystal_ssb as ssb;
pub use crystal_storage as storage;

/// Commonly used items: device handles, hardware specs, kernels, SSB entry
/// points.
pub mod prelude {
    pub use crate::core as crystal_core;
    pub use crate::core::kernels;
    pub use crate::core::tile::Tile;
    pub use crate::core::DeviceHashTable;
    pub use crate::cpu;
    pub use crate::gpu_sim::exec::{Gpu, LaunchConfig};
    pub use crate::gpu_sim::mem::DeviceBuffer;
    pub use crate::hardware::{intel_i7_6900, nvidia_v100, pcie_gen3, CpuSpec, GpuSpec};
    pub use crate::models;
    pub use crate::runtime::{ColumnKey, DeviceSession, HostCol};
    pub use crate::ssb;
    pub use crate::ssb::encoding::{EncodedFact, FactEncodings};
    pub use crate::storage::bitpack::PackedColumn;
    pub use crate::storage::encoding::{ColumnRead, ColumnSlice, EncodedColumn, Encoding};
}

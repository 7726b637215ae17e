#![warn(missing_docs)]

//! # crystal-storage — columnar storage substrate
//!
//! The thin storage layer the engines share: dictionary encoding for
//! strings (the paper dictionary-encodes all SSB string columns to 4-byte
//! integers before loading, Section 5.2), bit-packing (the Section 5.5
//! compression direction), and deterministic workload generators for the
//! microbenchmarks (uniform columns with calibrated selectivities, unique
//! key domains, Zipf-skewed values). The tables themselves are
//! `crystal-ssb`'s `SsbData`: plain `Vec<i32>` columns.
//!
//! [`encoding`] is the compressed-execution seam: a per-column
//! [`Encoding`] descriptor, the [`EncodedColumn`] it materializes, and
//! the [`ColumnRead`] trait every fused kernel in the workspace reads
//! through — one scan implementation, monomorphized per physical format,
//! never a full-column decompress.
//!
//! [`isa`] holds the one runtime instruction-set detection the host kernels
//! (the decode engines here, the compare engines of `crystal-core`) share.

pub mod bitpack;
pub mod dict;
pub mod encoding;
pub mod gen;
pub mod isa;

pub use bitpack::{PackedColumn, PackedView};
pub use dict::Dictionary;
pub use encoding::{ColumnRead, ColumnSlice, EncodedColumn, Encoding};
pub use isa::Isa;

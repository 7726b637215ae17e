//! # crystal-ssb — the Star Schema Benchmark, end to end
//!
//! Everything Section 5 of the paper evaluates: the SSB data generator
//! (dictionary-encoded, 4-byte columns), the 13 benchmark queries, and the
//! engine styles being compared:
//!
//! | Engine | Paper counterpart | Module |
//! |---|---|---|
//! | [`engines::gpu`] | Standalone GPU (Crystal, tile-based) | runs on `crystal-gpu-sim` |
//! | [`engines::cpu`] | Standalone CPU (fused, vectorized) | real multi-threaded Rust |
//! | [`engines::hyper`] | Hyper | tuple-at-a-time compiled-style pipelines |
//! | [`engines::monet`] | MonetDB | operator-at-a-time, full materialization |
//! | [`engines::omnisci`] | Omnisci | GPU thread-per-row, operator-at-a-time |
//! | [`engines::reference`] | — | row-wise oracle for correctness |
//! | [`engines::copro`] | GPU coprocessor (Section 3.1) | PCIe-shipped execution |
//!
//! Queries are expressed once as [`plan::StarQuery`] descriptors (fact
//! predicates, ordered dimension joins with filters and group attributes,
//! and an aggregate expression); each engine interprets the same plan in
//! its own execution style, which is precisely the axis the paper studies.
//!
//! [`model`] converts execution traces into paper-scale (SF-20) runtime
//! predictions using the Section 5.3 methodology. Join orders are the
//! paper's hand-picked ones, written into the canned plans of [`queries`].
//!
//! [`exec`] is the morsel-driven parallel executor the CPU-side engines
//! lower onto: it evaluates *any* [`plan::StarQuery`] — including the
//! randomized plans from [`arbitrary`] — through a shared
//! selection-vector pipeline with work-stealing morsel scheduling. The
//! randomized cross-engine differential suite
//! (`tests/differential_random.rs`) rests on those two modules.
//!
//! [`encoding`] makes compression an execution format: per-column
//! [`FactEncodings`] descriptors, the [`EncodedFact`] table queries run
//! on directly (fused unpack kernels, both executor modes, the GPU
//! engine and the coprocessor route), and the Section-5.2 dictionary
//! literal rewrite that turns string filters into packed-code range
//! checks.
//!
//! [`partition`] makes the fact table a first-class sharded object:
//! equal-width `lo_orderdate` range shards, each independently encoded
//! with a min/max zone map, plus predicate pruning — the storage layer
//! of the beyond-memory regime.
//!
//! [`table`] is what the engines execute on: a [`FactTable`] of segments —
//! the plain columns, one encoded table, or the shards of a partition —
//! behind which the host executor, the device job, the placement model
//! and the server no longer know which of the three they were given.

pub mod arbitrary;
pub mod data;
pub mod encoding;
pub mod engines;
pub mod exec;
pub mod model;
pub mod partition;
pub mod plan;
pub mod queries;
pub mod result;
pub mod table;

pub use data::{DimCacheStats, SsbData};
pub use encoding::{EncodedFact, FactEncodings};
pub use partition::PartitionedFact;
pub use plan::StarQuery;
pub use queries::{all_queries, query, QueryId};
pub use result::QueryResult;
pub use table::{FactSegment, FactTable};

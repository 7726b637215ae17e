//! The system under test: every item of the workspace crates the harness
//! names, re-exported from one place. A refactor that renames or removes
//! one of these breaks the benchmark here and nowhere else — it must keep
//! them callable, or be preceded by a PR that changes only the benchmark
//! (README.md, "What the benchmark calls"). The harness depends on no
//! module of `crystal_bench` itself.

pub use crystal_core::selvec::{sel_between_init, sel_init, sel_probe_tracked, CHUNK};
pub use crystal_cpu::exec::{MorselQueue, MORSEL_SIZE};
pub use crystal_gpu_sim::{ExecStats, Gpu, LaunchConfig};
pub use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};
pub use crystal_runtime::{ColumnKey, DeviceSession, HostCol, SessionStats};
pub use crystal_server::{serve, serve_sharded, Backend, ServeReport, ServerConfig};
pub use crystal_ssb::engines::copro::choose_placement_session;
pub use crystal_ssb::engines::{cpu, gpu, reference, DimLookup};
pub use crystal_ssb::exec::{execute_partitioned, HostQueryJob, PipelineMode};
pub use crystal_ssb::plan::{DimTable, FactCol, StarQuery};
pub use crystal_ssb::queries::all_query_ids;
pub use crystal_ssb::{query, EncodedFact, FactEncodings, PartitionedFact, QueryResult, SsbData};
pub use crystal_storage::bitpack::{unpack_batch, PackedColumn};
pub use crystal_storage::encoding::ColumnSlice;

/// The canned query called `name` (`"q2.1"`).
pub fn query_named(d: &SsbData, name: &str) -> StarQuery {
    all_query_ids()
        .into_iter()
        .map(|id| query(d, id))
        .find(|q| q.name == name)
        .unwrap_or_else(|| panic!("{name} is not a canned query"))
}

//! Query-operator kernels composed from the block-wide primitives.
//!
//! One module per operator family of the paper's Section 4, plus the
//! Section 3.2 pre-Crystal baseline:
//!
//! * [`select`] — the selection scan (Q0/Q3), Figures 4(b), 9 and 12, and
//!   the three-kernel "independent threads" variant of Figure 4(a).
//! * [`project`] — the projection queries Q1/Q2 of Figure 10.
//! * [`join`] — the hash-join probe microbenchmark (Q4) of Figure 13.
//! * [`agg`] — column aggregation kernels.
//! * [`packed`] — kernels over bit-packed columns (Section 5.5).
//! * [`radix`] — radix histogram / shuffle passes of Figure 14.
//! * [`sort`] — full LSB and MSB radix sorts (Section 4.4).

pub mod agg;
pub mod join;
pub mod packed;
pub mod project;
pub mod radix;
pub mod select;
pub mod sort;

pub use agg::column_sum_i64;
pub use join::hash_join_sum;
pub use packed::{select_gt_packed, DevicePackedColumn};
pub use project::{project_linear, project_sigmoid};
pub use radix::{radix_histogram, RadixError, RadixOrder};
pub use select::{independent_select_gt, select_gt, select_where};
pub use sort::{lsb_radix_sort, msb_radix_sort};

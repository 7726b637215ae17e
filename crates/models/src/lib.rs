#![warn(missing_docs)]

//! # crystal-models — the paper's analytical cost models
//!
//! Every closed-form model the paper derives, implemented verbatim and
//! parameterized by the Table 2 hardware specs:
//!
//! * [`project`] — Section 4.1: `2*4N/Br + 4N/Bw`.
//! * [`select`] — Section 4.2: `4N/Br + 4*sigma*N/Bw`, plus the *empirical*
//!   CPU variants (branch misprediction hump of Figure 12).
//! * [`join`] — Section 4.3: the cache-level probe models with
//!   `pi_K = min(S_K/H, 1)`, for both the in-cache and out-of-cache regimes,
//!   plus the CPU stall-adjusted empirical variant.
//! * [`sort`] — Section 4.4: histogram and shuffle pass models and full
//!   LSB/MSB sort compositions.
//! * [`ssb`] — Section 5.3: the three-component model of SSB q2.1 (and the
//!   q1.x scan model), Section 3.1's coprocessor bounds, and the
//!   compression-aware (Section 6) variants: packed transfer/scan bounds,
//!   the host's scalar-unpack compute bound, and the placement flip ratio
//!   past which GPU coprocessing wins on packed data.
//! * [`cost`] — Section 5.4: purchase/renting cost effectiveness (Table 3).
//! * [`calibration`] — the online closed loop over the [`ssb`] placement
//!   bounds: observed kernel/transfer/scan times fitted per
//!   (operator, encoding, cardinality band) key and blended with the
//!   analytic prior by sample count.
//!
//! Each function returns seconds. "Ideal" models assume perfect bandwidth
//! saturation (the paper's dashed "Model" lines); "empirical" variants add
//! the calibrated imperfections the paper measures but does not model
//! (branch mispredictions, CPU memory stalls on irregular access).

pub mod calibration;
pub mod cost;
pub mod join;
pub mod project;
pub mod select;
pub mod sort;
pub mod ssb;

/// Bytes per column entry throughout the paper's workloads.
pub(crate) const ENTRY_BYTES: f64 = 4.0;

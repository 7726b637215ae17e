//! # crystal-runtime — device-resident buffer management
//!
//! The paper's headline conclusion (Section 3.1) is that the coprocessor
//! model is PCIe-bottlenecked: a GPU only delivers its bandwidth advantage
//! when the working set is *device-resident*. Every engine in this
//! workspace originally re-uploaded its fact columns and rebuilt its
//! dimension hash tables from scratch on each query, then freed everything
//! — structurally unable to exercise that claim. This crate provides the
//! shared residency layer that fixes it:
//!
//! * [`session::DeviceSession`] — one device cache of uploaded fact columns
//!   (plain *and* bit-packed, keyed by dataset, column id and
//!   [`crystal_storage::encoding::Encoding`]) and built
//!   [`crystal_core::hash::DeviceHashTable`]s: one entry list, one
//!   cost-aware victim order (GreedyDual-Size) under the device's memory
//!   budget.
//! * [`session::DeviceCol`] — the either-plain-or-packed device column the
//!   engines' tile loads dispatch over.
//!
//! Queries executed through a warm session spend zero simulated transfer
//! time on already-resident columns, which is exactly the
//! "transfer-included vs. data-resident" asymmetry the query-stream
//! experiment (`reproduce query-stream`) quantifies.

#![warn(missing_docs)]

pub mod session;

pub use session::{ColumnKey, DeviceCol, DeviceSession, HostCol, SessionOom, SessionStats};

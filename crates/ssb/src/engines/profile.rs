//! What a query cost: the one outcome of running a query anywhere.
//!
//! Every entry point that runs a query — [`gpu::execute`] and the
//! [`DeviceQueryJob`] behind it, [`omnisci::execute`],
//! [`copro::execute_placed`], the server's completions, the bench replays —
//! returns a [`QueryProfile`], and [`copro::record_observation`] learns
//! from one. The device-side fields are filled by whoever makes the
//! session calls (`QueryProfile::book` around its own stretches of work),
//! never by a caller bracketing the run with snapshots.
//!
//! Each second in it is on one of three clocks, and none is wall time:
//! **simulated-compute** (`reports`, `exec.kernel_secs`, `time.exec`),
//! **simulated-DMA** on the session's link (`exec.dma_secs`, `time.ramp`,
//! `time.transfer`, and the `time` totals that add the two up), and
//! **modelled-host** (`host_secs`, the Section 3.1 scan bound). Wall-clock
//! timers of the host loops are not in it yet (DESIGN.md §11).
//!
//! [`gpu::execute`]: crate::engines::gpu::execute
//! [`DeviceQueryJob`]: crate::engines::gpu::DeviceQueryJob
//! [`omnisci::execute`]: crate::engines::omnisci::execute
//! [`copro::execute_placed`]: crate::engines::copro::execute_placed
//! [`copro::record_observation`]: crate::engines::copro::record_observation

use std::fmt;

use crystal_gpu_sim::pcie::CoprocessorTime;
use crystal_gpu_sim::stats::{total_time, KernelReport};
use crystal_gpu_sim::ExecStats;
use crystal_runtime::{DeviceSession, SessionStats};

use crate::engines::copro::PlacementDecision;
use crate::engines::{GroupAcc, QueryTrace};
use crate::plan::StarQuery;
use crate::QueryResult;

/// The account of one executed query (see the module docs).
#[derive(Debug, Clone)]
pub struct QueryProfile {
    pub result: QueryResult,
    /// The row counts per stage — the projection the shape matrix and the
    /// differential suite compare. `None` from the per-operator reference
    /// engine, which counts none.
    pub trace: Option<QueryTrace>,
    /// Its kernels in launch order: per segment the builds its session
    /// missed (a warm session builds nothing), then the fused launches.
    pub reports: Vec<KernelReport>,
    /// Device counters it added: launches, HBM bytes, serialized
    /// copy-engine and kernel seconds.
    pub exec: ExecStats,
    /// Session counters it added: hits, misses, evictions, uploads, build
    /// seconds (`cached_bytes` is the level it left behind).
    pub session: SessionStats,
    /// Host-to-device bytes `time` is priced on: what its session shipped
    /// for it (zero once the working set is resident).
    pub shipped_bytes: usize,
    /// The coprocessor-model charge of those bytes, on the session's link,
    /// against its kernels' simulated seconds.
    pub time: CoprocessorTime,
    /// The device's copy/compute stream makespan when it last touched the
    /// device — its own alone for one query on a fresh device.
    pub makespan_secs: f64,
    /// Modelled host seconds, when it ran on the host: the placement's host
    /// bound, or what a scheduler granted of it.
    pub host_secs: Option<f64>,
    /// The placement asked for it, when one was: the side chosen and both
    /// candidate bounds, with their source and samples.
    pub placement: Option<PlacementDecision>,
    /// Segments that completed on the device: every live one, or none.
    pub device_segments_run: usize,
    /// Whether the device refused it or gave it up, and the host answered
    /// instead.
    pub host_fallback: bool,
    /// Device halves abandoned mid-query (the query restarted on the host).
    pub oom_restarts: usize,
}

impl QueryProfile {
    /// The account of `q` before anything ran: the empty input's result,
    /// nothing counted or charged.
    pub fn empty(q: &StarQuery) -> Self {
        QueryProfile {
            result: GroupAcc::new(0).to_result(q),
            trace: None,
            reports: Vec::new(),
            exec: ExecStats::default(),
            session: SessionStats::default(),
            shipped_bytes: 0,
            time: CoprocessorTime::default(),
            makespan_secs: 0.0,
            host_secs: None,
            placement: None,
            device_segments_run: 0,
            host_fallback: false,
            oom_restarts: 0,
        }
    }

    /// Total simulated kernel seconds.
    pub fn sim_secs(&self) -> f64 {
        total_time(&self.reports)
    }

    /// Simulated kernel seconds at paper scale: the kernels tagged
    /// [`KernelReport::fact_linear`] grow by `1 / fact_scale` with the fact
    /// table sampled down to that fraction (see
    /// [`SsbData::generate_scaled`](crate::SsbData::generate_scaled)), the
    /// dimension-sized builds do not. The explicit tag the engine sets at
    /// launch decides, not the kernel's name.
    pub fn sim_secs_scaled(&self, fact_scale: f64) -> f64 {
        let scaled = |r: &KernelReport| match r.fact_linear {
            true => r.time.total_secs() / fact_scale,
            false => r.time.total_secs(),
        };
        self.reports.iter().map(scaled).sum()
    }

    /// The counters a stretch of session calls will be booked against.
    pub(crate) fn mark(sess: &mut DeviceSession<'_>) -> (ExecStats, SessionStats) {
        (sess.gpu().exec_stats(), sess.stats().clone())
    }

    /// Books what the device and the session counted since `mark` — a
    /// stretch of this query's own calls, nobody else's in between — to the
    /// query. The stretch's uploads are one batch on the session's link:
    /// the copy engine queues them back to back, so they pay its latency
    /// once.
    pub(crate) fn book(&mut self, sess: &mut DeviceSession<'_>, mark: (ExecStats, SessionStats)) {
        self.exec += sess.gpu().exec_stats().since(&mark.0);
        let added = sess.stats().since(&mark.1);
        let batch = added.uploaded_bytes as usize;
        if batch > 0 {
            let link = sess.interconnect();
            if self.shipped_bytes == 0 {
                self.time.ramp = link.chunk_ramp_secs(batch);
            }
            self.time.transfer += link.transfer_secs(batch);
            self.shipped_bytes += batch;
        }
        self.session += &added;
        self.makespan_secs = sess.gpu().streams().makespan();
    }
}

/// EXPLAIN ANALYZE: rows per stage, kernels, bytes shipped, seconds per
/// clock, and the placement's bounds against what was then charged.
impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = |secs: f64| secs * 1e6;
        if let Some(t) = &self.trace {
            write!(
                f,
                "rows    {} -> predicates {}",
                t.fact_rows, t.pred_survivors
            )?;
            for s in &t.stages {
                write!(f, " -> {:?} {}/{}", s.table, s.hits, s.probes)?;
            }
            writeln!(f, " -> {} aggregated, {} groups", t.result_rows, t.groups)?;
        }
        for r in &self.reports {
            writeln!(f, "kernel  {r}")?;
        }
        let (t, s) = (&self.time, &self.session);
        writeln!(
            f,
            "device  {} segments, {} B shipped: simulated-DMA {:.2} us (ramp {:.2}) + \
             simulated-compute {:.2} us = {:.2} us pipelined, {:.2} overlapped, {:.2} serial; \
             stream clocks at {:.2} us",
            self.device_segments_run,
            self.shipped_bytes,
            us(t.transfer),
            us(t.ramp),
            us(t.exec),
            us(t.pipelined),
            us(t.overlapped),
            us(t.serial),
            us(self.makespan_secs),
        )?;
        writeln!(
            f,
            "session columns {} hit / {} shipped, tables {} hit / {} built, {} evictions",
            s.col_hits, s.col_misses, s.ht_hits, s.ht_misses, s.evictions,
        )?;
        if let Some(host) = self.host_secs {
            writeln!(
                f,
                "host    modelled-host {:.2} us ({} device halves refused or abandoned)",
                us(host),
                usize::from(self.host_fallback).max(self.oom_restarts),
            )?;
        }
        let Some(d) = &self.placement else {
            return Ok(());
        };
        // The bound of the side it ran on, against what that side was charged.
        let (bound, charged) = match self.host_secs {
            Some(host) => (d.host_secs, host),
            None => (d.coprocessor_secs, t.pipelined),
        };
        writeln!(
            f,
            "placed  {:?} ({:?}, {} samples): coprocessor bound {:.2} us, host bound {:.2} us; \
             charged {:+.1}% against the bound of the side it ran on",
            d.placement,
            d.source,
            d.samples,
            us(d.coprocessor_secs),
            us(d.host_secs),
            (charged / bound - 1.0) * 100.0,
        )
    }
}

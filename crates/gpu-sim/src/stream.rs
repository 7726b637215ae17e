//! Simulated copy/compute streams: two ordered queues with event-based
//! dependencies, mirroring how a CUDA copy engine overlaps PCIe DMA with
//! kernel execution.
//!
//! The real device has (at least) one DMA engine and one compute engine,
//! each draining its own in-order stream; `cudaEventRecord` /
//! `cudaStreamWaitEvent` express cross-stream dependencies. The simulator
//! reproduces exactly that structure with two monotone clocks:
//!
//! * the **DMA clock** advances by the *bandwidth* term of every enqueued
//!   copy — queued transfers stream back-to-back at line rate, so the
//!   per-transfer setup latency does not stack in the queue; it surfaces
//!   only in the copy's `first_chunk` event (the earliest moment a
//!   dependent kernel may start consuming the data);
//! * the **compute clock** advances by each launched kernel's simulated
//!   seconds, optionally gated on a copy event (`gate`: the kernel cannot
//!   start before its first input chunk lands) and floored by one
//!   (`floor`: the kernel cannot *finish* before the transfer it is
//!   racing has fully drained — compute cannot outrun the link).
//!
//! The engine is pure accounting: functional execution still happens
//! eagerly and in program order in [`Gpu::launch`](crate::exec::Gpu::launch),
//! so results are byte-identical to serial execution by construction — the
//! streams only decide what the overlap *costs*, never what it computes.

/// Events published by one enqueued copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyEvents {
    /// DMA-clock time at which the first chunk of the copy has landed and a
    /// consumer kernel may start (per-transfer latency + one chunk).
    pub first_chunk: f64,
    /// DMA-clock time at which the whole copy has drained.
    pub done: f64,
}

impl CopyEvents {
    /// Merges another copy's events into this one: a consumer that needs
    /// *both* transfers may start once the later `first_chunk` fires and
    /// is drained once the later `done` fires.
    pub fn merge(&mut self, other: CopyEvents) {
        self.first_chunk = self.first_chunk.max(other.first_chunk);
        self.done = self.done.max(other.done);
    }
}

/// One kernel's occupancy of the compute stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpan {
    /// Compute-clock time the kernel started (after its gate, if any).
    pub start: f64,
    /// Compute-clock time the kernel retired (after its floor, if any).
    pub end: f64,
}

/// The two-stream engine: an in-order DMA queue and an in-order compute
/// queue sharing one simulated timeline.
#[derive(Debug, Clone, Default)]
pub struct StreamEngine {
    dma_clock: f64,
    compute_clock: f64,
}

impl StreamEngine {
    /// A fresh engine with both streams idle at t = 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Enqueues one host-to-device copy on the DMA stream.
    ///
    /// `ramp_secs` is the time until the copy's first chunk has landed
    /// (per-transfer latency + one chunk); `bw_secs` is the pure
    /// bandwidth term (`bytes / link_bandwidth`). The queue charges only
    /// `bw_secs` — back-to-back copies stream at line rate — while the
    /// returned [`CopyEvents::first_chunk`] carries the ramp, so a lone
    /// transfer still makes its consumer wait the full setup latency.
    pub(crate) fn enqueue_copy(&mut self, ramp_secs: f64, bw_secs: f64) -> CopyEvents {
        let start = self.dma_clock;
        self.dma_clock += bw_secs;
        CopyEvents {
            first_chunk: start + ramp_secs,
            done: self.dma_clock,
        }
    }

    /// Launches one kernel of `secs` simulated seconds on the compute
    /// stream. `gate` (if set) is the earliest start time — typically a
    /// copy's `first_chunk` event; `floor` (if set) is the earliest
    /// *finish* time — typically the copy's `done` event, modeling a
    /// kernel whose tile schedule ramps under the tail of the transfer
    /// but can never consume bytes faster than the link delivers them.
    pub(crate) fn launch(
        &mut self,
        secs: f64,
        gate: Option<f64>,
        floor: Option<f64>,
    ) -> StreamSpan {
        let mut start = self.compute_clock;
        if let Some(g) = gate {
            start = start.max(g);
        }
        let mut end = start + secs;
        if let Some(f) = floor {
            end = end.max(f);
        }
        self.compute_clock = end;
        StreamSpan { start, end }
    }

    /// Overall makespan: the later of the two stream clocks — the
    /// wall-clock at which both engines have drained.
    pub fn makespan(&self) -> f64 {
        self.dma_clock.max(self.compute_clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-15, "{a} vs {b}");
    }

    #[test]
    fn copies_queue_back_to_back_at_line_rate() {
        let mut s = StreamEngine::new();
        let a = s.enqueue_copy(11e-6, 100e-6);
        let b = s.enqueue_copy(11e-6, 50e-6);
        // Bandwidth terms stack; ramps do not.
        close(s.dma_clock, 150e-6);
        close(a.first_chunk, 11e-6);
        close(a.done, 100e-6);
        // The second copy starts where the first ended.
        close(b.first_chunk, 100e-6 + 11e-6);
        close(b.done, 150e-6);
    }

    #[test]
    fn gated_kernel_waits_for_the_first_chunk() {
        let mut s = StreamEngine::new();
        let ev = s.enqueue_copy(11e-6, 100e-6);
        let span = s.launch(5e-6, Some(ev.first_chunk), Some(ev.done));
        // Starts at the first chunk, but cannot retire before the copy
        // drains: the kernel hides entirely under the transfer.
        assert_eq!(span.start, 11e-6);
        assert_eq!(span.end, 100e-6);
        assert_eq!(s.makespan(), 100e-6);
    }

    #[test]
    fn compute_bound_kernel_hides_the_transfer_tail() {
        let mut s = StreamEngine::new();
        let ev = s.enqueue_copy(11e-6, 20e-6);
        let span = s.launch(100e-6, Some(ev.first_chunk), Some(ev.done));
        // Kernel dominates: total = ramp + kernel.
        assert_eq!(span.start, 11e-6);
        assert_eq!(span.end, 111e-6);
        assert_eq!(s.makespan(), 111e-6);
    }

    #[test]
    fn ungated_kernels_run_back_to_back() {
        let mut s = StreamEngine::new();
        let a = s.launch(10e-6, None, None);
        let b = s.launch(5e-6, None, None);
        assert_eq!(a.start, 0.0);
        close(a.end, 10e-6);
        close(b.start, 10e-6);
        close(b.end, 15e-6);
        close(s.makespan(), 15e-6);
    }

    #[test]
    fn prefetch_overlaps_the_running_kernel() {
        // Shard pipeline shape: kernel k runs while shard k+1's copy
        // drains on the other stream; the next kernel gates on the copy.
        let mut s = StreamEngine::new();
        let ev0 = s.enqueue_copy(11e-6, 30e-6);
        let k0 = s.launch(40e-6, Some(ev0.first_chunk), Some(ev0.done));
        let ev1 = s.enqueue_copy(11e-6, 30e-6); // starts at 30us on DMA
        close(ev1.done, 60e-6);
        let k1 = s.launch(40e-6, Some(ev1.first_chunk), Some(ev1.done));
        // k0: gated at 11us, runs 40us -> 51us. k1 gates on ev1 first
        // chunk (41us) but the compute stream is busy until 51us.
        close(k0.end, 51e-6);
        close(k1.start, 51e-6);
        close(k1.end, 91e-6);
        // Serial charging would pay (11+30+40)*2 = 162us; overlap hides
        // the second copy entirely.
        assert!(s.makespan() < 100e-6);
    }

    #[test]
    fn events_merge_to_the_latest() {
        let mut a = CopyEvents {
            first_chunk: 1.0,
            done: 3.0,
        };
        a.merge(CopyEvents {
            first_chunk: 2.0,
            done: 2.5,
        });
        assert_eq!(a.first_chunk, 2.0);
        assert_eq!(a.done, 3.0);
    }

    #[test]
    fn span_secs_is_the_occupancy() {
        let mut s = StreamEngine::new();
        let ev = s.enqueue_copy(5e-6, 50e-6);
        let span = s.launch(10e-6, Some(ev.first_chunk), Some(ev.done));
        assert!((span.end - span.start - 45e-6).abs() < 1e-18);
    }
}

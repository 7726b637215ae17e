//! PCIe transfer and coprocessor execution models (Section 3.1).
//!
//! In the coprocessor model, data lives in host memory and is shipped to the
//! GPU per query. The paper's bound: with perfect overlap of transfer and
//! execution, query time is `max(transfer, exec)`, and since PCIe bandwidth
//! is below the CPU's own memory bandwidth, the coprocessor can never beat a
//! bandwidth-saturating CPU implementation. The `pipelined` estimate sits
//! between the two ideals: a chunked upload lets the consumer kernel start
//! after the first chunk lands (the ramp), then race the remaining transfer
//! — what the simulated copy engine actually realizes.

use crystal_hardware::PcieSpec;

/// Outcome of a coprocessor-model query execution: what its uploads and
/// its kernels cost, and the three ways of adding the two up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoprocessorTime {
    /// Seconds until the first chunk of the first upload had landed
    /// ([`PcieSpec::chunk_ramp_secs`]): the part of `transfer` no kernel
    /// can overlap. Zero when nothing shipped.
    pub ramp: f64,
    /// Seconds spent shipping input columns host->device, every batch of
    /// uploads at its full latency-inclusive cost.
    pub transfer: f64,
    /// Seconds of device execution.
    pub exec: f64,
    /// Total with perfect transfer/execution overlap (the paper's lower
    /// bound: `max(transfer, exec)`).
    pub overlapped: f64,
    /// Total with chunked-upload pipelining, `ramp + max(transfer - ramp,
    /// exec)`: the consumer kernel starts once the first chunk has landed
    /// and then races the rest of the transfer. What a served query's
    /// device clock is charged. Always between `overlapped` and `serial`.
    pub pipelined: f64,
    /// Total with no overlap (`transfer + exec`) — an upper bound.
    pub serial: f64,
}

impl CoprocessorTime {
    /// Re-evaluates the three totals for `exec` kernel seconds against the
    /// transfer booked so far — the one place the overlapped makespan is
    /// written — and returns the seconds `pipelined` grew by: what a
    /// scheduler charging incrementally still owes.
    pub fn settle(&mut self, exec: f64) -> f64 {
        let charged = self.pipelined;
        self.exec = exec;
        self.overlapped = self.transfer.max(exec);
        self.pipelined = self.ramp + (self.transfer - self.ramp).max(exec);
        self.serial = self.transfer + exec;
        self.pipelined - charged
    }
}

/// Models running a query in the coprocessor model: `bytes` of input must
/// cross PCIe in one batch, and the GPU itself needs `exec_secs`. A
/// zero-byte transfer (a fully device-resident working set) issues no DMA
/// at all, so it pays no setup latency either.
pub fn coprocessor_time(pcie: &PcieSpec, bytes: usize, exec_secs: f64) -> CoprocessorTime {
    let mut time = CoprocessorTime {
        ramp: pcie.chunk_ramp_secs(bytes),
        transfer: match bytes {
            0 => 0.0,
            _ => pcie.transfer_secs(bytes),
        },
        ..CoprocessorTime::default()
    };
    time.settle(exec_secs);
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::{pcie_gen3, UPLOAD_CHUNK_BYTES};

    #[test]
    fn transfer_bound_when_pcie_is_bottleneck() {
        // 1 GB over 12.8 GBps ~ 78 ms; exec of 5 ms is fully hidden:
        // pipelining never beats the link, it only hides compute behind it.
        let t = coprocessor_time(&pcie_gen3(), 1 << 30, 0.005);
        assert!((t.overlapped - t.transfer).abs() < 1e-12);
        assert!((t.pipelined - t.transfer).abs() < 1e-12);
        assert!(t.overlapped > 0.07);
        assert!(t.serial > t.overlapped);
    }

    #[test]
    fn exec_bound_when_kernel_dominates() {
        let t = coprocessor_time(&pcie_gen3(), 1 << 20, 0.5);
        assert!((t.overlapped - 0.5).abs() < 1e-12);
        assert_eq!(t.pipelined, t.ramp + 0.5, "only the ramp serializes");
    }

    /// An upload of at most one chunk cannot be overlapped at all: the
    /// kernel waits for everything, exactly the serial sum.
    #[test]
    fn sub_chunk_uploads_are_exactly_serial() {
        for bytes in [64usize, UPLOAD_CHUNK_BYTES] {
            for exec in [0.0, 5e-6, 1.0] {
                let t = coprocessor_time(&pcie_gen3(), bytes, exec);
                assert_eq!(
                    t.pipelined.to_bits(),
                    t.serial.to_bits(),
                    "{bytes} B, {exec} s"
                );
            }
        }
    }

    #[test]
    fn pipelined_is_monotone_between_the_ideal_and_serial_bounds() {
        for bytes in [0usize, 288_000, 1 << 20, 1 << 30] {
            let mut last = 0.0;
            for i in 0..20 {
                let t = coprocessor_time(&pcie_gen3(), bytes, i as f64 * 2e-6);
                assert!(t.pipelined >= last, "monotone in kernel seconds");
                assert!(t.overlapped <= t.pipelined + 1e-15, "{t:?}");
                assert!(t.pipelined <= t.serial + 1e-15, "{t:?}");
                last = t.pipelined;
            }
        }
        // Zero bytes: all of them collapse onto the kernel time.
        let t = coprocessor_time(&pcie_gen3(), 0, 0.1);
        assert_eq!((t.ramp, t.pipelined, t.serial), (0.0, 0.1, 0.1));
    }

    /// Charging incrementally owes exactly what re-evaluating adds.
    #[test]
    fn settling_again_returns_the_growth() {
        let mut t = coprocessor_time(&pcie_gen3(), 1 << 20, 10e-6);
        let before = t.pipelined;
        assert_eq!(t.settle(10e-6), 0.0);
        let owed = t.settle(1.0);
        assert_eq!(owed, t.pipelined - before);
        assert!(owed > 0.9);
    }
}

//! PCIe link description (the CPU<->GPU interconnect).

/// Chunk size of a pipelined host-to-device upload: the copy engine ships
/// a column as fixed-size chunks so the consumer kernel can start once the
/// first chunk lands instead of waiting for the whole transfer. 16 KiB
/// keeps the ramp (latency + one chunk) latency-dominated on every
/// modeled link while still amortizing the per-chunk engine overheads
/// real DMA rings see.
pub const UPLOAD_CHUNK_BYTES: usize = 16 * 1024;

/// The host-device interconnect. The paper measures 12.8 GBps bidirectional
/// on PCIe 3.0 x16 and shows (Section 3.1) that since this is below the CPU's
/// own memory bandwidth, the coprocessor execution model cannot beat a good
/// CPU-only implementation.
#[derive(Debug, Clone)]
pub struct PcieSpec {
    /// Sustained transfer bandwidth, bytes/sec.
    pub bandwidth: f64,
    /// Per-transfer setup latency, microseconds.
    pub latency_us: f64,
}

impl PcieSpec {
    /// Time to ship `bytes` across the link, seconds.
    pub fn transfer_secs(&self, bytes: usize) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / self.bandwidth
    }

    /// Ramp-up of a chunked upload: seconds until the *first* chunk of a
    /// `bytes`-sized transfer has landed and a consumer kernel may start
    /// (the engine latency plus one [`UPLOAD_CHUNK_BYTES`] chunk —
    /// or the whole payload when it is smaller than a chunk). Zero for a
    /// zero-byte transfer: nothing gates on data that never ships.
    pub fn chunk_ramp_secs(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_us * 1e-6 + bytes.min(UPLOAD_CHUNK_BYTES) as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use crate::pcie_gen3;

    #[test]
    fn transfer_time_is_bandwidth_bound_for_large_payloads() {
        let p = pcie_gen3();
        // 1.92 GB (four SF-20 SSB columns) ~ 150ms, matching Figure 3's
        // coprocessor floor.
        let t = p.transfer_secs(4 * 480_000_000);
        assert!((0.14..0.16).contains(&t), "t = {t}");
    }

    #[test]
    fn latency_dominates_tiny_transfers() {
        let p = pcie_gen3();
        let t = p.transfer_secs(64);
        assert!(t >= 10.0e-6);
    }

    #[test]
    fn the_ramp_is_one_chunk_and_nothing_for_nothing() {
        let p = pcie_gen3();
        let chunk = super::UPLOAD_CHUNK_BYTES;
        assert_eq!(p.chunk_ramp_secs(0), 0.0);
        assert_eq!(p.chunk_ramp_secs(64), p.transfer_secs(64));
        assert_eq!(p.chunk_ramp_secs(12 * chunk), p.transfer_secs(chunk));
    }
}

//! Full-query models: the Section 5.3 case study (SSB q2.1) and the
//! Section 3.1 coprocessor bounds.

use crystal_hardware::{CpuSpec, GpuSpec, PcieSpec, UPLOAD_CHUNK_BYTES};

use crate::ENTRY_BYTES;

/// Workload parameters of SSB q2.1 (scale factor 20 defaults via
/// [`Q21Params::sf20`]).
#[derive(Debug, Clone, Copy)]
pub struct Q21Params {
    /// |L|: fact-table rows.
    pub lineorder: usize,
    /// |S|: supplier rows.
    pub supplier: usize,
    /// |P|: part rows.
    pub part: usize,
    /// |D|: date rows.
    pub date: usize,
    /// Selectivity of the supplier join (s_region = 'AMERICA'): 1/5.
    pub sigma1: f64,
    /// Selectivity of the part join (p_category = 'MFGR#12'): 1/25.
    pub sigma2: f64,
}

impl Q21Params {
    /// The paper's SF-20 cardinalities: 120M / 40K / 1M / 2.5K.
    pub fn sf20() -> Self {
        Q21Params {
            lineorder: 120_000_000,
            supplier: 40_000,
            part: 1_000_000,
            date: 2_556,
            sigma1: 1.0 / 5.0,
            sigma2: 1.0 / 25.0,
        }
    }

    /// Scaled cardinalities for other scale factors.
    pub fn for_sf(sf: usize) -> Self {
        Q21Params {
            lineorder: 6_000_000 * sf,
            supplier: 2_000 * sf,
            part: 200_000 * (1 + (sf as f64).log2().floor() as usize),
            date: 2_556,
            sigma1: 1.0 / 5.0,
            sigma2: 1.0 / 25.0,
        }
    }

    /// Bytes of the perfect-hash part table: `2 x 4 x |P|` ("the size of
    /// the part hash table (with perfect hashing) is 2x4x1M = 8MB").
    pub fn part_ht_bytes(&self) -> usize {
        8 * self.part
    }

    /// Bytes of the supplier + date hash tables (both perfect-hash).
    pub fn small_ht_bytes(&self) -> usize {
        8 * self.supplier + 8 * self.date
    }
}

/// Component breakdown of the q2.1 probe-phase model.
#[derive(Debug, Clone, Copy)]
pub struct Q21Breakdown {
    /// r1: fact-column access time.
    pub fact_columns: f64,
    /// r2: hash-table probe time.
    pub probes: f64,
    /// r3: result read/write time.
    pub result: f64,
}

impl Q21Breakdown {
    /// Sum of the three components — the modeled query time.
    pub fn total(&self) -> f64 {
        self.fact_columns + self.probes + self.result
    }
}

/// The paper's three-component GPU model for q2.1.
///
/// r1 sums, per fact column, `min(4|L|/C, |L| * cumulative-selectivity)`
/// cache lines (the first column is always fully scanned; later columns are
/// loaded selectively with `BlockLoadSel`). r2 charges full scans of the
/// two L2-resident small tables plus `(1 - pi)` misses on the part table,
/// where `pi` is the fraction of the part table resident in the L2 left
/// over by the small tables. r3 reads and writes the aggregate table once
/// per surviving tuple.
pub fn q21_gpu_model(p: &Q21Params, gpu: &GpuSpec) -> Q21Breakdown {
    let c = gpu.cache_line as f64;
    let l = p.lineorder as f64;
    let full_lines = ENTRY_BYTES * l / c;
    let s1 = p.sigma1;
    let s12 = p.sigma1 * p.sigma2;

    let r1_lines =
        full_lines + full_lines.min(l * s1) + full_lines.min(l * s12) + full_lines.min(l * s12);
    let r1 = r1_lines * c / gpu.read_bw;

    // Probability that a part-table lookup hits L2: the supplier and date
    // tables occupy their footprint; the remainder holds part lines.
    let avail = (gpu.l2_size - p.small_ht_bytes()) as f64;
    let pi = (avail / p.part_ht_bytes() as f64).min(1.0);
    let r2_lines = 2.0 * p.supplier as f64 + 2.0 * p.date as f64 + (1.0 - pi) * (l * s1);
    let r2 = r2_lines * c / gpu.read_bw;

    let r3 = l * s12 * c / gpu.read_bw + l * s12 * c / gpu.write_bw;
    Q21Breakdown {
        fact_columns: r1,
        probes: r2,
        result: r3,
    }
}

/// The CPU variant: all three hash tables fit in the 20MB L3, so every
/// fact row's probes resolve there. The dominant traffic is one 64-byte L3
/// line per supplier probe (every row) plus part/date probes for surviving
/// rows; since probe traffic uses the L3 while the column scans use DRAM,
/// the two overlap and the query time is the max of the streams
/// (`q21_cpu_model_secs`). This lands at the paper's 47 ms.
pub fn q21_cpu_model(p: &Q21Params, cpu: &CpuSpec) -> Q21Breakdown {
    let c = cpu.cache_line as f64;
    let l = p.lineorder as f64;
    let full_lines = ENTRY_BYTES * l / c;
    let s1 = p.sigma1;
    let s12 = p.sigma1 * p.sigma2;

    let r1_lines =
        full_lines + full_lines.min(l * s1) + full_lines.min(l * s12) + full_lines.min(l * s12);
    let r1 = r1_lines * c / cpu.read_bw;

    // One L3 line per probe: every row probes supplier; survivors probe
    // part and then date.
    let probe_count = l + l * s1 + l * s12;
    let r2 = probe_count * c / cpu.l3_bw;

    let r3 = l * s12 * c / cpu.read_bw + l * s12 * c / cpu.write_bw;
    Q21Breakdown {
        fact_columns: r1,
        probes: r2,
        result: r3,
    }
}

/// Ideal CPU query time: DRAM streaming (r1 + r3) overlaps with L3 probe
/// traffic (r2); the slower stream bounds the query.
pub fn q21_cpu_model_secs(p: &Q21Params, cpu: &CpuSpec) -> f64 {
    let m = q21_cpu_model(p, cpu);
    (m.fact_columns + m.result).max(m.probes)
}

/// Stall multiplier for dependent L3 probe chains on the CPU: the paper's
/// measured q2.1 runtime (125 ms) is ~2.5x its ideal model (47 ms) because
/// "prefetchers do not work well with irregular access patterns like join
/// probes" (Section 5.3).
pub const CPU_DEPENDENT_PROBE_STALL: f64 = 2.5;

/// Empirical CPU estimate: probe stream slowed by the dependent-access
/// stall factor.
pub fn q21_cpu_empirical_secs(p: &Q21Params, cpu: &CpuSpec) -> f64 {
    let m = q21_cpu_model(p, cpu);
    (m.fact_columns + m.result).max(m.probes * CPU_DEPENDENT_PROBE_STALL)
}

/// Cycles one scalar fused-unpack step costs per packed value on the CPU:
/// shift, mask, the occasional cross-word fix-up, and the comparison it
/// feeds. Bit-granular unpacking does not auto-vectorize (values straddle
/// word boundaries), so the host pays this on a scalar pipe per core —
/// calibrated against the host-measured packed-select throughput of
/// `reproduce ablation-compression`, where packed scans gain far less
/// than the bandwidth ratio suggests.
///
/// It models the paper's i7-6900 and is deliberately not the host
/// engine's measured cost: on a 2.1 GHz Xeon the value-at-a-time unpack
/// measures 4-5 cycles inside a scan, but
/// `crystal_storage::bitpack::unpack_batch`'s scalar window loop 1.4-1.5,
/// its AVX2 engine 0.21-0.23 and its AVX-512 engine 0.10-0.37 by width
/// (DESIGN.md §7, §9). Re-deriving the constant from
/// those moves placement and every modelled packed bound with it.
pub const CPU_SCALAR_UNPACK_CYCLES: f64 = 5.0;

/// Seconds the host CPU spends unpacking `values` packed values with all
/// cores' scalar pipes (the compute half of the compressed scan bound).
pub fn cpu_unpack_secs(values: usize, cpu: &CpuSpec) -> f64 {
    values as f64 * CPU_SCALAR_UNPACK_CYCLES / (cpu.cores as f64 * cpu.clock_ghz * 1e9)
}

/// Compressed scan bound of a bandwidth-bound device: the packed bytes
/// streamed at `bw`. On the GPU the register unpack hides under this
/// (compute-to-bandwidth ratio far above the ~2 ops/value the unpack
/// costs); on the CPU compare against [`cpu_unpack_secs`].
pub fn compressed_scan_secs(packed_bytes: usize, bw: f64) -> f64 {
    packed_bytes as f64 / bw
}

/// The Section-6 compression-aware coprocessor bounds. A query ships
/// `packed_bytes` (the referenced fact columns *after* encoding) over
/// PCIe, so the coprocessor lower bound drops by the compression ratio:
/// `RG >= packed_bytes / Bp`. The host streams the same packed bytes from
/// DRAM but must also unpack `packed_values` values on scalar pipes, so
/// its bound is the max of the two streams:
/// `RC >= max(packed_bytes / Bc, cpu_unpack_secs)`. Once the ratio
/// exceeds [`placement_flip_ratio`], the shrunken transfer undercuts the
/// host's unpack-limited scan and GPU placement wins — the flip the
/// follow-up literature observes (transfer volume is the deciding term).
/// With `packed_values = 0` (unpack term `0.0`) these are Section 3.1's
/// plain bounds bit for bit. Returns `(gpu_coprocessor_secs, cpu_secs)`.
pub fn compressed_coprocessor_bounds(
    packed_bytes: usize,
    packed_values: usize,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
) -> (f64, f64) {
    (
        compressed_scan_secs(packed_bytes, pcie.bandwidth),
        compressed_scan_secs(packed_bytes, cpu.read_bw).max(cpu_unpack_secs(packed_values, cpu)),
    )
}

/// Multiplicative corrections to the three cost components of the
/// placement bound — PCIe transfer, device kernel, host scan. The
/// identity (all `1.0`, the [`Default`]) *is* the static spec-sheet
/// model: `1.0 * x` is exact in IEEE arithmetic, so an uncalibrated
/// evaluation and a cold [`crate::calibration::CalibrationStore`] produce
/// the same bits by construction rather than by a parallel formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFactors {
    /// Scales every link-time term (the first-chunk ramp included).
    pub transfer: f64,
    /// Scales the device-memory scan term.
    pub kernel: f64,
    /// Scales the host bound.
    pub host: f64,
}

impl Default for CostFactors {
    fn default() -> Self {
        CostFactors {
            transfer: 1.0,
            kernel: 1.0,
            host: 1.0,
        }
    }
}

/// Cost inputs of one placement evaluation — a whole fact table or one
/// shard of it: the referenced bytes under the current encodings, how many
/// are already device-resident, the packed values (host unpack work), and
/// the two optional terms that default to the identity.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanCost {
    /// Bytes of the referenced columns under the current encodings.
    pub packed_bytes: usize,
    /// How many of those bytes are already device-resident.
    pub resident_bytes: usize,
    /// Packed values the host side would unpack (plain values count too).
    pub packed_values: usize,
    /// Fixed device-side seconds added on top of the bandwidth terms: the
    /// query's kernel-launch overhead ([`launch_overhead_secs`]), already
    /// scaled to a sampled proxy table where one is used. A *per-shard*
    /// evaluation leaves it `0.0` — the launch is paid per query, not per
    /// shard, and charging it to every shard would bias small shards
    /// toward the host.
    pub launch_secs: f64,
    /// Measured corrections; the identity for the static model.
    pub factors: CostFactors,
}

/// The residency-aware coprocessor bounds — the one placement formula.
/// The Section 3.1 transfer term drops to the *uncached* fraction of the
/// working set, and the copy engine pipelines what remains of it under
/// the kernel.
///
/// A query whose referenced fact columns occupy `packed_bytes` ships only
/// `packed_bytes - resident_bytes` over PCIe (the rest is already
/// device-resident in a warm buffer cache). The upload is chunked
/// ([`UPLOAD_CHUNK_BYTES`]), so the kernel starts once the first chunk
/// lands and races the remaining transfer — the device bound is the
/// pipelined makespan
///
/// ```text
/// device = tf * ramp + max(tf * (uncached / Bp - ramp), kf * packed / Bg) + launch
/// host   = hf * max(packed / Bc, unpack)
/// ```
///
/// where `ramp` is the first chunk's transfer time (these bounds carry no
/// per-transfer latency — they are pure bandwidth terms, as in Section
/// 3.1) and `tf`/`kf`/`hf` are the [`CostFactors`] (the ramp is link
/// time, so it scales with the transfer factor). The host's data is
/// always "resident" in DRAM, so residency never moves its bound. With
/// zero residency the transfer term dominates and this is the
/// transfer-bound coprocessor regime of [`compressed_coprocessor_bounds`]
/// up to one chunk of ramp; with full residency `ramp = 0` and it
/// degenerates exactly to the data-resident bound `packed_bytes / Bg`,
/// where the GPU's bandwidth advantage finally shows. Returns
/// `(gpu_coprocessor_secs, cpu_secs)`.
pub fn resident_coprocessor_bounds(
    c: &ScanCost,
    cpu: &CpuSpec,
    gpu: &GpuSpec,
    pcie: &PcieSpec,
) -> (f64, f64) {
    let f = &c.factors;
    let uncached = c.packed_bytes.saturating_sub(c.resident_bytes);
    let (_, host) = compressed_coprocessor_bounds(c.packed_bytes, c.packed_values, cpu, pcie);
    let ramp = compressed_scan_secs(uncached.min(UPLOAD_CHUNK_BYTES), pcie.bandwidth);
    let rest = compressed_scan_secs(uncached, pcie.bandwidth) - ramp;
    let device = f.transfer * ramp
        + (f.transfer * rest).max(f.kernel * compressed_scan_secs(c.packed_bytes, gpu.read_bw));
    (device + c.launch_secs, f.host * host)
}

/// Kernel launches one star query costs on each GPU path. The fused
/// megakernel is a *single* launch: select, every join probe and the
/// aggregate ride one tile-at-a-time kernel. The per-operator alternative
/// pays roughly one launch per pipeline stage — a predicate pass, one per
/// join, and the aggregate pass — i.e. `~2 + joins`.
pub fn star_query_launches(joins: usize, fused: bool) -> u64 {
    if fused {
        1
    } else {
        2 + joins as u64
    }
}

/// Fixed launch overhead of `launches` kernel dispatches:
/// `launches * kernel_launch_us` — the [`ScanCost::launch_secs`] of a
/// whole-query evaluation. Fusion saves launches and HBM round trips,
/// never PCIe bytes, so the fused and unfused bounds differ by exactly
/// `(1 + joins) * kernel_launch_us`.
///
/// When the bound is evaluated on a *sampled proxy* fact table (the
/// `SsbData::generate_scaled` convention) every bandwidth term implicitly
/// carries a `fact_scale` factor, so callers shrink this fixed term by
/// the same factor or it would dominate any small proxy and corrupt the
/// full-scale comparison the bound stands for — the mirror image of
/// `sim_secs_scaled`, which multiplies fact-linear terms back up.
pub fn launch_overhead_secs(gpu: &GpuSpec, launches: u64) -> f64 {
    launches as f64 * gpu.kernel_launch_us * 1e-6
}

/// A per-shard placement split: which shards of one query run on the
/// device and which on the host, with the modeled seconds of each side.
#[derive(Debug, Clone, Default)]
pub struct HybridSplit {
    /// Indices (into the input slice) of device-routed shards.
    pub device_shards: Vec<usize>,
    /// Indices of host-routed shards.
    pub host_shards: Vec<usize>,
    /// Summed device bound of the device-routed shards.
    pub device_secs: f64,
    /// Summed host bound of the host-routed shards.
    pub host_secs: f64,
    /// Total device bound had *every* shard run on the device — the
    /// whole-query coprocessor alternative a scheduler compares against.
    pub device_only_secs: f64,
    /// Total host bound had every shard run on the host.
    pub host_only_secs: f64,
}

impl HybridSplit {
    /// Modeled time of the hybrid execution: the two sides run
    /// concurrently, so the slower one bounds the query.
    pub fn hybrid_secs(&self) -> f64 {
        self.device_secs.max(self.host_secs)
    }
}

/// The per-shard residency-aware placement: each shard is routed to
/// whichever side [`resident_coprocessor_bounds`] prices cheaper *for
/// that shard's own residency* (and, when calibrated, its own factors). A
/// query over a partially resident working set thus runs hot
/// (device-cached) shards on the device and cold shards on the host
/// concurrently — measured residency pressure, not a whole-table
/// constant, drives the split. With one shard this degenerates to the
/// whole-table decision.
pub fn hybrid_shard_split(
    shards: &[ScanCost],
    cpu: &CpuSpec,
    gpu: &GpuSpec,
    pcie: &PcieSpec,
) -> HybridSplit {
    let mut split = HybridSplit::default();
    for (i, s) in shards.iter().enumerate() {
        let (device, host) = resident_coprocessor_bounds(s, cpu, gpu, pcie);
        split.device_only_secs += device;
        split.host_only_secs += host;
        if device < host {
            split.device_shards.push(i);
            split.device_secs += device;
        } else {
            split.host_shards.push(i);
            split.host_secs += host;
        }
    }
    split
}

/// The compression ratio above which a fully packed scan routes to the
/// coprocessor: solve `4/(r*Bp) = CPU_SCALAR_UNPACK_CYCLES/(cores*clock)`
/// for `r`. Below it PCIe still loses; above it the packed transfer beats
/// the host's scalar unpack throughput. ~1.6 for the Table-2 pairing.
pub fn placement_flip_ratio(cpu: &CpuSpec, pcie: &PcieSpec) -> f64 {
    ENTRY_BYTES * cpu.cores as f64 * cpu.clock_ghz * 1e9
        / (pcie.bandwidth * CPU_SCALAR_UNPACK_CYCLES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};

    /// Section 5.3: "plugging in the values we get the expected runtimes on
    /// the CPU and GPU as 47 ms and 3.7 ms."
    #[test]
    fn q21_model_matches_paper_endpoints() {
        let p = Q21Params::sf20();
        let gpu = q21_gpu_model(&p, &nvidia_v100());
        let g_ms = gpu.total() * 1e3;
        let c_ms = q21_cpu_model_secs(&p, &intel_i7_6900()) * 1e3;
        assert!(
            (2.2..4.6).contains(&g_ms),
            "gpu model {g_ms} ms vs paper 3.7"
        );
        // The paper's 47 ms counts only the dominant supplier probes; we
        // charge part/date probes too, landing ~25% above (see
        // EXPERIMENTS.md).
        assert!(
            (40.0..62.0).contains(&c_ms),
            "cpu model {c_ms} ms vs paper 47"
        );
    }

    /// The launch term: launch count drops from `~2 + joins` to 1 under
    /// fusion, the device bound moves by exactly the launch seconds it is
    /// given, and the host/transfer terms are untouched.
    #[test]
    fn launch_term_adds_to_the_device_side_only() {
        let cpu = intel_i7_6900();
        let gpu = nvidia_v100();
        let pcie = pcie_gen3();
        let bytes = 16 * 120_000_000usize;
        let joins = 3;

        assert_eq!(star_query_launches(joins, true), 1);
        assert_eq!(star_query_launches(joins, false), 5);
        assert_eq!(star_query_launches(0, false), 2);

        let warm = ScanCost {
            packed_bytes: bytes,
            resident_bytes: bytes,
            ..ScanCost::default()
        };
        let launched = |fused: bool, fact_scale: f64| {
            let launches = star_query_launches(joins, fused);
            let cost = ScanCost {
                launch_secs: fact_scale * launch_overhead_secs(&gpu, launches),
                ..warm
            };
            resident_coprocessor_bounds(&cost, &cpu, &gpu, &pcie)
        };
        let (base_dev, base_host) = resident_coprocessor_bounds(&warm, &cpu, &gpu, &pcie);
        let (fused_dev, fused_host) = launched(true, 1.0);
        let (unfused_dev, unfused_host) = launched(false, 1.0);

        // Host bound (and therefore the transfer term) is unchanged.
        assert_eq!(fused_host, base_host);
        assert_eq!(unfused_host, base_host);
        // Device side: one launch fused, 2 + joins unfused, exactly.
        let us = gpu.kernel_launch_us * 1e-6;
        assert!((fused_dev - (base_dev + us)).abs() < 1e-15);
        assert!((unfused_dev - (base_dev + 5.0 * us)).abs() < 1e-15);
        assert!(fused_dev < unfused_dev);

        // On a sampled proxy the fixed term scales with the proxy, keeping
        // the device-vs-host comparison identical to full scale.
        let (proxy_dev, _) = launched(true, 0.002);
        assert!((proxy_dev - (base_dev + 0.002 * us)).abs() < 1e-15);
    }

    /// The measured CPU runtime was 125 ms; the empirical estimate must
    /// land well above the ideal model.
    #[test]
    fn q21_cpu_empirical_reflects_stalls() {
        let p = Q21Params::sf20();
        let cpu = intel_i7_6900();
        let ideal = q21_cpu_model_secs(&p, &cpu);
        let emp = q21_cpu_empirical_secs(&p, &cpu);
        assert!(emp > 1.8 * ideal, "empirical {emp} vs ideal {ideal}");
        let ms = emp * 1e3;
        assert!(
            (100.0..150.0).contains(&ms),
            "empirical {ms} ms vs paper 125"
        );
    }

    /// The paper's pi for the part table: 5.7/8.
    #[test]
    fn part_table_l2_residency() {
        let p = Q21Params::sf20();
        let g = nvidia_v100();
        let avail = (g.l2_size - p.small_ht_bytes()) as f64 / 1e6;
        assert!((avail - 5.95).abs() < 0.4, "available L2 {avail} MB ~ 5.7");
        assert_eq!(p.part_ht_bytes(), 8_000_000);
    }

    /// Section 3.1: since PCIe bandwidth < CPU memory bandwidth, the
    /// coprocessor bound always exceeds the CPU bound.
    #[test]
    fn coprocessor_never_beats_cpu() {
        let (cpu_spec, pcie) = (intel_i7_6900(), pcie_gen3());
        let (gpu, cpu) = compressed_coprocessor_bounds(16 * 120_000_000, 0, &cpu_spec, &pcie);
        assert!(gpu > cpu);
        // SF-20 q1.1 ships 4 columns x 480MB: ~150 ms over PCIe.
        assert!((gpu * 1e3 - 150.0).abs() < 10.0, "{} ms", gpu * 1e3);
    }

    /// The compression-aware bounds: plain data routes host (Section 3.1),
    /// but past the flip ratio the packed transfer undercuts the host's
    /// scalar-unpack scan and the coprocessor wins.
    #[test]
    fn compression_flips_the_coprocessor_bound() {
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let rows = 120_000_000usize;
        let cols = 4usize;
        let plain_bytes = 4 * cols * rows;

        // Plain (ratio 1, no unpack): exactly Section 3.1's two streaming
        // bounds, over every byte count these tests use; the host wins.
        for bytes in [
            plain_bytes,
            16 * 120_000_000,
            120_000_000,
            4 * 120_000_000 / 8,
            0,
        ] {
            let (g, c) = compressed_coprocessor_bounds(bytes, 0, &cpu, &pcie);
            assert_eq!(g.to_bits(), (bytes as f64 / pcie.bandwidth).to_bits());
            assert_eq!(c.to_bits(), (bytes as f64 / cpu.read_bw).to_bits());
        }
        let (g0, c0) = compressed_coprocessor_bounds(plain_bytes, 0, &cpu, &pcie);
        assert!(g0 > c0, "plain data must stay host-side");

        let flip = placement_flip_ratio(&cpu, &pcie);
        assert!((1.2..2.2).contains(&flip), "flip ratio {flip}");

        // Below the flip ratio the host still wins; above it the GPU does.
        for (ratio, gpu_wins) in [(1.2, false), (2.5, true), (4.0, true)] {
            let packed_bytes = (plain_bytes as f64 / ratio) as usize;
            let (g, c) = compressed_coprocessor_bounds(packed_bytes, cols * rows, &cpu, &pcie);
            assert_eq!(g < c, gpu_wins, "ratio {ratio}: gpu {g} vs host {c}");
        }
    }

    /// The host's compressed scan is compute-bound (scalar unpack), not
    /// bandwidth-bound — the CPU-side asymmetry that keeps compression
    /// from helping the host as much as it helps the transfer.
    #[test]
    fn host_compressed_scan_is_unpack_bound() {
        let cpu = intel_i7_6900();
        let rows = 120_000_000usize;
        let packed_bytes = rows; // 8-bit packing of one column
        let bw_bound = compressed_scan_secs(packed_bytes, cpu.read_bw);
        let unpack = cpu_unpack_secs(rows, &cpu);
        assert!(unpack > bw_bound, "unpack {unpack} <= stream {bw_bound}");
    }

    /// Residency shrinks only the transfer term: cold equals the
    /// compressed bounds, warm drops to the device-memory scan — which
    /// undercuts the host's DRAM scan by the bandwidth ratio, flipping
    /// the placement the paper derives for the coprocessor regime.
    #[test]
    fn residency_flips_the_coprocessor_bound() {
        let cpu = intel_i7_6900();
        let gpu = nvidia_v100();
        let pcie = pcie_gen3();
        let bytes = 16 * 120_000_000usize;
        let bounds = |resident_bytes: usize| {
            let cost = ScanCost {
                packed_bytes: bytes,
                resident_bytes,
                ..ScanCost::default()
            };
            resident_coprocessor_bounds(&cost, &cpu, &gpu, &pcie)
        };

        let (cold, host) = bounds(0);
        let (plain, host0) = compressed_coprocessor_bounds(bytes, 0, &cpu, &pcie);
        assert!((cold - plain).abs() < 1e-12 && (host - host0).abs() < 1e-12);
        assert!(cold > host, "cold working set stays host-side");

        let (warm, host) = bounds(bytes);
        assert!(warm < host, "device-resident data routes to the GPU");
        assert!((warm - bytes as f64 / gpu.read_bw).abs() < 1e-12);

        // Partial residency interpolates monotonically.
        let (half, _) = bounds(bytes / 2);
        assert!(warm < half && half < cold);
        // Over-reported residency saturates instead of going negative.
        let (over, _) = bounds(2 * bytes);
        assert!((over - warm).abs() < 1e-12);
    }

    /// Each factor scales its own component and nothing else; the
    /// identity leaves every bit of both bounds alone.
    #[test]
    fn factors_scale_their_own_component() {
        let (cpu, gpu, pcie) = (intel_i7_6900(), nvidia_v100(), pcie_gen3());
        let cold = ScanCost {
            packed_bytes: 120_000_000,
            packed_values: 60_000_000,
            ..ScanCost::default()
        };
        let with = |cost: ScanCost, factors: CostFactors| {
            resident_coprocessor_bounds(&ScanCost { factors, ..cost }, &cpu, &gpu, &pcie)
        };
        let one = CostFactors::default();
        let (dev, host) = with(cold, one);

        // Cold, the device side is all link time: it follows the transfer
        // factor and ignores the kernel factor.
        let (slow_link, same_host) = with(
            cold,
            CostFactors {
                transfer: 2.0,
                ..one
            },
        );
        assert!((slow_link - 2.0 * dev).abs() < 1e-12);
        assert_eq!(same_host.to_bits(), host.to_bits());
        let (same_dev, slow_host) = with(
            cold,
            CostFactors {
                kernel: 2.0,
                host: 3.0,
                ..one
            },
        );
        assert_eq!(same_dev.to_bits(), dev.to_bits());
        assert!((slow_host - 3.0 * host).abs() < 1e-12);

        // Warm, it is all device scan: the kernel factor moves it.
        let warm = ScanCost {
            resident_bytes: cold.packed_bytes,
            ..cold
        };
        let (warm_dev, _) = with(warm, one);
        let (slow_kernel, _) = with(
            warm,
            CostFactors {
                kernel: 2.0,
                transfer: 5.0,
                ..one
            },
        );
        assert!((slow_kernel - 2.0 * warm_dev).abs() < 1e-15);
    }

    /// Per-shard routing sends resident shards to the device and cold
    /// shards to the host — one query, both sides — and the hybrid time
    /// is the max of the two concurrent streams.
    #[test]
    fn hybrid_split_routes_by_per_shard_residency() {
        let cpu = intel_i7_6900();
        let gpu = nvidia_v100();
        let pcie = pcie_gen3();
        let bytes = 4 * 120_000_000usize / 8; // one of 8 shards
        let cold = ScanCost {
            packed_bytes: bytes,
            ..ScanCost::default()
        };
        let hot = ScanCost {
            resident_bytes: bytes,
            ..cold
        };
        let split = hybrid_shard_split(&[hot, cold, hot, cold], &cpu, &gpu, &pcie);
        assert_eq!(
            split.device_shards,
            vec![0, 2],
            "resident shards go to the device"
        );
        assert_eq!(
            split.host_shards,
            vec![1, 3],
            "cold shards stay on the host"
        );
        assert!(split.device_secs < split.host_secs);
        assert!((split.hybrid_secs() - split.host_secs).abs() < 1e-15);
        // Degenerate single-shard split agrees with the whole-table bound.
        let solo = hybrid_shard_split(&[cold], &cpu, &gpu, &pcie);
        assert!(solo.device_shards.is_empty() && solo.host_shards == vec![0]);
        let (_, host) = resident_coprocessor_bounds(&cold, &cpu, &gpu, &pcie);
        assert!((solo.host_secs - host).abs() < 1e-15);
    }

    #[test]
    fn sf_scaling_grows_lineorder() {
        let p1 = Q21Params::for_sf(1);
        let p20 = Q21Params::for_sf(20);
        assert_eq!(p1.lineorder, 6_000_000);
        assert_eq!(p20.lineorder, 120_000_000);
        assert_eq!(p20.supplier, 40_000);
    }
}

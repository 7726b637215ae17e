//! Online calibration of the analytic placement bounds (ROADMAP item 3).
//!
//! The Section-3.1/6 bounds in [`crate::ssb`] price every placement
//! decision from *spec-sheet* constants: PCIe bandwidth from Table 2,
//! `crate::ssb::CPU_SCALAR_UNPACK_CYCLES` from a one-off calibration,
//! HBM bandwidth from the vendor datasheet. Real machines deviate —
//! PCIe links train down, clocks boost over spec, kernels leave
//! bandwidth on the table — and a static model then misroutes every
//! query the same way, forever. This module closes the loop:
//!
//! 1. A [`CalibrationStore`] records, per executed query, the
//!    *observed* seconds of each cost component (transfer, device
//!    kernel, host scan) next to what the static model *predicted*,
//!    keyed by [`CalKey`] — operator kind × encoding class ×
//!    cardinality band × sharded-or-not.
//! 2. An online fitter keeps a robust running mean of the clamped
//!    log-ratio `ln(observed / predicted)` per key, so one outlier
//!    cannot wreck an estimate and the correction composes
//!    multiplicatively with the analytic formula.
//! 3. [`CalibrationStore::blend`] hands the one bounds formula
//!    (`crate::ssb::resident_coprocessor_bounds`) a
//!    [`CostFactors`] triple — each component's blended
//!    observed/predicted factor. The blend weight grows with sample
//!    count (`n / (n + PRIOR_STRENGTH)`), and keys below
//!    `WARMUP_SAMPLES` contribute a factor of exactly `1.0` — the
//!    identity the static model evaluates under — so a cold store *is*
//!    the static bound, and calibrated routing can only diverge from the
//!    prior once it has evidence.
//!
//! The analytic prior is deliberately never discarded: it extrapolates
//! to cardinality bands and encodings the stream has not touched yet,
//! and it anchors the blend so a handful of noisy observations cannot
//! swing a decision by more than their sample weight. The
//! `reproduce calibration` experiment gates both properties end to end.

use std::collections::BTreeMap;

use crystal_hardware::{CpuSpec, GpuSpec, PcieSpec};

use crate::ssb::{compressed_scan_secs, cpu_unpack_secs, CostFactors};

/// Observations below this count leave a key's factor at exactly `1.0`:
/// the analytic prior is trusted verbatim until the fitter has seen a
/// stable handful of samples. Below the threshold, blended bounds are
/// bitwise identical to the static ones.
pub(crate) const WARMUP_SAMPLES: u64 = 3;

/// Pseudo-count of the analytic prior in the blend weight
/// `n / (n + PRIOR_STRENGTH)`: the spec-sheet model counts as this many
/// virtual observations of ratio `1.0`, so early measurements shift the
/// estimate gradually rather than replacing the prior outright.
pub(crate) const PRIOR_STRENGTH: f64 = 4.0;

/// Per-observation clamp on `observed / predicted` (and its inverse):
/// a single wildly mispredicted query — an eviction storm, a cold page
/// fault — moves the running mean by at most `ln(MAX_OBS_RATIO)`.
pub(crate) const MAX_OBS_RATIO: f64 = 16.0;

/// Which cost component of the placement bound an observation (or a
/// blended term) refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Host→device PCIe shipment of the uncached working set.
    Transfer,
    /// The device-side scan/probe kernel (HBM-bandwidth term).
    DeviceKernel,
    /// The host-side scan, including the scalar unpack bound.
    HostScan,
}

/// Whether the referenced fact columns are bit-packed or plain — packed
/// and plain executions obey different constants (the host pays the
/// scalar unpack only on packed data), so they must never share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EncodingClass {
    /// All referenced columns plain 32-bit.
    Plain,
    /// At least one referenced column bit-packed.
    Packed,
}

/// The octave cardinality band of `rows`: the bit length of the row
/// count, so each band spans `[2^(b-1), 2^b)` and boundary counts are
/// testable (`2^k − 1` and `2^k` land in adjacent bands). Zero rows map
/// to band 0.
pub(crate) fn cardinality_band(rows: usize) -> u8 {
    (usize::BITS - rows.leading_zeros()) as u8
}

/// The key an observation is recorded (and a blended factor looked up)
/// under. Mirrors the PR-6 dataset-fingerprint lesson: every axis that
/// changes the constants — operator, encoding, cardinality band,
/// shard-granular vs whole-table execution — is part of the key, so no
/// two regimes can alias into one estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CalKey {
    /// Cost component this key calibrates.
    pub op: OpKind,
    /// Encoding class of the referenced fact columns.
    pub enc: EncodingClass,
    /// Octave band (`cardinality_band`) of the component's scaling
    /// quantity: scanned rows for [`OpKind::DeviceKernel`] and
    /// [`OpKind::HostScan`], **bytes moved** for [`OpKind::Transfer`].
    /// Transfer mispredictions (link training below spec, DMA setup
    /// latency) scale with the shipment size, not the row count —
    /// queries over one table can ship very different working sets, and
    /// banding transfers by rows would average their corrections into
    /// one smeared estimate.
    pub band: u8,
    /// Whether the execution was shard-granular (over a sharded
    /// `FactTable`) — shard scans see per-shard
    /// cardinalities and per-shard residency, so they never share
    /// estimates with whole-table runs of the same band.
    pub sharded: bool,
}

impl CalKey {
    /// Builds the key for one component of a (possibly sharded)
    /// execution. `magnitude` is the component's scaling quantity — the
    /// scanned row count for kernel/host keys, the bytes moved for
    /// transfer keys (see [`CalKey::band`]).
    pub fn new(op: OpKind, enc: EncodingClass, magnitude: usize, sharded: bool) -> Self {
        CalKey {
            op,
            enc,
            band: cardinality_band(magnitude),
            sharded,
        }
    }
}

/// Per-key state of the online fitter: a running mean of the clamped
/// log-ratio `ln(observed / predicted)` plus its sample count.
#[derive(Debug, Clone, Copy, Default)]
struct KeyCal {
    samples: u64,
    mean_log_ratio: f64,
}

/// Where a bound's numbers came from: still the untouched analytic
/// prior, or a posterior with at least one warm key mixed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsSource {
    /// Every consulted key was cold (or no store was consulted) — the
    /// numbers are the static model's, bit for bit.
    #[default]
    Static,
    /// At least one consulted key passed warm-up; measured history moved
    /// the bound.
    Blended,
}

/// What the store knows about one bound evaluation: the factors to
/// evaluate it under, whether measurement contributed to them, and how
/// many observations backed the consulted keys. The [`Default`] is the
/// uncalibrated evaluation — identity factors, `Static`, zero samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blend {
    /// The transfer / device-kernel / host-scan corrections.
    pub factors: CostFactors,
    /// Whether any measured history contributed.
    pub source: BoundsSource,
    /// Total observations across the consulted keys.
    pub samples: u64,
}

/// One executed query's measured component times, paired with the
/// quantities needed to re-derive what the static model predicted for
/// them. Producers: the server's completion path (simulated clocks and
/// `ExecStats` deltas) and the `reproduce calibration` replay loop.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Rows the query scanned (shard rows for sharded executions).
    pub rows: usize,
    /// Encoding class of the referenced fact columns.
    pub enc: EncodingClass,
    /// Whether the execution was shard-granular.
    pub sharded: bool,
    /// Referenced working-set bytes under the current encodings.
    pub packed_bytes: usize,
    /// Packed values a host run would unpack.
    pub packed_values: usize,
    /// Bytes actually shipped host→device (0 when warm or host-run).
    pub shipped_bytes: usize,
    /// Observed PCIe seconds for `shipped_bytes`; ignored when no bytes
    /// were shipped.
    pub transfer_secs: f64,
    /// Observed device kernel seconds (`None` for host-side runs).
    pub kernel_secs: Option<f64>,
    /// Observed host seconds (`None` for device-side runs).
    pub host_secs: Option<f64>,
}

/// The shared store of per-key fitted ratios. Cheap to clone, keyed by
/// [`CalKey`], deterministic (a `BTreeMap`, so iteration and therefore
/// any derived output is stable across runs).
#[derive(Debug, Clone, Default)]
pub struct CalibrationStore {
    keys: BTreeMap<CalKey, KeyCal>,
}

impl CalibrationStore {
    /// An empty (fully cold) store: every factor is `1.0`, every blended
    /// bound equals its static counterpart bit for bit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `observed` vs `predicted` seconds pair under `key`.
    /// Non-positive inputs are discarded (a zero prediction carries no
    /// ratio information), and the ratio is clamped into
    /// `[1/MAX_OBS_RATIO, MAX_OBS_RATIO]` before entering the running
    /// mean.
    pub(crate) fn observe(&mut self, key: CalKey, predicted: f64, observed: f64) {
        if !(predicted > 0.0 && observed > 0.0) {
            return;
        }
        let ratio = (observed / predicted).clamp(1.0 / MAX_OBS_RATIO, MAX_OBS_RATIO);
        let cal = self.keys.entry(key).or_default();
        cal.samples += 1;
        cal.mean_log_ratio += (ratio.ln() - cal.mean_log_ratio) / cal.samples as f64;
    }

    /// Observations recorded under `key` so far.
    pub(crate) fn samples(&self, key: CalKey) -> u64 {
        self.keys.get(&key).map_or(0, |c| c.samples)
    }

    /// The multiplicative correction for `key`: exactly `1.0` while the
    /// key is cold (absent or below `WARMUP_SAMPLES`), and
    /// `exp(w * mean_log_ratio)` with `w = n / (n + PRIOR_STRENGTH)`
    /// once warm. As `n` grows, `w → 1` and the factor converges
    /// monotonically to the observed ratio.
    pub fn factor(&self, key: CalKey) -> f64 {
        match self.keys.get(&key) {
            Some(cal) if cal.samples >= WARMUP_SAMPLES => {
                let n = cal.samples as f64;
                let w = n / (n + PRIOR_STRENGTH);
                (w * cal.mean_log_ratio).exp()
            }
            _ => 1.0,
        }
    }

    /// Whether `key` has passed warm-up and contributes a non-trivial
    /// factor.
    pub(crate) fn is_warm(&self, key: CalKey) -> bool {
        self.samples(key) >= WARMUP_SAMPLES
    }

    /// Records every component of one executed query against what the
    /// static model (on the `model_*` specs) predicted for it:
    ///
    /// * transfer — observed PCIe seconds vs `shipped_bytes / Bp`,
    ///   skipped when nothing was shipped (a warm cache carries no
    ///   bandwidth information);
    /// * device kernel — observed kernel seconds vs the HBM scan bound
    ///   `packed_bytes / Bg`;
    /// * host scan — observed host seconds vs the compressed host bound
    ///   `max(packed_bytes / Bc, unpack)`.
    pub fn record(
        &mut self,
        obs: &Observation,
        model_cpu: &CpuSpec,
        model_gpu: &GpuSpec,
        model_pcie: &PcieSpec,
    ) {
        if obs.shipped_bytes > 0 {
            self.observe(
                CalKey::new(OpKind::Transfer, obs.enc, obs.shipped_bytes, obs.sharded),
                compressed_scan_secs(obs.shipped_bytes, model_pcie.bandwidth),
                obs.transfer_secs,
            );
        }
        if let Some(kernel) = obs.kernel_secs {
            self.observe(
                CalKey::new(OpKind::DeviceKernel, obs.enc, obs.rows, obs.sharded),
                compressed_scan_secs(obs.packed_bytes, model_gpu.read_bw),
                kernel,
            );
        }
        if let Some(host) = obs.host_secs {
            let predicted = compressed_scan_secs(obs.packed_bytes, model_cpu.read_bw)
                .max(cpu_unpack_secs(obs.packed_values, model_cpu));
            self.observe(
                CalKey::new(OpKind::HostScan, obs.enc, obs.rows, obs.sharded),
                predicted,
                host,
            );
        }
    }

    /// The factors for one evaluation of the bound over `rows` rows of
    /// `enc`-class columns that would ship `uncached_bytes`, whole-table
    /// or shard-granular. Each factor is looked up under the key its
    /// observations are recorded under in [`CalibrationStore::record`] —
    /// the transfer factor under the bytes the evaluation would actually
    /// move, the kernel and host factors under the scanned rows.
    pub fn blend(
        &self,
        enc: EncodingClass,
        rows: usize,
        uncached_bytes: usize,
        sharded: bool,
    ) -> Blend {
        let keys = [
            CalKey::new(OpKind::Transfer, enc, uncached_bytes, sharded),
            CalKey::new(OpKind::DeviceKernel, enc, rows, sharded),
            CalKey::new(OpKind::HostScan, enc, rows, sharded),
        ];
        let [transfer, kernel, host] = keys.map(|k| self.factor(k));
        Blend {
            factors: CostFactors {
                transfer,
                kernel,
                host,
            },
            source: if keys.iter().any(|&k| self.is_warm(k)) {
                BoundsSource::Blended
            } else {
                BoundsSource::Static
            },
            samples: keys.iter().map(|&k| self.samples(k)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::{resident_coprocessor_bounds, ScanCost};
    use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};

    fn key() -> CalKey {
        CalKey::new(OpKind::Transfer, EncodingClass::Packed, 1 << 20, false)
    }

    /// Below the warm-up threshold the factor is *exactly* 1.0; at the
    /// threshold measurement kicks in.
    #[test]
    fn warmup_gates_trust() {
        let mut s = CalibrationStore::new();
        assert_eq!(s.factor(key()), 1.0);
        for _ in 0..WARMUP_SAMPLES - 1 {
            s.observe(key(), 1.0, 2.0);
            assert_eq!(s.factor(key()), 1.0, "cold key must stay at 1.0");
        }
        s.observe(key(), 1.0, 2.0);
        assert!(s.is_warm(key()));
        assert!(s.factor(key()) > 1.0);
    }

    /// On a constant deviating profile (observed = r * predicted), the
    /// blended factor converges *monotonically* in samples toward the
    /// observed truth, from the prior side.
    #[test]
    fn blended_estimate_converges_monotonically() {
        for &r in &[2.0, 3.5, 0.25] {
            let mut s = CalibrationStore::new();
            let mut last = 1.0;
            for n in 1..=200u64 {
                s.observe(key(), 1.0, r);
                let f = s.factor(key());
                if n < WARMUP_SAMPLES {
                    assert_eq!(f, 1.0);
                    continue;
                }
                let (lo, hi) = if r > 1.0 { (last, r) } else { (r, last) };
                assert!(
                    (lo..=hi).contains(&f),
                    "factor {f} must move monotonically from {last} toward {r}"
                );
                last = f;
            }
            assert!(
                (last - r).abs() / r < 0.05,
                "after 200 samples the factor {last} should sit near the truth {r}"
            );
        }
    }

    /// One wild outlier moves the mean by at most ln(MAX_OBS_RATIO).
    #[test]
    fn observations_are_clamped() {
        let mut s = CalibrationStore::new();
        for _ in 0..WARMUP_SAMPLES {
            s.observe(key(), 1.0, 1e9);
        }
        assert!(s.factor(key()) <= MAX_OBS_RATIO);
        let mut s = CalibrationStore::new();
        for _ in 0..WARMUP_SAMPLES {
            s.observe(key(), 1.0, 1e-9);
        }
        assert!(s.factor(key()) >= 1.0 / MAX_OBS_RATIO);
    }

    /// Zero / non-positive inputs carry no ratio and are discarded.
    #[test]
    fn degenerate_observations_are_ignored() {
        let mut s = CalibrationStore::new();
        s.observe(key(), 0.0, 1.0);
        s.observe(key(), 1.0, 0.0);
        s.observe(key(), -1.0, 1.0);
        assert_eq!(s.samples(key()), 0);
        assert_eq!(s.factor(key()), 1.0);
    }

    /// Cardinality bands are octaves: `2^k - 1` and `2^k` straddle a
    /// boundary, `2^k` and `2^(k+1) - 1` share one.
    #[test]
    fn cardinality_band_boundaries() {
        assert_eq!(cardinality_band(0), 0);
        assert_eq!(cardinality_band(1), 1);
        for k in 1..40u32 {
            let lo = 1usize << k;
            assert_eq!(
                cardinality_band(lo - 1) + 1,
                cardinality_band(lo),
                "2^{k}-1 and 2^{k} must land in adjacent bands"
            );
            assert_eq!(
                cardinality_band(lo),
                cardinality_band(2 * lo - 1),
                "2^{k} and 2^(k+1)-1 must share a band"
            );
        }
    }

    /// No axis of the key may alias: operator kinds, encoding classes,
    /// bands, and sharded vs unsharded all produce distinct keys — the
    /// PR-6 fingerprint lesson applied to calibration state.
    #[test]
    fn key_axes_do_not_alias() {
        let rows = 1 << 20;
        let base = CalKey::new(OpKind::Transfer, EncodingClass::Packed, rows, false);
        assert_ne!(
            base,
            CalKey::new(OpKind::DeviceKernel, EncodingClass::Packed, rows, false)
        );
        assert_ne!(
            base,
            CalKey::new(OpKind::Transfer, EncodingClass::Plain, rows, false)
        );
        assert_ne!(
            base,
            CalKey::new(OpKind::Transfer, EncodingClass::Packed, rows * 2, false)
        );
        assert_ne!(
            base,
            CalKey::new(OpKind::Transfer, EncodingClass::Packed, rows, true)
        );

        // And the store really segregates them: warming one key leaves
        // its neighbors cold.
        let mut s = CalibrationStore::new();
        for _ in 0..WARMUP_SAMPLES {
            s.observe(base, 1.0, 4.0);
        }
        assert!(s.is_warm(base));
        assert!(!s.is_warm(CalKey::new(
            OpKind::Transfer,
            EncodingClass::Packed,
            rows,
            true
        )));
        assert_eq!(
            s.factor(CalKey::new(
                OpKind::Transfer,
                EncodingClass::Plain,
                rows,
                false
            )),
            1.0
        );
    }

    /// A cold store *is* the uncalibrated evaluation: identity factors,
    /// `Static`, zero samples, for every key axis — so the bounds formula
    /// has nothing to diverge on.
    #[test]
    fn cold_store_blends_to_the_identity() {
        let s = CalibrationStore::new();
        for &(rows, uncached) in &[(6_000_000usize, 96_000_000usize), (1_000, 5_000), (0, 0)] {
            for (enc, sharded) in [(EncodingClass::Packed, false), (EncodingClass::Plain, true)] {
                let b = s.blend(enc, rows, uncached, sharded);
                assert_eq!(b.factors, CostFactors::default());
                assert_eq!(b.source, BoundsSource::Static);
                assert_eq!(b.samples, 0);
            }
        }
    }

    /// A warm store on a deviating profile flips the placement the
    /// static model gets wrong: observed transfers twice as slow push a
    /// marginal query from the device to the host.
    #[test]
    fn warm_transfer_history_flips_placement() {
        let (cpu, gpu, pcie) = (intel_i7_6900(), nvidia_v100(), pcie_gen3());
        let mut s = CalibrationStore::new();
        let rows = 6_000_000usize;
        // A working set priced just under the host bound on the device
        // side: packed enough that the static model routes device.
        let cost = ScanCost {
            packed_bytes: 120_000_000,
            packed_values: 60_000_000,
            ..ScanCost::default()
        };
        let bounds = |s: &CalibrationStore| {
            let b = s.blend(EncodingClass::Packed, rows, cost.packed_bytes, false);
            let priced = ScanCost {
                factors: b.factors,
                ..cost
            };
            (resident_coprocessor_bounds(&priced, &cpu, &gpu, &pcie), b)
        };
        let ((cold_dev, cold_host), _) = bounds(&s);
        assert!(
            cold_dev < cold_host,
            "premise: the static model must route this query to the device"
        );
        // The machine's real PCIe link runs at half spec: every observed
        // transfer takes twice the predicted seconds. Transfer keys band
        // by bytes moved — here the full (unresident) working set.
        let tk = CalKey::new(
            OpKind::Transfer,
            EncodingClass::Packed,
            cost.packed_bytes,
            false,
        );
        for _ in 0..50 {
            let predicted = compressed_scan_secs(cost.packed_bytes, pcie.bandwidth);
            s.observe(tk, predicted, predicted * 2.0);
        }
        let ((warm_dev, warm_host), b) = bounds(&s);
        assert_eq!(b.source, BoundsSource::Blended);
        assert!(b.samples >= 50);
        assert!(
            warm_dev > warm_host,
            "calibrated bounds must flip the placement to the host"
        );
        // The host side was never observed, so its bound is untouched.
        assert_eq!(warm_host.to_bits(), cold_host.to_bits());
    }

    /// `record` routes each component to its own key and skips the
    /// transfer when nothing was shipped.
    #[test]
    fn record_routes_components() {
        let (cpu, gpu, pcie) = (intel_i7_6900(), nvidia_v100(), pcie_gen3());
        let mut s = CalibrationStore::new();
        let obs = Observation {
            rows: 6_000_000,
            enc: EncodingClass::Packed,
            sharded: false,
            packed_bytes: 48_000_000,
            packed_values: 24_000_000,
            shipped_bytes: 48_000_000,
            transfer_secs: 48_000_000.0 / pcie.bandwidth * 2.0,
            kernel_secs: Some(48_000_000.0 / gpu.read_bw * 1.5),
            host_secs: None,
        };
        s.record(&obs, &cpu, &gpu, &pcie);
        let t = CalKey::new(
            OpKind::Transfer,
            EncodingClass::Packed,
            obs.shipped_bytes,
            false,
        );
        let k = CalKey::new(OpKind::DeviceKernel, EncodingClass::Packed, obs.rows, false);
        let h = CalKey::new(OpKind::HostScan, EncodingClass::Packed, obs.rows, false);
        assert_eq!(s.samples(t), 1);
        assert_eq!(s.samples(k), 1);
        assert_eq!(s.samples(h), 0);

        // Warm run: no bytes shipped — the transfer key must not learn
        // from a zero-byte shipment.
        let warm = Observation {
            shipped_bytes: 0,
            transfer_secs: 0.0,
            ..obs
        };
        s.record(&warm, &cpu, &gpu, &pcie);
        assert_eq!(s.samples(t), 1);
        assert_eq!(s.samples(k), 2);
    }
}

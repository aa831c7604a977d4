//! Power-of-direct-path estimation from CSI (§IV-A).
//!
//! The estimator transforms each frequency-domain CSI snapshot into the
//! delay domain (IFFT with interpolating zero-padding) and takes the
//! maximum tap power as the per-packet PDP; a burst of packets is
//! aggregated by the median, which is robust to the occasional noise-blown
//! packet.

use nomloc_dsp::pdp::DelayProfile;
use nomloc_dsp::plan::with_thread_plan;
use nomloc_dsp::{fft, stats, Complex, SoaComplex, Window};
use nomloc_rfsim::CsiSnapshot;

/// Configuration of the PDP estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct PdpEstimator {
    /// Minimum delay-domain taps after zero-padding (power-of-two rounded).
    ///
    /// More taps reduce scalloping loss of off-grid delays; 256 keeps the
    /// worst-case peak-power error under ~1 %.
    pub min_taps: usize,
    /// Spectral taper applied to the CSI before the IFFT. Rectangular by
    /// default; Hann/Hamming/Blackman suppress Dirichlet sidelobes at the
    /// cost of delay resolution (see the `repro_ablation_window` study).
    pub window: Window,
}

impl Default for PdpEstimator {
    fn default() -> Self {
        PdpEstimator {
            min_taps: 256,
            window: Window::Rectangular,
        }
    }
}

/// Reusable scratch buffers for PDP extraction.
///
/// Holds every intermediate the estimator needs — the windowed CSI, the
/// batched transform's input rows and working set, the delay-domain IFFT
/// output, and the per-packet PDPs of a burst — so that
/// after the first burst of a given shape the `_with` variants below run
/// with zero steady-state allocation. One scratch per thread; the serving
/// path keeps one in a thread-local on each batcher thread.
#[derive(Debug, Default)]
pub struct PdpScratch {
    /// Delay-domain IFFT buffer (see [`DelayProfile::from_csi_with`]).
    ifft: Vec<Complex>,
    /// Windowed CSI ahead of the IFFT.
    tapered: Vec<Complex>,
    /// Per-packet PDPs of the burst currently being aggregated.
    per_packet: Vec<f64>,
    /// Tapered CSI of every batched snapshot, one lane each (lane-major,
    /// unpadded).
    rows: SoaComplex,
    /// Working set of the batched transform, one chunk of lanes.
    work: SoaComplex,
}

impl PdpScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `Some(n)` when `snaps` yields at least two snapshots whose CSI vectors
/// all have the same length `n` — the precondition for lockstep batching.
/// Anything else (zero or one snapshot, or mixed lengths) takes the scalar
/// per-snapshot path.
fn batchable_len<'a>(snaps: impl Iterator<Item = &'a CsiSnapshot>) -> Option<usize> {
    let mut len = None;
    let mut count = 0usize;
    for s in snaps {
        count += 1;
        match len {
            None => len = Some(s.h.len()),
            Some(n) if n == s.h.len() => {}
            _ => return None,
        }
    }
    if count >= 2 {
        len
    } else {
        None
    }
}

impl PdpEstimator {
    /// Creates an estimator with the default padding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the spectral window.
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Per-packet PDP: maximum power of the delay profile of one snapshot.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot has no subcarriers (cannot happen for grids
    /// built by `SubcarrierGrid`).
    pub fn pdp_of_snapshot(&self, snapshot: &CsiSnapshot) -> f64 {
        self.pdp_of_snapshot_with(snapshot, &mut PdpScratch::new())
    }

    /// [`PdpEstimator::pdp_of_snapshot`] against caller-provided scratch.
    ///
    /// Value-identical to the allocating variant: the taper is bit-identical
    /// ([`Window::apply_into`]) and the peak fold matches
    /// `DelayProfile::peak` including tie-break order.
    pub fn pdp_of_snapshot_with(&self, snapshot: &CsiSnapshot, scratch: &mut PdpScratch) -> f64 {
        let n = snapshot.h.len();
        let bandwidth = snapshot.grid.mean_spacing_hz() * n as f64;
        self.window.apply_into(&snapshot.h, &mut scratch.tapered);
        DelayProfile::peak_power_from_csi_with(
            &scratch.tapered,
            bandwidth,
            self.min_taps,
            &mut scratch.ifft,
        )
    }

    /// Burst PDP: median of per-packet PDPs.
    ///
    /// Returns `None` for an empty burst. Allocates one [`PdpScratch`] per
    /// call; loops over many bursts should use
    /// [`PdpEstimator::pdp_of_burst_with`].
    pub fn pdp_of_burst(&self, burst: &[CsiSnapshot]) -> Option<f64> {
        self.pdp_of_burst_with(burst, &mut PdpScratch::new())
    }

    /// [`PdpEstimator::pdp_of_burst`] against caller-provided scratch:
    /// zero steady-state allocation across bursts. Value-identical to the
    /// allocating variant (`median_in_place` replicates `median` exactly).
    ///
    /// A burst of ≥2 same-length snapshots runs through the batched SoA
    /// kernel — one lockstep IFFT traversal per chunk of the burst — which
    /// is bit-identical per packet to the scalar path (see
    /// [`DelayProfile::peak_powers_from_csi_rows_with`]); mixed-length
    /// bursts fall back to the per-snapshot kernel.
    pub fn pdp_of_burst_with(
        &self,
        burst: &[CsiSnapshot],
        scratch: &mut PdpScratch,
    ) -> Option<f64> {
        // Detach the per-packet buffer so `scratch` stays borrowable for
        // the per-snapshot calls; reattach before returning.
        let mut per_packet = std::mem::take(&mut scratch.per_packet);
        per_packet.clear();
        if let Some(n) = batchable_len(burst.iter()) {
            let mut it = burst.iter();
            self.batch_peaks(
                burst.len(),
                n,
                || it.next().expect("cursor within burst"),
                scratch,
                &mut per_packet,
            );
        } else {
            per_packet.extend(burst.iter().map(|s| self.pdp_of_snapshot_with(s, scratch)));
        }
        let result = stats::median_in_place(&mut per_packet);
        scratch.per_packet = per_packet;
        result
    }

    /// Burst PDPs of many reports in one pass: `out[i]` is exactly
    /// [`PdpEstimator::pdp_of_burst_with`]`(bursts[i])`.
    ///
    /// When every snapshot across every burst has the same CSI length, the
    /// whole set is flattened into one lane per snapshot and run through
    /// the batched kernel, which chunks the lanes to its working-set
    /// budget (8 lanes at the default 256 taps) — cross-report batching
    /// fills far more vector lanes than any single burst (the serving
    /// workload has 2-packet bursts but 8+ snapshots per request). The
    /// flat peak sequence is then segmented back per burst for the median.
    /// Mixed-length inputs fall back per burst.
    pub fn pdp_of_bursts_with(
        &self,
        bursts: &[&[CsiSnapshot]],
        scratch: &mut PdpScratch,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        let total: usize = bursts.iter().map(|b| b.len()).sum();
        let Some(n) = batchable_len(bursts.iter().flat_map(|b| b.iter())) else {
            out.extend(bursts.iter().map(|b| self.pdp_of_burst_with(b, scratch)));
            return;
        };
        let mut flat = std::mem::take(&mut scratch.per_packet);
        flat.clear();
        let (mut bi, mut si) = (0usize, 0usize);
        self.batch_peaks(
            total,
            n,
            || {
                while bursts[bi].len() == si {
                    bi += 1;
                    si = 0;
                }
                let snap = &bursts[bi][si];
                si += 1;
                snap
            },
            scratch,
            &mut flat,
        );
        let mut start = 0;
        for burst in bursts {
            let end = start + burst.len();
            out.push(stats::median_in_place(&mut flat[start..end]));
            start = end;
        }
        scratch.per_packet = flat;
    }

    /// Tapers `total` snapshots of CSI length `n` (produced by `next`, in
    /// order) into one lane each and writes one peak power per snapshot
    /// to `out` via the batched kernel.
    ///
    /// Mirrors the scalar path's validation panics per snapshot ("CSI must
    /// not be empty", "bandwidth must be positive") before transforming.
    fn batch_peaks<'a>(
        &self,
        total: usize,
        n: usize,
        mut next: impl FnMut() -> &'a CsiSnapshot,
        scratch: &mut PdpScratch,
        out: &mut Vec<f64>,
    ) {
        // Every lane's `n` rows are written below, so the buffer needs
        // its length, not zeros.
        scratch.rows.re.resize(n * total, 0.0);
        scratch.rows.im.resize(n * total, 0.0);
        for lane in 0..total {
            let snap = next();
            assert!(!snap.h.is_empty(), "CSI must not be empty");
            let bandwidth = snap.grid.mean_spacing_hz() * n as f64;
            assert!(bandwidth > 0.0, "bandwidth must be positive");
            // The rectangular taper is a copy: skip it.
            let row = if self.window == Window::Rectangular {
                &snap.h
            } else {
                self.window.apply_into(&snap.h, &mut scratch.tapered);
                &scratch.tapered
            };
            scratch.rows.write_lane(lane, total, row);
        }
        with_thread_plan(fft::padded_len(n, self.min_taps), |plan| {
            DelayProfile::peak_powers_from_csi_rows_with(
                plan,
                &scratch.rows,
                total,
                &mut scratch.work,
                out,
            );
        });
    }

    /// Array PDP with selection combining: the maximum per-antenna burst
    /// PDP. Spatially separated elements fade independently, so the best
    /// antenna tracks the true direct-path power more faithfully than any
    /// single element.
    ///
    /// Returns `None` when every antenna's burst is empty.
    pub fn pdp_of_array(&self, bursts_per_antenna: &[Vec<CsiSnapshot>]) -> Option<f64> {
        self.pdp_of_array_with(bursts_per_antenna, &mut PdpScratch::new())
    }

    /// [`PdpEstimator::pdp_of_array`] against caller-provided scratch.
    pub fn pdp_of_array_with(
        &self,
        bursts_per_antenna: &[Vec<CsiSnapshot>],
        scratch: &mut PdpScratch,
    ) -> Option<f64> {
        bursts_per_antenna
            .iter()
            .filter_map(|burst| self.pdp_of_burst_with(burst, scratch))
            .reduce(f64::max)
    }

    /// The full delay profile of a snapshot (Fig. 3 of the paper).
    pub fn delay_profile(&self, snapshot: &CsiSnapshot) -> DelayProfile {
        self.delay_profile_with(snapshot, &mut PdpScratch::new())
    }

    /// [`PdpEstimator::delay_profile`] against caller-provided scratch
    /// (see [`DelayProfile::from_csi_with`]). Bit-identical to the
    /// allocating variant.
    pub fn delay_profile_with(
        &self,
        snapshot: &CsiSnapshot,
        scratch: &mut PdpScratch,
    ) -> DelayProfile {
        let n = snapshot.h.len();
        // Treat the (possibly grouped) grid as uniform at its mean spacing;
        // the effective bandwidth spans n such steps.
        let bandwidth = snapshot.grid.mean_spacing_hz() * n as f64;
        self.window.apply_into(&snapshot.h, &mut scratch.tapered);
        DelayProfile::from_csi_with(
            &scratch.tapered,
            bandwidth,
            self.min_taps,
            &mut scratch.ifft,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomloc_geometry::{Point, Polygon, Segment};
    use nomloc_rfsim::{Environment, FloorPlan, Material, RadioConfig, SubcarrierGrid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn open_env() -> Environment {
        let plan = FloorPlan::builder(Polygon::rectangle(
            Point::new(0.0, 0.0),
            Point::new(20.0, 12.0),
        ))
        .build();
        Environment::new(plan, RadioConfig::default())
    }

    fn walled_env() -> Environment {
        let plan = FloorPlan::builder(Polygon::rectangle(
            Point::new(0.0, 0.0),
            Point::new(20.0, 12.0),
        ))
        .wall(
            Segment::new(Point::new(10.0, 0.0), Point::new(10.0, 12.0)),
            Material::CONCRETE,
        )
        .build();
        Environment::new(plan, RadioConfig::default())
    }

    #[test]
    fn pdp_decreases_with_distance() {
        let env = open_env();
        let est = PdpEstimator::new();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(1);
        let tx = Point::new(1.0, 6.0);
        let near = env.sample_csi_burst(tx, Point::new(4.0, 6.0), &grid, 25, &mut rng);
        let far = env.sample_csi_burst(tx, Point::new(18.0, 6.0), &grid, 25, &mut rng);
        let p_near = est.pdp_of_burst(&near).unwrap();
        let p_far = est.pdp_of_burst(&far).unwrap();
        assert!(
            p_near > p_far,
            "near PDP {p_near} must exceed far PDP {p_far}"
        );
    }

    #[test]
    fn pdp_ordering_matches_proximity_in_los() {
        // The core assumption of the method: PDP ordering ↔ distance
        // ordering under LOS. Check across many site pairs.
        let env = open_env();
        let est = PdpEstimator::new();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(2);
        // Asymmetric object position: every AP pair has a clear distance
        // winner (equidistant pairs are coin flips by design — that is the
        // paper's own low-accuracy case in Fig. 7).
        let obj = Point::new(5.0, 4.0);
        let aps = [
            Point::new(2.0, 2.0),
            Point::new(18.0, 2.0),
            Point::new(18.0, 10.0),
            Point::new(2.0, 10.0),
        ];
        let pdps: Vec<f64> = aps
            .iter()
            .map(|&ap| {
                let burst = env.sample_csi_burst(obj, ap, &grid, 30, &mut rng);
                est.pdp_of_burst(&burst).unwrap()
            })
            .collect();
        let mut correct = 0;
        let mut total = 0;
        for i in 0..aps.len() {
            for j in (i + 1)..aps.len() {
                total += 1;
                let closer_i = obj.distance(aps[i]) < obj.distance(aps[j]);
                let stronger_i = pdps[i] > pdps[j];
                if closer_i == stronger_i {
                    correct += 1;
                }
            }
        }
        assert!(correct >= total - 1, "only {correct}/{total} pairs ordered");
    }

    #[test]
    fn nlos_suppresses_pdp() {
        // Same geometric distance, but a concrete wall between: PDP drops
        // sharply (the Fig. 3 dichotomy).
        let est = PdpEstimator::new();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(3);
        let tx = Point::new(7.0, 6.0);
        let rx = Point::new(13.0, 6.0);
        let los = open_env().sample_csi_burst(tx, rx, &grid, 25, &mut rng);
        let nlos = walled_env().sample_csi_burst(tx, rx, &grid, 25, &mut rng);
        let p_los = est.pdp_of_burst(&los).unwrap();
        let p_nlos = est.pdp_of_burst(&nlos).unwrap();
        // The wall costs 13 dB on every path, but at 20 MHz all indoor
        // paths merge into one delay lobe whose coherent sum fluctuates a
        // few dB either way — so require a clear gap, not the full 13 dB.
        let gap_db = 10.0 * (p_los / p_nlos).log10();
        assert!(gap_db > 3.0, "NLOS gap only {gap_db:.1} dB");
    }

    #[test]
    fn burst_median_is_stable() {
        // Two independent bursts from the same link agree within a couple
        // of dB.
        let env = open_env();
        let est = PdpEstimator::new();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(4);
        let tx = Point::new(3.0, 3.0);
        let rx = Point::new(15.0, 9.0);
        let a = est
            .pdp_of_burst(&env.sample_csi_burst(tx, rx, &grid, 40, &mut rng))
            .unwrap();
        let b = est
            .pdp_of_burst(&env.sample_csi_burst(tx, rx, &grid, 40, &mut rng))
            .unwrap();
        let diff_db = (10.0 * (a / b).log10()).abs();
        assert!(diff_db < 2.0, "burst-to-burst variation {diff_db:.2} dB");
    }

    #[test]
    fn empty_burst_is_none() {
        assert_eq!(PdpEstimator::new().pdp_of_burst(&[]), None);
        assert_eq!(
            PdpEstimator::new().pdp_of_burst_with(&[], &mut PdpScratch::new()),
            None
        );
    }

    #[test]
    fn scratch_variants_match_allocating() {
        // One scratch reused across snapshots, bursts, and arrays of
        // different shapes — every result must equal the allocating call
        // exactly.
        let env = open_env();
        let est = PdpEstimator::new().with_window(Window::Hann);
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = PdpScratch::new();
        let tx = Point::new(2.0, 3.0);
        for (i, n_packets) in [(0usize, 3usize), (1, 7), (2, 1), (3, 4)] {
            let rx = Point::new(4.0 + 3.0 * i as f64, 6.0);
            let burst = env.sample_csi_burst(tx, rx, &grid, n_packets, &mut rng);
            assert_eq!(
                est.pdp_of_snapshot_with(&burst[0], &mut scratch),
                est.pdp_of_snapshot(&burst[0]),
                "snapshot {i}"
            );
            assert_eq!(
                est.pdp_of_burst_with(&burst, &mut scratch),
                est.pdp_of_burst(&burst),
                "burst {i}"
            );
            let array = vec![burst.clone(), Vec::new(), burst];
            assert_eq!(
                est.pdp_of_array_with(&array, &mut scratch),
                est.pdp_of_array(&array),
                "array {i}"
            );
        }
    }

    #[test]
    fn batched_burst_matches_per_snapshot_oracle() {
        // pdp_of_burst_with batches uniform bursts; the per-snapshot path
        // (still exercised via pdp_of_snapshot_with) is the oracle. Every
        // window, because the taper is applied before lane packing.
        let env = open_env();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(21);
        for window in [Window::Rectangular, Window::Hann, Window::Blackman] {
            let est = PdpEstimator::new().with_window(window);
            let mut scratch = PdpScratch::new();
            for n_packets in [2usize, 3, 16, 17, 33] {
                let burst = env.sample_csi_burst(
                    Point::new(2.0, 3.0),
                    Point::new(14.0, 8.0),
                    &grid,
                    n_packets,
                    &mut rng,
                );
                let batched = est.pdp_of_burst_with(&burst, &mut scratch);
                let mut oracle_scratch = PdpScratch::new();
                let mut peaks: Vec<f64> = burst
                    .iter()
                    .map(|s| est.pdp_of_snapshot_with(s, &mut oracle_scratch))
                    .collect();
                let oracle = stats::median_in_place(&mut peaks);
                assert_eq!(batched, oracle, "{window:?} n_packets={n_packets}");
            }
        }
    }

    #[test]
    fn serving_shapes_match_per_snapshot_oracle() {
        // Every workload's request shape, 30 subcarriers per snapshot:
        // `lab-dense` 4 APs × 16 packets (64 lanes, eight 8-lane chunks),
        // `track-sessions` 4 × 2 (one 8-lane chunk), fleet Lab/Lobby 4 × 1
        // (one 4-lane chunk) and fleet Mall 6 × 1 (one 8-lane chunk with
        // 2 zero lanes). Each burst's median must equal the per-snapshot
        // scalar kernel's, bit for bit.
        let env = open_env();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(24);
        let object = Point::new(6.0, 5.0);
        let aps = [
            Point::new(1.0, 1.0),
            Point::new(19.0, 1.0),
            Point::new(19.0, 11.0),
            Point::new(1.0, 11.0),
            Point::new(10.0, 1.0),
            Point::new(10.0, 11.0),
        ];
        for (n_aps, n_packets) in [(4, 16), (4, 2), (4, 1), (6, 1)] {
            let bursts_owned: Vec<Vec<CsiSnapshot>> = aps[..n_aps]
                .iter()
                .map(|&ap| env.sample_csi_burst(object, ap, &grid, n_packets, &mut rng))
                .collect();
            let bursts: Vec<&[CsiSnapshot]> = bursts_owned.iter().map(|b| b.as_slice()).collect();
            for window in [Window::Rectangular, Window::Hann] {
                let est = PdpEstimator::new().with_window(window);
                let mut batched = Vec::new();
                est.pdp_of_bursts_with(&bursts, &mut PdpScratch::new(), &mut batched);
                let mut scratch = PdpScratch::new();
                for (burst, got) in bursts_owned.iter().zip(&batched) {
                    let mut peaks: Vec<f64> = burst
                        .iter()
                        .map(|s| est.pdp_of_snapshot_with(s, &mut scratch))
                        .collect();
                    let want = stats::median_in_place(&mut peaks).expect("non-empty burst");
                    let got = got.expect("non-empty burst");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{n_aps} APs × {n_packets}, {window:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bursts_batch_matches_per_burst_oracle() {
        let env = open_env();
        let est = PdpEstimator::new();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(22);
        let tx = Point::new(3.0, 4.0);
        // 4 reports × 2 packets (the serving shape), plus an empty burst
        // and a single-packet burst in the middle.
        let bursts_owned: Vec<Vec<CsiSnapshot>> = [2usize, 2, 0, 1, 2, 2]
            .iter()
            .enumerate()
            .map(|(i, &np)| {
                env.sample_csi_burst(
                    tx,
                    Point::new(4.0 + 2.0 * i as f64, 6.0),
                    &grid,
                    np,
                    &mut rng,
                )
            })
            .collect();
        let bursts: Vec<&[CsiSnapshot]> = bursts_owned.iter().map(|b| b.as_slice()).collect();
        let mut scratch = PdpScratch::new();
        let mut batched = Vec::new();
        est.pdp_of_bursts_with(&bursts, &mut scratch, &mut batched);
        let oracle: Vec<Option<f64>> = bursts_owned.iter().map(|b| est.pdp_of_burst(b)).collect();
        assert_eq!(batched, oracle);
    }

    #[test]
    fn mixed_length_bursts_fall_back_identically() {
        // Snapshots of different CSI lengths cannot share a lockstep batch;
        // the fallback must still equal the allocating per-burst path.
        let env = open_env();
        let est = PdpEstimator::new();
        let mut rng = StdRng::seed_from_u64(23);
        let tx = Point::new(2.0, 2.0);
        let a = env.sample_csi_burst(
            tx,
            Point::new(8.0, 6.0),
            &SubcarrierGrid::intel5300(),
            2,
            &mut rng,
        );
        let b = env.sample_csi_burst(
            tx,
            Point::new(12.0, 6.0),
            &SubcarrierGrid::full_80211n_20mhz(),
            3,
            &mut rng,
        );
        // Mixed across reports → per-burst fallback (each burst itself
        // uniform, so still batched internally).
        let bursts: Vec<&[CsiSnapshot]> = vec![&a, &b];
        let mut scratch = PdpScratch::new();
        let mut got = Vec::new();
        est.pdp_of_bursts_with(&bursts, &mut scratch, &mut got);
        assert_eq!(got, vec![est.pdp_of_burst(&a), est.pdp_of_burst(&b)]);
        // Mixed within one burst → per-snapshot fallback.
        let mut mixed = a.clone();
        mixed.extend(b.iter().cloned());
        let batched = est.pdp_of_burst_with(&mixed, &mut scratch);
        assert_eq!(batched, est.pdp_of_burst(&mixed));
    }

    #[test]
    fn delay_profile_peak_matches_pdp() {
        let env = open_env();
        let est = PdpEstimator::new();
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(5);
        let snap = env.sample_csi(Point::new(2.0, 2.0), Point::new(10.0, 8.0), &grid, &mut rng);
        let profile = est.delay_profile(&snap);
        assert_eq!(profile.peak().power, est.pdp_of_snapshot(&snap));
    }

    #[test]
    fn delay_profile_peak_near_true_delay() {
        let env = open_env();
        let est = PdpEstimator::new();
        // Dense grid and quiet radio for a precise check.
        let grid = SubcarrierGrid::full_80211n_20mhz();
        let config = RadioConfig {
            noise_floor_dbm: -150.0,
            sto_max_s: 0.0,
            ..RadioConfig::default()
        };
        let tx = Point::new(1.0, 6.0);
        let rx = Point::new(16.0, 6.0); // 15 m ⇒ 50 ns
        let trace = env.trace(tx, rx);
        let mut rng = StdRng::seed_from_u64(6);
        let snap = trace.sample_csi(&config, &grid, &mut rng);
        let profile = est.delay_profile(&snap);
        let peak_delay = profile.peak().delay;
        let true_delay = 15.0 / 299_792_458.0;
        assert!(
            (peak_delay - true_delay).abs() < 3.0 * profile.tap_spacing(),
            "peak at {peak_delay:.2e}s, true {true_delay:.2e}s"
        );
    }
}

//! Dependency-free serving observability (`PipelineStats`).
//!
//! The localization server counts work done at every stage of the pipeline
//! (reports in, readings extracted, judgements formed, constraints built,
//! simplex iterations, relaxations that had to pay) and tracks per-stage
//! latency in power-of-two histograms. Everything is an [`AtomicU64`] with
//! relaxed ordering: a serving daemon's event loops and batchers record
//! into one shared instance concurrently, wait-free, and the *totals* are
//! exact regardless of interleaving — only the wall-clock histograms vary
//! run to run.
//!
//! [`PipelineStats::snapshot`] returns a plain-data [`StatsSnapshot`] whose
//! [`CounterTotals`] half is deterministic for a deterministic workload;
//! the batch integration tests rely on that split.
//!
//! Each counter set is declared once with [`counter_set!`](crate::counter_set),
//! which derives the plain struct, its atomic twin, snapshot, reset and the
//! ordered views the wire codec walks.

use crate::estimator::{EstimateQuality, FailureCause};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^i, 2^{i+1})` nanoseconds, with the last bucket absorbing everything
/// ≥ 2³⁰ ns (~1 s) — far beyond any single pipeline stage here.
pub const LATENCY_BUCKETS: usize = 31;

/// Wait-free power-of-two latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Index of the bucket covering `ns` (0 ns maps to bucket 0).
    fn bucket_index(ns: u64) -> usize {
        (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copies the current bucket counts out.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// Plain-data copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Bucket `i` counts samples in `[2^i, 2^{i+1})` ns.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all recorded samples, ns.
    pub total_ns: u64,
}

impl LatencySnapshot {
    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_ns as f64 / n as f64
        }
    }

    /// Upper edge (ns) of the bucket containing quantile `q ∈ [0, 1]`.
    ///
    /// Power-of-two buckets make this an upper *bound* with at most 2×
    /// resolution error — plenty for spotting stage regressions.
    pub fn quantile_upper_bound_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }
}

/// Number of power-of-two size buckets: bucket `i` counts values in
/// `[2^i, 2^{i+1})`, with the last bucket absorbing everything ≥ 2¹⁶ —
/// far beyond any sane micro-batch.
pub const SIZE_BUCKETS: usize = 17;

/// Wait-free power-of-two histogram for small counts (micro-batch sizes).
#[derive(Debug)]
pub struct SizeHistogram {
    buckets: [AtomicU64; SIZE_BUCKETS],
    total: AtomicU64,
}

impl Default for SizeHistogram {
    fn default() -> Self {
        SizeHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
        }
    }
}

impl SizeHistogram {
    fn bucket_index(v: u64) -> usize {
        (63 - v.max(1).leading_zeros() as usize).min(SIZE_BUCKETS - 1)
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(v, Ordering::Relaxed);
    }

    /// Copies the current bucket counts out.
    pub fn snapshot(&self) -> SizeSnapshot {
        SizeSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            total: self.total.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
    }
}

/// Plain-data copy of a [`SizeHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeSnapshot {
    /// Bucket `i` counts values in `[2^i, 2^{i+1})`.
    pub buckets: [u64; SIZE_BUCKETS],
    /// Sum of all recorded values.
    pub total: u64,
}

impl SizeSnapshot {
    /// Total number of values recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total as f64 / n as f64
        }
    }

    /// Upper edge of the bucket containing quantile `q ∈ [0, 1]` — an
    /// upper bound with at most 2× resolution error, like
    /// [`LatencySnapshot::quantile_upper_bound_ns`].
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << SIZE_BUCKETS
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Declares a set of `u64` counters once and derives everything that
/// walks the whole set from that one list.
///
/// The invocation names a plain struct and lists its counters by name
/// (each with its doc comment). It emits:
///
/// * the plain struct, with one `pub name: u64` field per counter,
///   followed by any members listed in an optional `extra { … }` section,
///   which are passed through unchanged;
/// * `LEN`, the number of counters, and the ordered views
///   `values() -> [u64; LEN]` and `values_mut() -> [&mut u64; LEN]`, in
///   declaration order — the wire codec walks these;
/// * optionally, an `atomic struct` twin: the same counters as
///   [`AtomicU64`](std::sync::atomic::AtomicU64)s (plus its own
///   pass-through members), with `load()`, which copies every counter out
///   into the plain struct (its extras take their `Default`), and
///   `reset()`, which zeroes every counter. Recording stays one relaxed
///   atomic operation on the named field.
///
/// Adding a counter is one line in the list; snapshot, reset, encode and
/// decode follow from it.
///
/// ```
/// use std::sync::atomic::Ordering;
///
/// nomloc_core::counter_set! {
///     /// Plain totals.
///     #[derive(Debug, Default, PartialEq, Eq)]
///     pub struct Totals {
///         /// Requests seen.
///         requests,
///         /// Requests that failed.
///         failures,
///     }
///     extra {
///         /// Not a counter: passed through, never in the views.
///         pub label: String,
///     }
///     /// Live counters.
///     #[derive(Debug, Default)]
///     atomic pub struct LiveTotals {}
/// }
///
/// let live = LiveTotals::default();
/// live.requests.fetch_add(3, Ordering::Relaxed);
/// live.failures.fetch_add(1, Ordering::Relaxed);
/// let mut totals = live.load();
/// assert_eq!(totals.values(), [3, 1]);
/// *totals.values_mut()[1] = 0;
/// assert_eq!(totals.failures, 0);
/// assert_eq!(Totals::LEN, 2);
/// live.reset();
/// assert_eq!(live.load(), Totals::default());
/// ```
#[macro_export]
macro_rules! counter_set {
    (@plain [$($meta:tt)*] $vis:vis struct $plain:ident {
        $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
    } [$( {
        $( $(#[$xmeta:meta])* $xvis:vis $xfield:ident : $xty:ty ),* $(,)?
    } )?]) => {
        $($meta)*
        $vis struct $plain {
            $( $(#[$fmeta])* pub $field: u64, )*
            $($( $(#[$xmeta])* $xvis $xfield: $xty, )*)?
        }

        impl $plain {
            /// Number of counters in the set.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// Every counter by value, in declaration order.
            pub fn values(&self) -> [u64; Self::LEN] {
                [$(self.$field),*]
            }

            /// Every counter by mutable reference, in declaration order.
            pub fn values_mut(&mut self) -> [&mut u64; Self::LEN] {
                [$(&mut self.$field),*]
            }
        }
    };
    (@atomic $plain:ident {
        $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
    } [$($meta:tt)*] $vis:vis struct $atomic:ident {
        $( $(#[$xmeta:meta])* $xvis:vis $xfield:ident : $xty:ty ),* $(,)?
    }) => {
        $($meta)*
        $vis struct $atomic {
            $( $(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64, )*
            $( $(#[$xmeta])* $xvis $xfield: $xty, )*
        }

        impl $atomic {
            /// Copies every counter out (relaxed loads).
            #[allow(clippy::needless_update)]
            pub fn load(&self) -> $plain {
                $plain {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                    ..::std::default::Default::default()
                }
            }

            /// Zeroes every counter (relaxed stores).
            pub fn reset(&self) {
                $( self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $plain:ident $fields:tt
        $(extra $extra:tt)?
        $(
            $(#[$ameta:meta])*
            atomic $avis:vis struct $atomic:ident $aextra:tt
        )?
    ) => {
        $crate::counter_set!(@plain [$(#[$meta])*] $vis struct $plain $fields [$($extra)?]);
        $(
            $crate::counter_set!(
                @atomic $plain $fields [$(#[$ameta])*] $avis struct $atomic $aextra
            );
        )?
    };
}

counter_set! {
    /// Deterministic counter totals of a [`StatsSnapshot`].
    ///
    /// For a fixed request stream these are identical however the requests
    /// were spread over threads and batches (batch counts aside) — the
    /// counters are pure sums of per-request quantities.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CounterTotals {
        /// Localization requests served (one per `localize`/`process` call).
        requests,
        /// Raw CSI reports offered to PDP extraction.
        reports_in,
        /// PDP readings that survived extraction.
        readings_extracted,
        /// Pairwise proximity judgements formed.
        judgements_formed,
        /// Half-plane constraints assembled (judgement + boundary).
        constraints_generated,
        /// Simplex pivot iterations across every relaxation and center LP.
        simplex_iterations,
        /// Center LPs that reused the relaxation witness as a warm start and
        /// skipped simplex Phase-1 (one candidate per venue piece per request).
        warm_start_hits,
        /// Phase-1 pivots those warm starts avoided (lower-bound estimate).
        phase1_pivots_saved,
        /// Requests whose winning piece paid a non-zero relaxation cost.
        relaxations_triggered,
        /// Requests that returned an [`crate::estimator::EstimateError`].
        estimate_failures,
        /// Estimates served at [`EstimateQuality::Full`].
        quality_full,
        /// Estimates degraded to [`EstimateQuality::Region`].
        quality_region,
        /// Estimates degraded to [`EstimateQuality::Centroid`].
        quality_centroid,
        /// Estimates served at [`EstimateQuality::Predicted`] — answered from
        /// a session's motion model because the request's own readings were
        /// unusable.
        quality_predicted,
        /// Requests that hit [`FailureCause::InsufficientJudgements`]
        /// (degraded or failed).
        cause_insufficient_judgements,
        /// Requests that hit [`FailureCause::LpInfeasible`].
        cause_lp_infeasible,
        /// Requests that hit [`FailureCause::LpNumerical`].
        cause_lp_numerical,
        /// Requests that hit [`FailureCause::InvalidInput`].
        cause_invalid_input,
        /// Individual readings rejected at the `localize` input boundary
        /// (non-finite PDP or site position).
        invalid_readings,
        /// Batches dispatched through the batch entry points: one per
        /// `localize_batch`/`process_batch` call, in process or for a
        /// serving micro-batch.
        batches_dispatched,
        /// Serving micro-batches whose requests all named the same venue —
        /// the batcher shards by venue, so under multi-venue traffic this
        /// should equal the total and `batches_mixed` should stay zero.
        batches_homogeneous,
        /// Serving micro-batches that mixed requests from different venues
        /// (a venue-sharding bug if ever non-zero).
        batches_mixed,
        /// Requests rejected by admission control (serving queue full).
        queue_rejected,
        /// Requests dropped because they aged past their deadline before
        /// being solved.
        deadline_missed,
        /// High-water mark of the serving admission queue depth.
        queue_depth_peak,
        /// Admissions that found their dispatch-shard lock held and had to
        /// block for it (sharded batching plane).
        enqueue_contention,
        /// Micro-batches a batcher pulled from a *sibling* shard because its
        /// own shard ran dry (work stealing in the sharded batching plane).
        queue_steals,
        /// High-water mark of any single dispatch shard's queue depth
        /// (sharded batching plane).
        shard_depth_peak,
        /// Reply-frame bytes encoded by the serving layer.
        reply_bytes_encoded,
    }

    /// The atomic twin of [`CounterTotals`] that [`PipelineStats`] records
    /// into: one relaxed `fetch_add` (or `fetch_max`) per counter.
    #[derive(Debug, Default)]
    atomic struct Counters {}
}

/// Plain-data copy of a [`PipelineStats`], taken by
/// [`PipelineStats::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// The deterministic counters.
    pub counters: CounterTotals,
    /// PDP-extraction stage latency.
    pub extract_latency: LatencySnapshot,
    /// Judgement-formation stage latency.
    pub judge_latency: LatencySnapshot,
    /// Constraint-generation + LP stage latency (the estimator call).
    pub solve_latency: LatencySnapshot,
    /// Distribution of dispatched batch sizes (requests per batch).
    pub batch_sizes: SizeSnapshot,
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        writeln!(f, "pipeline stats")?;
        writeln!(f, "  requests              {}", c.requests)?;
        writeln!(f, "  reports in            {}", c.reports_in)?;
        writeln!(f, "  readings extracted    {}", c.readings_extracted)?;
        writeln!(f, "  judgements formed     {}", c.judgements_formed)?;
        writeln!(f, "  constraints generated {}", c.constraints_generated)?;
        writeln!(f, "  simplex iterations    {}", c.simplex_iterations)?;
        writeln!(f, "  warm-start hits       {}", c.warm_start_hits)?;
        writeln!(f, "  phase-1 pivots saved  {}", c.phase1_pivots_saved)?;
        writeln!(f, "  relaxations triggered {}", c.relaxations_triggered)?;
        writeln!(f, "  estimate failures     {}", c.estimate_failures)?;
        writeln!(
            f,
            "  quality tiers         full {} / region {} / predicted {} / centroid {}",
            c.quality_full, c.quality_region, c.quality_predicted, c.quality_centroid
        )?;
        let causes = [
            ("insufficient judgements", c.cause_insufficient_judgements),
            ("lp infeasible", c.cause_lp_infeasible),
            ("lp numerical", c.cause_lp_numerical),
            ("invalid input", c.cause_invalid_input),
        ];
        if causes.iter().any(|&(_, n)| n > 0) {
            for (name, n) in causes {
                if n > 0 {
                    writeln!(f, "    cause: {name:<19} {n}")?;
                }
            }
        }
        if c.invalid_readings > 0 {
            writeln!(f, "  invalid readings      {}", c.invalid_readings)?;
        }
        if c.batches_dispatched > 0 {
            writeln!(
                f,
                "  batches dispatched    {} (mean size {:.1}, p50 ≤ {}, max ≤ {})",
                c.batches_dispatched,
                self.batch_sizes.mean(),
                self.batch_sizes.quantile_upper_bound(0.50),
                self.batch_sizes.quantile_upper_bound(1.0),
            )?;
        }
        if c.batches_homogeneous > 0 || c.batches_mixed > 0 {
            writeln!(
                f,
                "  batch venue mix       homogeneous {} / mixed {}",
                c.batches_homogeneous, c.batches_mixed
            )?;
        }
        if c.queue_rejected > 0 || c.deadline_missed > 0 || c.queue_depth_peak > 0 {
            writeln!(f, "  queue depth peak      {}", c.queue_depth_peak)?;
            writeln!(f, "  overload rejections   {}", c.queue_rejected)?;
            writeln!(f, "  deadline misses       {}", c.deadline_missed)?;
        }
        if c.queue_steals > 0 || c.enqueue_contention > 0 || c.shard_depth_peak > 0 {
            writeln!(f, "  shard depth peak      {}", c.shard_depth_peak)?;
            writeln!(f, "  queue steals          {}", c.queue_steals)?;
            writeln!(f, "  enqueue contention    {}", c.enqueue_contention)?;
        }
        if c.reply_bytes_encoded > 0 {
            writeln!(f, "  reply bytes encoded   {}", c.reply_bytes_encoded)?;
        }
        for (name, h) in [
            ("extract", &self.extract_latency),
            ("judge", &self.judge_latency),
            ("solve", &self.solve_latency),
        ] {
            if h.count() > 0 {
                writeln!(
                    f,
                    "  {name:<8} latency     mean {}, p50 ≤ {}, p95 ≤ {}, p99 ≤ {} ({} samples)",
                    fmt_ns(h.mean_ns()),
                    fmt_ns(h.quantile_upper_bound_ns(0.50) as f64),
                    fmt_ns(h.quantile_upper_bound_ns(0.95) as f64),
                    fmt_ns(h.quantile_upper_bound_ns(0.99) as f64),
                    h.count()
                )?;
            }
        }
        Ok(())
    }
}

/// Wait-free counters + histograms for the serving pipeline.
///
/// Shared by reference across the threads that solve requests (a daemon's
/// event loops and batchers); all methods take `&self`.
#[derive(Debug, Default)]
pub struct PipelineStats {
    counters: Counters,
    extract_latency: LatencyHistogram,
    judge_latency: LatencyHistogram,
    solve_latency: LatencyHistogram,
    batch_sizes: SizeHistogram,
}

impl PipelineStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one PDP-extraction stage: `reports` offered, `readings`
    /// kept.
    pub fn record_extract(&self, reports: u64, readings: u64, elapsed: Duration) {
        self.counters
            .reports_in
            .fetch_add(reports, Ordering::Relaxed);
        self.counters
            .readings_extracted
            .fetch_add(readings, Ordering::Relaxed);
        self.extract_latency.record(elapsed);
    }

    /// Records one judgement-formation stage producing `judgements`.
    pub fn record_judge(&self, judgements: u64, elapsed: Duration) {
        self.counters
            .judgements_formed
            .fetch_add(judgements, Ordering::Relaxed);
        self.judge_latency.record(elapsed);
    }

    /// Records one successful estimator call. `warm_start_hits` and
    /// `phase1_pivots_saved` carry the estimator's per-query warm-start
    /// diagnostics ([`crate::estimator::LocationEstimate`]); `quality` is
    /// the degradation-ladder tier the estimate was served at.
    #[allow(clippy::too_many_arguments)]
    pub fn record_solve(
        &self,
        constraints: u64,
        simplex_iterations: u64,
        warm_start_hits: u64,
        phase1_pivots_saved: u64,
        relaxed: bool,
        quality: EstimateQuality,
        elapsed: Duration,
    ) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .constraints_generated
            .fetch_add(constraints, Ordering::Relaxed);
        self.counters
            .simplex_iterations
            .fetch_add(simplex_iterations, Ordering::Relaxed);
        self.counters
            .warm_start_hits
            .fetch_add(warm_start_hits, Ordering::Relaxed);
        self.counters
            .phase1_pivots_saved
            .fetch_add(phase1_pivots_saved, Ordering::Relaxed);
        if relaxed {
            self.counters
                .relaxations_triggered
                .fetch_add(1, Ordering::Relaxed);
        }
        let tier = match quality {
            EstimateQuality::Full => &self.counters.quality_full,
            EstimateQuality::Region => &self.counters.quality_region,
            EstimateQuality::Centroid => &self.counters.quality_centroid,
            EstimateQuality::Predicted => &self.counters.quality_predicted,
        };
        tier.fetch_add(1, Ordering::Relaxed);
        self.solve_latency.record(elapsed);
    }

    /// Records one request answered from a session's motion model
    /// ([`EstimateQuality::Predicted`]) — the estimator never ran, so
    /// only the request and tier counters move.
    pub fn record_predicted(&self) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .quality_predicted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Reclassifies one already-recorded centroid-tier solve as
    /// [`EstimateQuality::Predicted`]: the serving layer answered from a
    /// warm session's motion model instead of the centroid the estimator
    /// produced (and counted). The request counter is untouched — the
    /// solve happened, only the served tier changed.
    pub fn promote_centroid_to_predicted(&self) {
        self.counters
            .quality_centroid
            .fetch_sub(1, Ordering::Relaxed);
        self.counters
            .quality_predicted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one estimator call that returned an error, by cause.
    pub fn record_failure(&self, cause: FailureCause, elapsed: Duration) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .estimate_failures
            .fetch_add(1, Ordering::Relaxed);
        self.record_cause(cause);
        self.solve_latency.record(elapsed);
    }

    /// Counts one occurrence of a failure cause — on hard failures *and*
    /// on requests the degradation ladder recovered, so the counters tell
    /// why quality was lost even when an estimate was still served.
    pub fn record_cause(&self, cause: FailureCause) {
        let counter = match cause {
            FailureCause::InsufficientJudgements => &self.counters.cause_insufficient_judgements,
            FailureCause::LpInfeasible => &self.counters.cause_lp_infeasible,
            FailureCause::LpNumerical => &self.counters.cause_lp_numerical,
            FailureCause::InvalidInput => &self.counters.cause_invalid_input,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` readings rejected at the `localize` input boundary.
    pub fn record_invalid_readings(&self, n: u64) {
        self.counters
            .invalid_readings
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records one dispatched batch of `size` requests.
    pub fn record_batch(&self, size: u64) {
        self.counters
            .batches_dispatched
            .fetch_add(1, Ordering::Relaxed);
        self.batch_sizes.record(size);
    }

    /// Records the venue composition of one serving micro-batch:
    /// `distinct_venues ≤ 1` counts as homogeneous, anything else as mixed.
    /// The venue-sharding batcher calls this on every dispatch so tests
    /// can assert micro-batches never mix venues.
    pub fn record_batch_composition(&self, distinct_venues: u64) {
        if distinct_venues > 1 {
            self.counters.batches_mixed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters
                .batches_homogeneous
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one request rejected by admission control (queue full).
    pub fn record_overload(&self) {
        self.counters.queue_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request that aged past its deadline before solving.
    pub fn record_deadline_miss(&self) {
        self.counters
            .deadline_missed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the admission-queue high-water mark to at least `depth`.
    pub fn note_queue_depth(&self, depth: u64) {
        self.counters
            .queue_depth_peak
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one admission that found its dispatch-shard lock held
    /// (sharded batching plane enqueue contention).
    pub fn record_enqueue_contention(&self) {
        self.counters
            .enqueue_contention
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one micro-batch stolen from a sibling dispatch shard.
    pub fn record_queue_steal(&self) {
        self.counters.queue_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the single-shard queue-depth high-water mark to at least
    /// `depth` (sharded batching plane).
    pub fn note_shard_depth(&self, depth: u64) {
        self.counters
            .shard_depth_peak
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Records `bytes` of encoded reply frames.
    ///
    /// Serving-layer only (the daemon's reply path); in-process batch runs
    /// never touch this counter, so [`CounterTotals`] determinism across
    /// worker counts is unaffected.
    pub fn record_reply_encode(&self, bytes: u64) {
        self.counters
            .reply_bytes_encoded
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Copies the current state out as plain data.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self.counters.load(),
            extract_latency: self.extract_latency.snapshot(),
            judge_latency: self.judge_latency.snapshot(),
            solve_latency: self.solve_latency.snapshot(),
            batch_sizes: self.batch_sizes.snapshot(),
        }
    }

    /// Zeroes every counter and histogram.
    pub fn reset(&self) {
        self.counters.reset();
        self.extract_latency.reset();
        self.judge_latency.reset();
        self.solve_latency.reset();
        self.batch_sizes.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            LATENCY_BUCKETS - 1
        );
    }

    #[test]
    fn histogram_counts_and_mean() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(300));
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_ns, 400);
        assert!((s.mean_ns() - 200.0).abs() < 1e-9);
        // 100 ns → bucket 6 ([64, 128)); 300 ns → bucket 8 ([256, 512)).
        assert_eq!(s.buckets[6], 1);
        assert_eq!(s.buckets[8], 1);
    }

    #[test]
    fn quantile_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100));
        }
        h.record(Duration::from_micros(100));
        let s = h.snapshot();
        assert!(s.quantile_upper_bound_ns(0.5) <= 128);
        assert!(s.quantile_upper_bound_ns(1.0) >= 100_000);
        assert_eq!(
            LatencySnapshot {
                buckets: [0; LATENCY_BUCKETS],
                total_ns: 0,
            }
            .quantile_upper_bound_ns(0.5),
            0
        );
    }

    #[test]
    fn counters_accumulate() {
        let stats = PipelineStats::new();
        stats.record_extract(4, 3, Duration::from_micros(5));
        stats.record_judge(3, Duration::from_micros(2));
        stats.record_solve(
            9,
            17,
            1,
            2,
            true,
            EstimateQuality::Full,
            Duration::from_micros(40),
        );
        stats.record_solve(
            9,
            11,
            0,
            0,
            false,
            EstimateQuality::Region,
            Duration::from_micros(35),
        );
        stats.record_failure(FailureCause::LpInfeasible, Duration::from_micros(1));
        let c = stats.snapshot().counters;
        assert_eq!(c.requests, 3);
        assert_eq!(c.reports_in, 4);
        assert_eq!(c.readings_extracted, 3);
        assert_eq!(c.judgements_formed, 3);
        assert_eq!(c.constraints_generated, 18);
        assert_eq!(c.simplex_iterations, 28);
        assert_eq!(c.warm_start_hits, 1);
        assert_eq!(c.phase1_pivots_saved, 2);
        assert_eq!(c.relaxations_triggered, 1);
        assert_eq!(c.estimate_failures, 1);
        assert_eq!(c.quality_full, 1);
        assert_eq!(c.quality_region, 1);
        assert_eq!(c.quality_centroid, 0);
        assert_eq!(c.cause_lp_infeasible, 1);
    }

    #[test]
    fn cause_counters_cover_every_variant() {
        let stats = PipelineStats::new();
        stats.record_cause(FailureCause::InsufficientJudgements);
        stats.record_cause(FailureCause::LpInfeasible);
        stats.record_cause(FailureCause::LpNumerical);
        stats.record_cause(FailureCause::InvalidInput);
        stats.record_invalid_readings(3);
        let c = stats.snapshot().counters;
        assert_eq!(c.cause_insufficient_judgements, 1);
        assert_eq!(c.cause_lp_infeasible, 1);
        assert_eq!(c.cause_lp_numerical, 1);
        assert_eq!(c.cause_invalid_input, 1);
        assert_eq!(c.invalid_readings, 3);
        // Causes alone are not requests or failures.
        assert_eq!(c.requests, 0);
        assert_eq!(c.estimate_failures, 0);
        let text = stats.snapshot().to_string();
        assert!(text.contains("cause: insufficient judgements"));
        assert!(text.contains("invalid readings      3"));
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = PipelineStats::new();
        stats.record_extract(4, 3, Duration::from_micros(5));
        stats.record_solve(
            9,
            17,
            1,
            2,
            true,
            EstimateQuality::Centroid,
            Duration::from_micros(40),
        );
        stats.record_failure(FailureCause::InvalidInput, Duration::from_micros(1));
        stats.record_invalid_readings(2);
        stats.reset();
        let s = stats.snapshot();
        assert_eq!(s.counters, CounterTotals::default());
        assert_eq!(s.extract_latency.count(), 0);
        assert_eq!(s.solve_latency.count(), 0);
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        let stats = PipelineStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        stats.record_solve(
                            5,
                            3,
                            1,
                            1,
                            false,
                            EstimateQuality::Full,
                            Duration::from_nanos(10),
                        );
                    }
                });
            }
        });
        let c = stats.snapshot().counters;
        assert_eq!(c.requests, 8000);
        assert_eq!(c.constraints_generated, 40_000);
        assert_eq!(c.simplex_iterations, 24_000);
        assert_eq!(c.warm_start_hits, 8000);
        assert_eq!(c.phase1_pivots_saved, 8000);
        assert_eq!(c.quality_full, 8000);
    }

    #[test]
    fn size_histogram_quantiles() {
        let h = SizeHistogram::default();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(32);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.total, 90 + 320);
        assert!((s.mean() - 4.1).abs() < 1e-9);
        assert_eq!(s.quantile_upper_bound(0.5), 2);
        assert_eq!(s.quantile_upper_bound(1.0), 64);
        assert_eq!(
            SizeSnapshot {
                buckets: [0; SIZE_BUCKETS],
                total: 0,
            }
            .quantile_upper_bound(0.5),
            0
        );
    }

    #[test]
    fn serving_counters_accumulate_and_reset() {
        let stats = PipelineStats::new();
        stats.record_batch(8);
        stats.record_batch(2);
        stats.record_overload();
        stats.record_deadline_miss();
        stats.note_queue_depth(5);
        stats.note_queue_depth(3); // lower than peak: no effect
        let s = stats.snapshot();
        assert_eq!(s.counters.batches_dispatched, 2);
        assert_eq!(s.counters.queue_rejected, 1);
        assert_eq!(s.counters.deadline_missed, 1);
        assert_eq!(s.counters.queue_depth_peak, 5);
        assert_eq!(s.batch_sizes.count(), 2);
        let text = s.to_string();
        assert!(text.contains("batches dispatched    2"));
        assert!(text.contains("queue depth peak      5"));
        assert!(text.contains("overload rejections   1"));
        assert!(text.contains("deadline misses       1"));
        stats.reset();
        let s = stats.snapshot();
        assert_eq!(s.counters, CounterTotals::default());
        assert_eq!(s.batch_sizes.count(), 0);
    }

    #[test]
    fn dispatch_plane_counters_accumulate_and_reset() {
        let stats = PipelineStats::new();
        stats.record_enqueue_contention();
        stats.record_queue_steal();
        stats.record_queue_steal();
        stats.note_shard_depth(7);
        stats.note_shard_depth(4); // lower than peak: no effect
        let c = stats.snapshot().counters;
        assert_eq!(c.enqueue_contention, 1);
        assert_eq!(c.queue_steals, 2);
        assert_eq!(c.shard_depth_peak, 7);
        let text = stats.snapshot().to_string();
        assert!(text.contains("shard depth peak      7"));
        assert!(text.contains("queue steals          2"));
        assert!(text.contains("enqueue contention    1"));
        stats.reset();
        let s = stats.snapshot();
        assert_eq!(s.counters, CounterTotals::default());
        assert!(!s.to_string().contains("queue steals"));
    }

    #[test]
    fn batch_composition_counters() {
        let stats = PipelineStats::new();
        stats.record_batch_composition(1);
        stats.record_batch_composition(0);
        stats.record_batch_composition(3);
        let c = stats.snapshot().counters;
        assert_eq!(c.batches_homogeneous, 2);
        assert_eq!(c.batches_mixed, 1);
        let text = stats.snapshot().to_string();
        assert!(text.contains("batch venue mix       homogeneous 2 / mixed 1"));
        stats.reset();
        let s = stats.snapshot();
        assert_eq!(s.counters, CounterTotals::default());
        assert!(!s.to_string().contains("batch venue mix"));
    }

    #[test]
    fn reply_encode_counters_accumulate_and_reset() {
        let stats = PipelineStats::new();
        stats.record_reply_encode(100);
        stats.record_reply_encode(60);
        stats.record_reply_encode(40);
        let c = stats.snapshot().counters;
        assert_eq!(c.reply_bytes_encoded, 200);
        let text = stats.snapshot().to_string();
        assert!(text.contains("reply bytes encoded   200\n"));
        stats.reset();
        let c = stats.snapshot().counters;
        assert_eq!(c, CounterTotals::default());
        // Nothing encoded: the line disappears entirely.
        assert!(!stats.snapshot().to_string().contains("reply bytes"));
    }

    #[test]
    fn display_renders_latency_percentiles() {
        let stats = PipelineStats::new();
        stats.record_solve(
            5,
            7,
            2,
            3,
            false,
            EstimateQuality::Full,
            Duration::from_micros(20),
        );
        let text = stats.snapshot().to_string();
        assert!(text.contains("p50 ≤"));
        assert!(text.contains("p95 ≤"));
        assert!(text.contains("p99 ≤"));
    }

    #[test]
    fn display_renders() {
        let stats = PipelineStats::new();
        stats.record_extract(2, 2, Duration::from_micros(3));
        stats.record_judge(1, Duration::from_micros(1));
        stats.record_solve(
            5,
            7,
            2,
            3,
            false,
            EstimateQuality::Full,
            Duration::from_micros(20),
        );
        let text = stats.snapshot().to_string();
        assert!(text.contains("requests"));
        assert!(text.contains("simplex iterations    7"));
        assert!(text.contains("warm-start hits       2"));
        assert!(text.contains("phase-1 pivots saved  3"));
        assert!(text.contains("solve"));
    }
}

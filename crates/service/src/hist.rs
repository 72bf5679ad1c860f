//! Bounded log-scale histograms (HDR-style) for service metrics.
//!
//! The seed metrics kept every per-batch and per-query sample in a
//! `Vec<f64>`, so a long-running service leaked memory and every
//! `snapshot()` paid an O(n log n) clone-and-sort. A [`Histogram`] replaces
//! that with a **fixed** array of [`N_BUCKETS`] counters: memory is
//! O(buckets) no matter how many samples are recorded, and percentiles are
//! an O(buckets) walk.
//!
//! **Bucket layout.** Values are bucketed logarithmically with
//! [`SUB_BUCKETS`] *linear* sub-buckets per octave — the classic
//! HDR-histogram trick: take the value's binary exponent (relative to
//! [`MIN_VALUE`]) and the top 3 mantissa bits. Every bucket's width is
//! ≤ 1/8 of its lower edge, so any reported percentile is within 12.5%
//! relative error of the exact sample — and within *one bucket width*, the
//! bound the property tests check against the exact-sort oracle.
//! Bucket 0 absorbs everything below [`MIN_VALUE`] (including zero);
//! the last bucket absorbs everything above the ~3×10¹⁰ top edge.
//!
//! **Determinism.** Bucket indexing uses only IEEE division and bit
//! extraction (no `log2`), counts are integers, and the `min`/`max`/`sum`
//! side-channels are order-independent (`min`/`max` commute; the sum is a
//! *fixed-point integer* in [`SUM_UNIT`] units, and integer addition is
//! associative). Snapshots are therefore a function of the sample multiset
//! alone — the same contract the seed's sorted-sum trick provided, now in
//! O(1) memory.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per octave (top 3 mantissa bits → 8).
pub const SUB_BUCKETS: usize = 8;
/// Total buckets: 48 octaves × 8 sub-buckets.
pub const N_BUCKETS: usize = 48 * SUB_BUCKETS;
/// Lower edge of the resolvable range. In millisecond units this is
/// 0.1 µs; the top edge is `MIN_VALUE << 48` ≈ 2.8×10¹⁰ (≈ 325 days of
/// milliseconds) — wide enough for every series the service records
/// (latencies, modeled ms, node visits, occupancy fractions).
pub const MIN_VALUE: f64 = 1e-4;
/// Fixed-point unit of the deterministic running sum: one millionth of
/// the recorded unit (1 ns when the series is in ms).
pub const SUM_UNIT: f64 = 1e-6;

/// A bounded log-scale histogram. Memory is O([`N_BUCKETS`]) forever.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Box<[u64; N_BUCKETS]>,
    count: u64,
    /// Order-independent exact extrema of the recorded samples.
    min: f64,
    max: f64,
    /// Σ samples in fixed-point [`SUM_UNIT`] units (deterministic). 128
    /// bits, because a node-visit series adds ~3×10¹⁰ units a batch and
    /// would wrap 64 within weeks of serving.
    sum_fp: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; N_BUCKETS]),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum_fp: 0,
        }
    }
}

/// Bucket index of `v`. Non-finite and non-positive values land in
/// bucket 0; values beyond the top edge clamp into the last bucket.
pub fn bucket_index(v: f64) -> usize {
    let r = v / MIN_VALUE;
    if !v.is_finite() || r <= 1.0 {
        return 0;
    }
    let bits = r.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as usize - 1023;
    let sub = ((bits >> 49) & 0x7) as usize;
    (exp * SUB_BUCKETS + sub).min(N_BUCKETS - 1)
}

/// Exclusive upper edge of bucket `i` (the value a percentile lookup
/// reports for samples in that bucket, before clamping to the observed
/// extrema).
pub fn bucket_hi(i: usize) -> f64 {
    let octave = (i / SUB_BUCKETS) as i32;
    let sub = (i % SUB_BUCKETS) as f64;
    MIN_VALUE * 2f64.powi(octave) * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64)
}

/// Inclusive lower edge of bucket `i` (0 for bucket 0, which also holds
/// all sub-[`MIN_VALUE`] samples).
pub fn bucket_lo(i: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let octave = (i / SUB_BUCKETS) as i32;
    let sub = (i % SUB_BUCKETS) as f64;
    MIN_VALUE * 2f64.powi(octave) * (1.0 + sub / SUB_BUCKETS as f64)
}

impl Histogram {
    /// Record one sample. Negative and non-finite values are clamped into
    /// bucket 0 (they only arise from clock edge cases; losing them in the
    /// lowest bucket beats panicking a worker).
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum_fp = self.sum_fp.saturating_add((v / SUM_UNIT).round() as u128);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Deterministic sum of all recorded samples ([`SUM_UNIT`] resolution).
    pub fn sum(&self) -> f64 {
        self.sum_fp as f64 * SUM_UNIT
    }

    /// Mean of the recorded samples, from [`Self::sum`] (0 when empty).
    pub fn mean(&self) -> f64 {
        self.sum() / self.count.max(1) as f64
    }

    /// Nearest-rank percentile (`p` in 0..=100) from the buckets: the
    /// upper edge of the bucket holding the rank-th sample, clamped to the
    /// exact observed `[min, max]`. 0 when empty. Within one bucket width
    /// of the exact-sort oracle by construction.
    pub fn percentile(&self, p: f64) -> f64 {
        let buckets = self.buckets.iter().copied().enumerate();
        percentile_of(buckets, self.count, self.min, self.max, p)
    }

    /// Freeze into a serializable snapshot (sparse buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            min: self.min(),
            max: self.max(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

/// Samples below which a p99.9 request cannot resolve a distinct rank:
/// with fewer than 1000 samples, nearest-rank p99.9 *is* the maximum, so
/// return the exact observed max instead of a bucket upper edge.
const P999_EXACT_FLOOR: u64 = 1000;

/// The nearest-rank walk behind every percentile: `buckets` are
/// `(index, count)` pairs ascending by index, dense or sparse.
fn percentile_of(
    buckets: impl Iterator<Item = (usize, u64)>,
    total: u64,
    min: f64,
    max: f64,
    p: f64,
) -> f64 {
    if total == 0 {
        return 0.0;
    }
    if p >= 99.9 && total < P999_EXACT_FLOOR {
        return max;
    }
    let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, c) in buckets {
        seen += c;
        if seen >= rank {
            return bucket_hi(i).clamp(min, max);
        }
    }
    max
}

/// Point-in-time export of one histogram: sparse `(bucket, count)` pairs
/// plus exact extrema and the deterministic sum. JSON-serializable; the
/// Prometheus exporter renders cumulative `_bucket` lines from it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact minimum sample (0 when empty).
    pub min: f64,
    /// Exact maximum sample (0 when empty).
    pub max: f64,
    /// Deterministic fixed-point sum of samples.
    pub sum: f64,
    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Same nearest-rank percentile as [`Histogram::percentile`].
    pub fn percentile(&self, p: f64) -> f64 {
        let buckets = self.buckets.iter().map(|&(i, c)| (i as usize, c));
        percentile_of(buckets, self.count, self.min, self.max, p)
    }

    /// Render one Prometheus histogram series: cumulative `_bucket{le=}`
    /// lines over the non-empty buckets, then `+Inf`, `_sum`, `_count`.
    /// `labels` (e.g. `index="cities"`, or empty) are merged into every
    /// line, and what `exemplar` returns for a bucket index is appended
    /// to that bucket's line in OpenMetrics syntax (`# {labels} value`).
    /// The caller writes the family's `# TYPE` header: one per family,
    /// then one series per label set.
    pub fn to_prometheus(
        &self,
        name: &str,
        labels: &str,
        exemplar: impl Fn(u32) -> Option<String>,
        out: &mut String,
    ) {
        let (sep, braced) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            out.push_str(&format!(
                "{name}_bucket{{{sep}le=\"{}\"}} {cum}",
                bucket_hi(i as usize)
            ));
            if let Some(exemplar) = exemplar(i) {
                out.push_str(&format!(" # {exemplar}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{name}_bucket{{{sep}le=\"+Inf\"}} {}\n",
            self.count
        ));
        out.push_str(&format!("{name}_sum{braced} {}\n", self.sum));
        out.push_str(&format!("{name}_count{braced} {}\n", self.count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Exact nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when
    /// empty. The O(n log n) clone-and-sort the seed ran on every snapshot,
    /// kept as the oracle the histogram percentiles are held to.
    fn exact_percentile(samples: &[f64], p: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    #[test]
    fn exact_percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(exact_percentile(&xs, 50.0), 50.0);
        assert_eq!(exact_percentile(&xs, 99.0), 99.0);
        assert_eq!(exact_percentile(&xs, 100.0), 100.0);
        assert_eq!(exact_percentile(&[], 50.0), 0.0);
        assert_eq!(exact_percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn bucket_edges_tile_the_range() {
        // hi(i) == lo(i+1), and every bucket's width is ≤ 1/8 of its lower
        // edge (the one-bucket error bound the percentiles inherit).
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(bucket_hi(i), bucket_lo(i + 1), "bucket {i}");
            let (lo, hi) = (bucket_lo(i), bucket_hi(i));
            assert!(hi > lo, "bucket {i} empty");
            if i > 0 {
                assert!(hi / lo <= 1.125 + 1e-12, "bucket {i} too wide");
            }
        }
    }

    #[test]
    fn bucket_index_brackets_the_value() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = 10f64.powf(rng.gen_range(-5.0..9.0));
            let i = bucket_index(v);
            assert!(v < bucket_hi(i), "v {v} above bucket {i}");
            assert!(v >= bucket_lo(i), "v {v} below bucket {i}");
        }
    }

    #[test]
    fn degenerate_values_land_in_bucket_zero() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(MIN_VALUE * 0.5), 0);
        assert_eq!(bucket_index(f64::INFINITY), 0);
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(-1.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn extremes_are_exact_and_empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.max(), 0.0);
        let mut h = Histogram::default();
        h.record(3.75);
        assert_eq!(h.max(), 3.75);
        assert_eq!(h.min(), 3.75);
        // A single sample: clamping to [min, max] makes every percentile
        // exact.
        assert_eq!(h.percentile(50.0), 3.75);
        assert_eq!(h.percentile(99.9), 3.75);
    }

    #[test]
    fn p999_clamps_to_exact_max_below_a_thousand_samples() {
        // Under 1000 samples, nearest-rank p99.9 is the maximum — report
        // the exact observed max, not the max's bucket upper edge.
        let mut h = Histogram::default();
        for _ in 0..500 {
            h.record(1.0);
        }
        h.record(123.456);
        assert_eq!(h.percentile(99.9), 123.456);
        assert_eq!(h.percentile(100.0), 123.456);
        assert_eq!(h.snapshot().percentile(99.9), 123.456);
        // Lower percentiles still resolve from the buckets: p50 stays in
        // the 1.0 bucket, nowhere near the outlier.
        assert!(h.percentile(50.0) < 2.0);
        // At ≥ 1000 samples the rank walk takes over and must agree with
        // the clamp at the top end.
        let mut big = Histogram::default();
        for _ in 0..2000 {
            big.record(1.0);
        }
        big.record(123.456);
        assert_eq!(big.percentile(100.0), 123.456);
        assert!(big.percentile(99.9) <= 123.456);
    }

    #[test]
    fn sum_is_deterministic_across_orders() {
        let xs = [0.1, 7.25, 1e6, 0.33333, 19.0, 0.0002];
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for x in xs {
            a.record(x);
        }
        for x in xs.iter().rev() {
            b.record(*x);
        }
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.snapshot(), b.snapshot());
        let want: f64 = xs.iter().sum();
        assert!((a.sum() - want).abs() <= SUM_UNIT * xs.len() as f64);
    }

    #[test]
    fn snapshot_percentiles_match_live_histogram() {
        let mut h = Histogram::default();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..5000 {
            h.record(rng.gen_range(0.01..100.0));
        }
        let s = h.snapshot();
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), s.percentile(p), "p{p}");
        }
        assert_eq!(s.count, 5000);
        assert!(s.buckets.len() <= N_BUCKETS);
    }

    #[test]
    fn sum_survives_samples_that_overflow_64_bits() {
        // Each sample is 1.5e19 fixed-point units: two of them exceed
        // u64::MAX, which panicked a debug build and wrapped a release one.
        let mut h = Histogram::default();
        h.record(1.5e13);
        h.record(1.5e13);
        assert_eq!(h.sum(), 3e13);
        // Absurd samples saturate instead of panicking the recording thread.
        h.record(f64::MAX);
        h.record(f64::MAX);
        assert!(h.sum() >= 3e13);
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let mut h = Histogram::default();
        for v in [0.5, 0.5, 40.0] {
            h.record(v);
        }
        let mut out = String::new();
        h.snapshot()
            .to_prometheus("gts_test_ms", "", |_| None, &mut out);
        assert!(!out.contains("# TYPE"), "the header is the caller's");
        assert!(out.contains("gts_test_ms_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("gts_test_ms_count 3"));
        // The 40.0 bucket's cumulative count includes the two 0.5s.
        let last_bucket = out
            .lines()
            .rfind(|l| l.contains("le=") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_bucket.ends_with(" 3"), "{last_bucket}");
        // Labeled rendering: same numbers, labels merged before `le`; an
        // exemplar rides the bucket line it was returned for.
        let mut labeled = String::new();
        let exemplar =
            |i: u32| (i == bucket_index(40.0) as u32).then(|| "{q=\"7\"} 40".to_string());
        h.snapshot()
            .to_prometheus("gts_test_ms", r#"index="a""#, exemplar, &mut labeled);
        assert!(labeled.contains(r#"gts_test_ms_bucket{index="a",le="+Inf"} 3"#));
        assert!(labeled.contains(r#"gts_test_ms_count{index="a"} 3"#));
        let with_exemplar: Vec<&str> = labeled.lines().filter(|l| l.contains(" # ")).collect();
        assert_eq!(with_exemplar.len(), 1, "{labeled}");
        assert!(
            with_exemplar[0].ends_with(r#" 3 # {q="7"} 40"#),
            "{labeled}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The tentpole's accuracy contract: every histogram percentile is
        // within one bucket width of the exact clone-and-sort oracle the
        // seed metrics used.
        #[test]
        fn percentile_within_one_bucket_of_exact_oracle(
            n in 1usize..300,
            seed in 0u64..1_000,
            p_tenths in 0u32..=1_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut h = Histogram::default();
            let samples: Vec<f64> = (0..n)
                .map(|_| 10f64.powf(rng.gen_range(-5.0..6.0)))
                .collect();
            for &s in &samples {
                h.record(s);
            }
            let p = p_tenths as f64 / 10.0;
            let exact = exact_percentile(&samples, p);
            let approx = h.percentile(p);
            // Same nearest-rank rule → same bucket; the report is that
            // bucket's upper edge clamped to the true extrema.
            let b = bucket_index(exact);
            let width = bucket_hi(b) - bucket_lo(b);
            prop_assert!(approx >= exact - 1e-12,
                "approx {approx} under exact {exact}");
            prop_assert!(approx - exact <= width + 1e-12,
                "approx {approx} vs exact {exact}: off by more than bucket width {width}");
        }

        // Insertion order never changes a snapshot (determinism contract).
        #[test]
        fn snapshot_is_order_independent(n in 2usize..200, seed in 0u64..1_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e4)).collect();
            let mut fwd = Histogram::default();
            let mut rev = Histogram::default();
            for &s in &samples {
                fwd.record(s);
            }
            for &s in samples.iter().rev() {
                rev.record(s);
            }
            prop_assert_eq!(fwd.snapshot(), rev.snapshot());
        }
    }
}

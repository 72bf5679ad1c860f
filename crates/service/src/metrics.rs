//! Service metrics: counters plus bounded log-scale histograms, exportable
//! as JSON or Prometheus text.
//!
//! One mutex over the whole registry — recording happens once per *batch*
//! (plus once per completed query for latency), far off any hot path the
//! simulated executors dominate.
//!
//! Memory is **O(buckets)**: every sample series is a fixed
//! [`crate::hist::N_BUCKETS`]-bucket [`Histogram`], never a growing `Vec`.
//! A `serve` session can run for days without the registry growing by a
//! byte ([`Metrics::approx_bytes`] is the testable bound). Determinism is
//! preserved: histogram counts are integers, sums are fixed-point, and
//! `min`/`max` commute, so a deterministic workload still yields
//! bit-identical snapshots regardless of worker interleaving.

use crate::hist::{bucket_hi, bucket_index, Histogram, HistogramSnapshot, N_BUCKETS};
use crate::index::BatchOutcome;
use crate::policy::Backend;
use crate::slowlog::SLOW_LOG_WARMUP;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Everything the registry records about one executed batch. Built from a
/// [`BatchOutcome`] via [`BatchRecord::from_outcome`]; replaces the old
/// seven-argument `on_batch` signature.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Name of the index the batch ran against.
    pub index: String,
    /// Queries in the batch.
    pub size: usize,
    /// Executor that ran it.
    pub backend: Backend,
    /// Tree-node visits across the batch.
    pub node_visits: u64,
    /// Modeled GPU milliseconds (0 for the CPU backend).
    pub model_ms: f64,
    /// Lockstep work expansion (1.0 when not applicable).
    pub work_expansion: f64,
    /// Mean live-lane fraction per warp node visit (1.0 for CPU runs).
    pub mask_occupancy: f64,
    /// `(query, shard)` pairs pruned by a sharded index's AABB bounds.
    pub shards_pruned: u64,
    /// Longest submit-to-dispatch wait among the batch's queries.
    pub queue_wait: Duration,
    /// Wall-clock execution time of the batch on its worker (dispatch →
    /// tickets resolved) — the sample feeding the admission model's EWMA
    /// batch service time.
    pub exec: Duration,
    /// Sub-batches served from a shard's profile cache.
    pub profile_cache_hits: u64,
    /// Cache consultations that re-ran the profiler.
    pub profile_cache_misses: u64,
    /// Cache entries dropped during the batch.
    pub profile_cache_evictions: u64,
    /// Peak rope-stack bytes any warp used (0 for stackless/CPU runs).
    pub stack_bytes_peak: u64,
    /// Rope-stack memory transactions the batch paid.
    pub stack_transactions: u64,
    /// Distinct constituent ops if this was a fused multi-op batch
    /// (0 for an unfused batch).
    pub fused_ops: u32,
    /// Deduplicated lanes the fused walk carried (0 for unfused).
    pub fused_lanes: u64,
    /// Node visits fusion saved vs. modeled per-op solo walks.
    pub fusion_saved_visits: u64,
}

impl BatchRecord {
    /// Record for `outcome` against index `index`, with the batch's
    /// measured `queue_wait` and wall-clock `exec` time.
    pub fn from_outcome(
        outcome: &BatchOutcome,
        queue_wait: Duration,
        exec: Duration,
        index: &str,
    ) -> Self {
        BatchRecord {
            index: index.to_string(),
            size: outcome.results.len(),
            backend: outcome.backend,
            node_visits: outcome.node_visits,
            model_ms: outcome.model_ms,
            work_expansion: outcome.work_expansion,
            mask_occupancy: outcome.mask_occupancy,
            shards_pruned: outcome.shards_pruned,
            queue_wait,
            exec,
            profile_cache_hits: outcome.profile_cache_hits,
            profile_cache_misses: outcome.profile_cache_misses,
            profile_cache_evictions: outcome.profile_cache_evictions,
            stack_bytes_peak: outcome.stack_bytes_peak,
            stack_transactions: outcome.stack_transactions,
            fused_ops: outcome.fused_ops,
            fused_lanes: outcome.fused_lanes,
            fusion_saved_visits: outcome.fusion_saved_visits,
        }
    }
}

/// EWMA smoothing factor for the admission model's batch service time and
/// batch size: recent batches dominate (a load shift re-models within a
/// few batches) without single-batch noise whipsawing verdicts.
pub const EWMA_ALPHA: f64 = 0.25;

#[derive(Debug, Default)]
struct Inner {
    submitted: u64,
    completed: u64,
    rejected: u64,
    batches: u64,
    batch_size_sum: u64,
    batch_size_max: u64,
    // One slot per Backend::ALL entry, indexed by Backend::index() — new
    // backends get a metrics series by being added to ALL, nowhere else.
    backend_batches: [u64; Backend::ALL.len()],
    node_visits: u64,
    stack_bytes_peak: u64,
    stack_transactions: u64,
    shards_pruned: u64,
    profile_cache_hits: u64,
    profile_cache_misses: u64,
    profile_cache_evictions: u64,
    fused_batches: u64,
    fused_lanes: u64,
    fusion_saved_visits: u64,
    admission_rejected: u64,
    // Network front-end counters, recorded by the socket server through
    // `Service::metrics_registry` so one snapshot covers the full path.
    net_connections: u64,
    net_frames_rx: u64,
    net_frames_tx: u64,
    net_bytes_rx: u64,
    net_bytes_tx: u64,
    net_protocol_errors: u64,
    // Epoch/mutation counters, fed by the observer `register_index`
    // attaches to every mutable index.
    mutations: u64,
    epoch_merges: u64,
    epoch_deltas_flushed: u64,
    epoch: u64,
    epoch_delta_depth: u64,
    // Queries that arrived carrying a propagated (non-local) trace
    // context from a network client.
    trace_propagated: u64,
    // Last (query id, trace id, value ms) to land in each latency bucket
    // — the OpenMetrics exemplars. Keyed by bucket index, so the map is
    // bounded by N_BUCKETS no matter how many queries complete.
    latency_exemplars: BTreeMap<u32, (u64, u64, f64)>,
    // Admission model state: exponentially weighted batch service time
    // (wall ms) and batch size, updated once per executed batch.
    ewma_batch_service_ms: f64,
    ewma_batch_size: f64,
    // Bounded histograms, one per sample series. Their fixed-point sums
    // replace the seed's sort-before-summing determinism trick.
    model_ms: Histogram,
    work_expansion: Histogram,
    mask_occupancy: Histogram,
    batch_node_visits: Histogram,
    queue_wait_ms: Histogram,
    latency_ms: Histogram,
    batch_exec_ms: Histogram,
    epoch_merge_ms: Histogram,
    // Per-index series, keyed by index name. Bounded by the number of
    // *registered indices* (a handful, fixed at service start), not by
    // load — the memory bound stays O(indices × buckets).
    per_index: BTreeMap<String, IndexSeries>,
}

#[derive(Debug, Default)]
struct IndexSeries {
    batches: u64,
    completed: u64,
    model_ms: Histogram,
    latency_ms: Histogram,
}

/// Shared metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// One query accepted into the submission queue.
    pub fn on_submit(&self) {
        self.lock().submitted += 1;
    }

    /// One query rejected at submission (validation or shutdown).
    pub fn on_reject(&self) {
        self.lock().rejected += 1;
    }

    /// One batch dispatched and executed.
    pub fn on_batch(&self, rec: &BatchRecord) {
        let mut m = self.lock();
        m.batches += 1;
        m.batch_size_sum += rec.size as u64;
        m.batch_size_max = m.batch_size_max.max(rec.size as u64);
        m.backend_batches[rec.backend.index()] += 1;
        m.node_visits += rec.node_visits;
        m.stack_bytes_peak = m.stack_bytes_peak.max(rec.stack_bytes_peak);
        m.stack_transactions += rec.stack_transactions;
        m.shards_pruned += rec.shards_pruned;
        m.profile_cache_hits += rec.profile_cache_hits;
        m.profile_cache_misses += rec.profile_cache_misses;
        m.profile_cache_evictions += rec.profile_cache_evictions;
        if rec.fused_lanes > 0 {
            m.fused_batches += 1;
        }
        m.fused_lanes += rec.fused_lanes;
        m.fusion_saved_visits += rec.fusion_saved_visits;
        m.model_ms.record(rec.model_ms);
        m.work_expansion.record(rec.work_expansion);
        m.mask_occupancy.record(rec.mask_occupancy);
        m.batch_node_visits.record(rec.node_visits as f64);
        m.queue_wait_ms.record(rec.queue_wait.as_secs_f64() * 1e3);
        let exec_ms = rec.exec.as_secs_f64() * 1e3;
        m.batch_exec_ms.record(exec_ms);
        if m.batches == 1 {
            // First sample seeds the EWMAs directly — no warm-up bias.
            m.ewma_batch_service_ms = exec_ms;
            m.ewma_batch_size = rec.size as f64;
        } else {
            m.ewma_batch_service_ms =
                EWMA_ALPHA * exec_ms + (1.0 - EWMA_ALPHA) * m.ewma_batch_service_ms;
            m.ewma_batch_size =
                EWMA_ALPHA * rec.size as f64 + (1.0 - EWMA_ALPHA) * m.ewma_batch_size;
        }
        let series = m.per_index.entry(rec.index.clone()).or_default();
        series.batches += 1;
        series.model_ms.record(rec.model_ms);
    }

    /// One query rejected by latency-budget admission control (also counts
    /// as a rejection).
    pub fn on_admission_reject(&self) {
        let mut m = self.lock();
        m.rejected += 1;
        m.admission_rejected += 1;
    }

    /// Modeled queue wait for a submission arriving behind `depth`
    /// unresolved queries: EWMA batch service time × the number of
    /// EWMA-sized batches those queries fill. Zero until the first batch
    /// executes (no model yet ⇒ admit).
    pub fn predicted_wait(&self, depth: u64) -> Duration {
        let m = self.lock();
        if m.ewma_batch_service_ms <= 0.0 || m.ewma_batch_size < 1.0 || depth == 0 {
            return Duration::ZERO;
        }
        let batches_ahead = (depth as f64 / m.ewma_batch_size).ceil();
        Duration::from_secs_f64(batches_ahead * m.ewma_batch_service_ms / 1e3)
    }

    /// One TCP connection accepted by the network front-end.
    pub fn on_net_accept(&self) {
        self.lock().net_connections += 1;
    }

    /// One frame decoded off a connection (`bytes` = body length).
    pub fn on_net_frame_rx(&self, bytes: u64) {
        let mut m = self.lock();
        m.net_frames_rx += 1;
        m.net_bytes_rx += bytes;
    }

    /// One frame written to a connection (`bytes` = body length).
    pub fn on_net_frame_tx(&self, bytes: u64) {
        let mut m = self.lock();
        m.net_frames_tx += 1;
        m.net_bytes_tx += bytes;
    }

    /// One malformed or oversized frame rejected by the decoder.
    pub fn on_net_protocol_error(&self) {
        self.lock().net_protocol_errors += 1;
    }

    /// One mutation batch applied to a mutable index: `accepted`
    /// mutations landed, `pending` deltas now await the merge thread.
    pub fn on_mutation(&self, accepted: u64, pending: u64) {
        let mut m = self.lock();
        m.mutations += accepted;
        m.epoch_delta_depth = pending;
    }

    /// One epoch merge landed: the index advanced to `epoch` in `dur`,
    /// folding `deltas_flushed` deltas; `pending_after` arrived during
    /// the merge and stay pending.
    pub fn on_epoch_merge(
        &self,
        epoch: u64,
        dur: Duration,
        deltas_flushed: u64,
        pending_after: u64,
    ) {
        let mut m = self.lock();
        m.epoch_merges += 1;
        m.epoch_deltas_flushed += deltas_flushed;
        m.epoch = m.epoch.max(epoch);
        m.epoch_delta_depth = pending_after;
        m.epoch_merge_ms.record(dur.as_secs_f64() * 1e3);
    }

    /// One query's result delivered by index `index`, `latency` after
    /// submission. `query` is the trace query id and `trace` the
    /// propagated trace id (0 when local) — the pair becomes the
    /// OpenMetrics exemplar for the latency bucket the sample lands in.
    pub fn on_complete(&self, index: &str, latency: Duration, query: u64, trace: u64) {
        let mut m = self.lock();
        m.completed += 1;
        let ms = latency.as_secs_f64() * 1e3;
        m.latency_ms.record(ms);
        m.latency_exemplars
            .insert(bucket_index(ms) as u32, (query, trace, ms));
        if !m.per_index.contains_key(index) {
            m.per_index
                .insert(index.to_string(), IndexSeries::default());
        }
        let series = m.per_index.get_mut(index).expect("just inserted");
        series.completed += 1;
        series.latency_ms.record(ms);
    }

    /// One submission arrived carrying a propagated (non-local) trace
    /// context.
    pub fn on_propagated(&self) {
        self.lock().trace_propagated += 1;
    }

    /// The slow-log commit threshold: the given percentile of the live
    /// latency histogram, in µs. 0 (unarmed) until the histogram holds
    /// [`SLOW_LOG_WARMUP`] samples — a p99 of three queries is noise.
    pub fn slow_threshold_us(&self, percentile: f64) -> u64 {
        let m = self.lock();
        if m.latency_ms.count() < SLOW_LOG_WARMUP {
            return 0;
        }
        (m.latency_ms.percentile(percentile) * 1e3) as u64
    }

    /// Upper bound on the registry's resident size, in bytes. Constant
    /// for a fixed set of registered indices — independent of how many
    /// queries or batches were recorded — which the sustained-load test
    /// asserts.
    pub fn approx_bytes(&self) -> usize {
        let per_index = {
            let m = self.lock();
            m.per_index.len()
                * (std::mem::size_of::<IndexSeries>() + 2 * N_BUCKETS * std::mem::size_of::<u64>())
        };
        std::mem::size_of::<Self>() + 8 * N_BUCKETS * std::mem::size_of::<u64>() + per_index
    }

    /// Snapshot every counter, percentile, and histogram. O(buckets),
    /// never O(samples).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.lock();
        MetricsSnapshot {
            submitted: m.submitted,
            completed: m.completed,
            rejected: m.rejected,
            batches: m.batches,
            mean_batch_size: if m.batches > 0 {
                m.batch_size_sum as f64 / m.batches as f64
            } else {
                0.0
            },
            max_batch_size: m.batch_size_max,
            backend_batches: Backend::ALL
                .iter()
                .map(|b| BackendBatches {
                    backend: b.name().to_string(),
                    batches: m.backend_batches[b.index()],
                })
                .collect(),
            node_visits: m.node_visits,
            stack_bytes_peak: m.stack_bytes_peak,
            stack_transactions: m.stack_transactions,
            shards_pruned: m.shards_pruned,
            profile_cache_hits: m.profile_cache_hits,
            profile_cache_misses: m.profile_cache_misses,
            profile_cache_evictions: m.profile_cache_evictions,
            fused_batches: m.fused_batches,
            fused_lanes: m.fused_lanes,
            fusion_saved_visits: m.fusion_saved_visits,
            admission_rejected: m.admission_rejected,
            net_connections: m.net_connections,
            net_frames_rx: m.net_frames_rx,
            net_frames_tx: m.net_frames_tx,
            net_bytes_rx: m.net_bytes_rx,
            net_bytes_tx: m.net_bytes_tx,
            net_protocol_errors: m.net_protocol_errors,
            mutations: m.mutations,
            epoch_merges: m.epoch_merges,
            epoch_deltas_flushed: m.epoch_deltas_flushed,
            epoch: m.epoch,
            epoch_delta_depth: m.epoch_delta_depth,
            ewma_batch_service_ms: m.ewma_batch_service_ms,
            trace_propagated: m.trace_propagated,
            // The trace recorder and slow log live outside the registry;
            // `Service` stitches their counters in after this snapshot.
            trace_dropped: 0,
            trace_dropped_by_kind: Vec::new(),
            slow_log_committed: 0,
            slow_log_evicted: 0,
            slow_log_pending: 0,
            slow_log_entries: 0,
            slow_log_threshold_us: 0,
            latency_exemplars: m
                .latency_exemplars
                .iter()
                .map(|(&bucket, &(query, trace, value_ms))| LatencyExemplar {
                    bucket,
                    query,
                    trace,
                    value_ms,
                })
                .collect(),
            model_ms: m.model_ms.sum(),
            mean_work_expansion: if m.batches > 0 {
                m.work_expansion.sum() / m.batches as f64
            } else {
                0.0
            },
            mean_mask_occupancy: if m.batches > 0 {
                m.mask_occupancy.sum() / m.batches as f64
            } else {
                0.0
            },
            queue_wait_p50_ms: m.queue_wait_ms.percentile(50.0),
            queue_wait_p99_ms: m.queue_wait_ms.percentile(99.0),
            queue_wait_max_ms: m.queue_wait_ms.max(),
            latency_p50_ms: m.latency_ms.percentile(50.0),
            latency_p99_ms: m.latency_ms.percentile(99.0),
            latency_p999_ms: m.latency_ms.percentile(99.9),
            latency_max_ms: m.latency_ms.max(),
            model_ms_hist: m.model_ms.snapshot(),
            work_expansion_hist: m.work_expansion.snapshot(),
            mask_occupancy_hist: m.mask_occupancy.snapshot(),
            node_visits_hist: m.batch_node_visits.snapshot(),
            queue_wait_hist: m.queue_wait_ms.snapshot(),
            latency_hist: m.latency_ms.snapshot(),
            exec_ms_hist: m.batch_exec_ms.snapshot(),
            epoch_merge_ms_hist: m.epoch_merge_ms.snapshot(),
            per_index: m
                .per_index
                .iter()
                .map(|(name, s)| IndexMetricsSnapshot {
                    index: name.clone(),
                    batches: s.batches,
                    completed: s.completed,
                    latency_p50_ms: s.latency_ms.percentile(50.0),
                    latency_p99_ms: s.latency_ms.percentile(99.0),
                    model_ms: s.model_ms.sum(),
                    latency_hist: s.latency_ms.snapshot(),
                    model_ms_hist: s.model_ms.snapshot(),
                })
                .collect(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Point-in-time export of the registry. JSON-serializable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries whose results were delivered.
    pub completed: u64,
    /// Queries rejected at submission.
    pub rejected: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean queries per batch.
    pub mean_batch_size: f64,
    /// Largest batch dispatched.
    pub max_batch_size: u64,
    /// Batch counts per backend, one entry per [`Backend::ALL`] member in
    /// that order — the dynamic view behind `gts_backend_chosen_total`.
    pub backend_batches: Vec<BackendBatches>,
    /// Total tree-node visits.
    pub node_visits: u64,
    /// Peak rope-stack bytes any warp used across all batches (0 when
    /// every batch ran stackless or on the CPU).
    pub stack_bytes_peak: u64,
    /// Total rope-stack memory transactions.
    pub stack_transactions: u64,
    /// `(query, shard)` pairs sharded indices skipped via AABB bounds.
    pub shards_pruned: u64,
    /// Sub-batches whose §4.4 decision came from a shard profile cache.
    pub profile_cache_hits: u64,
    /// Profile-cache consultations that re-ran the profiler.
    pub profile_cache_misses: u64,
    /// Profile-cache entries dropped (TTL or capacity).
    pub profile_cache_evictions: u64,
    /// Fused multi-op batches dispatched (same-index queries of different
    /// ops answered by one tree walk under the union prune bound).
    pub fused_batches: u64,
    /// Deduplicated lanes carried by fused batches.
    pub fused_lanes: u64,
    /// Node visits fusion saved vs. modeled per-op solo walks.
    pub fusion_saved_visits: u64,
    /// Queries rejected by latency-budget admission control (a subset of
    /// `rejected`).
    pub admission_rejected: u64,
    /// TCP connections accepted by the network front-end.
    pub net_connections: u64,
    /// Frames decoded off network connections.
    pub net_frames_rx: u64,
    /// Frames written to network connections.
    pub net_frames_tx: u64,
    /// Frame body bytes received.
    pub net_bytes_rx: u64,
    /// Frame body bytes sent.
    pub net_bytes_tx: u64,
    /// Malformed or oversized frames rejected by the decoder.
    pub net_protocol_errors: u64,
    /// Mutations (inserts + deletes) accepted by mutable indices.
    pub mutations: u64,
    /// Epoch merges performed across all mutable indices.
    pub epoch_merges: u64,
    /// Delta entries folded into merges.
    pub epoch_deltas_flushed: u64,
    /// Highest epoch any mutable index reached.
    pub epoch: u64,
    /// Pending delta entries after the last mutation or merge.
    pub epoch_delta_depth: u64,
    /// EWMA batch service time (wall ms) — the admission model's per-batch
    /// cost estimate.
    pub ewma_batch_service_ms: f64,
    /// Submissions that carried a propagated (non-local) trace context.
    pub trace_propagated: u64,
    /// Trace-ring events lost to wraparound (stitched in by `Service`).
    pub trace_dropped: u64,
    /// Wraparound drops broken out per event kind, nonzero kinds only.
    pub trace_dropped_by_kind: Vec<KindDropped>,
    /// Slow-log records committed over the service lifetime.
    pub slow_log_committed: u64,
    /// Committed slow-log records evicted by ring wraparound.
    pub slow_log_evicted: u64,
    /// Queries currently in the slow log's pending table.
    pub slow_log_pending: u64,
    /// Slow-log records currently retained.
    pub slow_log_entries: u64,
    /// Rolling slow-log commit threshold, µs (0 until warmed up).
    pub slow_log_threshold_us: u64,
    /// Last (query, trace) to land in each latency bucket — rendered as
    /// OpenMetrics exemplars on `gts_latency_ms`.
    pub latency_exemplars: Vec<LatencyExemplar>,
    /// Total modeled GPU milliseconds.
    pub model_ms: f64,
    /// Mean per-batch lockstep work expansion.
    pub mean_work_expansion: f64,
    /// Mean per-batch warp mask occupancy (live-lane fraction).
    pub mean_mask_occupancy: f64,
    /// Median wait between submission and batch dispatch.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait.
    pub queue_wait_p99_ms: f64,
    /// Longest observed queue wait (exact).
    pub queue_wait_max_ms: f64,
    /// Median submit-to-result latency.
    pub latency_p50_ms: f64,
    /// 99th-percentile submit-to-result latency.
    pub latency_p99_ms: f64,
    /// 99.9th-percentile submit-to-result latency.
    pub latency_p999_ms: f64,
    /// Slowest observed query latency (exact).
    pub latency_max_ms: f64,
    /// Full modeled-ms distribution.
    pub model_ms_hist: HistogramSnapshot,
    /// Full per-batch work-expansion distribution.
    pub work_expansion_hist: HistogramSnapshot,
    /// Full per-batch mask-occupancy distribution.
    pub mask_occupancy_hist: HistogramSnapshot,
    /// Full per-batch node-visit distribution.
    pub node_visits_hist: HistogramSnapshot,
    /// Full queue-wait distribution (ms).
    pub queue_wait_hist: HistogramSnapshot,
    /// Full latency distribution (ms).
    pub latency_hist: HistogramSnapshot,
    /// Full per-batch wall-clock execution-time distribution (ms).
    pub exec_ms_hist: HistogramSnapshot,
    /// Full epoch-merge duration distribution (ms).
    pub epoch_merge_ms_hist: HistogramSnapshot,
    /// Per-index series, sorted by index name (BTreeMap order), so
    /// mixed-index workloads stay separable.
    pub per_index: Vec<IndexMetricsSnapshot>,
}

/// Wraparound-dropped trace events for one event kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KindDropped {
    /// Stable kind tag ([`crate::trace::KIND_NAMES`]).
    pub kind: String,
    /// Events of this kind evicted unread by ring wraparound.
    pub dropped: u64,
}

/// One latency-bucket exemplar: the last query to land in the bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyExemplar {
    /// Latency histogram bucket index ([`crate::hist::bucket_index`]).
    pub bucket: u32,
    /// Trace query id (matches the trace ring and the slow log).
    pub query: u64,
    /// Propagated trace id (0 = local submission).
    pub trace: u64,
    /// The sample itself, milliseconds.
    pub value_ms: f64,
}

/// One backend's batch count in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendBatches {
    /// Stable backend name ([`Backend::name`]).
    pub backend: String,
    /// Batches dispatched to it.
    pub batches: u64,
}

/// One index's slice of the registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexMetricsSnapshot {
    /// Index name (the `index="…"` label value in the Prometheus export).
    pub index: String,
    /// Batches dispatched to this index.
    pub batches: u64,
    /// Queries completed against this index.
    pub completed: u64,
    /// Median submit-to-result latency for this index.
    pub latency_p50_ms: f64,
    /// 99th-percentile latency for this index.
    pub latency_p99_ms: f64,
    /// Total modeled GPU milliseconds for this index.
    pub model_ms: f64,
    /// Full latency distribution (ms).
    pub latency_hist: HistogramSnapshot,
    /// Full per-batch modeled-ms distribution.
    pub model_ms_hist: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Render in the Prometheus text exposition format: `# TYPE` headers,
    /// one line per counter/gauge, and cumulative `_bucket{le=}` series
    /// for every histogram.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let counters: [(&str, u64); 26] = [
            ("gts_queries_submitted_total", self.submitted),
            ("gts_queries_completed_total", self.completed),
            ("gts_queries_rejected_total", self.rejected),
            ("gts_batches_total", self.batches),
            ("gts_node_visits_total", self.node_visits),
            ("gts_stack_transactions_total", self.stack_transactions),
            ("gts_shards_pruned_total", self.shards_pruned),
            ("gts_profile_cache_hits_total", self.profile_cache_hits),
            ("gts_profile_cache_misses_total", self.profile_cache_misses),
            (
                "gts_profile_cache_evictions_total",
                self.profile_cache_evictions,
            ),
            ("gts_fused_batches_total", self.fused_batches),
            ("gts_fused_lanes_total", self.fused_lanes),
            (
                "gts_fusion_node_visits_saved_total",
                self.fusion_saved_visits,
            ),
            ("gts_admission_rejected_total", self.admission_rejected),
            ("gts_net_connections_total", self.net_connections),
            ("gts_net_frames_rx_total", self.net_frames_rx),
            ("gts_net_frames_tx_total", self.net_frames_tx),
            ("gts_net_bytes_rx_total", self.net_bytes_rx),
            ("gts_net_bytes_tx_total", self.net_bytes_tx),
            ("gts_net_protocol_errors_total", self.net_protocol_errors),
            ("gts_mutations_total", self.mutations),
            ("gts_epoch_merges_total", self.epoch_merges),
            ("gts_epoch_deltas_flushed_total", self.epoch_deltas_flushed),
            ("gts_trace_propagated_total", self.trace_propagated),
            ("gts_slow_log_committed_total", self.slow_log_committed),
            ("gts_slow_log_evicted_total", self.slow_log_evicted),
        ];
        for (name, v) in counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        let gauges: [(&str, f64); 11] = [
            ("gts_batch_size_mean", self.mean_batch_size),
            ("gts_batch_size_max", self.max_batch_size as f64),
            ("gts_stack_bytes_peak", self.stack_bytes_peak as f64),
            ("gts_model_ms_total", self.model_ms),
            ("gts_work_expansion_mean", self.mean_work_expansion),
            ("gts_mask_occupancy_mean", self.mean_mask_occupancy),
            ("gts_ewma_batch_service_ms", self.ewma_batch_service_ms),
            ("gts_epoch", self.epoch as f64),
            ("gts_epoch_delta_depth", self.epoch_delta_depth as f64),
            (
                "gts_slow_log_threshold_us",
                self.slow_log_threshold_us as f64,
            ),
            ("gts_slow_log_pending", self.slow_log_pending as f64),
        ];
        for (name, v) in gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        // One labeled series per backend, enumerated from the snapshot
        // (which mirrors `Backend::ALL`) — adding a backend to ALL adds
        // its series here with no further changes.
        out.push_str("# TYPE gts_backend_chosen_total counter\n");
        for b in &self.backend_batches {
            out.push_str(&format!(
                "gts_backend_chosen_total{{backend=\"{}\"}} {}\n",
                b.backend, b.batches
            ));
        }
        // Per-kind wraparound drops: the header is always present so
        // scrapers see the family; series appear only for kinds that
        // actually lost events.
        out.push_str("# TYPE gts_trace_dropped_total counter\n");
        for k in &self.trace_dropped_by_kind {
            out.push_str(&format!(
                "gts_trace_dropped_total{{kind=\"{}\"}} {}\n",
                k.kind, k.dropped
            ));
        }
        self.model_ms_hist
            .to_prometheus("gts_batch_model_ms", &mut out);
        self.work_expansion_hist
            .to_prometheus("gts_batch_work_expansion", &mut out);
        self.mask_occupancy_hist
            .to_prometheus("gts_batch_mask_occupancy", &mut out);
        self.node_visits_hist
            .to_prometheus("gts_batch_node_visits", &mut out);
        self.queue_wait_hist
            .to_prometheus("gts_queue_wait_ms", &mut out);
        // The latency histogram is rendered by hand so each bucket can
        // carry its OpenMetrics exemplar — `# {labels} value` after the
        // bucket count links a tail bucket straight to the query (and its
        // flight-recorder entry) that last landed there.
        out.push_str("# TYPE gts_latency_ms histogram\n");
        let mut cum = 0u64;
        for &(i, c) in &self.latency_hist.buckets {
            cum += c;
            out.push_str(&format!(
                "gts_latency_ms_bucket{{le=\"{}\"}} {cum}",
                bucket_hi(i as usize)
            ));
            if let Some(ex) = self.latency_exemplars.iter().find(|e| e.bucket == i) {
                out.push_str(&format!(
                    " # {{trace_id=\"{:016x}\",query_id=\"{}\"}} {}",
                    ex.trace, ex.query, ex.value_ms
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "gts_latency_ms_bucket{{le=\"+Inf\"}} {}\n",
            self.latency_hist.count
        ));
        out.push_str(&format!("gts_latency_ms_sum {}\n", self.latency_hist.sum));
        out.push_str(&format!(
            "gts_latency_ms_count {}\n",
            self.latency_hist.count
        ));
        self.exec_ms_hist
            .to_prometheus("gts_batch_exec_ms", &mut out);
        self.epoch_merge_ms_hist
            .to_prometheus("gts_epoch_merge_ms", &mut out);
        // Per-index families: one TYPE header each, one labeled series
        // per registered index. Index names are service-controlled
        // identifiers, rendered without escaping (same convention as the
        // trace exporter).
        out.push_str("# TYPE gts_index_batches_total counter\n");
        for idx in &self.per_index {
            out.push_str(&format!(
                "gts_index_batches_total{{index=\"{}\"}} {}\n",
                idx.index, idx.batches
            ));
        }
        out.push_str("# TYPE gts_index_completed_total counter\n");
        for idx in &self.per_index {
            out.push_str(&format!(
                "gts_index_completed_total{{index=\"{}\"}} {}\n",
                idx.index, idx.completed
            ));
        }
        out.push_str("# TYPE gts_index_latency_ms histogram\n");
        for idx in &self.per_index {
            idx.latency_hist.to_prometheus_labeled(
                "gts_index_latency_ms",
                &format!("index=\"{}\"", idx.index),
                &mut out,
            );
        }
        out.push_str("# TYPE gts_index_model_ms histogram\n");
        for idx in &self.per_index {
            idx.model_ms_hist.to_prometheus_labeled(
                "gts_index_model_ms",
                &format!("index=\"{}\"", idx.index),
                &mut out,
            );
        }
        out
    }
}

/// Exact nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when
/// empty. O(n log n) clone-and-sort — kept **only** as the oracle the
/// histogram property tests compare against; production percentiles come
/// from [`Histogram::percentile`].
#[cfg(test)]
pub(crate) fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(
        size: usize,
        backend: Backend,
        node_visits: u64,
        model_ms: f64,
        work_expansion: f64,
        shards_pruned: u64,
        wait_ms: u64,
    ) -> BatchRecord {
        BatchRecord {
            index: "idx".to_string(),
            size,
            backend,
            node_visits,
            model_ms,
            work_expansion,
            mask_occupancy: 1.0,
            shards_pruned,
            queue_wait: Duration::from_millis(wait_ms),
            exec: Duration::from_millis(2),
            profile_cache_hits: 0,
            profile_cache_misses: 0,
            profile_cache_evictions: 0,
            stack_bytes_peak: 0,
            stack_transactions: 0,
            fused_ops: 0,
            fused_lanes: 0,
            fusion_saved_visits: 0,
        }
    }

    fn per_index_bytes(indices: usize) -> usize {
        indices * (std::mem::size_of::<IndexSeries>() + 2 * N_BUCKETS * std::mem::size_of::<u64>())
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let m = Metrics::default();
        for _ in 0..3 {
            m.on_submit();
        }
        m.on_batch(&batch(2, Backend::Lockstep, 100, 1.5, 1.2, 3, 2));
        m.on_batch(&batch(1, Backend::Autoropes, 40, 0.5, 1.0, 1, 4));
        m.on_complete("idx", Duration::from_millis(10), 1, 0);
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.backend_batches[Backend::Lockstep.index()].batches, 1);
        assert_eq!(s.backend_batches[Backend::Autoropes.index()].batches, 1);
        assert_eq!(s.node_visits, 140);
        assert_eq!(s.shards_pruned, 4);
        assert!((s.mean_batch_size - 1.5).abs() < 1e-12);
        // 1.5 and 0.5 are exact in the fixed-point sum.
        assert!((s.model_ms - 2.0).abs() < 1e-12);
        assert!((s.mean_mask_occupancy - 1.0).abs() < 1e-12);
        assert!(s.latency_p50_ms > 0.0);
        // Single latency sample: every percentile and the max are exact.
        assert_eq!(s.latency_p999_ms, s.latency_max_ms);
        assert!((s.latency_max_ms - 10.0).abs() < 1e-6);
        assert!((s.queue_wait_max_ms - 4.0).abs() < 1e-6);
        assert_eq!(s.latency_hist.count, 1);
        assert_eq!(s.queue_wait_hist.count, 2);
        assert_eq!(s.node_visits_hist.count, 2);
        // Both batches and the completion went to one index.
        assert_eq!(s.per_index.len(), 1);
        assert_eq!(s.per_index[0].index, "idx");
        assert_eq!(s.per_index[0].batches, 2);
        assert_eq!(s.per_index[0].completed, 1);
        assert!((s.per_index[0].model_ms - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_index_series_separate_mixed_workloads() {
        let m = Metrics::default();
        let mut a = batch(4, Backend::Lockstep, 10, 1.0, 1.0, 0, 1);
        a.index = "alpha".to_string();
        a.profile_cache_hits = 3;
        a.profile_cache_misses = 1;
        let mut b = batch(2, Backend::Cpu, 5, 0.0, 1.0, 0, 1);
        b.index = "beta".to_string();
        m.on_batch(&a);
        m.on_batch(&a);
        m.on_batch(&b);
        m.on_complete("alpha", Duration::from_millis(2), 1, 0);
        m.on_complete("beta", Duration::from_millis(8), 2, 0);
        let s = m.snapshot();
        assert_eq!(s.profile_cache_hits, 6);
        assert_eq!(s.profile_cache_misses, 2);
        let names: Vec<&str> = s.per_index.iter().map(|i| i.index.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"], "sorted by name");
        assert_eq!(s.per_index[0].batches, 2);
        assert_eq!(s.per_index[1].batches, 1);
        assert_eq!(s.per_index[0].completed, 1);
        let text = s.to_prometheus();
        assert!(text.contains("gts_profile_cache_hits_total 6"));
        assert!(text.contains(r#"gts_index_batches_total{index="alpha"} 2"#));
        assert!(text.contains(r#"gts_index_batches_total{index="beta"} 1"#));
        assert!(text.contains(r#"gts_index_latency_ms_count{index="alpha"} 1"#));
        assert!(text.contains(r#"gts_index_latency_ms_bucket{index="beta",le="+Inf"} 1"#));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = Metrics::default();
        m.on_submit();
        m.on_batch(&batch(1, Backend::Cpu, 10, 0.0, 1.0, 0, 0));
        let s = m.snapshot();
        let back: MetricsSnapshot = serde_json::from_str(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn registry_memory_is_constant() {
        let m = Metrics::default();
        let before = m.approx_bytes();
        for i in 0..10_000u64 {
            m.on_submit();
            m.on_batch(&batch(1, Backend::Cpu, i, i as f64 * 0.01, 1.0, 0, i % 7));
            m.on_complete("idx", Duration::from_micros(10 * i), i, 0);
        }
        // One index registered on first record; the bound then stays flat
        // no matter how many batches follow.
        assert_eq!(m.approx_bytes(), before + per_index_bytes(1));
        let flat = m.approx_bytes();
        for i in 0..10_000u64 {
            m.on_batch(&batch(1, Backend::Cpu, i, 0.0, 1.0, 0, 0));
        }
        assert_eq!(m.approx_bytes(), flat, "registry grew with load");
        let s = m.snapshot();
        assert_eq!(s.batches, 20_000);
        assert!(s.latency_hist.buckets.len() <= crate::hist::N_BUCKETS);
    }

    #[test]
    fn prometheus_export_has_all_series() {
        let m = Metrics::default();
        m.on_submit();
        m.on_batch(&batch(1, Backend::Lockstep, 50, 0.25, 1.1, 0, 1));
        m.on_complete("idx", Duration::from_millis(3), 1, 0);
        let text = m.snapshot().to_prometheus();
        for series in [
            "gts_queries_submitted_total 1",
            r#"gts_backend_chosen_total{backend="lockstep"} 1"#,
            "gts_node_visits_total 50",
            "gts_latency_ms_count 1",
            "gts_queue_wait_ms_count 1",
            "gts_batch_model_ms_sum 0.25",
            "gts_batch_mask_occupancy_count 1",
            "gts_profile_cache_hits_total 0",
            r#"gts_index_batches_total{index="idx"} 1"#,
            r#"gts_index_model_ms_sum{index="idx"} 0.25"#,
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
        // One `# TYPE` header per exported metric family: 26 counters,
        // 11 gauges, 8 aggregate histograms, the per-backend choice and
        // per-kind trace-drop families, and 4 per-index families.
        assert_eq!(text.matches("# TYPE").count(), 26 + 11 + 8 + 2 + 4);
    }

    #[test]
    fn latency_exemplars_link_buckets_to_queries() {
        let m = Metrics::default();
        m.on_complete("idx", Duration::from_millis(3), 7, 0xabc);
        m.on_complete("idx", Duration::from_millis(250), 42, 0xdef);
        m.on_propagated();
        let s = m.snapshot();
        assert_eq!(s.trace_propagated, 1);
        assert_eq!(s.latency_exemplars.len(), 2, "one exemplar per bucket");
        let slow = s
            .latency_exemplars
            .iter()
            .find(|e| e.query == 42)
            .expect("slow sample kept");
        assert_eq!(slow.trace, 0xdef);
        assert!((slow.value_ms - 250.0).abs() < 1e-9);
        let text = s.to_prometheus();
        // OpenMetrics exemplar syntax on the bucket the sample landed in.
        assert!(
            text.contains(r##" # {trace_id="0000000000000def",query_id="42"} 250"##),
            "missing exemplar in:\n{text}"
        );
        assert!(text.contains("gts_trace_propagated_total 1"));
        // A later completion in the same bucket replaces the exemplar.
        m.on_complete("idx", Duration::from_millis(251), 43, 0x123);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains(r#"query_id="43""#));
        assert!(!text.contains(r#"query_id="42""#));
    }

    #[test]
    fn slow_threshold_arms_after_warmup() {
        let m = Metrics::default();
        for i in 0..SLOW_LOG_WARMUP - 1 {
            m.on_complete("idx", Duration::from_millis(1), i, 0);
        }
        assert_eq!(m.slow_threshold_us(99.0), 0, "unarmed during warmup");
        m.on_complete("idx", Duration::from_millis(1), 99, 0);
        let t = m.slow_threshold_us(99.0);
        // 64 × 1 ms: p99 is the 1 ms bucket's upper edge (µs, with the
        // bucket's ≤12.5% relative slack).
        assert!((900..=1200).contains(&t), "threshold {t} µs out of range");
    }

    #[test]
    fn backend_choice_series_enumerate_every_backend() {
        let m = Metrics::default();
        m.on_batch(&batch(1, Backend::Lockstep, 10, 0.1, 1.0, 0, 0));
        m.on_batch(&batch(1, Backend::StacklessKd, 10, 0.1, 1.0, 0, 0));
        m.on_batch(&batch(1, Backend::StacklessKd, 10, 0.1, 1.0, 0, 0));
        let mut rec = batch(1, Backend::Autoropes, 10, 0.1, 1.0, 0, 0);
        rec.stack_bytes_peak = 4096;
        rec.stack_transactions = 17;
        m.on_batch(&rec);
        let s = m.snapshot();
        assert_eq!(s.backend_batches.len(), Backend::ALL.len());
        for (slot, b) in s.backend_batches.iter().zip(Backend::ALL) {
            assert_eq!(slot.backend, b.name());
        }
        assert_eq!(s.backend_batches[Backend::StacklessKd.index()].batches, 2);
        assert_eq!(s.stack_bytes_peak, 4096);
        assert_eq!(s.stack_transactions, 17);
        let text = s.to_prometheus();
        for b in Backend::ALL {
            let want = format!("gts_backend_chosen_total{{backend=\"{}\"}}", b.name());
            assert!(text.contains(&want), "missing `{want}`");
        }
        assert!(text.contains(r#"gts_backend_chosen_total{backend="stackless-kd"} 2"#));
        assert!(text.contains("gts_stack_transactions_total 17"));
        assert!(text.contains("gts_stack_bytes_peak 4096"));
    }

    #[test]
    fn ewma_tracks_batch_service_time() {
        let m = Metrics::default();
        assert_eq!(m.predicted_wait(1000), Duration::ZERO, "no model yet");
        let mut rec = batch(64, Backend::Lockstep, 100, 1.0, 1.0, 0, 0);
        rec.exec = Duration::from_millis(10);
        m.on_batch(&rec);
        // First batch seeds the EWMA exactly.
        let s = m.snapshot();
        assert!((s.ewma_batch_service_ms - 10.0).abs() < 1e-9);
        // Depth of one EWMA-sized batch → one batch service time.
        assert_eq!(m.predicted_wait(64), Duration::from_millis(10));
        // Depth rounding: 65 queries need two batches.
        assert_eq!(m.predicted_wait(65), Duration::from_millis(20));
        assert_eq!(m.predicted_wait(0), Duration::ZERO);
        // A faster second batch pulls the EWMA down by α.
        rec.exec = Duration::from_millis(2);
        m.on_batch(&rec);
        let s = m.snapshot();
        let expected = EWMA_ALPHA * 2.0 + (1.0 - EWMA_ALPHA) * 10.0;
        assert!((s.ewma_batch_service_ms - expected).abs() < 1e-9);
        assert_eq!(s.exec_ms_hist.count, 2);
    }

    #[test]
    fn epoch_counters_export() {
        let m = Metrics::default();
        m.on_mutation(10, 10);
        m.on_mutation(5, 15);
        m.on_epoch_merge(1, Duration::from_millis(3), 15, 2);
        let s = m.snapshot();
        assert_eq!(s.mutations, 15);
        assert_eq!(s.epoch_merges, 1);
        assert_eq!(s.epoch_deltas_flushed, 15);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.epoch_delta_depth, 2, "gauge tracks the latest event");
        assert_eq!(s.epoch_merge_ms_hist.count, 1);
        let text = s.to_prometheus();
        for series in [
            "gts_mutations_total 15",
            "gts_epoch_merges_total 1",
            "gts_epoch_deltas_flushed_total 15",
            "gts_epoch 1",
            "gts_epoch_delta_depth 2",
            "gts_epoch_merge_ms_count 1",
        ] {
            assert!(text.contains(series), "missing `{series}`");
        }
    }

    #[test]
    fn fused_counters_accumulate_and_export() {
        let m = Metrics::default();
        // An unfused batch leaves the fusion counters untouched.
        m.on_batch(&batch(4, Backend::Lockstep, 100, 0.1, 1.0, 0, 0));
        let mut fused = batch(0, Backend::Autoropes, 60, 0.2, 1.0, 0, 0);
        fused.size = 96;
        fused.fused_ops = 3;
        fused.fused_lanes = 40;
        fused.fusion_saved_visits = 120;
        m.on_batch(&fused);
        m.on_batch(&fused);
        let s = m.snapshot();
        assert_eq!(s.batches, 3);
        assert_eq!(s.fused_batches, 2, "only fused batches count");
        assert_eq!(s.fused_lanes, 80);
        assert_eq!(s.fusion_saved_visits, 240);
        let text = s.to_prometheus();
        for series in [
            "gts_fused_batches_total 2",
            "gts_fused_lanes_total 80",
            "gts_fusion_node_visits_saved_total 240",
        ] {
            assert!(text.contains(series), "missing `{series}`");
        }
    }

    #[test]
    fn net_and_admission_counters_export() {
        let m = Metrics::default();
        m.on_net_accept();
        m.on_net_frame_rx(100);
        m.on_net_frame_rx(50);
        m.on_net_frame_tx(20);
        m.on_net_protocol_error();
        m.on_admission_reject();
        let s = m.snapshot();
        assert_eq!(s.net_connections, 1);
        assert_eq!(s.net_frames_rx, 2);
        assert_eq!(s.net_bytes_rx, 150);
        assert_eq!(s.net_frames_tx, 1);
        assert_eq!(s.net_bytes_tx, 20);
        assert_eq!(s.net_protocol_errors, 1);
        assert_eq!(s.admission_rejected, 1);
        assert_eq!(s.rejected, 1, "admission rejects count as rejections");
        let text = s.to_prometheus();
        for series in [
            "gts_net_connections_total 1",
            "gts_net_frames_rx_total 2",
            "gts_net_bytes_rx_total 150",
            "gts_net_protocol_errors_total 1",
            "gts_admission_rejected_total 1",
        ] {
            assert!(text.contains(series), "missing `{series}`");
        }
    }
}

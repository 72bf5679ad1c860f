//! Service metrics: counters plus bounded log-scale histograms, exportable
//! as JSON or Prometheus text.
//!
//! A series is defined once, as a row of the table at the bottom of this
//! file: [`MetricsSnapshot`], the registry's storage for it, the copy
//! between the two and its Prometheus line all come from the row.
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
//! bit-identical snapshots regardless of worker interleaving — which is
//! why the f64 series of a batch go through histograms and only its
//! integer counters through the merge.

use crate::hist::{bucket_index, Histogram, HistogramSnapshot, N_BUCKETS};
use crate::index::BatchOutcome;
use crate::policy::Backend;
use crate::slowlog::SLOW_LOG_WARMUP;
use crate::trace::NO_ID;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// What is written about one answered dispatch: the batch's own
/// accounting record plus what only the worker that ran it knows. The
/// service's `record_batch` writes it to the metrics and the trace.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord<'a> {
    /// Name of the index the batch ran against.
    pub index: &'a str,
    /// Dispatch id, as the trace's batch events and the queries' records
    /// name it ([`NO_ID`] for a record built from a lone outcome).
    pub id: u64,
    /// Queries the batch answered.
    pub size: usize,
    /// Distinct positions the walk carried (one lane each).
    pub lanes: usize,
    /// Distinct op keys the dispatch's queries asked.
    pub parts: usize,
    /// Op families the lanes asked ([`crate::OpKey::family`] bits).
    pub ops: u8,
    /// Longest submit-to-dispatch wait among the batch's queries.
    pub queue_wait: Duration,
    /// Wall-clock execution time of the batch on its worker (dispatch →
    /// answers ready, before the scatter to the tickets) — the sample
    /// feeding the admission model's EWMA batch service time.
    pub exec: Duration,
    /// The batch's accounting record.
    pub outcome: &'a BatchOutcome,
}

impl<'a> BatchRecord<'a> {
    /// Record for a per-query `outcome` against index `index`, with the
    /// batch's measured `queue_wait` and wall-clock `exec` time: one lane
    /// per result, one op key, no dispatch id, no op mask.
    pub fn from_outcome(
        outcome: &'a BatchOutcome,
        queue_wait: Duration,
        exec: Duration,
        index: &'a str,
    ) -> Self {
        let size = outcome.results.len();
        BatchRecord {
            index,
            id: NO_ID,
            size,
            lanes: size,
            parts: 1,
            ops: 0,
            queue_wait,
            exec,
            outcome,
        }
    }
}

/// EWMA smoothing factor for the admission model's batch service time and
/// batch size: recent batches dominate (a load shift re-models within a
/// few batches) without single-batch noise whipsawing verdicts.
pub const EWMA_ALPHA: f64 = 0.25;

/// An `own` series that counts: samples add up.
#[derive(Debug, Default)]
struct Sum(u64);
/// An `own` gauge holding the largest sample seen.
#[derive(Debug, Default)]
struct Max(u64);
/// An `own` gauge holding the latest sample.
#[derive(Debug, Default)]
struct Last(u64);

impl Sum {
    fn fold(&mut self, v: u64) {
        self.0 += v;
    }
}

impl Max {
    fn fold(&mut self, v: u64) {
        self.0 = self.0.max(v);
    }
}

impl Last {
    fn fold(&mut self, v: u64) {
        self.0 = v;
    }
}

#[derive(Debug, Default)]
struct Inner {
    own: Own,
    // Bounded histograms, one per sample series. Their fixed-point sums
    // replace the seed's sort-before-summing determinism trick.
    hists: Hists,
    // Every executed batch's integer counters, merged the way a sharded
    // batch merges its sub-batches'.
    batch: BatchOutcome,
    batch_size_sum: u64,
    // One slot per Backend::ALL entry, indexed by Backend::index() — new
    // backends get a metrics series by being added to ALL, nowhere else.
    backend_batches: [u64; Backend::ALL.len()],
    // Last query to land in each latency bucket — the OpenMetrics
    // exemplars. Keyed by bucket index, so the map is bounded by N_BUCKETS
    // no matter how many queries complete.
    latency_exemplars: BTreeMap<u32, LatencyExemplar>,
    // Admission model state: exponentially weighted batch service time
    // (wall ms) and batch size, updated once per executed batch.
    ewma_batch_service_ms: f64,
    ewma_batch_size: f64,
    // Per-index series, keyed by index name. Bounded by the number of
    // *registered indices* (a handful, fixed at service start), not by
    // load — the memory bound stays O(indices × buckets).
    per_index: BTreeMap<String, IndexSeries>,
}

/// One index's series: its batch count, a modeled-ms sample per metered
/// batch, a latency sample per completed query.
#[derive(Debug, Default)]
struct IndexSeries {
    batches: u64,
    model_ms: Histogram,
    latency_ms: Histogram,
}

impl Inner {
    /// The series of index `index`, created on its first record.
    fn index_series(&mut self, index: &str) -> &mut IndexSeries {
        if !self.per_index.contains_key(index) {
            self.per_index
                .insert(index.to_string(), IndexSeries::default());
        }
        self.per_index.get_mut(index).expect("just inserted")
    }

    /// `sum` per batch recorded so far; 0 before the first.
    fn per_batch(&self, sum: f64) -> f64 {
        match self.own.batches.0 {
            0 => 0.0,
            batches => sum / batches as f64,
        }
    }

    fn backend_batches(&self) -> Vec<BackendBatches> {
        (Backend::ALL.iter())
            .map(|b| BackendBatches {
                backend: b.name().to_string(),
                batches: self.backend_batches[b.index()],
            })
            .collect()
    }

    fn per_index(&self) -> Vec<IndexMetricsSnapshot> {
        (self.per_index.iter())
            .map(|(name, s)| IndexMetricsSnapshot {
                index: name.clone(),
                batches: s.batches,
                completed: s.latency_ms.count(),
                latency_p50_ms: s.latency_ms.percentile(50.0),
                latency_p99_ms: s.latency_ms.percentile(99.0),
                model_ms: s.model_ms.sum(),
                latency_hist: s.latency_ms.snapshot(),
                model_ms_hist: s.model_ms.snapshot(),
            })
            .collect()
    }
}

/// Shared metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// `queries` queries accepted into their buckets (one submit, or a
    /// frame's worth).
    pub fn on_submit(&self, queries: u64) {
        self.lock().own.submitted.fold(queries);
    }

    /// One query rejected at submission (validation or shutdown).
    pub fn on_reject(&self) {
        self.lock().own.rejected.fold(1);
    }

    /// `queries` accepted queries resolved with a typed error instead of
    /// an answer: their batch failed under them.
    pub fn on_fail(&self, queries: u64) {
        self.lock().own.failed.fold(queries);
    }

    /// One batch dispatched and executed.
    pub fn on_batch(&self, rec: &BatchRecord<'_>) {
        let out = rec.outcome;
        let size = rec.size as u64;
        let mut m = self.lock();
        m.own.batches.fold(1);
        m.batch_size_sum += size;
        m.own.max_batch_size.fold(size);
        m.backend_batches[out.backend.index()] += 1;
        m.batch.absorb_counts(out);
        m.own.fused_batches.fold(u64::from(out.fused_lanes > 0));
        m.own.fused_lanes.fold(out.fused_lanes);
        if out.warps > 0 {
            m.hists.work_expansion_hist.record(out.work_expansion);
            m.hists.mask_occupancy_hist.record(out.mask_occupancy);
        }
        m.hists.node_visits_hist.record(out.node_visits as f64);
        m.hists
            .queue_wait_hist
            .record(rec.queue_wait.as_secs_f64() * 1e3);
        let exec_ms = rec.exec.as_secs_f64() * 1e3;
        m.hists.exec_ms_hist.record(exec_ms);
        // First sample seeds the EWMAs directly — no warm-up bias.
        let first = m.own.batches.0 == 1;
        let ewma = |old: f64, new: f64| {
            if first {
                new
            } else {
                EWMA_ALPHA * new + (1.0 - EWMA_ALPHA) * old
            }
        };
        m.ewma_batch_service_ms = ewma(m.ewma_batch_service_ms, exec_ms);
        m.ewma_batch_size = ewma(m.ewma_batch_size, rec.size as f64);
        let index = m.index_series(rec.index);
        index.batches += 1;
        // The modeled series exist on metered batches only: an unmetered
        // batch is not a 0 ms sample.
        if out.metered {
            index.model_ms.record(out.model_ms);
            m.hists.model_ms_hist.record(out.model_ms);
            m.own.metered_batches.fold(1);
            m.own.metered_queries.fold(size);
        }
    }

    /// One query rejected by latency-budget admission control (also counts
    /// as a rejection).
    pub fn on_admission_reject(&self) {
        let mut m = self.lock();
        m.own.rejected.fold(1);
        m.own.admission_rejected.fold(1);
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
        self.lock().own.net_connections.fold(1);
    }

    /// One frame decoded off a connection (`bytes` = body length).
    pub fn on_net_frame_rx(&self, bytes: u64) {
        let mut m = self.lock();
        m.own.net_frames_rx.fold(1);
        m.own.net_bytes_rx.fold(bytes);
    }

    /// One frame written to a connection (`bytes` = body length).
    pub fn on_net_frame_tx(&self, bytes: u64) {
        let mut m = self.lock();
        m.own.net_frames_tx.fold(1);
        m.own.net_bytes_tx.fold(bytes);
    }

    /// One malformed or oversized frame rejected by the decoder.
    pub fn on_net_protocol_error(&self) {
        self.lock().own.net_protocol_errors.fold(1);
    }

    /// One mutation batch applied to a mutable index: `accepted`
    /// mutations landed, `pending` deltas now await the merge thread.
    pub fn on_mutation(&self, accepted: u64, pending: u64) {
        let mut m = self.lock();
        m.own.mutations.fold(accepted);
        m.own.epoch_delta_depth.fold(pending);
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
        m.own.epoch_merges.fold(1);
        m.own.epoch_deltas_flushed.fold(deltas_flushed);
        m.own.epoch.fold(epoch);
        m.own.epoch_delta_depth.fold(pending_after);
        m.hists.epoch_merge_ms_hist.record(dur.as_secs_f64() * 1e3);
    }

    /// One query's result delivered by index `index`, `latency` after
    /// submission. `query` is the trace query id and `trace` the
    /// propagated trace id (0 when local) — the pair becomes the
    /// OpenMetrics exemplar for the latency bucket the sample lands in.
    pub fn on_complete(&self, index: &str, latency: Duration, query: u64, trace: u64) {
        let mut m = self.lock();
        m.own.completed.fold(1);
        let ms = latency.as_secs_f64() * 1e3;
        m.hists.latency_hist.record(ms);
        let bucket = bucket_index(ms) as u32;
        let exemplar = LatencyExemplar {
            bucket,
            query,
            trace,
            value_ms: ms,
        };
        m.latency_exemplars.insert(bucket, exemplar);
        m.index_series(index).latency_ms.record(ms);
    }

    /// `queries` submissions arrived carrying a propagated (non-local)
    /// trace context.
    pub fn on_propagated(&self, queries: u64) {
        self.lock().own.trace_propagated.fold(queries);
    }

    /// The slow-log commit threshold: the given percentile of the live
    /// latency histogram, in µs. 0 (unarmed) until the histogram holds
    /// [`SLOW_LOG_WARMUP`] samples — a p99 of three queries is noise.
    pub fn slow_threshold_us(&self, percentile: f64) -> u64 {
        let m = self.lock();
        if m.hists.latency_hist.count() < SLOW_LOG_WARMUP {
            return 0;
        }
        (m.hists.latency_hist.percentile(percentile) * 1e3) as u64
    }

    /// Upper bound on the registry's resident size, in bytes. Constant
    /// for a fixed set of registered indices — independent of how many
    /// queries or batches were recorded — which the sustained-load test
    /// asserts.
    pub fn approx_bytes(&self) -> usize {
        let hist_bytes = N_BUCKETS * std::mem::size_of::<u64>();
        let per_index = std::mem::size_of::<IndexSeries>() + INDEX_HISTOGRAMS.len() * hist_bytes;
        std::mem::size_of::<Self>()
            + N_HISTOGRAMS * hist_bytes
            + self.lock().per_index.len() * per_index
    }

    /// Snapshot every counter, percentile, and histogram. O(buckets),
    /// never O(samples).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::of(&self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
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
    /// Total modeled GPU milliseconds for this index (metered batches).
    pub model_ms: f64,
    /// Full latency distribution (ms).
    pub latency_hist: HistogramSnapshot,
    /// Full modeled-ms distribution, one sample per metered batch.
    pub model_ms_hist: HistogramSnapshot,
}

type IndexCounter = fn(&IndexMetricsSnapshot) -> u64;
type IndexHistogram = fn(&IndexMetricsSnapshot) -> &HistogramSnapshot;

/// The per-index counter families: exposition name and the value of one
/// index's series.
const INDEX_COUNTERS: [(&str, IndexCounter); 2] = [
    ("gts_index_batches_total", |i| i.batches),
    ("gts_index_completed_total", |i| i.completed),
];

/// The per-index histogram families, one histogram per index each.
const INDEX_HISTOGRAMS: [(&str, IndexHistogram); 2] = [
    ("gts_index_latency_ms", |i| &i.latency_hist),
    ("gts_index_model_ms", |i| &i.model_ms_hist),
];

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
        let family = |out: &mut String, name: &str, kind: &str| {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        };
        let labeled = |out: &mut String, name: &str, label: &str, is: &str, value: u64| {
            out.push_str(&format!("{name}{{{label}=\"{is}\"}} {value}\n"));
        };
        self.scalars_to_prometheus(&mut out);
        // One labeled series per backend, enumerated from the snapshot
        // (which mirrors `Backend::ALL`) — adding a backend to ALL adds
        // its series here with no further changes.
        let name = "gts_backend_chosen_total";
        family(&mut out, name, "counter");
        for b in &self.backend_batches {
            labeled(&mut out, name, "backend", &b.backend, b.batches);
        }
        // Per-kind wraparound drops: the header is always present so
        // scrapers see the family; series appear only for kinds that
        // actually lost events.
        let name = "gts_trace_dropped_total";
        family(&mut out, name, "counter");
        for k in &self.trace_dropped_by_kind {
            labeled(&mut out, name, "kind", &k.kind, k.dropped);
        }
        for (name, hist) in self.histograms() {
            family(&mut out, name, "histogram");
            // A latency bucket carries its OpenMetrics exemplar, linking a
            // tail bucket straight to the query (and its flight-recorder
            // entry) that last landed there.
            let exemplars: &[LatencyExemplar] = if std::ptr::eq(hist, &self.latency_hist) {
                &self.latency_exemplars
            } else {
                &[]
            };
            let exemplar = |bucket| {
                let ex = exemplars.iter().find(|e| e.bucket == bucket)?;
                Some(format!(
                    "{{trace_id=\"{:016x}\",query_id=\"{}\"}} {}",
                    ex.trace, ex.query, ex.value_ms
                ))
            };
            hist.to_prometheus(name, "", exemplar, &mut out);
        }
        // Per-index families: one TYPE header each, one labeled series
        // per registered index. Index names are service-controlled
        // identifiers, rendered without escaping (same convention as the
        // trace exporter).
        for (name, value) in INDEX_COUNTERS {
            family(&mut out, name, "counter");
            for idx in &self.per_index {
                labeled(&mut out, name, "index", &idx.index, value(idx));
            }
        }
        for (name, hist) in INDEX_HISTOGRAMS {
            family(&mut out, name, "histogram");
            for idx in &self.per_index {
                let labels = format!("index=\"{}\"", idx.index);
                hist(idx).to_prometheus(name, &labels, |_| None, &mut out);
            }
        }
        out
    }
}

/// Emit the registry's storage, [`MetricsSnapshot`], the copy from one to
/// the other and the scalar exposition from the two tables below. A scalar
/// row is the snapshot field with its doc and type, `=` where its value is
/// kept, and — if it is a series of its own — its Prometheus type and
/// name; row order is exposition order. The value is one of:
/// `own Sum|Max|Last`, a slot of the registry that hooks `.fold(v)` samples
/// into by that rule; `in batch`, the same-named counter of the running
/// [`BatchOutcome`] totals (merge rule: [`BatchOutcome::absorb_counts`]);
/// `(expr)`, computed from the registry `m`; `stitched`, zero here and
/// filled in by `Service` from its trace ring and slow log.
macro_rules! series {
    (
        scalars |$m:ident| {$(
            $(#[$doc:meta])*
            $field:ident: $ty:ty = $(own $rule:ident)? $(in $place:ident)? $(($from:expr))? $(stitched)?
            $(, $kind:ident $name:literal)?;
        )*}
        histograms {$(
            $(#[$hdoc:meta])*
            $hist:ident, $hname:literal;
        )*}
    ) => {
        /// One slot per `own` row; its type is the row's fold rule.
        #[derive(Debug, Default)]
        struct Own {$($(
            $field: $rule,
        )?)*}

        /// One histogram per row of the second table.
        #[derive(Debug, Default)]
        struct Hists {$(
            $hist: Histogram,
        )*}

        /// Histograms in [`Hists`] (the per-index ones are counted apart).
        const N_HISTOGRAMS: usize = [$($hname),*].len();

        /// Point-in-time export of the registry. JSON-serializable.
        #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $field: $ty, )*
            $( $(#[$hdoc])* pub $hist: HistogramSnapshot, )*
        }

        impl MetricsSnapshot {
            /// Every row as the registry holds it now; `stitched` rows
            /// keep their zero.
            fn of($m: &Inner) -> Self {
                MetricsSnapshot {
                    $(
                        $( $field: { let slot: &$rule = &$m.own.$field; slot.0 }, )?
                        $( $field: $m.$place.$field, )?
                        $( $field: $from, )?
                    )*
                    $( $hist: $m.hists.$hist.snapshot(), )*
                    ..MetricsSnapshot::default()
                }
            }

            /// Every histogram with its exposition name, in row order.
            fn histograms(&self) -> [(&'static str, &HistogramSnapshot); N_HISTOGRAMS] {
                [$( ($hname, &self.$hist), )*]
            }

            /// A `# TYPE` header and a value line per scalar row that
            /// names a series, in row order.
            fn scalars_to_prometheus(&self, out: &mut String) {
                $($(
                    out.push_str(&format!(
                        concat!("# TYPE ", $name, " ", stringify!($kind), "\n", $name, " {}\n"),
                        self.$field
                    ));
                )?)*
            }
        }
    };
}

series! {
    scalars |m| {
        /// Queries accepted into the queue.
        submitted: u64 = own Sum, counter "gts_queries_submitted_total";
        /// Queries whose results were delivered.
        completed: u64 = own Sum, counter "gts_queries_completed_total";
        /// Queries rejected at submission.
        rejected: u64 = own Sum, counter "gts_queries_rejected_total";
        /// Accepted queries resolved with a typed error because their batch
        /// failed; once drained, `submitted == completed + failed`.
        failed: u64 = own Sum, counter "gts_queries_failed_total";
        /// Batches dispatched.
        batches: u64 = own Sum, counter "gts_batches_total";
        /// Batches that ran under the C2070 model ([`BatchOutcome::metered`]):
        /// the ones `model_ms`, `stack_transactions` and `stack_bytes_peak`
        /// cover. Every other series covers every batch.
        metered_batches: u64 = own Sum, counter "gts_metered_batches_total";
        /// Queries those batches answered — what to scale a modeled total by.
        metered_queries: u64 = own Sum, counter "gts_metered_queries_total";
        /// Total tree-node visits.
        node_visits: u64 = in batch, counter "gts_node_visits_total";
        /// Total rope-stack memory transactions (metered batches only).
        stack_transactions: u64 = in batch, counter "gts_stack_transactions_total";
        /// `(query, shard)` pairs sharded indices skipped via AABB bounds.
        shards_pruned: u64 = in batch, counter "gts_shards_pruned_total";
        /// Always 0, and no series: shards no longer cache §4.4 decisions
        /// (every metered sub-batch profiles itself). Kept only because
        /// the benchmark ledger still reads it; ROADMAP item 2(e) drops it.
        profile_cache_hits: u64 = (0);
        /// Always 0, and no series; kept for the ledger as
        /// `profile_cache_hits` is, and dropped with it.
        profile_cache_misses: u64 = (0);
        /// Fused multi-op batches dispatched (same-index queries of different
        /// ops answered by one tree walk under the union prune bound).
        fused_batches: u64 = own Sum, counter "gts_fused_batches_total";
        /// Deduplicated lanes carried by fused batches.
        fused_lanes: u64 = own Sum, counter "gts_fused_lanes_total";
        /// Node visits fusion saved vs. modeled per-op solo walks.
        fusion_saved_visits: u64 = in batch, counter "gts_fusion_node_visits_saved_total";
        /// Queries rejected by latency-budget admission control (a subset of
        /// `rejected`).
        admission_rejected: u64 = own Sum, counter "gts_admission_rejected_total";
        /// TCP connections accepted by the network front-end.
        net_connections: u64 = own Sum, counter "gts_net_connections_total";
        /// Frames decoded off network connections.
        net_frames_rx: u64 = own Sum, counter "gts_net_frames_rx_total";
        /// Frames written to network connections.
        net_frames_tx: u64 = own Sum, counter "gts_net_frames_tx_total";
        /// Frame body bytes received.
        net_bytes_rx: u64 = own Sum, counter "gts_net_bytes_rx_total";
        /// Frame body bytes sent.
        net_bytes_tx: u64 = own Sum, counter "gts_net_bytes_tx_total";
        /// Malformed or oversized frames rejected by the decoder.
        net_protocol_errors: u64 = own Sum, counter "gts_net_protocol_errors_total";
        /// Mutations (inserts + deletes) accepted by mutable indices.
        mutations: u64 = own Sum, counter "gts_mutations_total";
        /// Epoch merges performed across all mutable indices.
        epoch_merges: u64 = own Sum, counter "gts_epoch_merges_total";
        /// Delta entries folded into merges.
        epoch_deltas_flushed: u64 = own Sum, counter "gts_epoch_deltas_flushed_total";
        /// Submissions that carried a propagated (non-local) trace context.
        trace_propagated: u64 = own Sum, counter "gts_trace_propagated_total";
        /// Slow-log records committed over the service lifetime.
        slow_log_committed: u64 = stitched, counter "gts_slow_log_committed_total";
        /// Committed slow-log records evicted by ring wraparound.
        slow_log_evicted: u64 = stitched, counter "gts_slow_log_evicted_total";
        /// Mean queries per batch.
        mean_batch_size: f64 = (m.per_batch(m.batch_size_sum as f64)), gauge "gts_batch_size_mean";
        /// Largest batch dispatched.
        max_batch_size: u64 = own Max, gauge "gts_batch_size_max";
        /// Peak rope-stack bytes any warp used across the metered batches (0
        /// when all of them ran stackless).
        stack_bytes_peak: u64 = in batch, gauge "gts_stack_bytes_peak";
        /// Total modeled GPU milliseconds over the metered batches.
        model_ms: f64 = (m.hists.model_ms_hist.sum()), gauge "gts_model_ms_total";
        /// Mean per-batch lockstep work expansion over warp batches.
        mean_work_expansion: f64 = (m.hists.work_expansion_hist.mean()),
            gauge "gts_work_expansion_mean";
        /// Mean per-batch mask occupancy (live-lane fraction) over warp batches.
        mean_mask_occupancy: f64 = (m.hists.mask_occupancy_hist.mean()),
            gauge "gts_mask_occupancy_mean";
        /// EWMA batch service time (wall ms) — the admission model's per-batch
        /// cost estimate.
        ewma_batch_service_ms: f64 = (m.ewma_batch_service_ms), gauge "gts_ewma_batch_service_ms";
        /// Highest epoch any mutable index reached.
        epoch: u64 = own Max, gauge "gts_epoch";
        /// Pending delta entries after the last mutation or merge.
        epoch_delta_depth: u64 = own Last, gauge "gts_epoch_delta_depth";
        /// Rolling slow-log commit threshold, µs (0 until warmed up).
        slow_log_threshold_us: u64 = stitched, gauge "gts_slow_log_threshold_us";
        /// Accepted queries not yet resolved, any of which the slow log may
        /// still commit (0 when the log is disabled).
        slow_log_pending: u64 = stitched, gauge "gts_slow_log_pending";
        /// Slow-log records currently retained.
        slow_log_entries: u64 = stitched;
        /// Trace-ring events lost to wraparound.
        trace_dropped: u64 = stitched;
        /// Wraparound drops broken out per event kind, nonzero kinds only —
        /// the `gts_trace_dropped_total{kind=…}` family.
        trace_dropped_by_kind: Vec<KindDropped> = stitched;
        /// Batch counts per backend, one entry per [`Backend::ALL`] member in
        /// that order — the `gts_backend_chosen_total{backend=…}` family.
        backend_batches: Vec<BackendBatches> = (m.backend_batches());
        /// Last (query, trace) to land in each latency bucket — rendered as
        /// OpenMetrics exemplars on `gts_latency_ms`.
        latency_exemplars: Vec<LatencyExemplar> = (m.latency_exemplars.values().cloned().collect());
        /// Median wait between submission and batch dispatch.
        queue_wait_p50_ms: f64 = (m.hists.queue_wait_hist.percentile(50.0));
        /// 99th-percentile queue wait.
        queue_wait_p99_ms: f64 = (m.hists.queue_wait_hist.percentile(99.0));
        /// Longest observed queue wait (exact).
        queue_wait_max_ms: f64 = (m.hists.queue_wait_hist.max());
        /// Median submit-to-result latency.
        latency_p50_ms: f64 = (m.hists.latency_hist.percentile(50.0));
        /// 99th-percentile submit-to-result latency.
        latency_p99_ms: f64 = (m.hists.latency_hist.percentile(99.0));
        /// 99.9th-percentile submit-to-result latency.
        latency_p999_ms: f64 = (m.hists.latency_hist.percentile(99.9));
        /// Slowest observed query latency (exact).
        latency_max_ms: f64 = (m.hists.latency_hist.max());
        /// Per-index series, sorted by index name (BTreeMap order), so
        /// mixed-index workloads stay separable.
        per_index: Vec<IndexMetricsSnapshot> = (m.per_index());
    }
    histograms {
        /// Full modeled-ms distribution, one sample per metered batch.
        model_ms_hist, "gts_batch_model_ms";
        /// Full per-batch work-expansion distribution (warp batches only).
        work_expansion_hist, "gts_batch_work_expansion";
        /// Full per-batch mask-occupancy distribution (warp batches only).
        mask_occupancy_hist, "gts_batch_mask_occupancy";
        /// Full per-batch node-visit distribution.
        node_visits_hist, "gts_batch_node_visits";
        /// Full queue-wait distribution (ms).
        queue_wait_hist, "gts_queue_wait_ms";
        /// Full latency distribution (ms).
        latency_hist, "gts_latency_ms";
        /// Full per-batch wall-clock execution-time distribution (ms).
        exec_ms_hist, "gts_batch_exec_ms";
        /// Full epoch-merge duration distribution (ms).
        epoch_merge_ms_hist, "gts_epoch_merge_ms";
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryResult;

    /// The outcome of a `size`-query batch with the counters the tests
    /// vary, and nothing diluted or fused; metered iff it has modeled time,
    /// one warp unless the host walk ran it.
    fn batch(
        size: usize,
        backend: Backend,
        node_visits: u64,
        model_ms: f64,
        work_expansion: f64,
        shards_pruned: u64,
    ) -> BatchOutcome {
        BatchOutcome {
            results: vec![QueryResult::Pc { count: 0 }; size],
            backend,
            node_visits,
            metered: model_ms > 0.0,
            model_ms,
            warps: usize::from(backend != Backend::Cpu),
            work_expansion,
            mask_occupancy: 1.0,
            shards_pruned,
            ..BatchOutcome::default()
        }
    }

    /// `outcome` as index `idx` ran it: `wait_ms` in the queue, 2 ms on
    /// the worker.
    fn record(outcome: &BatchOutcome, wait_ms: u64) -> BatchRecord<'_> {
        let ms = Duration::from_millis;
        BatchRecord::from_outcome(outcome, ms(wait_ms), ms(2), "idx")
    }

    fn per_index_bytes(indices: usize) -> usize {
        let hists = INDEX_HISTOGRAMS.len() * N_BUCKETS * std::mem::size_of::<u64>();
        indices * (std::mem::size_of::<IndexSeries>() + hists)
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let m = Metrics::default();
        for _ in 0..3 {
            m.on_submit(1);
        }
        m.on_batch(&record(&batch(2, Backend::Lockstep, 100, 1.5, 1.2, 3), 2));
        m.on_batch(&record(&batch(1, Backend::Autoropes, 40, 0.5, 1.0, 1), 4));
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
    fn a_host_walk_batch_moves_neither_warp_mean() {
        let m = Metrics::default();
        let warped = BatchOutcome {
            mask_occupancy: 0.5,
            ..batch(4, Backend::Lockstep, 10, 1.0, 1.5, 0)
        };
        m.on_batch(&record(&warped, 1));
        let before = m.snapshot();
        assert_eq!(
            (before.mean_work_expansion, before.mean_mask_occupancy),
            (1.5, 0.5)
        );
        // The host walk's placeholders (1.0, no warps) are not samples.
        m.on_batch(&record(&batch(4, Backend::Cpu, 10, 0.0, 1.0, 0), 1));
        let after = m.snapshot();
        assert_eq!(after.batches, 2);
        assert_eq!(after.mean_work_expansion, before.mean_work_expansion);
        assert_eq!(after.mean_mask_occupancy, before.mean_mask_occupancy);
        assert_eq!(after.work_expansion_hist.count, 1);
        assert_eq!(after.mask_occupancy_hist.count, 1);
    }

    #[test]
    fn per_index_series_separate_mixed_workloads() {
        let m = Metrics::default();
        let a = batch(4, Backend::Lockstep, 10, 1.0, 1.0, 0);
        let a = BatchRecord {
            index: "alpha",
            ..record(&a, 1)
        };
        let b = batch(2, Backend::Cpu, 5, 0.0, 1.0, 0);
        let b = BatchRecord {
            index: "beta",
            ..record(&b, 1)
        };
        m.on_batch(&a);
        m.on_batch(&a);
        m.on_batch(&b);
        m.on_complete("alpha", Duration::from_millis(2), 1, 0);
        m.on_complete("beta", Duration::from_millis(8), 2, 0);
        let s = m.snapshot();
        // The ledger's two zero rows, which name no series.
        assert_eq!((s.profile_cache_hits, s.profile_cache_misses), (0, 0));
        let names: Vec<&str> = s.per_index.iter().map(|i| i.index.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"], "sorted by name");
        assert_eq!(s.per_index[0].batches, 2);
        assert_eq!(s.per_index[1].batches, 1);
        assert_eq!(s.per_index[0].completed, 1);
        let text = s.to_prometheus();
        assert!(!text.contains("gts_profile_cache"));
        assert!(text.contains(r#"gts_index_batches_total{index="alpha"} 2"#));
        assert!(text.contains(r#"gts_index_batches_total{index="beta"} 1"#));
        assert!(text.contains(r#"gts_index_latency_ms_count{index="alpha"} 1"#));
        assert!(text.contains(r#"gts_index_latency_ms_bucket{index="beta",le="+Inf"} 1"#));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = Metrics::default();
        m.on_submit(1);
        m.on_batch(&record(&batch(1, Backend::Cpu, 10, 0.0, 1.0, 0), 0));
        let s = m.snapshot();
        let back: MetricsSnapshot = serde_json::from_str(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn registry_memory_is_constant() {
        let m = Metrics::default();
        let before = m.approx_bytes();
        for i in 0..10_000u64 {
            m.on_submit(1);
            let out = batch(1, Backend::Cpu, i, i as f64 * 0.01, 1.0, 0);
            m.on_batch(&record(&out, i % 7));
            m.on_complete("idx", Duration::from_micros(10 * i), i, 0);
        }
        // One index registered on first record; the bound then stays flat
        // no matter how many batches follow.
        assert_eq!(m.approx_bytes(), before + per_index_bytes(1));
        let flat = m.approx_bytes();
        for i in 0..10_000u64 {
            m.on_batch(&record(&batch(1, Backend::Cpu, i, 0.0, 1.0, 0), 0));
        }
        assert_eq!(m.approx_bytes(), flat, "registry grew with load");
        let s = m.snapshot();
        assert_eq!(s.batches, 20_000);
        assert!(s.latency_hist.buckets.len() <= crate::hist::N_BUCKETS);
    }

    /// A hand-built outcome with a distinct prime in every integer counter.
    fn scripted_outcome(
        backend: Backend,
        p: [u64; 7],
        floats: [f64; 3],
        fused: bool,
    ) -> BatchOutcome {
        BatchOutcome {
            results: vec![QueryResult::Pc { count: 0 }; p[0] as usize],
            backend,
            mean_similarity: None,
            node_visits: p[1],
            metered: floats[0] > 0.0,
            model_ms: floats[0],
            warps: 1,
            work_expansion: floats[1],
            shards_pruned: p[2],
            mask_occupancy: floats[2],
            shard_visits: Vec::new(),
            stack_bytes_peak: p[3],
            stack_transactions: p[4],
            fused_ops: if fused { 3 } else { 0 },
            fused_lanes: if fused { p[5] } else { 0 },
            fusion_saved_visits: if fused { p[6] } else { 0 },
        }
    }

    /// Every key path of a JSON value, arrays flattened to `[]`.
    fn key_paths(v: &serde::Value, at: &str, out: &mut std::collections::BTreeSet<String>) {
        match v {
            serde::Value::Object(fields) => {
                for (k, v) in fields {
                    let path = if at.is_empty() {
                        k.clone()
                    } else {
                        format!("{at}.{k}")
                    };
                    key_paths(v, &path, out);
                    out.insert(path);
                }
            }
            serde::Value::Array(items) => {
                for v in items {
                    key_paths(v, &format!("{at}[]"), out);
                }
            }
            _ => {}
        }
    }

    /// The whole surface of the registry, pinned: the Prometheus text and
    /// the snapshot's JSON key set after a fixed script that feeds every
    /// hook, against a golden captured before the series table existed
    /// (plus the `failed` row, the table's first addition, and the two
    /// `metered_*` rows with the model histograms counting metered
    /// batches only).
    #[test]
    fn exposition_of_a_fixed_script_matches_the_golden() {
        let m = Metrics::default();
        for _ in 0..7 {
            m.on_submit(1);
        }
        m.on_reject();
        m.on_reject();
        m.on_admission_reject();
        m.on_fail(59);
        let ms = Duration::from_millis;
        let batches = [
            (
                scripted_outcome(
                    Backend::Lockstep,
                    [5, 101, 103, 127, 131, 0, 0],
                    [0.25, 1.25, 0.75],
                    false,
                ),
                "alpha",
                ms(1),
                ms(2),
            ),
            (
                scripted_outcome(
                    Backend::Autoropes,
                    [3, 137, 139, 163, 167, 173, 179],
                    [1.5, 1.0, 1.0],
                    true,
                ),
                "beta",
                ms(3),
                ms(5),
            ),
            (
                scripted_outcome(
                    Backend::StacklessKd,
                    // Unmetered: no modeled series, and no histogram sample.
                    [2, 181, 191, 0, 0, 0, 0],
                    [0.0, 2.5, 0.5],
                    false,
                ),
                "alpha",
                ms(7),
                ms(11),
            ),
        ];
        for (outcome, index, wait, exec) in &batches {
            m.on_batch(&BatchRecord::from_outcome(outcome, *wait, *exec, index));
        }
        m.on_propagated(1);
        m.on_complete("alpha", ms(3), 11, 0);
        m.on_complete("alpha", ms(3), 13, 0xfeed);
        m.on_complete("beta", ms(250), 17, 0);
        m.on_mutation(19, 23);
        m.on_epoch_merge(29, ms(31), 37, 41);
        m.on_net_accept();
        m.on_net_frame_rx(43);
        m.on_net_frame_rx(47);
        m.on_net_frame_tx(53);
        m.on_net_protocol_error();
        let mut s = m.snapshot();
        // What `Service` stitches in from its trace ring and slow log.
        s.slow_log_committed = 223;
        s.slow_log_evicted = 227;
        s.slow_log_pending = 229;
        s.slow_log_entries = 233;
        s.slow_log_threshold_us = 239;
        s.trace_dropped = 241;
        s.trace_dropped_by_kind = vec![KindDropped {
            kind: "submit".to_string(),
            dropped: 241,
        }];
        let value: serde::Value = serde_json::from_str(&s.to_json()).expect("snapshot parses");
        let mut keys = std::collections::BTreeSet::new();
        key_paths(&value, "", &mut keys);
        let keys: Vec<String> = keys.into_iter().collect();
        let got = format!(
            "{}# snapshot JSON keys\n{}\n",
            s.to_prometheus(),
            keys.join("\n")
        );
        let want = include_str!("metrics_exposition.golden");
        assert!(got == want, "exposition moved; it is now:\n{got}");
    }

    #[test]
    fn latency_exemplars_link_buckets_to_queries() {
        let m = Metrics::default();
        m.on_complete("idx", Duration::from_millis(3), 7, 0xabc);
        m.on_complete("idx", Duration::from_millis(250), 42, 0xdef);
        m.on_propagated(1);
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
        m.on_batch(&record(&batch(1, Backend::Lockstep, 10, 0.1, 1.0, 0), 0));
        m.on_batch(&record(&batch(1, Backend::StacklessKd, 10, 0.1, 1.0, 0), 0));
        m.on_batch(&record(&batch(1, Backend::StacklessKd, 10, 0.1, 1.0, 0), 0));
        let stacked = BatchOutcome {
            stack_bytes_peak: 4096,
            stack_transactions: 17,
            ..batch(1, Backend::Autoropes, 10, 0.1, 1.0, 0)
        };
        m.on_batch(&record(&stacked, 0));
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
        let out = batch(64, Backend::Lockstep, 100, 1.0, 1.0, 0);
        let mut rec = record(&out, 0);
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
        m.on_batch(&record(&batch(4, Backend::Lockstep, 100, 0.1, 1.0, 0), 0));
        let fused = BatchOutcome {
            fused_ops: 3,
            fused_lanes: 40,
            fusion_saved_visits: 120,
            ..batch(96, Backend::Autoropes, 60, 0.2, 1.0, 0)
        };
        m.on_batch(&record(&fused, 0));
        m.on_batch(&record(&fused, 0));
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

//! Tail-based slow-query flight recorder.
//!
//! Every query ends with one [`QueryRecord`] — backend chosen, shard visit
//! order with per-shard node visits and prune counts, stack bytes, queue
//! wait, epoch window, exec time — that the service's metrics and trace
//! read too. The ring keeps a copy of it **only if the query is worth
//! keeping**:
//!
//! * its latency exceeds a rolling threshold derived from the live
//!   latency histogram ([`SLOW_LOG_PERCENTILE`], p99),
//! * or it raised the running-maximum latency by a notable margin (the
//!   global tail is always interesting, and the first completion always
//!   commits, so the log is never empty after one resolve),
//! * or it was rejected / errored.
//!
//! The percentile rule only arms once the histogram holds
//! [`SLOW_LOG_WARMUP`] samples — before that a p99 of three queries is
//! noise. It is also *budgeted*: at most one threshold-breach commit per
//! [`SLOW_LOG_BUDGET`] completions. A rolling percentile over a
//! cumulative histogram lags the present, so a load pattern like a
//! monotonic queue-wait ramp (every arrival slower than the p99 of its
//! past) would otherwise commit nearly everything; the budget makes the
//! recorder's commit cost bounded by construction, ~3% of completions
//! worst-case. The max rule requires a 25% jump over the previous max
//! for the same reason — on a ramp it contributes O(log range) commits,
//! not O(n).
//!
//! The ring is dumpable as JSON (`serve --slow-log FILE`, tmp+rename so a
//! SIGKILL never leaves a torn file) and queryable over the wire via the
//! `SlowLogQuery` net frame. OpenMetrics exemplars on the latency
//! histogram ([`crate::metrics`]) link a tail bucket straight to the
//! query id recorded here.

use crate::index::ShardVisit;
use serde::Serialize;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Mutex;

/// The latency percentile whose rolling value is the commit threshold.
pub const SLOW_LOG_PERCENTILE: f64 = 99.0;

/// Histogram samples required before the percentile commit rule arms.
pub const SLOW_LOG_WARMUP: u64 = 64;

/// Threshold-breach commits are budgeted to at most one per this many
/// completions, keeping the recorder's cost bounded even when the load
/// pattern defeats the rolling percentile (see the module docs).
pub const SLOW_LOG_BUDGET: u64 = 32;

/// Everything known about how one query ended: answered, refused, or
/// failed with its batch. The service builds one per query and writes its
/// metrics, trace event and slow-log entry from it; the index name and
/// shard visits are borrowed from the batch, and the ring keeps a record
/// that owns copies of them.
#[derive(Debug, Clone, Serialize)]
pub struct QueryRecord<'a> {
    /// Trace query id (matches the trace ring and exemplar labels).
    pub query: u64,
    /// Propagated client trace id (0 = submitted in-process).
    pub trace_id: u64,
    /// Propagated client span id (the client's frame counter).
    pub span_id: u64,
    /// Index name (or `index-N` when the id never resolved).
    pub index: Cow<'a, str>,
    /// Operation tag: `nn`, `knn`, or `pc`.
    pub op: &'static str,
    /// Why the record was committed: `slow`, `max`, or `rejected`.
    pub outcome: &'static str,
    /// Reject reason tag when `outcome == "rejected"`.
    pub reason: Option<&'static str>,
    /// Executor that ran the batch (absent for rejected queries).
    pub backend: Option<&'static str>,
    /// Batch id the query rode in (absent for queries refused at submit).
    pub batch: Option<u64>,
    /// Submit timestamp, µs on the service trace timeline.
    pub submitted_us: u64,
    /// Queue wait (submit → batch dispatch; submit → refusal for a query
    /// refused at submit, which never leaves the front), µs.
    pub queue_wait_us: u64,
    /// Batch execution wall time (dispatch → answers ready, or the
    /// dispatch's failure), µs.
    pub exec_us: u64,
    /// Submit → answers ready (or the refusal, or the failure) latency,
    /// µs: `queue_wait_us + exec_us` to the clock's µs rounding. The
    /// scatter to the tickets comes after; ROADMAP item 1(b) adds it as a
    /// stage.
    pub latency_us: u64,
    /// The rolling slow threshold in force at commit, µs (0 = unarmed).
    pub threshold_us: u64,
    /// Tree-node visits across the query's batch.
    pub node_visits: u64,
    /// Whether the query's batch ran under the C2070 model.
    pub metered: bool,
    /// Peak rope-stack bytes any warp used in the batch (metered batches
    /// only).
    pub stack_bytes_peak: u64,
    /// `(query, shard)` fan-outs the batch pruned.
    pub shards_pruned: u64,
    /// Per-shard sub-batches of the query's batch, in visit order.
    pub shard_visits: Cow<'a, [ShardVisit]>,
    /// Index epoch during execution (mutable indices only).
    pub epoch: Option<u64>,
    /// Pending delta depth during execution (mutable indices only).
    pub pending_deltas: Option<u64>,
}

/// Counters over the slow log, stitched into every [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlowLogStats {
    /// Records committed over the lifetime of the log.
    pub committed: u64,
    /// Committed records later evicted by ring wraparound.
    pub evicted: u64,
    /// Latest rolling threshold, µs (0 until the histogram warms up).
    pub threshold_us: u64,
    /// Records currently retained.
    pub entries: u64,
}

/// JSON dump shape of the slow log (`serve --slow-log FILE` and the
/// `SlowLogQuery` net frame both produce this).
#[derive(Debug, Clone, Serialize)]
pub struct SlowLogDump {
    /// Ring capacity.
    pub capacity: u64,
    /// Commit percentile the threshold derives from.
    pub percentile: f64,
    /// Lifetime committed count.
    pub committed: u64,
    /// Committed records evicted by wraparound.
    pub evicted: u64,
    /// Latest rolling threshold, µs.
    pub threshold_us: u64,
    /// Retained records, oldest first.
    pub entries: Vec<QueryRecord<'static>>,
}

struct SlowInner {
    ring: VecDeque<QueryRecord<'static>>,
    committed: u64,
    evicted: u64,
    threshold_us: u64,
    max_latency_us: u64,
    /// Completions that passed through [`SlowLog::decide`].
    decided: u64,
    /// Threshold-breach commits granted, bounded by
    /// `decided / SLOW_LOG_BUDGET`.
    breach_commits: u64,
}

/// The bounded tail-sampling flight recorder. Capacity 0 disables it
/// (every call is a cheap no-op).
pub struct SlowLog {
    capacity: usize,
    inner: Mutex<SlowInner>,
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl SlowLog {
    /// A log retaining the newest `capacity` records.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity,
            inner: Mutex::new(SlowInner {
                ring: VecDeque::new(),
                committed: 0,
                evicted: 0,
                threshold_us: 0,
                max_latency_us: 0,
                decided: 0,
                breach_commits: 0,
            }),
        }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The tail-sampling decision for one completed query. Updates the
    /// rolling threshold and the running max; returns `(commit?, outcome
    /// tag, threshold in force)`.
    ///
    /// Commit rules, in order:
    /// * **max** — the first completion ever, or a latency beating the
    ///   previous running max by more than 25% (smaller improvements
    ///   update the max silently, so a slow ramp costs O(log range)
    ///   commits, not one per query).
    /// * **slow** — above the armed (`> 0`) threshold, subject to the
    ///   [`SLOW_LOG_BUDGET`] rate limit of one commit per 32 completions.
    pub fn decide(&self, latency_us: u64, threshold_us: u64) -> (bool, &'static str, u64) {
        if self.capacity == 0 {
            return (false, "slow", 0);
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.decided += 1;
        inner.threshold_us = threshold_us;
        let prev_max = inner.max_latency_us;
        if latency_us > prev_max {
            inner.max_latency_us = latency_us;
        }
        if inner.decided == 1 || latency_us > prev_max + prev_max / 4 {
            (true, "max", threshold_us)
        } else if threshold_us > 0
            && latency_us > threshold_us
            && inner.breach_commits * SLOW_LOG_BUDGET < inner.decided
        {
            inner.breach_commits += 1;
            (true, "slow", threshold_us)
        } else {
            (false, "slow", threshold_us)
        }
    }

    /// Append a committed record, evicting the oldest past capacity.
    pub fn commit(&self, record: QueryRecord<'static>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.committed += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        inner.ring.push_back(record);
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> SlowLogStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        SlowLogStats {
            committed: inner.committed,
            evicted: inner.evicted,
            threshold_us: inner.threshold_us,
            entries: inner.ring.len() as u64,
        }
    }

    /// Copy out the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<QueryRecord<'static>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.ring.iter().cloned().collect()
    }

    /// True when a committed record for `query` is retained.
    pub fn contains(&self, query: u64) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.ring.iter().any(|r| r.query == query)
    }

    /// The full dump: counters plus retained records.
    pub fn dump(&self) -> SlowLogDump {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        SlowLogDump {
            capacity: self.capacity as u64,
            percentile: SLOW_LOG_PERCENTILE,
            committed: inner.committed,
            evicted: inner.evicted,
            threshold_us: inner.threshold_us,
            entries: inner.ring.iter().cloned().collect(),
        }
    }

    /// The dump rendered as a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.dump()).expect("slow log serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(query: u64, latency_us: u64, outcome: &'static str) -> QueryRecord<'static> {
        QueryRecord {
            query,
            trace_id: 0,
            span_id: 0,
            index: Cow::Borrowed("t"),
            op: "nn",
            outcome,
            reason: None,
            backend: Some("lockstep"),
            batch: Some(0),
            submitted_us: 0,
            queue_wait_us: 1,
            exec_us: 2,
            latency_us,
            threshold_us: 0,
            node_visits: 10,
            metered: false,
            stack_bytes_peak: 0,
            shards_pruned: 0,
            shard_visits: Cow::Owned(vec![ShardVisit {
                shard: 0,
                round: 0,
                queries: 1,
                node_visits: 10,
                pruned: 0,
                model_ms: 0.0,
                offset_us: 0,
                dur_us: 0,
            }]),
            epoch: None,
            pending_deltas: None,
        }
    }

    #[test]
    fn decide_commits_notable_maxima_and_budgeted_breaches() {
        let log = SlowLog::new(8);
        // The first completion always commits, whatever the threshold.
        assert_eq!(log.decide(100, 0), (true, "max", 0));
        assert_eq!(log.decide(50, 0), (false, "slow", 0));
        assert_eq!(
            log.decide(100, 0),
            (false, "slow", 0),
            "ties are not maxima"
        );
        // A new max inside the 25% margin updates silently …
        assert_eq!(log.decide(110, 0), (false, "slow", 0));
        // … and the margin tracks the silent update: > 110 * 1.25 commits.
        assert_eq!(log.decide(120, 0), (false, "slow", 0));
        assert_eq!(log.decide(160, 0), (true, "max", 0));
        // Armed threshold: a breach commits as "slow" even when not a max.
        assert_eq!(log.decide(90, 80), (true, "slow", 80));
        // The budget then suppresses further breaches until enough
        // completions have passed (one commit per SLOW_LOG_BUDGET).
        assert_eq!(log.decide(95, 80), (false, "slow", 80));
        for _ in 0..SLOW_LOG_BUDGET {
            log.decide(1, 80);
        }
        assert_eq!(log.decide(95, 80), (true, "slow", 80), "budget refilled");
        // A notable max below the threshold still commits as "max".
        assert_eq!(log.decide(130_000, 200_000), (true, "max", 200_000));
        assert_eq!(log.stats().threshold_us, 200_000);
    }

    #[test]
    fn ramp_load_commit_rate_stays_bounded() {
        // A monotonic latency ramp defeats a lagging rolling percentile
        // (every arrival is above the p99 of its past). The budget and the
        // max margin must keep commits a small fraction of completions.
        let log = SlowLog::new(8);
        let n = 4096u64;
        let mut commits = 0u64;
        for i in 1..=n {
            let latency = 100 * i; // 100µs .. 410ms, strictly ramping
            let threshold = (100 * i * 9) / 10; // lagging "p99" below every arrival
            if log.decide(latency, threshold).0 {
                commits += 1;
            }
        }
        assert!(commits >= 1, "the tail is never empty");
        assert!(commits * 20 <= n, "ramp committed {commits} of {n} (> 5%)");
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let log = SlowLog::new(3);
        for q in 0..5 {
            log.commit(record(q, 1000 + q, "slow"));
        }
        let s = log.stats();
        assert_eq!(s.committed, 5);
        assert_eq!(s.evicted, 2);
        assert_eq!(s.entries, 3);
        let snap = log.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.query).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest evicted first"
        );
        assert!(log.contains(4));
        assert!(!log.contains(0));
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let log = SlowLog::new(0);
        assert_eq!(log.decide(1_000_000, 0), (false, "slow", 0));
        log.commit(record(1, 1, "slow"));
        assert_eq!(log.stats(), SlowLogStats::default());
    }

    #[test]
    fn dump_round_trips_as_json() {
        let log = SlowLog::new(4);
        log.commit(record(3, 5000, "slow"));
        log.decide(5000, 400);
        let json = log.to_json();
        let v: serde::Value = serde_json::from_str(&json).expect("dump parses");
        let serde::Value::Object(fields) = &v else {
            panic!("dump is not an object")
        };
        let num = |k: &str| match fields.iter().find(|(name, _)| name == k) {
            Some((_, serde::Value::Number(n))) => n.as_u64(),
            _ => None,
        };
        assert_eq!(num("capacity"), Some(4));
        assert_eq!(num("committed"), Some(1));
        assert_eq!(num("threshold_us"), Some(400));
        let Some(serde::Value::Array(entries)) = v.get("entries") else {
            panic!("entries is not an array")
        };
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        let field = |k: &str| match entry.get(k) {
            Some(serde::Value::Number(n)) => n.as_u64(),
            _ => None,
        };
        assert_eq!(field("query"), Some(3));
        assert_eq!(field("latency_us"), Some(5000));
        assert!(matches!(
            entry.get("shard_visits"),
            Some(serde::Value::Array(_))
        ));
    }
}

//! `gts-service`: a warp-aware batched traversal query service.
//!
//! The offline pipeline this repo reproduces (Goldfarb/Jo/Kulkarni SC'13)
//! makes two decisions per input set: *sort* the points so neighbors
//! traverse alike (§4.4), and *profile* a sample of neighboring traversals
//! to pick the lockstep executor only when their node visits overlap. This
//! crate turns that offline heuristic into an online scheduling policy:
//!
//! * clients submit NN / kNN / point-correlation queries against
//!   registered tree indices; `submit` files each into its (index,
//!   kernel-parameters) bucket, and a bucket flushes as a warp-multiple
//!   batch under a time-or-size policy ([`batcher`]) into the front's
//!   bounded ready queue (backpressure);
//! * a worker pool takes the batches from that queue, Morton-sorts each
//!   and runs the host walk on it —
//!   or, on a batch the C2070 model meters, the profiler's lockstep or
//!   autoropes — results return in submission order through tickets;
//! * a metrics registry tracks queue wait, batch sizes, backend choices,
//!   node visits, work expansion, mask occupancy, shard pruning, and
//!   p50/p99/p99.9 latency in bounded log-scale histograms ([`hist`]),
//!   exportable as JSON or Prometheus text;
//! * a fixed-capacity trace recorder ([`trace`]) captures every query's
//!   lifecycle (submit → enqueue → batch → complete/reject) and every
//!   batch's execution span, exportable as Chrome trace-event JSON that
//!   Perfetto renders directly;
//! * datasets larger than one tree register as a [`ShardedIndex`]:
//!   Morton-partitioned kd-tree shards, per-batch fan-out with AABB
//!   pruning, exact per-shard result merging (see [`shard`]);
//! * streaming workloads register a [`MutableIndex`]: epoch/RCU
//!   insert/delete with readers pinning `Arc` snapshots, a background
//!   merge thread rebuilding only touched Morton shards, and exact
//!   answers during the pending-delta window (see [`epoch`]).
//!
//! ```no_run
//! use gts_service::{Backend, KdIndex, Query, QueryKind, Service, ServiceConfig};
//! use gts_trees::{PointN, SplitPolicy};
//! use std::sync::Arc;
//!
//! let pts: Vec<PointN<3>> = (0..1000)
//!     .map(|i| PointN([i as f32 * 0.001, 0.5, 0.5]))
//!     .collect();
//! let service = Service::start(ServiceConfig::default());
//! let id = service.register_index(Arc::new(KdIndex::build(
//!     "demo", &pts, 8, SplitPolicy::MedianCycle,
//! )));
//! let ticket = service
//!     .submit(Query { index: id, pos: vec![0.1, 0.5, 0.5], kind: QueryKind::Knn { k: 4 } })
//!     .unwrap();
//! let result = ticket.wait().unwrap();
//! println!("{result:?}\n{}", service.shutdown().to_json());
//! ```

pub mod batcher;
pub mod epoch;
pub mod hist;
pub mod index;
pub mod metrics;
pub mod policy;
pub mod query;
pub mod service;
pub mod shard;
pub mod slowlog;
pub mod trace;

pub use batcher::{BatchEntry, Batcher, ReadyBatch, WARP};
pub use epoch::{
    EpochEvent, EpochObserverFn, EpochStats, MutableIndex, MutableIndexBuilder, MutateError,
    Mutation, MutationAck,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use index::{
    BatchOutcome, FusedLane, FusedLaneResult, FusedOutcome, KdIndex, ShardVisit, TreeIndex,
};
pub use metrics::{
    BackendBatches, BatchRecord, IndexMetricsSnapshot, KindDropped, LatencyExemplar, Metrics,
    MetricsSnapshot,
};
pub use policy::{Backend, ExecPolicy};
pub use query::{BatchKey, IndexId, OpKey, Query, QueryKind, QueryResult};
pub use service::{CompletionFn, Service, ServiceConfig, ServiceError, Ticket};
pub use shard::{ShardedIndex, ShardedIndexBuilder};
pub use slowlog::{QueryRecord, SlowLog, SlowLogDump, SlowLogStats, SLOW_LOG_WARMUP};
pub use trace::{
    fused_ops_name, merge_snapshots, EventKind, TraceContext, TraceEvent, TraceRecorder,
    TraceSnapshot, TraceStream, TraceStreamStats, FUSED_OP_KNN, FUSED_OP_NN, FUSED_OP_PC,
    KIND_COUNT, KIND_NAMES,
};

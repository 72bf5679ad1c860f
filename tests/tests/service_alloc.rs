//! Allocation budget of the service path.
//!
//! From `submit` to a resolved ticket a query crosses the front, a
//! dispatch, a worker's lane building, the index and the scatter back.
//! What that allocates per query — its ticket, its lane's op lists, its
//! answer and the caller's copy of it — is paid on every query of every
//! workload, so this binary installs a counting global allocator and pins
//! it. One test only: the counter is process-wide, and the service's own
//! threads are meant to be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gts_points::gen::uniform;
use gts_service::{
    Backend, ExecPolicy, KdIndex, Query, QueryKind, Service, ServiceConfig, ShardedIndex, Ticket,
    TreeIndex,
};
use gts_trees::SplitPolicy;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every request to `System` unchanged; the only addition
// is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const QUERIES: usize = 4096;
const WARM_UP: usize = 512;

/// Allocations per query of serving, from `index`, `QUERIES` queries whose
/// kinds cycle through `kinds`, after a warm-up of the same stream.
fn allocs_per_query(index: Arc<dyn TreeIndex>, kinds: &[QueryKind]) -> f64 {
    let service = Service::start(ServiceConfig {
        workers: 1,
        policy: ExecPolicy::forced(Backend::Cpu),
        ..ServiceConfig::default()
    });
    let index = service.register_index(index);
    let queries: Vec<Query> = (uniform::<3>(WARM_UP + QUERIES, 0xbeef).iter().enumerate())
        .map(|(i, p)| Query {
            index,
            pos: p.0.to_vec(),
            kind: kinds[i % kinds.len()],
        })
        .collect();
    let serve = |queries: Vec<Query>| -> u64 {
        let mut tickets: Vec<Ticket> = Vec::with_capacity(queries.len());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for q in queries {
            tickets.push(service.submit(q).expect("open"));
        }
        for t in &tickets {
            t.wait().expect("answered");
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let (warm_up, counted) = queries.split_at(WARM_UP);
    let (warm_up, counted) = (warm_up.to_vec(), counted.to_vec());
    serve(warm_up);
    let allocs = serve(counted);
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, (WARM_UP + QUERIES) as u64);
    allocs as f64 / QUERIES as f64
}

#[test]
fn service_path_allocates_a_few_times_per_query() {
    let data = uniform::<3>(4096, 0xa110c);
    let flat = Arc::new(KdIndex::build("alloc", &data, 8, SplitPolicy::MedianCycle));
    let mix_kinds = [
        QueryKind::Nn,
        QueryKind::Knn { k: 8 },
        QueryKind::Pc { radius: 0.1 },
    ];
    let nn = allocs_per_query(flat.clone(), &[QueryKind::Nn]);
    let mix = allocs_per_query(flat, &mix_kinds);
    let sharded = Arc::new(ShardedIndex::build(
        "alloc",
        &data,
        4,
        8,
        SplitPolicy::MedianCycle,
    ));
    let sharded = allocs_per_query(sharded, &mix_kinds);
    println!(
        "allocations per served query: NN only {nn:.2}, NN / kNN k=8 / PC mix {mix:.2}, \
         the mix on 4 shards {sharded:.2}"
    );
    // Measured (2.12 and 6.77) + 10 %. The mix stays under 8: a position
    // key per fused entry and a copy of every answer that no callback
    // asked for put it at 8.46.
    assert!(nn < 2.33, "NN only: {nn:.2} allocations per query");
    assert!(mix < 7.45, "mix: {mix:.2} allocations per query");
    // Measured (9.54) + 10 %. A lane's one fused state is walked over its
    // shards in turn and read off as answers once per batch; a fresh state
    // per shard folded into it put it at 12.08, and building answers per
    // shard and folding those at 15.34.
    assert!(
        sharded < 10.5,
        "4 shards: {sharded:.2} allocations per query"
    );
}

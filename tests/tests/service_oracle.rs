//! Concurrent submitters through one `Service` get exactly what brute
//! force computes — batching, Morton sorting, profiling and executor
//! choice are invisible to callers — on every index kind, with a 3-d and
//! a 2-d index served side by side (a query sent to the wrong index, or
//! lanes of both in one batch, fail the check), `k` past the index size
//! now and then (the answer is clamped to the points there are) and a
//! mutation batch mid-stream (refused by the static indices).

use gts_integration::{together, Ask, Config, Kind, Path, Script, MENU};
use gts_points::gen::{geocity_like, uniform};
use gts_service::OpKey;
use gts_trees::SplitPolicy;

const N_POINTS: usize = 1024;

fn stream<const D: usize>(script: Script<D>) -> Script<D> {
    script
        .queries(600, Ask::Any(&MENU))
        .queries(60, Ask::All(&[OpKey::Knn(2 * N_POINTS)]))
        .mutate(64, 32)
        .queries(600, Ask::Any(&MENU))
}

#[test]
fn concurrent_submitters_answer_like_brute_force_on_every_index_kind() {
    let script = stream(Script::new(9000, uniform::<3>(N_POINTS, 1301)));
    let mut geo = Script::new(9001, geocity_like(N_POINTS, 1302));
    geo.split = SplitPolicy::MidpointWidest;
    let geo = stream(geo);
    for kind in [Kind::Flat, Kind::Sharded, Kind::Mutable] {
        let cfg = Config::new(kind, Path::Service);
        let m = together(&script, &cfg, &[(&geo, kind)]).metrics.unwrap();
        assert!(
            m.mean_batch_size > 1.0,
            "the batcher coalesced: mean {}",
            m.mean_batch_size
        );
    }
}

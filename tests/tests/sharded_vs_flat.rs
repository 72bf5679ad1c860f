//! A [`ShardedIndex`](gts_service::ShardedIndex) answers like brute force
//! over its points, for every op and every shard count: partitioning is
//! an implementation detail, not a semantics change. The harness's check
//! also holds every returned id to the point it names, in the original
//! dataset order and at the reported distance.

use gts_integration::{each, run, Ask, Config, Kind, Path, Script};
use gts_points::gen::uniform;
use gts_service::{Backend, OpKey};

#[test]
fn every_shard_count_answers_every_op_like_brute_force() {
    let script = Script::new(0x5eed, uniform::<3>(4096, 0x5eed))
        .queries(2000, Ask::All(&[OpKey::Nn]))
        .queries(2000, Ask::All(&[OpKey::Knn(8)]))
        .queries(2000, Ask::All(&[OpKey::Pc(0.15f32.to_bits())]));
    let base = Config::new(Kind::Sharded, Path::Direct);
    let points = [1, 2, 7, 16].map(|shards| base.at(shards, 1, Some(Backend::Cpu)));
    each(&points, |cfg| run(&script, cfg));
}

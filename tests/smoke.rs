//! Tier-1 smoke test of the serving path: the differential harness at its
//! smallest size. Three scripts — NN + kNN + PC at each position, one
//! mutation batch mid-stream — go at once to a flat, a sharded and a
//! mutable index, each over its own points, served by one `Service`, and
//! every answer is checked against brute force over its own index's.

use gpu_tree_traversals::points::gen::uniform;
use gpu_tree_traversals::service::OpKey;
use gts_integration::{together, Ask, Config, Kind, Path, Script};

#[test]
fn service_answers_a_mixed_stream_on_every_index_kind() {
    let ops = [OpKey::Nn, OpKey::Knn(4), OpKey::Pc(0.2f32.to_bits())];
    // Sixteen points move on the mutable index; the static ones refuse.
    let [flat, sharded, mutable] = [0x5301, 0x5302, 0x5303].map(|seed| {
        Script::new(seed, uniform::<3>(512, seed))
            .queries(48, Ask::All(&ops))
            .mutate(16, 16)
            .queries(48, Ask::All(&ops))
    });
    let rest = [(&sharded, Kind::Sharded), (&mutable, Kind::Mutable)];
    let m = together(&flat, &Config::new(Kind::Flat, Path::Service), &rest)
        .metrics
        .expect("served");
    assert!(
        m.fused_batches > 0 && m.fused_lanes > 0 && m.fusion_saved_visits > 0,
        "mixed windows must fuse, and the one walk must save visits"
    );
}

//! Integration test crate: the tests live in `tests/tests/`; inputs more
//! than one of them feeds its oracle live here.

use gts_service::{ExecPolicy, FusedLane, OpKey};
use gts_trees::PointN;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const KS: [usize; 2] = [3, 8];
const RADII: [f32; 2] = [0.08, 0.2];

/// Seeded mixed lanes: positions near dataset anchors, each lane asking
/// a random non-empty subset of {NN, kNN(3), kNN(8), PC(r1), PC(r2)}.
pub fn mixed_lanes(data: &[PointN<3>], n: usize, seed: u64) -> Vec<FusedLane> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let anchor = data[rng.gen_range(0..data.len())];
            let pos: Vec<f32> = anchor
                .0
                .iter()
                .map(|&c| c + rng.gen_range(-0.05f32..0.05))
                .collect();
            let mut lane = FusedLane::empty(pos);
            lane.nn = rng.gen_bool(0.5);
            for k in KS {
                if rng.gen_bool(0.5) {
                    lane.knn_ks.push(k);
                }
            }
            for r in RADII {
                if rng.gen_bool(0.5) {
                    lane.pc_radii.push(r.to_bits());
                }
            }
            if lane.ops() == 0 {
                lane.ask(OpKey::Nn);
            }
            lane
        })
        .collect()
}

/// `policy` at the first `profile_seed`, from its own upward, for which the
/// batch at `positions` is metered ([`ExecPolicy::meters`]) — how a test
/// that reads the model off one particular batch gets it onto that batch.
pub fn metering(mut policy: ExecPolicy, positions: &[Vec<f32>]) -> ExecPolicy {
    while !policy.meters(positions.iter().map(|p| &p[..])) {
        policy.profile_seed += 1;
    }
    policy
}

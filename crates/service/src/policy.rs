//! Per-batch execution policy: a batch the C2070 model meters takes the
//! paper's offline §4.4 decision online — sample neighboring traversals,
//! pick lockstep when they look alike — and every other one the host walk.

use gts_points::profile::DEFAULT_THRESHOLD;

/// The traversal executor a batch ran on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Warp-lockstep rope-stack executor (`gts_runtime::gpu::lockstep`).
    Lockstep,
    /// Independent-lane rope-stack executor (`gts_runtime::gpu::autoropes`)
    /// — a metered batch's low-similarity or too-small-to-profile choice.
    #[default]
    Autoropes,
    /// Stack-free Wald walk of the left-balanced implicit kd-tree
    /// (`gts_runtime::gpu::stackless::run_wald`): zero rope-stack traffic,
    /// node schedule insensitive to batch sortedness.
    StacklessKd,
    /// Ropes-free skip-link walk of the pointer tree
    /// (`gts_runtime::gpu::stackless::run_skip`, Apetrei escape links).
    StacklessBvh,
    /// Host-side traversal (`gts_runtime::cpu`): what unmetered batches run.
    Cpu,
}

impl Backend {
    /// Every backend, in a stable order — metrics and reports that break
    /// counts down per backend enumerate this instead of hard-coding the
    /// lockstep/autoropes pair.
    pub const ALL: [Backend; 5] = [
        Backend::Lockstep,
        Backend::Autoropes,
        Backend::StacklessKd,
        Backend::StacklessBvh,
        Backend::Cpu,
    ];

    /// Stable lowercase name for metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Lockstep => "lockstep",
            Backend::Autoropes => "autoropes",
            Backend::StacklessKd => "stackless-kd",
            Backend::StacklessBvh => "stackless-bvh",
            Backend::Cpu => "cpu",
        }
    }

    /// Inverse of [`name`](Self::name) (CLI flags, config files).
    pub fn from_name(name: &str) -> Option<Backend> {
        Backend::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Position in [`ALL`](Self::ALL), for per-backend accumulator arrays.
    pub fn index(self) -> usize {
        Backend::ALL
            .iter()
            .position(|&b| b == self)
            .expect("every backend is in ALL")
    }
}

/// One batch in this many runs under the C2070 model
/// ([`ExecPolicy::meters`]) and takes the §4.4 choice; the rest run the
/// host walk (or, when forced, their executor's loop unmetered).
pub const METER_ONE_IN: u64 = 16;

/// How a batch chooses its executor.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Neighbor pairs the sortedness profiler samples per metered batch.
    pub profile_pairs: usize,
    /// Similarity threshold above which a metered batch takes lockstep.
    pub threshold: f64,
    /// Seed for metering and the profiler's sampling (deterministic).
    pub profile_seed: u64,
    /// When set, skip profiling and always use this backend.
    pub force: Option<Backend>,
    /// Apply the Morton pre-sort before dispatch (§4.4 point sorting).
    /// Disabling this models an unsorted baseline; the profiler then
    /// usually steers metered batches away from lockstep.
    pub sort: bool,
    /// Host threads each executor run may use — a simulated-GPU launch or
    /// the host walk alike. Workers run concurrently, so this defaults to
    /// 1 to avoid oversubscription; 0 means every core.
    pub sim_threads: usize,
    /// Threads a sharded index may run a wave's sub-batches on — the
    /// size of its wave pool and nothing else: the schedule, and with it
    /// every answer and count, is the same for any value. `1` runs the
    /// waves inline on the worker; `0` (the default) resolves to
    /// `min(shards, available_parallelism)`. Flat indices ignore it.
    pub shard_parallelism: usize,
    /// Let a metered batch's sub-batches on a sharded index — static and
    /// mutable alike — reuse cached §4.4 sortedness decisions (per-shard
    /// [`gts_points::profile::ProfileCache`]) instead of re-sampling each.
    /// Disabling reproduces the profile-every-sub-batch baseline; a
    /// metered flat batch always profiles, an unmetered one never does.
    pub profile_cache: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            profile_pairs: 16,
            threshold: DEFAULT_THRESHOLD,
            profile_seed: 0x5eed_f00d,
            force: None,
            sort: true,
            sim_threads: 1,
            shard_parallelism: 0,
            profile_cache: true,
        }
    }
}

impl ExecPolicy {
    /// Policy that always dispatches to `backend` without profiling.
    pub fn forced(backend: Backend) -> Self {
        ExecPolicy {
            force: Some(backend),
            ..ExecPolicy::default()
        }
    }

    /// Whether the batch asking at `positions` is *metered*: served by the
    /// executors' [`gts_runtime::gpu::WarpSim`] instantiation, so that it carries
    /// the modeled series ([`crate::BatchOutcome::metered`]). True for one
    /// batch in [`METER_ONE_IN`]; a function of `profile_seed` and of the
    /// coordinates' bit patterns and of nothing else — not of the order
    /// the positions come in, so a batch and its Morton-sorted self agree,
    /// nor of which worker runs it or when. The batch's owner asks once
    /// and hands the answer to every sub-batch.
    pub fn meters<'a>(&self, positions: impl IntoIterator<Item = &'a [f32]>) -> bool {
        // splitmix64's finalizer.
        let mix = |mut h: u64| {
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^ (h >> 31)
        };
        // Positions combine by a wrapping sum: commutative, and a repeated
        // position still counts (an xor would cancel it).
        let mut sum = 0u64;
        for pos in positions {
            let hash = (pos.iter()).fold(self.profile_seed, |h, c| mix(h ^ u64::from(c.to_bits())));
            sum = sum.wrapping_add(hash);
        }
        mix(sum ^ self.profile_seed) % METER_ONE_IN == 0
    }

    /// Host threads per executor run, resolved (`0` → all cores).
    pub fn sim_threads(&self) -> usize {
        if self.sim_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.sim_threads
        }
    }

    /// Sub-batch threads for an index with `n_shards` shards, resolved:
    /// `0` → `min(n_shards, available_parallelism)`, and never more
    /// threads than shards (extra workers would only idle).
    pub fn shard_threads(&self, n_shards: usize) -> usize {
        let requested = if self.shard_parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.shard_parallelism
        };
        requested.min(n_shards).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_points::sort::{apply_perm, morton_order};
    use gts_trees::PointN;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn metered_subset_ignores_order_and_is_one_in_sixteen() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x3e7e);
        let policy = ExecPolicy::default();
        let other_seed = ExecPolicy {
            profile_seed: policy.profile_seed + 1,
            ..ExecPolicy::default()
        };
        let (mut selected, mut moved_by_seed) = (0u32, 0u32);
        for _ in 0..1000 {
            let n = rng.gen_range(1..200);
            let mut batch: Vec<PointN<3>> = (0..n)
                .map(|_| PointN(std::array::from_fn(|_| rng.gen_range(-1.0f32..1.0))))
                .collect();
            // A repeated position is still part of the batch.
            batch.push(batch[0]);
            let meters =
                |policy: &ExecPolicy, b: &[PointN<3>]| policy.meters(b.iter().map(|p| &p.0[..]));
            let metered = meters(&policy, &batch);
            let sorted = apply_perm(&batch, &morton_order(&batch));
            assert_eq!(meters(&policy, &sorted), metered, "Morton order");
            batch.reverse();
            assert_eq!(meters(&policy, &batch), metered, "reversed");
            selected += u32::from(metered);
            moved_by_seed += u32::from(meters(&other_seed, &batch) != metered);
        }
        // 1/16 ± 1/32 of 1 000.
        assert!((32..=93).contains(&selected), "{selected} of 1000 selected");
        assert!(moved_by_seed > 0, "the seed picks the subset");
    }
}

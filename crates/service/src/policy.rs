//! Per-batch execution policy: the paper's offline §4.4 decision — sort,
//! sample neighboring traversals, pick lockstep when they look alike —
//! applied online to every batch the service flushes.

use gts_points::profile::DEFAULT_THRESHOLD;

/// The traversal executor a batch ran on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Warp-lockstep rope-stack executor (`gts_runtime::gpu::lockstep`).
    Lockstep,
    /// Independent-lane rope-stack executor (`gts_runtime::gpu::autoropes`)
    /// — where a batch too small to profile lands, hence the default.
    #[default]
    Autoropes,
    /// Stack-free Wald walk of the left-balanced implicit kd-tree
    /// (`gts_runtime::gpu::stackless::run_wald`): zero rope-stack traffic,
    /// node schedule insensitive to batch sortedness.
    StacklessKd,
    /// Ropes-free skip-link walk of the pointer tree
    /// (`gts_runtime::gpu::stackless::run_skip`, Apetrei escape links).
    StacklessBvh,
    /// Host-side parallel traversal (`gts_runtime::cpu`), no GPU model.
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

/// When the batcher may coalesce same-index queries of *different* ops
/// (NN / kNN / PC) into one fused traversal (one tree walk under the
/// union prune bound, per-op answers bit-identical to unfused runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionMode {
    /// Fuse only when it plausibly saves work: a drain window must hold
    /// at least two *distinct* ops against the same index. Single-op
    /// windows dispatch as they flushed, one batch per op.
    #[default]
    Auto,
    /// Never fuse — reproduces per-op batching exactly.
    Off,
}

impl FusionMode {
    /// Stable lowercase name for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            FusionMode::Auto => "auto",
            FusionMode::Off => "off",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<FusionMode> {
        match name {
            "auto" => Some(FusionMode::Auto),
            "off" => Some(FusionMode::Off),
            _ => None,
        }
    }
}

/// How a batch chooses its executor.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Neighbor pairs the sortedness profiler samples per batch.
    pub profile_pairs: usize,
    /// Similarity threshold above which lockstep is chosen.
    pub threshold: f64,
    /// Seed for the profiler's pair sampling (deterministic per service).
    pub profile_seed: u64,
    /// When set, skip profiling and always use this backend.
    pub force: Option<Backend>,
    /// Apply the Morton pre-sort before dispatch (§4.4 point sorting).
    /// Disabling this models an unsorted baseline; the profiler then
    /// usually steers batches away from lockstep.
    pub sort: bool,
    /// Host threads each simulated-GPU launch may use. Workers run
    /// concurrently, so this defaults to 1 to avoid oversubscription;
    /// 0 means "let the simulator pick".
    pub sim_threads: usize,
    /// Threads a sharded index may run sub-batches on. `1` keeps the
    /// sequential round-by-round path; `0` (the default) resolves to
    /// `min(shards, available_parallelism)`. Flat indices ignore it.
    pub shard_parallelism: usize,
    /// Let sharded indices reuse cached §4.4 sortedness decisions
    /// (per-shard [`gts_points::profile::ProfileCache`]) instead of
    /// re-sampling on every sub-batch. Disabling reproduces the
    /// profile-every-sub-batch baseline; flat indices always profile.
    pub profile_cache: bool,
    /// Prefer the stackless executor on *low-similarity* batches: where
    /// the §4.4 profile steers away from lockstep, dispatch to
    /// [`Backend::StacklessKd`] instead of autoropes. Stackless pays no
    /// rope-stack traffic and its schedule is sortedness-insensitive, so
    /// it wins exactly where lockstep loses. High-similarity batches still
    /// go to lockstep.
    pub stackless: bool,
    /// When the batcher may fuse same-index multi-op drain windows into
    /// one traversal (see [`FusionMode`]).
    pub fusion: FusionMode,
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
            stackless: false,
            fusion: FusionMode::default(),
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

    /// Simulation threads per launch, resolved (`0` → all cores).
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

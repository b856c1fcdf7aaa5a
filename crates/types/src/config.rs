//! Configuration of the simulated system (the analogue of Table II).
//!
//! The paper simulates a 256-core, 64-tile chip. The defaults here describe
//! the same machine; [`SystemConfig::with_cores`] produces the scaled-down
//! versions the experiment harness and the tests run.

use serde::{Deserialize, Serialize};

// Fixed parameters of the simulated machine: the paper's Table II and the
// Swarm task unit (Jeffrey et al., MICRO 2015). No experiment varies them,
// so they are constants rather than `SystemConfig` fields; result-cache keys
// still hash them (see `SystemConfig`'s `Canonical` impl), so editing one
// invalidates every cached result.

/// L1 hit latency (cycles).
pub const L1_LATENCY: u64 = 2;
/// L2 hit latency (cycles).
pub const L2_LATENCY: u64 = 7;
/// L3 bank hit latency (cycles).
pub const L3_LATENCY: u64 = 9;
/// Main memory latency (cycles).
pub const MEM_LATENCY: u64 = 120;
/// NoC cycles per hop when going straight.
pub const HOP_LATENCY: u64 = 1;
/// Extra NoC cycles when a route turns (X-Y routing turns at most once).
pub const TURN_PENALTY: u64 = 1;
/// NoC link width in bits; a 64-byte line payload is `512 / LINK_BITS` flits.
pub const LINK_BITS: u64 = 128;
/// Flits in a control message (task enqueue header, GVT update, abort).
pub const CONTROL_FLITS: u64 = 1;
/// Cycles charged per spilled or refilled task.
pub const SPILL_COST_PER_TASK: u64 = 10;
/// Cycles per conflict check at a tile (5 in the paper).
pub const CONFLICT_CHECK_COST: u64 = 5;
/// Cycles per commit-queue timestamp comparison during a conflict check.
pub const CONFLICT_COMPARE_COST: u64 = 1;
/// Cycles between GVT (global virtual time) updates (200 in the paper).
/// The n-th update, from 1, fires at cycle n × `GVT_EPOCH`.
pub const GVT_EPOCH: u64 = 200;
/// Cycles charged per Swarm task-management instruction
/// (enqueue / dequeue / finish, 5 in the paper).
pub const TASK_MGMT_COST: u64 = 5;
/// Base cycles charged to every task execution, modelling the non-memory
/// instructions of a short task body.
pub const TASK_BASE_COST: u64 = 10;
/// Load-balancer buckets per tile (16 in the paper).
pub const LB_BUCKETS_PER_TILE: usize = 16;
/// Fraction (percent) of a tile's load surplus or deficit corrected per
/// load-balancer reconfiguration (80% in the paper).
pub const LB_CORRECTION_PCT: u8 = 80;
/// Seed of every randomized scheduling policy (Random placement, the
/// Stealing mapper's initial tasks, NOHINT placement). Application inputs
/// are seeded separately, per run point.
pub const POLICY_SEED: u64 = 0xC0FFEE;

const _: () = assert!(GVT_EPOCH > 0 && LINK_BITS > 0 && CONTROL_FLITS > 0);
const _: () = assert!(LB_CORRECTION_PCT <= 100);

/// Cache capacities in lines (latencies are the `*_LATENCY` constants).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Per-core L1 capacity in cache lines (16 KB / 64 B = 256 in the paper).
    pub l1_lines: usize,
    /// Per-tile L2 capacity in cache lines (256 KB / 64 B = 4096).
    pub l2_lines: usize,
    /// Per-tile L3 slice capacity in cache lines (1 MB / 64 B = 16384).
    pub l3_lines_per_tile: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { l1_lines: 256, l2_lines: 4096, l3_lines_per_tile: 16384 }
    }
}

/// Network fidelity level: how message delivery times are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NocModel {
    /// Purely analytic hop latencies (the historical model, and the default):
    /// every message pays `hops * HOP_LATENCY (+ TURN_PENALTY)` regardless of
    /// load. Figure outputs are pinned against this mode.
    #[default]
    Analytic,
    /// Contention-aware: each directed mesh link is a bandwidth-limited FIFO
    /// (service time = flits / `link_flits_per_cycle`), messages walk their
    /// dimension-ordered route link by link, and queueing delay behind
    /// earlier messages is charged into delivery times.
    Contention,
}

impl NocModel {
    /// Every model, the default first.
    pub const ALL: [NocModel; 2] = [NocModel::Analytic, NocModel::Contention];

    /// Lowercase name: the CLI and protocol spelling.
    pub fn name(self) -> &'static str {
        match self {
            NocModel::Analytic => "analytic",
            NocModel::Contention => "contention",
        }
    }
}

impl std::str::FromStr for NocModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        NocModel::ALL
            .into_iter()
            .find(|model| model.name() == lower)
            .ok_or_else(|| format!("unknown noc model '{lower}'"))
    }
}

/// On-chip network parameters (16x16 mesh of 128-bit links in the paper;
/// the fixed ones are [`HOP_LATENCY`], [`TURN_PENALTY`], [`LINK_BITS`] and
/// [`CONTROL_FLITS`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Fidelity of the delivery-time model (see [`NocModel`]).
    pub model: NocModel,
    /// Flits a link accepts per cycle in [`NocModel::Contention`]; the
    /// service time of an `f`-flit message is `ceil(f / link_flits_per_cycle)`.
    pub link_flits_per_cycle: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig { model: NocModel::Analytic, link_flits_per_cycle: 1 }
    }
}

/// Task-queue, commit-queue and spill parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Task queue entries per core (64 in the paper).
    pub task_queue_per_core: usize,
    /// Commit queue entries per core (16 in the paper).
    pub commit_queue_per_core: usize,
    /// Number of idle tasks spilled when a task arrives at a tile whose task
    /// queue is full, and refilled per batch (15 in the paper).
    pub spill_batch: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { task_queue_per_core: 64, commit_queue_per_core: 16, spill_batch: 15 }
    }
}

/// Full description of the simulated machine.
///
/// # Example
///
/// ```
/// use swarm_types::SystemConfig;
///
/// let cfg = SystemConfig::with_cores(16);
/// assert_eq!(cfg.num_cores(), 16);
/// assert_eq!(cfg.num_tiles(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Tiles along the X dimension of the mesh.
    pub tiles_x: u32,
    /// Tiles along the Y dimension of the mesh.
    pub tiles_y: u32,
    /// Cores per tile (4 in the paper).
    pub cores_per_tile: u32,
    /// Cache hierarchy parameters.
    pub cache: CacheConfig,
    /// Network parameters.
    pub noc: NocConfig,
    /// Queue and spill parameters.
    pub queues: QueueConfig,
    /// Cycles between load-balancer reconfigurations. The paper
    /// reconfigures every 500 Kcycles on >1 Bcycle runs; the default is
    /// scaled down together with the workloads, whose runs last thousands
    /// to millions of cycles.
    pub lb_epoch: u64,
    /// Maximum simulated cycles the run may consume before it is aborted
    /// with `SimError::CycleBudgetExceeded`. Checked at GVT epochs so the
    /// hot loop pays nothing; 0 disables the budget.
    pub max_cycles: u64,
    /// Maximum wall-clock milliseconds the run may consume before it is
    /// aborted with `SimError::WallClockBudgetExceeded`. Checked at GVT
    /// epochs; 0 disables the budget. Termination under this budget is
    /// host-speed dependent, so budgeted runs are not cycle-deterministic.
    pub max_wall_ms: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        // The paper's 256-core, 64-tile machine.
        SystemConfig {
            tiles_x: 8,
            tiles_y: 8,
            cores_per_tile: 4,
            cache: CacheConfig::default(),
            noc: NocConfig::default(),
            queues: QueueConfig::default(),
            lb_epoch: 10_000,
            max_cycles: 0,
            max_wall_ms: 0,
        }
    }
}

impl SystemConfig {
    /// A single-core configuration (1 tile, 1 core): the serial baseline all
    /// speedups are measured against.
    pub fn single_core() -> Self {
        SystemConfig::with_cores(1)
    }

    /// A configuration with `cores` total cores. Core counts that are a
    /// multiple of 4 use 4 cores per tile and a square-ish mesh of tiles
    /// (matching how the paper scales K×K tile systems); smaller counts use
    /// one core per tile.
    ///
    /// Zero cores yield a machine with no tiles, which
    /// [`SystemConfig::validate`] rejects.
    pub fn with_cores(cores: u32) -> Self {
        let mut cfg = SystemConfig::default();
        let (cores_per_tile, tiles) =
            if cores.is_multiple_of(4) { (4, cores / 4) } else { (1, cores) };
        let (tx, ty) = Self::mesh_dims(tiles);
        cfg.tiles_x = tx;
        cfg.tiles_y = ty;
        cfg.cores_per_tile = cores_per_tile;
        cfg
    }

    fn mesh_dims(tiles: u32) -> (u32, u32) {
        let mut x = (tiles as f64).sqrt().floor() as u32;
        while x > 1 && !tiles.is_multiple_of(x) {
            x -= 1;
        }
        (x.max(1), tiles / x.max(1))
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.num_tiles() * self.cores_per_tile as usize
    }

    /// Total task-queue capacity of one tile.
    pub fn task_queue_per_tile(&self) -> usize {
        self.queues.task_queue_per_core * self.cores_per_tile as usize
    }

    /// Total commit-queue capacity of one tile.
    pub fn commit_queue_per_tile(&self) -> usize {
        self.queues.commit_queue_per_core * self.cores_per_tile as usize
    }

    /// Total number of load-balancer buckets.
    pub fn num_buckets(&self) -> usize {
        (LB_BUCKETS_PER_TILE * self.num_tiles()).max(1)
    }

    /// Validate internal consistency; returns a human-readable description of
    /// the first problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any dimension, capacity, epoch or link rate is zero,
    /// or the machine has more load-balancer buckets than a `u16` bucket id
    /// can name (65,536).
    pub fn validate(&self) -> Result<(), String> {
        if self.tiles_x == 0 || self.tiles_y == 0 {
            return Err("mesh dimensions must be positive".into());
        }
        if self.cores_per_tile == 0 {
            return Err("cores_per_tile must be positive".into());
        }
        if self.queues.task_queue_per_core == 0 || self.queues.commit_queue_per_core == 0 {
            return Err("queue capacities must be positive".into());
        }
        if self.lb_epoch == 0 {
            return Err("lb_epoch must be positive".into());
        }
        if self.noc.link_flits_per_cycle == 0 {
            return Err("noc.link_flits_per_cycle must be positive".into());
        }
        let max_buckets = u16::MAX as usize + 1;
        if self.num_buckets() > max_buckets {
            return Err(format!(
                "{} tiles x {} load-balancer buckets per tile exceed the {max_buckets} \
                 buckets a bucket id can name",
                self.num_tiles(),
                LB_BUCKETS_PER_TILE
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table2() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.num_tiles(), 64);
        assert_eq!(cfg.num_cores(), 256);
        assert_eq!(cfg.queues.task_queue_per_core, 64);
        assert_eq!(cfg.queues.commit_queue_per_core, 16);
        assert_eq!(cfg.task_queue_per_tile() * 64, 16384);
        assert_eq!(cfg.commit_queue_per_tile() * 64, 4096);
        assert_eq!(GVT_EPOCH, 200);
        assert_eq!(LB_BUCKETS_PER_TILE, 16);
        assert_eq!(cfg.num_buckets(), 1024);
        cfg.validate().unwrap();
    }

    #[test]
    fn default_is_the_machine_a_256_core_point_runs() {
        assert_eq!(SystemConfig::default(), SystemConfig::with_cores(256));
    }

    #[test]
    fn with_cores_produces_requested_count() {
        for cores in [1u32, 2, 4, 8, 16, 64, 144, 256] {
            let cfg = SystemConfig::with_cores(cores);
            assert_eq!(cfg.num_cores(), cores as usize, "cores={cores}");
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn single_core_has_one_tile() {
        let cfg = SystemConfig::single_core();
        assert_eq!(cfg.num_cores(), 1);
        assert_eq!(cfg.num_tiles(), 1);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = SystemConfig::with_cores(16);
        cfg.cores_per_tile = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::with_cores(16);
        cfg.queues.commit_queue_per_core = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::with_cores(16);
        cfg.lb_epoch = 0;
        assert!(cfg.validate().unwrap_err().contains("lb_epoch"));
    }

    #[test]
    fn validate_caps_the_bucket_count_at_a_u16_id() {
        // 4096 tiles x 16 buckets is exactly 65,536 bucket ids...
        let cfg = SystemConfig::with_cores(4 * 4096);
        assert_eq!(cfg.num_buckets(), 65_536);
        assert!(cfg.validate().is_ok());
        // ...and one more tile no longer fits in a u16 bucket id.
        let err = SystemConfig::with_cores(4 * 4097).validate().unwrap_err();
        assert!(err.contains("4097 tiles"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_noc_knobs() {
        let mut cfg = SystemConfig::with_cores(16);
        cfg.noc.link_flits_per_cycle = 0;
        assert!(cfg.validate().unwrap_err().contains("link_flits_per_cycle"));
    }

    #[test]
    fn noc_model_defaults_to_analytic() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.noc.model, NocModel::Analytic);
        let mut cfg = SystemConfig::with_cores(16);
        cfg.noc.model = NocModel::Contention;
        cfg.validate().unwrap();
    }

    #[test]
    fn budgets_default_to_unlimited_and_validate() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.max_cycles, 0, "no cycle budget by default");
        assert_eq!(cfg.max_wall_ms, 0, "no wall-clock budget by default");
        let mut cfg = SystemConfig::with_cores(16);
        cfg.max_cycles = 1_000;
        cfg.max_wall_ms = 50;
        cfg.validate().unwrap();
    }

    #[test]
    fn noc_model_names_round_trip_case_insensitively() {
        for model in NocModel::ALL {
            assert_eq!(model.name().parse::<NocModel>(), Ok(model));
            assert_eq!(model.name().to_ascii_uppercase().parse::<NocModel>(), Ok(model));
        }
        assert_eq!("Magic".parse::<NocModel>(), Err("unknown noc model 'magic'".to_string()));
    }

    #[test]
    fn mesh_dims_cover_all_tiles() {
        for tiles in 1..=64u32 {
            let (x, y) = SystemConfig::mesh_dims(tiles);
            assert_eq!(x * y, tiles, "tiles={tiles}");
        }
    }
}

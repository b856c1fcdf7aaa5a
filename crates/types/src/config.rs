//! Configuration of the simulated system (the analogue of Table II).
//!
//! The paper simulates a 256-core, 64-tile chip. The defaults here describe
//! the same machine; [`SystemConfig::with_cores`] produces the scaled-down
//! versions the experiment harness and the tests run.

use serde::{Deserialize, Serialize};

use crate::ids::TileId;

/// Cache hierarchy parameters (latencies in cycles, capacities in lines).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// L1 hit latency (cycles).
    pub l1_latency: u64,
    /// Per-core L1 capacity in cache lines (16 KB / 64 B = 256 in the paper).
    pub l1_lines: usize,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// Per-tile L2 capacity in cache lines (256 KB / 64 B = 4096).
    pub l2_lines: usize,
    /// L3 bank hit latency (cycles).
    pub l3_latency: u64,
    /// Per-tile L3 slice capacity in cache lines (1 MB / 64 B = 16384).
    pub l3_lines_per_tile: usize,
    /// Main memory latency (cycles).
    pub mem_latency: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1_latency: 2,
            l1_lines: 256,
            l2_latency: 7,
            l2_lines: 4096,
            l3_latency: 9,
            l3_lines_per_tile: 16384,
            mem_latency: 120,
        }
    }
}

/// Network fidelity level: how message delivery times are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NocModel {
    /// Purely analytic hop latencies (the historical model, and the default):
    /// every message pays `hops * hop_latency (+ turn_penalty)` regardless of
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

/// On-chip network parameters (16x16 mesh of 128-bit links in the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Cycles per hop when going straight.
    pub hop_latency: u64,
    /// Extra cycles when a route turns (X-Y routing turns at most once).
    pub turn_penalty: u64,
    /// Link width in bits; a 64-byte line payload is `512 / link_bits` flits.
    pub link_bits: u64,
    /// Flits in a control message (task enqueue header, GVT update, abort).
    pub control_flits: u64,
    /// Fidelity of the delivery-time model (see [`NocModel`]).
    pub model: NocModel,
    /// Flits a link accepts per cycle in [`NocModel::Contention`]; the
    /// service time of an `f`-flit message is `ceil(f / link_flits_per_cycle)`.
    pub link_flits_per_cycle: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            hop_latency: 1,
            turn_penalty: 1,
            link_bits: 128,
            control_flits: 1,
            model: NocModel::Analytic,
            link_flits_per_cycle: 1,
        }
    }
}

/// Task-queue, commit-queue and spill parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Task queue entries per core (64 in the paper).
    pub task_queue_per_core: usize,
    /// Commit queue entries per core (16 in the paper).
    pub commit_queue_per_core: usize,
    /// Occupancy fraction (percent) of the task queue at which the spill
    /// coalescer fires (85% in the paper).
    pub spill_threshold_pct: u8,
    /// Number of tasks spilled per coalescer invocation (15 in the paper).
    pub spill_batch: usize,
    /// Cycles charged per spilled or refilled task.
    pub spill_cost_per_task: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            task_queue_per_core: 64,
            commit_queue_per_core: 16,
            spill_threshold_pct: 85,
            spill_batch: 15,
            spill_cost_per_task: 10,
        }
    }
}

/// Speculation and commit-protocol parameters. Conflicts are detected on
/// exact line-granular read/write sets, so no signature is parameterised.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// Cycles per conflict check at a tile (5 in the paper).
    pub conflict_check_cost: u64,
    /// Cycles per commit-queue timestamp comparison during a check.
    pub conflict_compare_cost: u64,
    /// Cycles between GVT (global virtual time) updates (200 in the paper).
    /// The n-th update, from 1, fires at cycle n × gvt_epoch.
    pub gvt_epoch: u64,
    /// Cycles charged per Swarm task-management instruction
    /// (enqueue / dequeue / finish, 5 in the paper).
    pub task_mgmt_cost: u64,
    /// Base cycles charged to every task execution, modelling the
    /// non-memory instructions of a short task body.
    pub task_base_cost: u64,
    /// Cycles charged per undo-log entry rolled back on abort.
    pub rollback_cost_per_entry: u64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            conflict_check_cost: 5,
            conflict_compare_cost: 1,
            gvt_epoch: 200,
            task_mgmt_cost: 5,
            task_base_cost: 10,
            rollback_cost_per_entry: 2,
        }
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
    /// Speculation parameters.
    pub spec: SpeculationConfig,
    /// Load-balancer buckets per tile (16 in the paper).
    pub lb_buckets_per_tile: usize,
    /// Cycles between load-balancer reconfigurations. The paper
    /// reconfigures every 500 Kcycles on >1 Bcycle runs; the default is
    /// scaled down together with the workloads, whose runs last thousands
    /// to millions of cycles.
    pub lb_epoch: u64,
    /// Fraction (percent) of a tile's load surplus/deficit corrected per
    /// reconfiguration (80% in the paper).
    pub lb_correction_pct: u8,
    /// Seed for all randomized policies (Random mapper, NOHINT placement).
    pub seed: u64,
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
            spec: SpeculationConfig::default(),
            lb_buckets_per_tile: 16,
            lb_epoch: 10_000,
            lb_correction_pct: 80,
            seed: 0xC0FFEE,
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
        (self.lb_buckets_per_tile * self.num_tiles()).max(1)
    }

    /// The tile that is the static-NUCA home of an L3 line.
    pub fn l3_home(&self, line: crate::ids::LineAddr) -> TileId {
        TileId(crate::hashing::hash_to_range(line.0, self.num_tiles()) as u32)
    }

    /// Validate internal consistency; returns a human-readable description of
    /// the first problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any dimension or capacity is zero, a percentage
    /// parameter exceeds 100, or the machine has more load-balancer buckets
    /// than a `u16` bucket id can name (65,536).
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
        if self.queues.spill_threshold_pct > 100 {
            return Err("spill_threshold_pct must be <= 100".into());
        }
        if self.lb_correction_pct > 100 {
            return Err("lb_correction_pct must be <= 100".into());
        }
        if self.spec.gvt_epoch == 0 || self.lb_epoch == 0 {
            return Err("epoch lengths must be positive".into());
        }
        if self.noc.link_bits == 0 {
            return Err("noc.link_bits must be positive".into());
        }
        if self.noc.control_flits == 0 {
            return Err("noc.control_flits must be positive".into());
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
                self.lb_buckets_per_tile
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LineAddr;

    #[test]
    fn default_matches_paper_table2() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.num_tiles(), 64);
        assert_eq!(cfg.num_cores(), 256);
        assert_eq!(cfg.queues.task_queue_per_core, 64);
        assert_eq!(cfg.queues.commit_queue_per_core, 16);
        assert_eq!(cfg.task_queue_per_tile() * 64, 16384);
        assert_eq!(cfg.commit_queue_per_tile() * 64, 4096);
        assert_eq!(cfg.spec.gvt_epoch, 200);
        assert_eq!(cfg.lb_buckets_per_tile, 16);
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
    fn l3_home_is_stable_and_in_range() {
        let cfg = SystemConfig::with_cores(16);
        for l in 0..1000u64 {
            let home = cfg.l3_home(LineAddr(l));
            assert!(home.index() < cfg.num_tiles());
            assert_eq!(home, cfg.l3_home(LineAddr(l)));
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = SystemConfig::with_cores(16);
        cfg.cores_per_tile = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::with_cores(16);
        cfg.queues.spill_threshold_pct = 150;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::with_cores(16);
        cfg.spec.gvt_epoch = 0;
        assert!(cfg.validate().is_err());
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
        cfg.noc.link_bits = 0;
        assert!(cfg.validate().unwrap_err().contains("link_bits"));

        let mut cfg = SystemConfig::with_cores(16);
        cfg.noc.control_flits = 0;
        assert!(cfg.validate().unwrap_err().contains("control_flits"));

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

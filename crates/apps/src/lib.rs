//! The benchmark applications: the nine of the paper's evaluation (Table I)
//! plus three beyond-Table-I workloads, written against the Swarm task API,
//! with seeded workload generators and serial reference implementations
//! used for validation.
//!
//! | Benchmark  | Kind      | Hint pattern                            |
//! |------------|-----------|-----------------------------------------|
//! | `bfs`      | ordered   | cache line of vertex                    |
//! | `sssp`     | ordered   | cache line of vertex                    |
//! | `astar`    | ordered   | cache line of vertex                    |
//! | `color`    | ordered   | cache line of vertex                    |
//! | `des`      | ordered   | logic gate id                           |
//! | `nocsim`   | ordered   | router id                               |
//! | `silo`     | ordered   | (table id, primary key)                 |
//! | `genome`   | unordered | bucket line, NOHINT / SAMEHINT          |
//! | `kmeans`   | unordered | cache line of point, cluster id         |
//! | `maxflow`  | ordered   | cache line of vertex (excess word)      |
//! | `triangle` | unordered | line of the lower-degree endpoint       |
//! | `kvstore`  | ordered   | key's home line (Zipfian popularity)    |
//! | `stream`   | ordered   | cache line of vertex (update stream)    |
//! | `pipeline` | ordered   | item line, then accumulator line        |
//! | `hostile`  | ordered   | one aliased hint value (adversarial)    |
//!
//! The `maxflow`/`triangle`/`kvstore` rows are not in the paper: they were
//! added because their hint/locality structure — two-hop push write sets,
//! long-tail hint popularity, Zipfian-hot keys — stresses the load balancer
//! and directory in ways the Table I nine do not (see
//! [`BenchmarkId::BEYOND_TABLE1`]). The last three rows are the parameterized
//! synthetic scenario families of the [`synth`] module ([`BenchmarkId::SYNTH`]),
//! including deliberately hostile generators.
//!
//! `bfs`, `sssp`, `astar` and `color` additionally have fine-grain variants
//! (Section V) that restructure tasks so each reads/writes a single vertex.
//!
//! # Example
//!
//! ```
//! use swarm_apps::{AppSpec, BenchmarkId, InputScale};
//! use spatial_hints::Scheduler;
//! use swarm_sim::Sim;
//!
//! let spec = AppSpec::coarse(BenchmarkId::Sssp);
//! let mut engine = Sim::builder()
//!     .cores(4)
//!     .app_boxed(spec.build(InputScale::Tiny, 1))
//!     .scheduler(Scheduler::Hints)
//!     .build()
//!     .expect("a valid simulation description");
//! let stats = engine.run().unwrap();
//! assert!(stats.tasks_committed > 0);
//! ```

pub mod astar;
pub mod bfs;
pub mod color;
pub mod des;
pub mod genome;
pub mod graph;
pub mod kmeans;
pub mod kvstore;
pub mod maxflow;
pub mod nocsim;
pub mod silo;
pub mod sssp;
pub mod synth;
pub mod triangle;

pub use graph::Graph;

use swarm_sim::SwarmApp;

/// The nine benchmarks of Table I plus the three beyond-Table-I workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// A* pathfinding.
    Astar,
    /// Largest-degree-first graph coloring.
    Color,
    /// Discrete event simulation of digital circuits.
    Des,
    /// Network-on-chip simulation.
    Nocsim,
    /// In-memory OLTP database.
    Silo,
    /// Gene sequencing.
    Genome,
    /// K-means clustering.
    Kmeans,
    /// Push-relabel maximum flow (beyond Table I).
    Maxflow,
    /// Per-edge triangle counting (beyond Table I).
    Triangle,
    /// Zipfian-skewed key-value store (beyond Table I).
    Kvstore,
    /// Dynamic SSSP over an edge-update stream (synthetic).
    Stream,
    /// Mixed-phase produce/transform/reduce pipeline (synthetic).
    Pipeline,
    /// Adversarial hint-aliasing generator (synthetic; see
    /// [`synth::HostileKind`] for the full hostile family).
    Hostile,
}

impl BenchmarkId {
    /// Every benchmark: the Table I nine, the beyond-Table-I three, then the
    /// synthetic scenario families.
    pub const ALL: [BenchmarkId; 15] = [
        BenchmarkId::Bfs,
        BenchmarkId::Sssp,
        BenchmarkId::Astar,
        BenchmarkId::Color,
        BenchmarkId::Des,
        BenchmarkId::Nocsim,
        BenchmarkId::Silo,
        BenchmarkId::Genome,
        BenchmarkId::Kmeans,
        BenchmarkId::Maxflow,
        BenchmarkId::Triangle,
        BenchmarkId::Kvstore,
        BenchmarkId::Stream,
        BenchmarkId::Pipeline,
        BenchmarkId::Hostile,
    ];

    /// The nine benchmarks of the paper's Table I, in the order the paper
    /// lists them (the default set of the figure-regeneration binaries, so
    /// their output keeps matching the paper's evaluation).
    pub const TABLE1: [BenchmarkId; 9] = [
        BenchmarkId::Bfs,
        BenchmarkId::Sssp,
        BenchmarkId::Astar,
        BenchmarkId::Color,
        BenchmarkId::Des,
        BenchmarkId::Nocsim,
        BenchmarkId::Silo,
        BenchmarkId::Genome,
        BenchmarkId::Kmeans,
    ];

    /// The workloads beyond Table I (the default set of the `table2`
    /// binary).
    pub const BEYOND_TABLE1: [BenchmarkId; 3] =
        [BenchmarkId::Maxflow, BenchmarkId::Triangle, BenchmarkId::Kvstore];

    /// The synthetic scenario families (see [`synth`]): a streaming app, a
    /// mixed-phase pipeline, and a deliberately hostile generator. Kept out
    /// of [`Self::TABLE1`]/[`Self::BEYOND_TABLE1`] so the pinned figure
    /// outputs are unaffected; select them explicitly (e.g. `swarm table2
    /// --apps stream,pipeline,hostile`).
    pub const SYNTH: [BenchmarkId; 3] =
        [BenchmarkId::Stream, BenchmarkId::Pipeline, BenchmarkId::Hostile];

    /// The four benchmarks that have fine-grain restructurings (Section V).
    pub const WITH_FINE_GRAIN: [BenchmarkId; 4] =
        [BenchmarkId::Bfs, BenchmarkId::Sssp, BenchmarkId::Astar, BenchmarkId::Color];

    /// Benchmark name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Bfs => "bfs",
            BenchmarkId::Sssp => "sssp",
            BenchmarkId::Astar => "astar",
            BenchmarkId::Color => "color",
            BenchmarkId::Des => "des",
            BenchmarkId::Nocsim => "nocsim",
            BenchmarkId::Silo => "silo",
            BenchmarkId::Genome => "genome",
            BenchmarkId::Kmeans => "kmeans",
            BenchmarkId::Maxflow => "maxflow",
            BenchmarkId::Triangle => "triangle",
            BenchmarkId::Kvstore => "kvstore",
            BenchmarkId::Stream => "stream",
            BenchmarkId::Pipeline => "pipeline",
            BenchmarkId::Hostile => "hostile",
        }
    }

    /// Source implementation the paper ported (Table I "Source" column);
    /// the beyond-Table-I workloads are written for this repository.
    pub fn source(self) -> &'static str {
        match self {
            BenchmarkId::Bfs => "PBFS",
            BenchmarkId::Sssp => "Galois",
            BenchmarkId::Astar => "Swarm (MICRO-48)",
            BenchmarkId::Color => "Hasenplaugh et al.",
            BenchmarkId::Des => "Galois",
            BenchmarkId::Nocsim => "GARNET",
            BenchmarkId::Silo => "Silo (SOSP'13)",
            BenchmarkId::Genome => "STAMP",
            BenchmarkId::Kmeans => "STAMP",
            BenchmarkId::Maxflow
            | BenchmarkId::Triangle
            | BenchmarkId::Kvstore
            | BenchmarkId::Stream
            | BenchmarkId::Pipeline
            | BenchmarkId::Hostile => "this repo",
        }
    }

    /// Input described in Table I (what the paper used; our generators mimic
    /// its shape), or the generator shape for the beyond-Table-I workloads.
    pub fn paper_input(self) -> &'static str {
        match self {
            BenchmarkId::Bfs => "hugetric-00020",
            BenchmarkId::Sssp => "East USA roads",
            BenchmarkId::Astar => "Germany roads",
            BenchmarkId::Color => "com-youtube",
            BenchmarkId::Des => "csaArray32",
            BenchmarkId::Nocsim => "16x16 mesh, tornado",
            BenchmarkId::Silo => "TPC-C, 4 warehouses",
            BenchmarkId::Genome => "-g4096 -s48 -n1048576",
            BenchmarkId::Kmeans => "rnd-n16K-d24-c16",
            BenchmarkId::Maxflow => "layered flow network",
            BenchmarkId::Triangle => "pref.-attachment graph",
            BenchmarkId::Kvstore => "Zipfian op stream",
            BenchmarkId::Stream => "grid + decrease stream",
            BenchmarkId::Pipeline => "banded item pipeline",
            BenchmarkId::Hostile => "aliased-hint task band",
        }
    }

    /// Hint pattern (Table I "Hint patterns" column, extended to the
    /// beyond-Table-I workloads).
    pub fn hint_pattern(self) -> &'static str {
        match self {
            BenchmarkId::Bfs | BenchmarkId::Sssp | BenchmarkId::Astar | BenchmarkId::Color => {
                "cache line of vertex"
            }
            BenchmarkId::Des => "logic gate id",
            BenchmarkId::Nocsim => "router id",
            BenchmarkId::Silo => "(table id, primary key)",
            BenchmarkId::Genome => "bucket line, NOHINT/SAMEHINT",
            BenchmarkId::Kmeans => "cache line of point, cluster id",
            BenchmarkId::Maxflow => "cache line of vertex",
            BenchmarkId::Triangle => "line of lower-degree endpoint",
            BenchmarkId::Kvstore => "key's home line",
            BenchmarkId::Stream => "cache line of vertex",
            BenchmarkId::Pipeline => "item line, then accumulator line",
            BenchmarkId::Hostile => "one aliased hint value",
        }
    }

    /// Whether the benchmark is ordered (timestamps carry program order) or
    /// unordered (transactional, equal timestamps).
    pub fn is_ordered(self) -> bool {
        !matches!(self, BenchmarkId::Genome | BenchmarkId::Kmeans | BenchmarkId::Triangle)
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BenchmarkId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BenchmarkId::ALL
            .into_iter()
            .find(|b| b.name() == s.to_ascii_lowercase())
            .ok_or_else(|| format!("unknown benchmark '{s}'"))
    }
}

/// Input scale: how big a workload the generators produce. All scales run on
/// a laptop; `Tiny` is for unit tests, `Small` for quick sweeps, `Medium`
/// for the figure-regeneration harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputScale {
    /// Seconds-per-run unit-test scale.
    Tiny,
    /// Default harness scale.
    Small,
    /// Larger harness scale (slower, smoother curves).
    Medium,
}

impl InputScale {
    /// Every scale, smallest first.
    pub const ALL: [InputScale; 3] = [InputScale::Tiny, InputScale::Small, InputScale::Medium];

    /// Lowercase name: the CLI, protocol and canonical-key spelling.
    pub fn name(self) -> &'static str {
        match self {
            InputScale::Tiny => "tiny",
            InputScale::Small => "small",
            InputScale::Medium => "medium",
        }
    }

    fn factor(self) -> usize {
        match self {
            InputScale::Tiny => 1,
            InputScale::Small => 2,
            InputScale::Medium => 4,
        }
    }
}

impl std::str::FromStr for InputScale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        InputScale::ALL
            .into_iter()
            .find(|scale| scale.name() == lower)
            .ok_or_else(|| format!("unknown scale '{lower}'"))
    }
}

/// A benchmark plus its task granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppSpec {
    /// Which benchmark.
    pub benchmark: BenchmarkId,
    /// Whether to use the fine-grain restructuring of Section V.
    pub fine_grain: bool,
}

impl AppSpec {
    /// The coarse-grain (original) version of a benchmark.
    pub fn coarse(benchmark: BenchmarkId) -> Self {
        AppSpec { benchmark, fine_grain: false }
    }

    /// The fine-grain version (only meaningful for bfs, sssp, astar, color).
    ///
    /// # Panics
    ///
    /// Panics if the benchmark has no fine-grain restructuring.
    pub fn fine(benchmark: BenchmarkId) -> Self {
        assert!(
            BenchmarkId::WITH_FINE_GRAIN.contains(&benchmark),
            "{benchmark} has no fine-grain version"
        );
        AppSpec { benchmark, fine_grain: true }
    }

    /// Display name, e.g. `"sssp"` or `"sssp-fg"`.
    pub fn name(self) -> String {
        if self.fine_grain {
            format!("{}-fg", self.benchmark)
        } else {
            self.benchmark.name().to_string()
        }
    }

    /// Instantiate the application at a given input scale and seed.
    pub fn build(self, scale: InputScale, seed: u64) -> Box<dyn SwarmApp> {
        let f = scale.factor();
        match (self.benchmark, self.fine_grain) {
            (BenchmarkId::Bfs, fine) => {
                let g = Graph::road_grid(16 * f, 12 * f, seed);
                Box::new(if fine { bfs::Bfs::fine(g, 0) } else { bfs::Bfs::coarse(g, 0) })
            }
            (BenchmarkId::Sssp, fine) => {
                let g = Graph::road_grid(16 * f, 12 * f, seed.wrapping_add(1));
                Box::new(if fine { sssp::Sssp::fine(g, 0) } else { sssp::Sssp::coarse(g, 0) })
            }
            (BenchmarkId::Astar, fine) => {
                let side = 16 * f;
                let g = Graph::road_grid(side, side, seed.wrapping_add(2));
                let target = (side * side - 1) as u32;
                Box::new(if fine {
                    astar::Astar::fine(g, 0, target)
                } else {
                    astar::Astar::coarse(g, 0, target)
                })
            }
            (BenchmarkId::Color, fine) => {
                let g = Graph::social(150 * f, 3, 120, seed.wrapping_add(3));
                Box::new(if fine { color::Color::fine(g) } else { color::Color::coarse(g) })
            }
            (BenchmarkId::Des, _) => {
                let c = des::Circuit::layered(8 * f, 6 * f, 4 + f, seed.wrapping_add(4));
                Box::new(des::Des::new(c))
            }
            (BenchmarkId::Nocsim, _) => {
                let w = nocsim::NocWorkload::tornado(4 * f as u32, 3 + f, seed.wrapping_add(5));
                Box::new(nocsim::Nocsim::new(w))
            }
            (BenchmarkId::Silo, _) => {
                let w = silo::SiloWorkload {
                    transactions: 150 * f,
                    seed: seed.wrapping_add(6),
                    ..silo::SiloWorkload::default()
                };
                Box::new(silo::Silo::new(w))
            }
            (BenchmarkId::Genome, _) => {
                let w =
                    genome::GenomeWorkload::generate(512 * f, 16, 6, 150 * f, seed.wrapping_add(7));
                Box::new(genome::Genome::new(w))
            }
            (BenchmarkId::Kmeans, _) => {
                let w = kmeans::KmeansWorkload::generate(64 * f, 4, 4, 3, seed.wrapping_add(8));
                Box::new(kmeans::Kmeans::new(w))
            }
            (BenchmarkId::Maxflow, _) => {
                let w = maxflow::FlowWorkload::layered(4 * f, 3 * f, seed.wrapping_add(9));
                Box::new(maxflow::Maxflow::new(w))
            }
            (BenchmarkId::Triangle, _) => {
                let g = Graph::social(150 * f, 3, 90, seed.wrapping_add(10));
                Box::new(triangle::Triangle::new(g))
            }
            (BenchmarkId::Kvstore, _) => {
                let w = kvstore::KvWorkload::zipfian(48 * f, 250 * f, seed.wrapping_add(11));
                Box::new(kvstore::Kvstore::new(w))
            }
            (BenchmarkId::Stream, _) => {
                let w =
                    synth::StreamWorkload::generate(8 * f, 6 * f, 30 * f, seed.wrapping_add(12));
                Box::new(synth::StreamSssp::new(w))
            }
            (BenchmarkId::Pipeline, _) => {
                let w = synth::PipelineWorkload::generate(40 * f, 2 + f, 4, seed.wrapping_add(13));
                Box::new(synth::Pipeline::new(w))
            }
            (BenchmarkId::Hostile, _) => {
                let w = synth::HostileWorkload::hint_alias(48 * f, 120, seed.wrapping_add(14));
                Box::new(synth::Hostile::new(w))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_round_trip() {
        for b in BenchmarkId::ALL {
            let parsed: BenchmarkId = b.name().parse().unwrap();
            assert_eq!(parsed, b);
            assert!(!b.hint_pattern().is_empty());
            assert!(!b.source().is_empty());
            assert!(!b.paper_input().is_empty());
        }
        assert!("nope".parse::<BenchmarkId>().is_err());
    }

    #[test]
    fn scale_names_round_trip_case_insensitively() {
        for scale in InputScale::ALL {
            assert_eq!(scale.name().parse::<InputScale>(), Ok(scale));
            assert_eq!(scale.name().to_ascii_uppercase().parse::<InputScale>(), Ok(scale));
        }
        assert_eq!("Full".parse::<InputScale>(), Err("unknown scale 'full'".to_string()));
    }

    #[test]
    fn ordered_and_unordered_split_matches_paper() {
        let unordered: Vec<_> = BenchmarkId::ALL.into_iter().filter(|b| !b.is_ordered()).collect();
        assert_eq!(
            unordered,
            vec![BenchmarkId::Genome, BenchmarkId::Kmeans, BenchmarkId::Triangle]
        );
    }

    #[test]
    fn table1_and_beyond_partition_the_benchmark_set() {
        let mut combined = BenchmarkId::TABLE1.to_vec();
        combined.extend(BenchmarkId::BEYOND_TABLE1);
        combined.extend(BenchmarkId::SYNTH);
        assert_eq!(combined, BenchmarkId::ALL.to_vec());
    }

    #[test]
    fn every_benchmark_builds_at_tiny_scale() {
        for b in BenchmarkId::ALL {
            let app = AppSpec::coarse(b).build(InputScale::Tiny, 42);
            assert!(!app.name().contains("-fg"));
            assert!(app.num_task_fns() >= 1);
            assert!(!app.initial_tasks().is_empty(), "{b} has no initial tasks");
        }
    }

    #[test]
    fn fine_grain_variants_build() {
        for b in BenchmarkId::WITH_FINE_GRAIN {
            let app = AppSpec::fine(b).build(InputScale::Tiny, 42);
            assert!(app.name().ends_with("-fg"));
        }
    }

    #[test]
    #[should_panic(expected = "has no fine-grain version")]
    fn fine_grain_of_des_is_rejected() {
        let _ = AppSpec::fine(BenchmarkId::Des);
    }

    #[test]
    fn spec_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for b in BenchmarkId::ALL {
            assert!(names.insert(AppSpec::coarse(b).name()));
        }
        for b in BenchmarkId::WITH_FINE_GRAIN {
            assert!(names.insert(AppSpec::fine(b).name()));
        }
        assert_eq!(names.len(), 19);
    }
}

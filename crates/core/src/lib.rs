//! Spatial hints: data-centric scheduling for speculative parallel programs.
//!
//! This crate is the reproduction of the *primary contribution* of
//! "Data-Centric Execution of Speculative Parallel Programs" (MICRO 2016):
//!
//! * **Hint-based spatial task mapping** ([`HintMapper`]): a task created
//!   with hint *h* is sent to tile `hash(h) mod tiles`, so tasks likely to
//!   access the same data run on the same tile (Section III).
//! * **Same-hint serialization**: tiles avoid co-scheduling two tasks with
//!   the same 16-bit hashed hint (exposed through
//!   [`swarm_sim::TaskMapper::serialize_same_hint`]).
//! * **Data-centric load balancing** ([`LbHintMapper`]): hints hash into
//!   buckets, buckets map to tiles through a reconfigurable tile map, and a
//!   periodic rebalancer redistributes buckets using *committed cycles* as
//!   the load signal (Section VI). The same mapper also runs the inferior
//!   idle-task-count signal the paper evaluates against
//!   ([`Scheduler::IdleLb`]).
//! * **Baselines**: [`RandomMapper`] (Swarm's default) and [`StealingMapper`]
//!   (an idealized work-stealing scheduler), used throughout the evaluation.
//! * **Access classification** ([`profile`]): the architecture-independent
//!   analysis of Fig. 3 / Fig. 6 that explains *when* hints are effective.
//!
//! # Example
//!
//! ```
//! use spatial_hints::Scheduler;
//! use swarm_types::SystemConfig;
//!
//! let cfg = SystemConfig::with_cores(16);
//! let mapper = Scheduler::Hints.build(&cfg);
//! assert!(mapper.serialize_same_hint());
//! ```

pub mod lb;
pub mod profile;
pub mod schedulers;

pub use lb::{LbHintMapper, TileMap};
pub use profile::{classify_accesses, AccessClass, AccessClassification};
pub use schedulers::{HintMapper, RandomMapper, StealingMapper};

use swarm_sim::TaskMapper;
use swarm_types::config::POLICY_SEED;
use swarm_types::SystemConfig;

/// The schedulers compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// Swarm's default: new tasks go to a uniformly random tile.
    Random,
    /// Idealized work stealing: enqueue locally, steal the earliest task
    /// from the most-loaded tile when out of work (zero overhead).
    Stealing,
    /// Spatial hints: hash the hint to a tile and serialize same-hint tasks.
    Hints,
    /// Spatial hints plus the committed-cycles load balancer (Section VI).
    LbHints,
    /// Ablation: hint-based load balancing driven by idle-task counts
    /// instead of committed cycles (Section VI-A).
    IdleLb,
}

impl Scheduler {
    /// All schedulers, in the order the paper's figures present them.
    pub const ALL: [Scheduler; 4] =
        [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints];

    /// Short label used in tables ("R", "S", "H", "L").
    pub fn short_label(self) -> &'static str {
        match self {
            Scheduler::Random => "R",
            Scheduler::Stealing => "S",
            Scheduler::Hints => "H",
            Scheduler::LbHints => "L",
            Scheduler::IdleLb => "I",
        }
    }

    /// Full name, matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Random => "Random",
            Scheduler::Stealing => "Stealing",
            Scheduler::Hints => "Hints",
            Scheduler::LbHints => "LBHints",
            Scheduler::IdleLb => "IdleLB",
        }
    }

    /// Instantiate the corresponding task mapper for `cfg`.
    pub fn build(self, cfg: &SystemConfig) -> Box<dyn TaskMapper> {
        match self {
            Scheduler::Random => Box::new(RandomMapper::new(POLICY_SEED)),
            Scheduler::Stealing => Box::new(StealingMapper::new(POLICY_SEED)),
            Scheduler::Hints => Box::new(HintMapper::new(POLICY_SEED)),
            Scheduler::LbHints => Box::new(LbHintMapper::new(cfg)),
            Scheduler::IdleLb => Box::new(LbHintMapper::idle_count(cfg)),
        }
    }
}

/// Schedulers plug straight into [`swarm_sim::SimBuilder::scheduler`]:
/// the mapper is instantiated once the builder has settled the machine
/// configuration, so seeded mappers see the final seed and tile count.
impl swarm_sim::MapperFactory for Scheduler {
    fn build_mapper(&self, cfg: &SystemConfig) -> Box<dyn TaskMapper> {
        self.build(cfg)
    }
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scheduler {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "random" | "r" => Ok(Scheduler::Random),
            "stealing" | "steal" | "s" => Ok(Scheduler::Stealing),
            "hints" | "h" => Ok(Scheduler::Hints),
            "lbhints" | "lb" | "l" => Ok(Scheduler::LbHints),
            "idlelb" | "i" => Ok(Scheduler::IdleLb),
            other => Err(format!("unknown scheduler '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_names_round_trip() {
        for s in [
            Scheduler::Random,
            Scheduler::Stealing,
            Scheduler::Hints,
            Scheduler::LbHints,
            Scheduler::IdleLb,
        ] {
            let parsed: Scheduler = s.name().parse().unwrap();
            assert_eq!(parsed, s);
            assert!(!s.short_label().is_empty());
        }
        assert!("bogus".parse::<Scheduler>().is_err());
    }

    #[test]
    fn build_produces_expected_policies() {
        let cfg = SystemConfig::with_cores(16);
        assert!(!Scheduler::Random.build(&cfg).serialize_same_hint());
        assert!(!Scheduler::Stealing.build(&cfg).serialize_same_hint());
        assert!(Scheduler::Stealing.build(&cfg).steals());
        assert!(Scheduler::Hints.build(&cfg).serialize_same_hint());
        assert!(Scheduler::LbHints.build(&cfg).serialize_same_hint());
        assert!(Scheduler::LbHints.build(&cfg).bucket_of(swarm_types::Hint::value(1)).is_some());
    }

    #[test]
    fn schedulers_act_as_mapper_factories() {
        // The MapperFactory impl must hand out exactly what build() does, so
        // SimBuilder-constructed engines match hand-wired ones.
        let cfg = SystemConfig::with_cores(16);
        for s in Scheduler::ALL {
            let direct = s.build(&cfg);
            let via_factory = swarm_sim::MapperFactory::build_mapper(&s, &cfg);
            assert_eq!(direct.name(), via_factory.name());
            assert_eq!(direct.serialize_same_hint(), via_factory.serialize_same_hint());
            assert_eq!(direct.steals(), via_factory.steals());
        }
    }
}

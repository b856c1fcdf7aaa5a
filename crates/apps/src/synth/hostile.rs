//! `hostile`: deliberately adversarial generators — the third synthetic
//! scenario family.
//!
//! Each [`HostileKind`] targets one mechanism the friendly workloads never
//! stress:
//!
//! * [`HintAlias`](HostileKind::HintAlias) — every task carries the *same*
//!   hint while touching disjoint data. Spatial hints collapse the whole
//!   program onto one tile and same-hint serialization runs it one task at
//!   a time; work stealing spreads it trivially. This is the worst case for
//!   Hints/LBHints the paper's Section III trade-off implies, and
//!   `tests/scheduling.rs` pins the degradation.
//! * [`PriorityInversion`](HostileKind::PriorityInversion) — an early
//!   low-timestamp writer chain creeps through a shared line while a flood
//!   of late-timestamp readers speculates ahead; every chain step aborts
//!   the whole speculative flood, so cores burn nearly all their cycles on
//!   doomed late work (the scheduling pathology, expressed as data
//!   dependence).
//! * [`SpillStorm`](HostileKind::SpillStorm) — a wide band of tasks plus
//!   high fan-out children overflow the per-tile task queues, forcing the
//!   task unit to spill/refill and — on queue-starved configurations —
//!   execute tasks out of commit order. Since every task updates one shared
//!   counter, each inversion is *observable* as an abort, including the one
//!   legal single-core abort source (see `tests/fuzz.rs` and the
//!   conformance kit's single-core invariant).
//!
//! All three stay within the `SwarmApp` contract: seeded generators,
//! serial references, and a `validate()` that must hold under any
//! serializable execution.

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{hashing, Hint, TaskFnId, Timestamp};

/// Which adversarial scenario to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileKind {
    /// All tasks share one hint value over disjoint data.
    HintAlias,
    /// Early writer chain repeatedly aborts a late speculative flood.
    PriorityInversion,
    /// Task-queue overflow via a wide band with high fan-out.
    SpillStorm,
}

/// A seeded hostile workload description.
#[derive(Debug, Clone, Copy)]
pub struct HostileWorkload {
    pub kind: HostileKind,
    /// Primary size knob: aliased tasks / chain length / wave width.
    pub tasks: usize,
    /// Cycles of compute each task burns.
    pub compute: u64,
    /// Secondary size knob: flood width (PriorityInversion) or fan-out per
    /// wave task (SpillStorm); ignored by HintAlias.
    pub degree: usize,
    /// Payload seed.
    pub seed: u64,
}

impl HostileWorkload {
    /// The canonical aliasing adversary: `tasks` independent tasks, one
    /// shared hint.
    pub fn hint_alias(tasks: usize, compute: u64, seed: u64) -> Self {
        assert!(tasks >= 1);
        HostileWorkload { kind: HostileKind::HintAlias, tasks, compute, degree: 0, seed }
    }

    /// A `chain`-long early writer chain against a `flood`-wide late
    /// speculative read storm.
    pub fn priority_inversion(chain: usize, flood: usize, compute: u64, seed: u64) -> Self {
        assert!(chain >= 1 && flood >= 1);
        HostileWorkload {
            kind: HostileKind::PriorityInversion,
            tasks: chain,
            compute,
            degree: flood,
            seed,
        }
    }

    /// A `wave`-wide initial band whose tasks each spawn `fanout` children,
    /// all updating one shared counter.
    pub fn spill_storm(wave: usize, fanout: usize, compute: u64, seed: u64) -> Self {
        assert!(wave >= 1 && fanout >= 1);
        HostileWorkload {
            kind: HostileKind::SpillStorm,
            tasks: wave,
            compute,
            degree: fanout,
            seed,
        }
    }
}

/// Task function ids (shared across kinds; each kind uses a subset).
const PRIMARY: u16 = 0;
const SECONDARY: u16 = 1;

/// The timestamp band where late work (flood / children) lives; far above
/// any early-band timestamp so the serial order is unambiguous.
const LATE_BAND: u64 = 10_000;

/// The hint every aliased task shares.
const ALIAS_HINT: u64 = 0xA11A5;

/// The hostile application over a [`HostileWorkload`].
pub struct Hostile {
    w: HostileWorkload,
    /// Per-task output slots (disjoint cache lines).
    slots: Region,
    /// The shared counter line every conflicting kind hammers.
    shared: Region,
}

impl Hostile {
    pub fn new(w: HostileWorkload) -> Self {
        let mut space = AddressSpace::new();
        let slot_count = match w.kind {
            HostileKind::HintAlias => w.tasks,
            HostileKind::PriorityInversion => w.degree,
            HostileKind::SpillStorm => w.tasks * w.degree,
        };
        // One slot per line so slot writes never conflict with each other.
        let slots = space.alloc_strided("slots", slot_count.max(1) as u64, 8);
        let shared = space.alloc_array("shared", 1);
        Hostile { w, slots, shared }
    }

    fn slot_addr(&self, i: usize) -> u64 {
        self.slots.addr_of(i as u64)
    }

    fn shared_addr(&self) -> u64 {
        self.shared.addr_of(0)
    }

    fn payload(&self, i: usize) -> u64 {
        hashing::hash64(self.w.seed ^ i as u64) & 0xFFFF
    }
}

impl SwarmApp for Hostile {
    fn name(&self) -> &str {
        "hostile"
    }

    fn init_memory(&self, _mem: &mut SimMemory) {}

    fn initial_tasks(&self) -> Vec<InitialTask> {
        match self.w.kind {
            HostileKind::HintAlias => (0..self.w.tasks)
                .map(|i| {
                    // Distinct timestamps, disjoint data — and one hint.
                    InitialTask::new(PRIMARY, i as u64, Hint::value(ALIAS_HINT), vec![i as u64])
                })
                .collect(),
            HostileKind::PriorityInversion => {
                let mut tasks = vec![InitialTask::new(PRIMARY, 1, Hint::value(7), vec![0])];
                tasks.extend((0..self.w.degree).map(|i| {
                    InitialTask::new(
                        SECONDARY,
                        LATE_BAND + i as u64,
                        Hint::value(1000 + i as u64),
                        vec![i as u64],
                    )
                }));
                tasks
            }
            HostileKind::SpillStorm => (0..self.w.tasks)
                .map(|i| {
                    InitialTask::new(PRIMARY, 100 + i as u64, Hint::value(i as u64), vec![i as u64])
                })
                .collect(),
        }
    }

    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let i = args[0] as usize;
        match (self.w.kind, fid) {
            (HostileKind::HintAlias, _) => {
                ctx.compute(self.w.compute);
                ctx.write(self.slot_addr(i), self.payload(i));
            }
            (HostileKind::PriorityInversion, PRIMARY) => {
                // The early chain: one shared-line write per step.
                ctx.update(self.shared_addr(), |v| v + 1);
                ctx.compute(self.w.compute);
                if i + 1 < self.w.tasks {
                    ctx.enqueue(PRIMARY, ts + 1, Hint::value(7), &[i as u64 + 1]);
                }
            }
            (HostileKind::PriorityInversion, _) => {
                // The late flood: reads the line the chain is writing, so
                // every chain step aborts every in-flight flood task.
                let seen = ctx.read(self.shared_addr());
                ctx.compute(self.w.compute);
                ctx.write(self.slot_addr(i), seen + self.payload(i));
            }
            (HostileKind::SpillStorm, PRIMARY) => {
                ctx.update(self.shared_addr(), |v| v + 1);
                ctx.compute(self.w.compute);
                for j in 0..self.w.degree {
                    let c = i * self.w.degree + j;
                    ctx.enqueue(
                        SECONDARY,
                        LATE_BAND + c as u64,
                        Hint::value(1000 + c as u64),
                        &[c as u64],
                    );
                }
            }
            (HostileKind::SpillStorm, _) => {
                ctx.update(self.shared_addr(), |v| v + 1);
                ctx.compute(self.w.compute);
                ctx.write(self.slot_addr(i), self.payload(i));
            }
        }
    }

    fn num_task_fns(&self) -> usize {
        2
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        match self.w.kind {
            HostileKind::HintAlias => {
                for i in 0..self.w.tasks {
                    let got = mem.load(self.slot_addr(i));
                    if got != self.payload(i) {
                        return Err(format!("hostile/alias: slot {i} is {got}"));
                    }
                }
            }
            HostileKind::PriorityInversion => {
                let chain = self.w.tasks as u64;
                let got = mem.load(self.shared_addr());
                if got != chain {
                    return Err(format!("hostile/inversion: chain count is {got}, want {chain}"));
                }
                // Serially, every flood task runs after the whole chain.
                for i in 0..self.w.degree {
                    let got = mem.load(self.slot_addr(i));
                    let want = chain + self.payload(i);
                    if got != want {
                        return Err(format!(
                            "hostile/inversion: flood slot {i} is {got}, want {want} — a \
                             speculative read of the chain counter leaked"
                        ));
                    }
                }
            }
            HostileKind::SpillStorm => {
                let want = (self.w.tasks + self.w.tasks * self.w.degree) as u64;
                let got = mem.load(self.shared_addr());
                if got != want {
                    return Err(format!(
                        "hostile/spill: shared counter is {got}, want {want} — an update was \
                         lost across a spill/refill"
                    ));
                }
                for c in 0..self.w.tasks * self.w.degree {
                    let got = mem.load(self.slot_addr(c));
                    if got != self.payload(c) {
                        return Err(format!("hostile/spill: child slot {c} is {got}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_hints::Scheduler;
    use swarm_sim::Sim;
    use swarm_types::SystemConfig;

    fn run_cfg(w: HostileWorkload, scheduler: Scheduler, cfg: SystemConfig) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .config(cfg)
            .app(Hostile::new(w))
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("hostile workloads must still validate")
    }

    fn run(w: HostileWorkload, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        run_cfg(w, scheduler, SystemConfig::with_cores(cores))
    }

    #[test]
    fn every_kind_validates_under_every_scheduler() {
        let kinds = [
            HostileWorkload::hint_alias(48, 80, 1),
            HostileWorkload::priority_inversion(24, 32, 40, 2),
            HostileWorkload::spill_storm(40, 3, 30, 3),
        ];
        for w in kinds {
            for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints]
            {
                run(w, s, 16);
                run(w, s, 1);
            }
        }
    }

    #[test]
    fn hint_alias_serializes_onto_one_tile_under_hints() {
        let stats = run(HostileWorkload::hint_alias(64, 100, 4), Scheduler::Hints, 16);
        let busy_tiles = stats.committed_cycles_per_tile.iter().filter(|&&c| c > 0).count();
        assert_eq!(busy_tiles, 1, "aliased hints must collapse onto a single tile");
    }

    #[test]
    fn priority_inversion_floods_abort_repeatedly() {
        let stats = run(HostileWorkload::priority_inversion(24, 32, 40, 5), Scheduler::Random, 16);
        assert!(
            stats.tasks_aborted as usize >= 32,
            "the late flood should be aborted over and over, got {} aborts",
            stats.tasks_aborted
        );
    }

    #[test]
    fn spill_storm_overflows_single_core_queues() {
        let stats = run(HostileWorkload::spill_storm(90, 3, 30, 6), Scheduler::Hints, 1);
        assert!(stats.tasks_spilled > 0, "a 90-wide band must overflow a 64-entry task queue");
    }
}

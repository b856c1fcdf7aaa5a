//! `sssp`: single-source shortest paths with Dijkstra-style ordered tasks
//! (from Galois in the paper; Listings 2 and 3).
//!
//! A task's timestamp is the tentative distance of the path it represents,
//! so committed order equals distance order. The coarse-grain version
//! (Listing 2) relaxes all of a vertex's neighbors, writing their distances;
//! the fine-grain version (Listing 3) writes only its own vertex's distance
//! and spawns one child per neighbor.

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

use crate::graph::{Graph, UNREACHED};

/// Single-source shortest paths benchmark (coarse- or fine-grain).
pub struct Sssp {
    graph: Graph,
    source: u32,
    dist: Region,
    reference: Vec<u64>,
    fine_grain: bool,
}

impl Sssp {
    /// Build the coarse-grain version (Listing 2).
    pub fn coarse(graph: Graph, source: u32) -> Self {
        Self::build(graph, source, false)
    }

    /// Build the fine-grain version (Listing 3).
    pub fn fine(graph: Graph, source: u32) -> Self {
        Self::build(graph, source, true)
    }

    fn build(graph: Graph, source: u32, fine_grain: bool) -> Self {
        assert!((source as usize) < graph.num_vertices(), "source out of range");
        let mut space = AddressSpace::new();
        let dist = space.alloc_array("dist", graph.num_vertices() as u64);
        let reference = graph.dijkstra(source);
        Sssp { graph, source, dist, reference, fine_grain }
    }

    fn dist_addr(&self, v: u32) -> u64 {
        self.dist.addr_of(v as u64)
    }

    fn hint_for(&self, v: u32) -> Hint {
        Hint::cache_line(self.dist_addr(v))
    }
}

impl SwarmApp for Sssp {
    fn name(&self) -> &str {
        if self.fine_grain {
            "sssp-fg"
        } else {
            "sssp"
        }
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        for v in 0..self.graph.num_vertices() as u32 {
            mem.store(self.dist_addr(v), UNREACHED);
        }
        if !self.fine_grain {
            mem.store(self.dist_addr(self.source), 0);
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        vec![InitialTask::new(0, 0, self.hint_for(self.source), vec![self.source as u64])]
    }

    fn run_task(&self, _fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let v = args[0] as u32;
        if self.fine_grain {
            // Listing 3: claim my own distance, spawn one child per neighbor.
            if ctx.read(self.dist_addr(v)) == UNREACHED {
                ctx.write(self.dist_addr(v), ts);
                for (n, w) in self.graph.neighbors(v) {
                    ctx.enqueue(0, ts + w as u64, self.hint_for(n), &[n as u64]);
                }
            }
        } else {
            // Listing 2: if this is still the best known path to v, relax all
            // neighbors (writes to other vertices' distances).
            if ctx.read(self.dist_addr(v)) == ts {
                for (n, w) in self.graph.neighbors(v) {
                    let projected = ts + w as u64;
                    if projected < ctx.read(self.dist_addr(n)) {
                        ctx.write(self.dist_addr(n), projected);
                        ctx.enqueue(0, projected, self.hint_for(n), &[n as u64]);
                    }
                }
            }
        }
    }

    fn num_task_fns(&self) -> usize {
        1
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for v in 0..self.graph.num_vertices() as u32 {
            let got = mem.load(self.dist_addr(v));
            let want = self.reference[v as usize];
            if got != want {
                return Err(format!("sssp distance of vertex {v}: got {got}, expected {want}"));
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

    fn run(app: Sssp, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("sssp must validate against Dijkstra")
    }

    #[test]
    fn coarse_grain_matches_dijkstra_single_core() {
        let g = Graph::road_grid(12, 12, 21);
        run(Sssp::coarse(g, 0), Scheduler::Random, 1);
    }

    #[test]
    fn coarse_grain_matches_dijkstra_all_schedulers() {
        let g = Graph::road_grid(12, 12, 22);
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(Sssp::coarse(g.clone(), 5), s, 16);
        }
    }

    #[test]
    fn fine_grain_matches_dijkstra() {
        let g = Graph::road_grid(10, 10, 23);
        run(Sssp::fine(g, 0), Scheduler::Hints, 16);
    }

    #[test]
    fn fine_grain_under_hints_reduces_aborts_vs_random() {
        // The central claim of Section V: fine-grain tasks make hints more
        // effective at eliminating conflicts. Compare abort counts.
        let g = Graph::road_grid(16, 16, 24);
        let hints = run(Sssp::fine(g.clone(), 0), Scheduler::Hints, 16);
        let random = run(Sssp::fine(g, 0), Scheduler::Random, 16);
        assert!(
            hints.tasks_aborted <= random.tasks_aborted,
            "hints ({}) should not abort more than random ({})",
            hints.tasks_aborted,
            random.tasks_aborted
        );
    }

    #[test]
    fn weighted_social_graph_is_handled() {
        let g = Graph::social(120, 3, 50, 25);
        run(Sssp::coarse(g, 3), Scheduler::Hints, 4);
    }
}

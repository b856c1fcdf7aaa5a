//! `astar`: A* pathfinding between two points of a road map.
//!
//! Ordered benchmark: a task's timestamp is the usual A* priority
//! `f = g + h(v)` with an admissible, consistent heuristic, so tasks commit
//! in f-order exactly like a sequential A* pops its priority queue. Tasks
//! whose f is not smaller than the best known route to the target prune
//! themselves, so the search does not degenerate into full Dijkstra.

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

use crate::graph::{Graph, UNREACHED};

/// A* benchmark (coarse- or fine-grain).
pub struct Astar {
    graph: Graph,
    source: u32,
    target: u32,
    gscore: Region,
    reference_target_dist: u64,
    fine_grain: bool,
}

impl Astar {
    /// Build the coarse-grain version.
    pub fn coarse(graph: Graph, source: u32, target: u32) -> Self {
        Self::build(graph, source, target, false)
    }

    /// Build the fine-grain version (Section V).
    pub fn fine(graph: Graph, source: u32, target: u32) -> Self {
        Self::build(graph, source, target, true)
    }

    fn build(graph: Graph, source: u32, target: u32, fine_grain: bool) -> Self {
        assert!((source as usize) < graph.num_vertices(), "source out of range");
        assert!((target as usize) < graph.num_vertices(), "target out of range");
        let mut space = AddressSpace::new();
        let gscore = space.alloc_array("gscore", graph.num_vertices() as u64);
        let reference_target_dist = graph.dijkstra(source)[target as usize];
        Astar { graph, source, target, gscore, reference_target_dist, fine_grain }
    }

    fn g_addr(&self, v: u32) -> u64 {
        self.gscore.addr_of(v as u64)
    }

    fn hint_for(&self, v: u32) -> Hint {
        Hint::cache_line(self.g_addr(v))
    }

    fn pruned(&self, ctx: &mut TaskCtx<'_>, ts: Timestamp) -> bool {
        let best = ctx.read(self.g_addr(self.target));
        best != UNREACHED && ts >= best
    }
}

impl SwarmApp for Astar {
    fn name(&self) -> &str {
        if self.fine_grain {
            "astar-fg"
        } else {
            "astar"
        }
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        for v in 0..self.graph.num_vertices() as u32 {
            mem.store(self.g_addr(v), UNREACHED);
        }
        if !self.fine_grain {
            mem.store(self.g_addr(self.source), 0);
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        let f0 = self.graph.heuristic(self.source, self.target);
        vec![InitialTask::new(0, f0, self.hint_for(self.source), vec![self.source as u64, 0])]
    }

    fn run_task(&self, _fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let v = args[0] as u32;
        let g = args[1];
        if self.pruned(ctx, ts) {
            return;
        }
        if self.fine_grain {
            // Fine-grain: claim my own g-score, spawn one child per neighbor.
            if g < ctx.read(self.g_addr(v)) {
                ctx.write(self.g_addr(v), g);
                if v != self.target {
                    for (n, w) in self.graph.neighbors(v) {
                        let ng = g + w as u64;
                        let f = ng + self.graph.heuristic(n, self.target);
                        ctx.enqueue(0, f.max(ts), self.hint_for(n), &[n as u64, ng]);
                    }
                }
            }
        } else {
            // Coarse-grain: if this is still the best known path to v, relax
            // all neighbors.
            if ctx.read(self.g_addr(v)) == g && v != self.target {
                for (n, w) in self.graph.neighbors(v) {
                    let ng = g + w as u64;
                    if ng < ctx.read(self.g_addr(n)) {
                        ctx.write(self.g_addr(n), ng);
                        let f = ng + self.graph.heuristic(n, self.target);
                        ctx.enqueue(0, f.max(ts), self.hint_for(n), &[n as u64, ng]);
                    }
                }
            }
        }
    }

    fn num_task_fns(&self) -> usize {
        1
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        let got = mem.load(self.g_addr(self.target));
        if got != self.reference_target_dist {
            return Err(format!(
                "astar route length: got {got}, expected {}",
                self.reference_target_dist
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_hints::Scheduler;
    use swarm_sim::Sim;

    fn run(app: Astar, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("astar must find the shortest route")
    }

    fn corner_to_corner(side: usize, seed: u64) -> (Graph, u32, u32) {
        let g = Graph::road_grid(side, side, seed);
        let target = (side * side - 1) as u32;
        (g, 0, target)
    }

    #[test]
    fn coarse_grain_finds_shortest_route_single_core() {
        let (g, s, t) = corner_to_corner(12, 31);
        run(Astar::coarse(g, s, t), Scheduler::Random, 1);
    }

    #[test]
    fn coarse_grain_finds_shortest_route_all_schedulers() {
        let (g, s, t) = corner_to_corner(12, 32);
        for sch in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(Astar::coarse(g.clone(), s, t), sch, 16);
        }
    }

    #[test]
    fn fine_grain_finds_shortest_route() {
        let (g, s, t) = corner_to_corner(10, 33);
        run(Astar::fine(g, s, t), Scheduler::Hints, 16);
    }

    #[test]
    fn pruning_limits_work_compared_to_sssp_like_expansion() {
        // A* to a nearby target should commit far fewer tasks than the number
        // of edges in the graph (i.e., pruning is actually effective).
        let g = Graph::road_grid(14, 14, 34);
        let edges = g.num_edges() as u64;
        let stats = run(Astar::coarse(g, 0, 15), Scheduler::Hints, 16);
        assert!(
            stats.tasks_committed < edges,
            "A* committed {} tasks, which suggests no pruning (edges = {edges})",
            stats.tasks_committed
        );
    }
}

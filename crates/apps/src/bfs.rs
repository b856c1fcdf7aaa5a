//! `bfs`: breadth-first tree of an arbitrary graph (from PBFS in the paper).
//!
//! Ordered benchmark: a task's timestamp is its BFS level. The coarse-grain
//! version visits a vertex and writes all of its unvisited neighbors'
//! distances (multi-hint read-write data); the fine-grain version writes only
//! its own vertex's distance and spawns one child per neighbor, making
//! almost all read-write data single-hint (Section V).

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

use crate::graph::{Graph, UNREACHED};

/// Coarse-grain BFS (the PBFS-style implementation of Table I).
pub struct Bfs {
    graph: Graph,
    source: u32,
    dist: Region,
    reference: Vec<u64>,
    fine_grain: bool,
}

impl Bfs {
    /// Build the coarse-grain version.
    pub fn coarse(graph: Graph, source: u32) -> Self {
        Self::build(graph, source, false)
    }

    /// Build the fine-grain version (Section V).
    pub fn fine(graph: Graph, source: u32) -> Self {
        Self::build(graph, source, true)
    }

    fn build(graph: Graph, source: u32, fine_grain: bool) -> Self {
        assert!((source as usize) < graph.num_vertices(), "source out of range");
        let mut space = AddressSpace::new();
        let dist = space.alloc_array("dist", graph.num_vertices() as u64);
        let reference = graph.bfs_levels(source);
        Bfs { graph, source, dist, reference, fine_grain }
    }

    fn dist_addr(&self, v: u32) -> u64 {
        self.dist.addr_of(v as u64)
    }

    fn hint_for(&self, v: u32) -> Hint {
        Hint::cache_line(self.dist_addr(v))
    }
}

impl SwarmApp for Bfs {
    fn name(&self) -> &str {
        if self.fine_grain {
            "bfs-fg"
        } else {
            "bfs"
        }
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        for v in 0..self.graph.num_vertices() as u32 {
            mem.store(self.dist_addr(v), UNREACHED);
        }
        if !self.fine_grain {
            // The coarse-grain variant marks the source visited up front and
            // lets the first task expand it (Listing-2 style "confirm then
            // expand" structure).
            mem.store(self.dist_addr(self.source), 0);
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        vec![InitialTask::new(0, 0, self.hint_for(self.source), vec![self.source as u64])]
    }

    fn run_task(&self, _fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let v = args[0] as u32;
        if self.fine_grain {
            // Fine-grain: claim my own vertex, then spawn children.
            if ctx.read(self.dist_addr(v)) == UNREACHED {
                ctx.write(self.dist_addr(v), ts);
                for (n, _) in self.graph.neighbors(v) {
                    ctx.enqueue(0, ts + 1, self.hint_for(n), &[n as u64]);
                }
            }
        } else {
            // Coarse-grain: if I am a confirmed visit at this level, mark all
            // unvisited neighbors (writes to other vertices' data).
            if ctx.read(self.dist_addr(v)) == ts {
                for (n, _) in self.graph.neighbors(v) {
                    if ctx.read(self.dist_addr(n)) == UNREACHED {
                        ctx.write(self.dist_addr(n), ts + 1);
                        ctx.enqueue(0, ts + 1, self.hint_for(n), &[n as u64]);
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
                return Err(format!("bfs level of vertex {v}: got {got}, expected {want}"));
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

    fn run(app: Bfs, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("bfs must validate against the serial reference")
    }

    #[test]
    fn coarse_grain_matches_reference_on_one_core() {
        let g = Graph::road_grid(12, 12, 1);
        run(Bfs::coarse(g, 0), Scheduler::Random, 1);
    }

    #[test]
    fn coarse_grain_matches_reference_on_many_cores() {
        let g = Graph::road_grid(12, 12, 2);
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            let stats = run(Bfs::coarse(g.clone(), 0), s, 16);
            assert_eq!(stats.cores, 16);
            assert!(stats.tasks_committed > 0);
        }
    }

    #[test]
    fn fine_grain_matches_reference() {
        let g = Graph::road_grid(10, 10, 3);
        let stats = run(Bfs::fine(g, 0), Scheduler::Hints, 16);
        // The fine-grain version creates one task per edge relaxation, which
        // is substantially more tasks than vertices.
        assert!(stats.tasks_committed as usize >= 100);
    }

    #[test]
    fn fine_grain_creates_more_tasks_than_coarse() {
        let g = Graph::road_grid(10, 10, 4);
        let coarse = run(Bfs::coarse(g.clone(), 0), Scheduler::Hints, 16);
        let fine = run(Bfs::fine(g, 0), Scheduler::Hints, 16);
        assert!(fine.tasks_committed > coarse.tasks_committed);
    }

    #[test]
    fn works_on_social_graphs_too() {
        let g = Graph::social(150, 3, 60, 5);
        run(Bfs::coarse(g, 0), Scheduler::Hints, 4);
    }
}

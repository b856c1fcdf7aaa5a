//! `color`: largest-degree-first greedy graph coloring (Hasenplaugh et al.).
//!
//! Ordered benchmark: vertices are ranked by degree (descending) and tasks
//! commit in rank order, so the parallel execution reproduces the serial
//! largest-degree-first heuristic exactly.
//!
//! * Coarse-grain: one task per vertex reads *all* neighbors' colors and
//!   writes its own — almost all read-write data is multi-hint, so hints
//!   barely help (Fig. 3).
//! * Fine-grain (Section V): coloring is split so every task reads or writes
//!   a single vertex's private state: a `color` task picks the smallest
//!   color absent from its own forbidden-set and then *notifies* each
//!   higher-ranked neighbor by setting a bit in that neighbor's forbidden-set
//!   (a separate task hinted by the neighbor).

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

use crate::graph::{Graph, UNREACHED};

/// Words of forbidden-set bitmap per vertex in the fine-grain layout; the
/// eighth word of the per-vertex cache line stores the chosen color.
const MASK_WORDS: u64 = 7;

const FID_COLOR: TaskFnId = 0;
const FID_NOTIFY: TaskFnId = 1;

/// Greedy graph-coloring benchmark (coarse- or fine-grain).
pub struct Color {
    graph: Graph,
    ranks: Vec<u64>,
    /// Coarse-grain: packed array of colors. Fine-grain: unused.
    colors: Region,
    /// Fine-grain: one cache line per vertex (7 mask words + 1 color word).
    state: Region,
    reference: Vec<u64>,
    fine_grain: bool,
}

impl Color {
    /// Build the coarse-grain version.
    pub fn coarse(graph: Graph) -> Self {
        Self::build(graph, false)
    }

    /// Build the fine-grain version (Section V).
    ///
    /// # Panics
    ///
    /// Panics if the graph's maximum degree exceeds the fine-grain
    /// forbidden-set capacity (7 × 64 colors).
    pub fn fine(graph: Graph) -> Self {
        assert!(
            graph.max_degree() < (MASK_WORDS as usize) * 64,
            "fine-grain color supports degrees below {}",
            MASK_WORDS * 64
        );
        Self::build(graph, true)
    }

    fn build(graph: Graph, fine_grain: bool) -> Self {
        let n = graph.num_vertices() as u64;
        let mut space = AddressSpace::new();
        let colors = space.alloc_array("colors", n);
        let state = space.alloc_strided("state", n, 8);
        let ranks = graph.color_ranks();
        let reference = graph.greedy_color();
        Color { graph, ranks, colors, state, reference, fine_grain }
    }

    fn color_addr(&self, v: u32) -> u64 {
        if self.fine_grain {
            self.state.addr_of_field(v as u64, MASK_WORDS)
        } else {
            self.colors.addr_of(v as u64)
        }
    }

    fn mask_addr(&self, v: u32, word: u64) -> u64 {
        self.state.addr_of_field(v as u64, word)
    }

    fn hint_for(&self, v: u32) -> Hint {
        Hint::cache_line(if self.fine_grain {
            self.state.addr_of(v as u64)
        } else {
            self.color_addr(v)
        })
    }

    fn rank(&self, v: u32) -> u64 {
        self.ranks[v as usize]
    }
}

impl SwarmApp for Color {
    fn name(&self) -> &str {
        if self.fine_grain {
            "color-fg"
        } else {
            "color"
        }
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        for v in 0..self.graph.num_vertices() as u32 {
            mem.store(self.color_addr(v), UNREACHED);
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        (0..self.graph.num_vertices() as u32)
            .map(|v| {
                let ts = if self.fine_grain { 2 * self.rank(v) + 1 } else { self.rank(v) };
                InitialTask::new(FID_COLOR, ts, self.hint_for(v), vec![v as u64])
            })
            .collect()
    }

    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let v = args[0] as u32;
        match (self.fine_grain, fid) {
            (false, _) => {
                // Coarse-grain: scan every neighbor's color.
                let degree = self.graph.degree(v);
                let mut used = vec![false; degree + 1];
                for (n, _) in self.graph.neighbors(v) {
                    let c = ctx.read(self.color_addr(n));
                    if c != UNREACHED && (c as usize) < used.len() {
                        used[c as usize] = true;
                    }
                }
                let c = used.iter().position(|&u| !u).unwrap_or(degree) as u64;
                ctx.write(self.color_addr(v), c);
            }
            (true, FID_COLOR) => {
                // Fine-grain color task: read my own forbidden-set, pick the
                // smallest free color, store it, and notify higher-ranked
                // neighbors.
                let mut color = None;
                for word in 0..MASK_WORDS {
                    let bits = ctx.read(self.mask_addr(v, word));
                    if bits != u64::MAX {
                        color = Some(word * 64 + (!bits).trailing_zeros() as u64);
                        break;
                    }
                }
                let c = color.expect("forbidden-set capacity exceeded");
                ctx.write(self.color_addr(v), c);
                let my_rank = self.rank(v);
                for (n, _) in self.graph.neighbors(v) {
                    let n_rank = self.rank(n);
                    if n_rank > my_rank {
                        // Notify runs strictly before the neighbor's own
                        // color task (2*n_rank), and not before my own
                        // timestamp (2*my_rank + 1 < 2*n_rank since ranks are
                        // distinct integers).
                        ctx.enqueue(FID_NOTIFY, 2 * n_rank, self.hint_for(n), &[n as u64, c]);
                    }
                }
                debug_assert!(ts == 2 * my_rank + 1);
            }
            (true, FID_NOTIFY) => {
                // Fine-grain notify task: set bit `c` in vertex v's
                // forbidden-set (touches only v's cache line).
                let c = args[1];
                let addr = self.mask_addr(v, c / 64);
                let bits = ctx.read(addr);
                ctx.write(addr, bits | (1u64 << (c % 64)));
            }
            (true, other) => panic!("unknown color task function {other}"),
        }
    }

    fn num_task_fns(&self) -> usize {
        if self.fine_grain {
            2
        } else {
            1
        }
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for v in 0..self.graph.num_vertices() as u32 {
            let got = mem.load(self.color_addr(v));
            let want = self.reference[v as usize];
            if got != want {
                return Err(format!("color of vertex {v}: got {got}, expected {want}"));
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

    fn run(app: Color, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("color must reproduce the serial greedy coloring")
    }

    #[test]
    fn coarse_grain_matches_serial_greedy_single_core() {
        let g = Graph::social(120, 3, 60, 41);
        run(Color::coarse(g), Scheduler::Random, 1);
    }

    #[test]
    fn coarse_grain_matches_serial_greedy_many_cores() {
        let g = Graph::social(120, 3, 60, 42);
        for s in [Scheduler::Random, Scheduler::Hints] {
            run(Color::coarse(g.clone()), s, 16);
        }
    }

    #[test]
    fn fine_grain_matches_serial_greedy() {
        let g = Graph::social(120, 3, 60, 43);
        let stats = run(Color::fine(g), Scheduler::Hints, 16);
        // Fine-grain color spawns one notify task per (ordered) edge on top
        // of the per-vertex color tasks.
        assert!(stats.tasks_committed > 120);
    }

    #[test]
    fn fine_grain_works_on_road_graphs() {
        let g = Graph::road_grid(10, 10, 44);
        run(Color::fine(g), Scheduler::LbHints, 16);
    }

    #[test]
    #[should_panic(expected = "fine-grain color supports degrees below")]
    fn fine_grain_rejects_excessive_degree() {
        // A star graph with one hub of degree 600 exceeds the forbidden-set.
        let edges: Vec<(u32, u32, u32)> =
            (1..=600u32).flat_map(|v| [(0, v, 1), (v, 0, 1)]).collect();
        let coords = (0..601).map(|i| (i as i64, 0)).collect();
        let g = Graph::from_edges(601, &edges, coords);
        let _ = Color::fine(g);
    }
}

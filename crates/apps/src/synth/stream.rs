//! `stream`: dynamic single-source shortest paths over an edge-update
//! stream — the streaming/incremental scenario family.
//!
//! The workload starts from a *converged* SSSP solution on a directed road
//! grid (distances preloaded into simulated memory) and then applies a
//! stream of edge-weight **decreases** in timestamp order. Each update task
//! rewrites the edge's weight word and, if the decrease opens a shorter
//! path, spawns relaxation tasks that propagate the improvement wavefront
//! (asynchronous Bellman–Ford over the current weights).
//!
//! Decrease-only updates make the program *confluent*: whatever order the
//! speculative engine serializes the update/relax tasks in, the quiesced
//! distances equal Dijkstra over the **final** graph — which is exactly
//! what [`StreamSssp::validate`] checks, against an independently computed
//! reference. Unlike the batch `sssp` benchmark, timestamps here carry
//! *stream order*, not tentative distances, so the hint/conflict structure
//! is different: updates and relaxations of far-apart stream positions
//! touch overlapping vertex lines, and the engine has to speculate across
//! update boundaries to find parallelism.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

use crate::graph::{Graph, UNREACHED};

/// Timestamp distance between consecutive stream updates; relaxation
/// wavefronts spawn at `parent + 1` per hop, so a stride > 1 lets several
/// updates' wavefronts interleave speculatively.
const UPDATE_STRIDE: u64 = 4;

/// Task function ids.
const APPLY: u16 = 0;
const RELAX: u16 = 1;

/// A seeded dynamic-SSSP workload: a directed grid graph plus a stream of
/// edge-weight decreases.
#[derive(Debug, Clone)]
pub struct StreamWorkload {
    /// Directed edges `(src, dst, initial_weight)`; the graph structure is
    /// fixed, only weights change.
    edges: Vec<(u32, u32, u32)>,
    /// The update stream: `(edge_index, new_weight)`, applied in order.
    /// Weights only decrease, which keeps the program confluent.
    updates: Vec<(usize, u32)>,
    num_vertices: usize,
    source: u32,
}

impl StreamWorkload {
    /// A `width` × `height` grid with heavy initial weights and `updates`
    /// random weight decreases, all drawn from `seed`.
    pub fn generate(width: usize, height: usize, updates: usize, seed: u64) -> Self {
        assert!(width >= 2 && height >= 2, "grid must be at least 2x2");
        assert!(updates >= 1, "need at least one stream update");
        let mut rng = SmallRng::seed_from_u64(seed);
        let idx = |x: usize, y: usize| (y * width + x) as u32;
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let v = idx(x, y);
                // Initial weights are heavy (4..12) so decreases have room
                // to reroute shortest paths repeatedly.
                if x + 1 < width {
                    let w = 4 + rng.gen_range(0..8u32);
                    edges.push((v, idx(x + 1, y), w));
                    edges.push((idx(x + 1, y), v, w));
                }
                if y + 1 < height {
                    let w = 4 + rng.gen_range(0..8u32);
                    edges.push((v, idx(x, y + 1), w));
                    edges.push((idx(x, y + 1), v, w));
                }
            }
        }
        // Draw the decrease stream against the evolving weights so every
        // update is a strict decrease (weight-1 edges are left alone).
        let mut current: Vec<u32> = edges.iter().map(|&(_, _, w)| w).collect();
        let mut stream = Vec::with_capacity(updates);
        while stream.len() < updates {
            let e = rng.gen_range(0..edges.len());
            if current[e] > 1 {
                let new_w = rng.gen_range(1..current[e]);
                current[e] = new_w;
                stream.push((e, new_w));
            }
        }
        StreamWorkload { edges, updates: stream, num_vertices: width * height, source: 0 }
    }

    /// The graph with the update stream fully applied.
    fn final_graph(&self) -> Graph {
        let mut edges = self.edges.clone();
        for &(e, w) in &self.updates {
            edges[e].2 = w;
        }
        let coords = vec![(0i64, 0i64); self.num_vertices];
        Graph::from_edges(self.num_vertices, &edges, coords)
    }

    /// The graph before any update.
    fn base_graph(&self) -> Graph {
        let coords = vec![(0i64, 0i64); self.num_vertices];
        Graph::from_edges(self.num_vertices, &self.edges, coords)
    }
}

/// The dynamic-SSSP application over a [`StreamWorkload`].
pub struct StreamSssp {
    workload: StreamWorkload,
    /// Converged distances before the stream starts (preloaded).
    initial_dist: Vec<u64>,
    /// Distances after the full stream quiesces (the serial reference).
    reference: Vec<u64>,
    /// Out-edges per vertex: `(edge_index, dst)`.
    out_edges: Vec<Vec<(usize, u32)>>,
    dist: Region,
    weight: Region,
}

impl StreamSssp {
    pub fn new(workload: StreamWorkload) -> Self {
        let mut space = AddressSpace::new();
        let dist = space.alloc_array("dist", workload.num_vertices as u64);
        let weight = space.alloc_array("weight", workload.edges.len() as u64);
        let initial_dist = workload.base_graph().dijkstra(workload.source);
        let reference = workload.final_graph().dijkstra(workload.source);
        let mut out_edges = vec![Vec::new(); workload.num_vertices];
        for (e, &(src, dst, _)) in workload.edges.iter().enumerate() {
            out_edges[src as usize].push((e, dst));
        }
        StreamSssp { workload, initial_dist, reference, out_edges, dist, weight }
    }

    fn dist_addr(&self, v: u32) -> u64 {
        self.dist.addr_of(v as u64)
    }

    fn weight_addr(&self, e: usize) -> u64 {
        self.weight.addr_of(e as u64)
    }

    fn hint_for(&self, v: u32) -> Hint {
        Hint::cache_line(self.dist_addr(v))
    }

    /// Relax every out-edge of `v` against the current weights, spawning a
    /// follow-up wavefront task per improved neighbor.
    fn relax(&self, v: u32, ts: u64, ctx: &mut TaskCtx<'_>) {
        let dv = ctx.read(self.dist_addr(v));
        if dv == UNREACHED {
            return;
        }
        for &(e, n) in &self.out_edges[v as usize] {
            let w = ctx.read(self.weight_addr(e));
            let projected = dv + w;
            if projected < ctx.read(self.dist_addr(n)) {
                ctx.write(self.dist_addr(n), projected);
                ctx.enqueue(RELAX, ts + 1, self.hint_for(n), &[n as u64]);
            }
        }
    }
}

impl SwarmApp for StreamSssp {
    fn name(&self) -> &str {
        "stream"
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        for (v, &d) in self.initial_dist.iter().enumerate() {
            mem.store(self.dist_addr(v as u32), d);
        }
        for (e, &(_, _, w)) in self.workload.edges.iter().enumerate() {
            mem.store(self.weight_addr(e), w as u64);
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.workload
            .updates
            .iter()
            .enumerate()
            .map(|(k, &(e, w))| {
                let (_, dst, _) = self.workload.edges[e];
                let ts = (k as u64 + 1) * UPDATE_STRIDE;
                InitialTask::new(APPLY, ts, self.hint_for(dst), vec![e as u64, w as u64])
            })
            .collect()
    }

    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        match fid {
            APPLY => {
                let e = args[0] as usize;
                let new_w = args[1];
                let (src, dst, _) = self.workload.edges[e];
                ctx.write(self.weight_addr(e), new_w);
                let du = ctx.read(self.dist_addr(src));
                if du != UNREACHED && du + new_w < ctx.read(self.dist_addr(dst)) {
                    ctx.write(self.dist_addr(dst), du + new_w);
                    ctx.enqueue(RELAX, ts + 1, self.hint_for(dst), &[dst as u64]);
                }
            }
            RELAX => self.relax(args[0] as u32, ts, ctx),
            _ => unreachable!("unknown task function {fid}"),
        }
    }

    fn num_task_fns(&self) -> usize {
        2
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for v in 0..self.workload.num_vertices as u32 {
            let got = mem.load(self.dist_addr(v));
            let want = self.reference[v as usize];
            if got != want {
                return Err(format!(
                    "stream: distance of vertex {v} is {got}, final-graph Dijkstra says {want}"
                ));
            }
        }
        // Later updates may overwrite the same edge; the last write per edge
        // must stick.
        let mut final_weights = std::collections::BTreeMap::new();
        for &(e, w) in &self.workload.updates {
            final_weights.insert(e, w as u64);
        }
        for (&e, &want) in &final_weights {
            let got = mem.load(self.weight_addr(e));
            if got != want {
                return Err(format!("stream: weight of edge {e} is {got}, expected {want}"));
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

    fn run(w: StreamWorkload, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(StreamSssp::new(w))
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("stream must validate against final-graph Dijkstra")
    }

    #[test]
    fn decreases_converge_to_final_graph_single_core() {
        run(StreamWorkload::generate(8, 8, 40, 11), Scheduler::Random, 1);
    }

    #[test]
    fn decreases_converge_under_every_scheduler() {
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(StreamWorkload::generate(10, 8, 50, 12), s, 16);
        }
    }

    #[test]
    fn updates_actually_change_distances() {
        // The stream must not be a no-op: at least one vertex's distance
        // improves, otherwise the family exercises nothing.
        let w = StreamWorkload::generate(10, 10, 60, 13);
        let app = StreamSssp::new(w);
        assert!(
            app.initial_dist.iter().zip(&app.reference).any(|(a, b)| a != b),
            "update stream left every distance unchanged"
        );
    }

    #[test]
    fn stream_is_decrease_only() {
        let w = StreamWorkload::generate(6, 6, 30, 14);
        let mut current: Vec<u32> = w.edges.iter().map(|&(_, _, wt)| wt).collect();
        for &(e, nw) in &w.updates {
            assert!(nw < current[e], "update on edge {e} does not decrease its weight");
            current[e] = nw;
        }
    }
}

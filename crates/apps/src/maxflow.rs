//! `maxflow`: push-relabel maximum flow on a generated layered flow network
//! (a workload beyond the paper's Table I).
//!
//! Ordered benchmark. The algorithm is a round-synchronous push-relabel:
//! every round, one *discharge* task per non-terminal vertex pushes its
//! excess along admissible residual edges and relabels when stuck. Within a
//! round every vertex gets a distinct timestamp (round base + vertex id), so
//! the committed execution is a fixed total order and the final memory state
//! equals a serial sweep — which is exactly what the workload's reference
//! replays. The hint is the cache line of the vertex's excess word (the
//! Table I "cache line of vertex" pattern), but unlike the graph-analytics
//! seed apps the write set reaches *two* hops of state per push (own
//! excess/residual plus the neighbor's), so hints capture a smaller share of
//! the read-write accesses and the directory sees heavier cross-tile
//! invalidation traffic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

const FID_ROUND: TaskFnId = 0;
const FID_DISCHARGE: TaskFnId = 1;

/// Sentinel for "no relabel candidate found".
const NO_HEIGHT: u64 = u64::MAX;

/// The mutable state of a push-relabel execution: per-edge residual
/// capacities and per-vertex excess and height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowState {
    /// Residual capacity per directed edge (paired: edge `2i+1` is the
    /// reverse of edge `2i`).
    pub residual: Vec<u64>,
    /// Excess flow per vertex.
    pub excess: Vec<u64>,
    /// Push-relabel height (label) per vertex.
    pub height: Vec<u64>,
}

/// A generated flow network plus the number of discharge rounds needed for
/// the round-synchronous push-relabel to quiesce on it.
#[derive(Debug, Clone)]
pub struct FlowWorkload {
    num_vertices: usize,
    /// Head vertex of each directed residual edge.
    edge_to: Vec<u32>,
    /// Initial residual capacity of each directed edge (reverse edges start
    /// at zero).
    edge_cap: Vec<u64>,
    /// Edge ids leaving each vertex (forward and reverse residual edges).
    adj: Vec<Vec<u32>>,
    rounds: usize,
}

impl FlowWorkload {
    /// Generate a layered network: source -> `depth` layers of `width`
    /// vertices -> sink, with random forward edges and capacities. Layered
    /// DAGs are the classic hard case for preflow algorithms: excess floods
    /// the first layers and must be relabelled back when downstream
    /// capacity runs out.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn layered(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "need at least one layer of one vertex");
        let n = width * depth + 2;
        let source = 0u32;
        let sink = (n - 1) as u32;
        let vertex = |layer: usize, i: usize| (1 + layer * width + i) as u32;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for i in 0..width {
            edges.push((source, vertex(0, i), rng.gen_range(4..=20u64)));
        }
        for layer in 0..depth - 1 {
            for i in 0..width {
                let fanout = rng.gen_range(2..=3usize).min(width);
                let first = rng.gen_range(0..width);
                for k in 0..fanout {
                    let j = (first + k) % width;
                    edges.push((vertex(layer, i), vertex(layer + 1, j), rng.gen_range(1..=12u64)));
                }
            }
        }
        for i in 0..width {
            edges.push((vertex(depth - 1, i), sink, rng.gen_range(4..=20u64)));
        }
        // A few skip edges across layers keep the height landscape uneven.
        if depth >= 2 {
            for _ in 0..width.max(2) / 2 {
                let from_layer = rng.gen_range(0..depth - 1);
                let to_layer = rng.gen_range(from_layer + 1..depth);
                let a = vertex(from_layer, rng.gen_range(0..width));
                let b = vertex(to_layer, rng.gen_range(0..width));
                edges.push((a, b, rng.gen_range(1..=6u64)));
            }
        }

        let mut edge_to = Vec::with_capacity(edges.len() * 2);
        let mut edge_cap = Vec::with_capacity(edges.len() * 2);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(from, to, cap) in &edges {
            let e = edge_to.len() as u32;
            edge_to.push(to);
            edge_cap.push(cap);
            edge_to.push(from);
            edge_cap.push(0);
            adj[from as usize].push(e);
            adj[to as usize].push(e + 1);
        }

        let mut workload = FlowWorkload { num_vertices: n, edge_to, edge_cap, adj, rounds: 0 };
        // Round count: sweep until a full round changes nothing (that round
        // included, so the simulated run provably reaches quiescence too).
        let mut state = workload.initial_state();
        let mut rounds = 1;
        while workload.sweep(&mut state) {
            rounds += 1;
            assert!(rounds < 100_000, "push-relabel failed to quiesce");
        }
        workload.rounds = rounds;
        workload
    }

    /// Number of vertices (including source and sink).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed residual edges (2x the generated edges).
    pub fn num_edges(&self) -> usize {
        self.edge_to.len()
    }

    /// The source vertex (0).
    pub fn source(&self) -> u32 {
        0
    }

    /// The sink vertex (the last one).
    pub fn sink(&self) -> u32 {
        (self.num_vertices - 1) as u32
    }

    /// Discharge rounds the simulated execution performs.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The state after the initialisation step: source at height `n`, every
    /// source edge saturated into its head's excess.
    pub fn initial_state(&self) -> FlowState {
        let n = self.num_vertices;
        let mut state =
            FlowState { residual: self.edge_cap.clone(), excess: vec![0; n], height: vec![0; n] };
        state.height[0] = n as u64;
        for &e in &self.adj[0] {
            let cap = state.residual[e as usize];
            if cap > 0 {
                let w = self.edge_to[e as usize] as usize;
                state.residual[e as usize] = 0;
                state.residual[(e ^ 1) as usize] += cap;
                state.excess[w] += cap;
            }
        }
        state
    }

    /// Discharge vertex `v` once against `state`; returns whether anything
    /// changed. This is the *serial semantics* the simulated tasks mirror
    /// word for word.
    fn discharge(&self, state: &mut FlowState, v: usize) -> bool {
        let mut remaining = state.excess[v];
        if remaining == 0 {
            return false;
        }
        let h = state.height[v];
        let mut min_height = NO_HEIGHT;
        let mut changed = false;
        for &e in &self.adj[v] {
            if remaining == 0 {
                break;
            }
            let e = e as usize;
            let r = state.residual[e];
            if r == 0 {
                continue;
            }
            let w = self.edge_to[e] as usize;
            let hw = state.height[w];
            if h == hw + 1 {
                let delta = remaining.min(r);
                state.residual[e] = r - delta;
                state.residual[e ^ 1] += delta;
                state.excess[w] += delta;
                remaining -= delta;
                changed = true;
            } else if hw < min_height {
                min_height = hw;
            }
        }
        state.excess[v] = remaining;
        if remaining > 0 && min_height != NO_HEIGHT && h < min_height + 1 {
            state.height[v] = min_height + 1;
            changed = true;
        }
        changed
    }

    /// One full round: discharge every non-terminal vertex in id order.
    fn sweep(&self, state: &mut FlowState) -> bool {
        let mut changed = false;
        for v in 1..self.num_vertices - 1 {
            changed |= self.discharge(state, v);
        }
        changed
    }

    /// Serial reference: the state after exactly [`Self::rounds`] sweeps.
    pub fn reference(&self) -> FlowState {
        let mut state = self.initial_state();
        for _ in 0..self.rounds {
            self.sweep(&mut state);
        }
        state
    }

    /// Independent max-flow value via BFS augmenting paths (Edmonds-Karp),
    /// used by the tests to certify that the push-relabel quiesced at the
    /// true maximum.
    pub fn max_flow_reference(&self) -> u64 {
        let mut residual = self.edge_cap.clone();
        let (source, sink) = (self.source() as usize, self.sink() as usize);
        let mut flow = 0u64;
        loop {
            // BFS for a shortest augmenting path.
            let mut parent_edge: Vec<Option<u32>> = vec![None; self.num_vertices];
            let mut queue = std::collections::VecDeque::from([source]);
            'bfs: while let Some(v) = queue.pop_front() {
                for &e in &self.adj[v] {
                    let w = self.edge_to[e as usize] as usize;
                    if residual[e as usize] > 0 && parent_edge[w].is_none() && w != source {
                        parent_edge[w] = Some(e);
                        if w == sink {
                            break 'bfs;
                        }
                        queue.push_back(w);
                    }
                }
            }
            let Some(_) = parent_edge[sink] else { return flow };
            let mut bottleneck = u64::MAX;
            let mut v = sink;
            while v != source {
                let e = parent_edge[v].expect("path edge") as usize;
                bottleneck = bottleneck.min(residual[e]);
                v = self.edge_to[e ^ 1] as usize;
            }
            let mut v = sink;
            while v != source {
                let e = parent_edge[v].expect("path edge") as usize;
                residual[e] -= bottleneck;
                residual[e ^ 1] += bottleneck;
                v = self.edge_to[e ^ 1] as usize;
            }
            flow += bottleneck;
        }
    }
}

/// The maxflow benchmark.
pub struct Maxflow {
    workload: FlowWorkload,
    residual: Region,
    excess: Region,
    height: Region,
    reference: FlowState,
}

impl Maxflow {
    /// Build the benchmark around a generated network.
    pub fn new(workload: FlowWorkload) -> Self {
        let mut space = AddressSpace::new();
        let residual = space.alloc_array("residual", workload.num_edges() as u64);
        let excess = space.alloc_array("excess", workload.num_vertices() as u64);
        let height = space.alloc_array("height", workload.num_vertices() as u64);
        let reference = workload.reference();
        Maxflow { workload, residual, excess, height, reference }
    }

    fn vertex_hint(&self, v: u64) -> Hint {
        Hint::cache_line(self.excess.addr_of(v))
    }

    /// Timestamp slots per round: one driver plus one per vertex.
    fn round_span(&self) -> u64 {
        self.workload.num_vertices() as u64 + 2
    }
}

impl SwarmApp for Maxflow {
    fn name(&self) -> &str {
        "maxflow"
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        let init = self.workload.initial_state();
        for (e, &r) in init.residual.iter().enumerate() {
            mem.store(self.residual.addr_of(e as u64), r);
        }
        for v in 0..self.workload.num_vertices() as u64 {
            mem.store(self.excess.addr_of(v), init.excess[v as usize]);
            mem.store(self.height.addr_of(v), init.height[v as usize]);
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        vec![InitialTask::new(FID_ROUND, 0, Hint::None, vec![0])]
    }

    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        match fid {
            FID_ROUND => {
                // args = [round]: spawn one discharge per non-terminal
                // vertex at a distinct timestamp, then the next round.
                let round = args[0];
                let base = round * self.round_span();
                for v in 1..(self.workload.num_vertices() - 1) as u64 {
                    ctx.enqueue(FID_DISCHARGE, base + 1 + v, self.vertex_hint(v), &[v]);
                }
                if round + 1 < self.workload.rounds() as u64 {
                    ctx.enqueue(
                        FID_ROUND,
                        (round + 1) * self.round_span(),
                        Hint::None,
                        &[round + 1],
                    );
                }
            }
            FID_DISCHARGE => {
                // args = [v]. Mirrors FlowWorkload::discharge word for word.
                let v = args[0];
                let mut remaining = ctx.read(self.excess.addr_of(v));
                if remaining == 0 {
                    ctx.compute(4);
                    return;
                }
                let h = ctx.read(self.height.addr_of(v));
                let mut min_height = NO_HEIGHT;
                for &e in &self.workload.adj[v as usize] {
                    if remaining == 0 {
                        break;
                    }
                    ctx.compute(4);
                    let r = ctx.read(self.residual.addr_of(e as u64));
                    if r == 0 {
                        continue;
                    }
                    let w = self.workload.edge_to[e as usize] as u64;
                    let hw = ctx.read(self.height.addr_of(w));
                    if h == hw + 1 {
                        let delta = remaining.min(r);
                        ctx.write(self.residual.addr_of(e as u64), r - delta);
                        let rev = (e ^ 1) as u64;
                        let rr = ctx.read(self.residual.addr_of(rev));
                        ctx.write(self.residual.addr_of(rev), rr + delta);
                        let ew = ctx.read(self.excess.addr_of(w));
                        ctx.write(self.excess.addr_of(w), ew + delta);
                        remaining -= delta;
                    } else if hw < min_height {
                        min_height = hw;
                    }
                }
                ctx.write(self.excess.addr_of(v), remaining);
                if remaining > 0 && min_height != NO_HEIGHT && h < min_height + 1 {
                    ctx.write(self.height.addr_of(v), min_height + 1);
                }
                let _ = ts;
            }
            other => panic!("unknown maxflow task function {other}"),
        }
    }

    fn num_task_fns(&self) -> usize {
        2
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for (e, &want) in self.reference.residual.iter().enumerate() {
            let got = mem.load(self.residual.addr_of(e as u64));
            if got != want {
                return Err(format!("residual of edge {e}: got {got}, expected {want}"));
            }
        }
        for v in 0..self.workload.num_vertices() {
            let got = mem.load(self.excess.addr_of(v as u64));
            let want = self.reference.excess[v];
            if got != want {
                return Err(format!("excess of vertex {v}: got {got}, expected {want}"));
            }
            let got = mem.load(self.height.addr_of(v as u64));
            let want = self.reference.height[v];
            if got != want {
                return Err(format!("height of vertex {v}: got {got}, expected {want}"));
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

    fn run(workload: FlowWorkload, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(Maxflow::new(workload))
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("maxflow must match the serial push-relabel")
    }

    #[test]
    fn push_relabel_reaches_the_edmonds_karp_maximum() {
        for seed in 0..8 {
            let w = FlowWorkload::layered(4, 3, seed);
            let state = w.reference();
            let flow = state.excess[w.sink() as usize];
            assert_eq!(flow, w.max_flow_reference(), "seed {seed} did not reach max flow");
            assert!(flow > 0, "seed {seed} produced a degenerate zero-flow network");
            // At quiescence only source and sink may hold excess.
            for v in 1..w.num_vertices() - 1 {
                assert_eq!(state.excess[v], 0, "vertex {v} still active at seed {seed}");
            }
        }
    }

    #[test]
    fn matches_serial_on_one_core() {
        run(FlowWorkload::layered(4, 3, 2), Scheduler::Random, 1);
    }

    #[test]
    fn matches_serial_under_all_schedulers() {
        let w = FlowWorkload::layered(4, 4, 3);
        for s in Scheduler::ALL {
            run(w.clone(), s, 16);
        }
    }

    #[test]
    fn committed_work_scales_with_rounds() {
        let w = FlowWorkload::layered(4, 3, 4);
        let expected = w.rounds() as u64 * (w.num_vertices() as u64 - 2) + w.rounds() as u64;
        let stats = run(w, Scheduler::Hints, 16);
        assert_eq!(stats.tasks_committed, expected);
    }
}

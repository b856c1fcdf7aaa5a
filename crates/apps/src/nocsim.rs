//! `nocsim`: a network-on-chip simulator (derived from GARNET in the paper).
//!
//! Ordered benchmark: each task simulates a packet hop at one router of a
//! simulated K×K mesh running tornado traffic. A task reads and writes only
//! its own router's counters, so the router id is the natural spatial hint —
//! and because tornado traffic loads central columns far more than edge
//! routers, the benchmark is the paper's poster child for hint-based load
//! balancing (Section VI).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

/// Per-router counter fields (one cache line per router).
const INJECTED: u64 = 0;
const FORWARDED: u64 = 1;
const EJECTED: u64 = 2;
const BUFFERED: u64 = 3;

const FID_HOP: TaskFnId = 0;

/// The simulated mesh workload: a K×K router grid plus a packet trace.
#[derive(Debug, Clone)]
pub struct NocWorkload {
    /// Mesh side length.
    pub k: u32,
    /// Packets: (injection time, source router, destination router).
    pub packets: Vec<(u64, u32, u32)>,
    /// Per-hop link latency in simulated cycles.
    pub link_delay: u64,
}

impl NocWorkload {
    /// Generate tornado traffic on a `k` × `k` mesh: every router sends
    /// `packets_per_router` packets to the router halfway around its row.
    pub fn tornado(k: u32, packets_per_router: usize, seed: u64) -> Self {
        assert!(k >= 2, "mesh must be at least 2x2");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut packets = Vec::new();
        for y in 0..k {
            for x in 0..k {
                let src = y * k + x;
                let dst_x = (x + k / 2) % k;
                let dst = y * k + dst_x;
                let mut time = 0u64;
                for _ in 0..packets_per_router {
                    time += rng.gen_range(1..16u64);
                    packets.push((time, src, dst));
                }
            }
        }
        Self { k, packets, link_delay: 2 }
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        (self.k * self.k) as usize
    }

    /// Next router on the X-Y route from `at` toward `dst`.
    pub fn next_hop(&self, at: u32, dst: u32) -> u32 {
        let k = self.k;
        let (ax, ay) = (at % k, at / k);
        let (dx, dy) = (dst % k, dst / k);
        if ax != dx {
            let nx = if dx > ax { ax + 1 } else { ax - 1 };
            ay * k + nx
        } else if ay != dy {
            let ny = if dy > ay { ay + 1 } else { ay - 1 };
            ny * k + ax
        } else {
            at
        }
    }

    /// Serial reference: per-router (injected, forwarded, ejected) counts.
    /// These are sums of order-independent increments, so any serializable
    /// execution must produce exactly these values.
    pub fn reference_counts(&self) -> Vec<(u64, u64, u64)> {
        let mut counts = vec![(0u64, 0u64, 0u64); self.num_routers()];
        for &(_, src, dst) in &self.packets {
            counts[src as usize].0 += 1;
            let mut at = src;
            loop {
                if at == dst {
                    counts[at as usize].2 += 1;
                    break;
                }
                counts[at as usize].1 += 1;
                at = self.next_hop(at, dst);
            }
        }
        counts
    }
}

/// The nocsim benchmark.
pub struct Nocsim {
    workload: NocWorkload,
    routers: Region,
    reference: Vec<(u64, u64, u64)>,
}

impl Nocsim {
    /// Build the benchmark around a generated workload.
    pub fn new(workload: NocWorkload) -> Self {
        let mut space = AddressSpace::new();
        let routers = space.alloc_strided("routers", workload.num_routers() as u64, 8);
        let reference = workload.reference_counts();
        Nocsim { workload, routers, reference }
    }

    fn addr(&self, router: u32, field: u64) -> u64 {
        self.routers.addr_of_field(router as u64, field)
    }

    fn hint_for(&self, router: u32) -> Hint {
        Hint::object(1, router as u64)
    }
}

impl SwarmApp for Nocsim {
    fn name(&self) -> &str {
        "nocsim"
    }

    fn init_memory(&self, _mem: &mut SimMemory) {}

    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.workload
            .packets
            .iter()
            .map(|&(t, src, dst)| {
                InitialTask::new(FID_HOP, t, self.hint_for(src), vec![src as u64, dst as u64, 1])
            })
            .collect()
    }

    fn run_task(&self, _fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let at = args[0] as u32;
        let dst = args[1] as u32;
        let is_injection = args[2] == 1;

        if is_injection {
            let injected = ctx.read(self.addr(at, INJECTED));
            ctx.write(self.addr(at, INJECTED), injected + 1);
        }
        // Model router buffer occupancy churn (read-modify-write of own
        // state) plus some routing computation.
        let buffered = ctx.read(self.addr(at, BUFFERED));
        ctx.write(self.addr(at, BUFFERED), buffered + 1);
        ctx.compute(15);

        if at == dst {
            let ejected = ctx.read(self.addr(at, EJECTED));
            ctx.write(self.addr(at, EJECTED), ejected + 1);
        } else {
            let forwarded = ctx.read(self.addr(at, FORWARDED));
            ctx.write(self.addr(at, FORWARDED), forwarded + 1);
            let next = self.workload.next_hop(at, dst);
            ctx.enqueue(
                FID_HOP,
                ts + self.workload.link_delay,
                self.hint_for(next),
                &[next as u64, dst as u64, 0],
            );
        }
    }

    fn num_task_fns(&self) -> usize {
        1
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for (r, &(injected, forwarded, ejected)) in self.reference.iter().enumerate() {
            let r = r as u32;
            if mem.load(self.addr(r, INJECTED)) != injected {
                return Err(format!("router {r} injected count mismatch"));
            }
            if mem.load(self.addr(r, FORWARDED)) != forwarded {
                return Err(format!("router {r} forwarded count mismatch"));
            }
            if mem.load(self.addr(r, EJECTED)) != ejected {
                return Err(format!("router {r} ejected count mismatch"));
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

    fn run(app: Nocsim, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("nocsim must match the serial packet counts")
    }

    #[test]
    fn next_hop_routes_x_then_y() {
        let w = NocWorkload::tornado(4, 1, 1);
        assert_eq!(w.next_hop(0, 3), 1);
        assert_eq!(w.next_hop(1, 3), 2);
        assert_eq!(w.next_hop(3, 15), 7);
        assert_eq!(w.next_hop(15, 15), 15);
    }

    #[test]
    fn tornado_traffic_loads_central_columns_more() {
        let w = NocWorkload::tornado(8, 4, 2);
        let counts = w.reference_counts();
        // Column 4 routers forward more than column 0/7 routers on average.
        let col_load =
            |col: u32| -> u64 { (0..8u32).map(|row| counts[(row * 8 + col) as usize].1).sum() };
        assert!(col_load(4) > col_load(0));
        assert!(col_load(3) > col_load(7));
    }

    #[test]
    fn speculative_counts_match_reference_single_core() {
        let w = NocWorkload::tornado(4, 3, 3);
        run(Nocsim::new(w), Scheduler::Random, 1);
    }

    #[test]
    fn speculative_counts_match_reference_all_schedulers() {
        let w = NocWorkload::tornado(4, 3, 4);
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(Nocsim::new(w.clone()), s, 16);
        }
    }

    #[test]
    fn lbhints_runs_the_imbalanced_mesh() {
        let w = NocWorkload::tornado(6, 4, 5);
        let stats = run(Nocsim::new(w), Scheduler::LbHints, 16);
        assert!(stats.tasks_committed > 100);
    }
}

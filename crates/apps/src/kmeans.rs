//! `kmeans`: K-means clustering (from STAMP).
//!
//! Unordered-within-phase benchmark: each iteration consists of an *assign*
//! phase (one task per point finds its nearest centroid; hint = the cache
//! line of the point's membership word), an *update* phase (one task per
//! point adds its coordinates to the chosen cluster's accumulator; hint =
//! the cluster id — the small set of centroids is the highly contended data
//! the paper highlights), and a *recenter* phase (one task per cluster turns
//! its accumulator into the new centroid). Fixed-point integer arithmetic
//! keeps the result exactly equal to the serial reference in any
//! serializable order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

const FID_ASSIGN: TaskFnId = 0;
const FID_UPDATE: TaskFnId = 1;
const FID_RECENTER: TaskFnId = 2;
const FID_DRIVER: TaskFnId = 3;
const FID_SPAWN: TaskFnId = 4;

/// Timestamp slots per iteration (assign, update, recenter, driver).
const PHASES: u64 = 4;
/// Points spawned per spawner task.
const SPAWN_CHUNK: usize = 32;

/// K-means workload parameters and input points.
#[derive(Debug, Clone)]
pub struct KmeansWorkload {
    /// Input points, each `dims` integer coordinates.
    pub points: Vec<Vec<u64>>,
    /// Number of clusters.
    pub clusters: usize,
    /// Number of iterations (fixed, as the paper fixes 40 for consistency).
    pub iterations: usize,
    /// Coordinate dimensionality.
    pub dims: usize,
}

impl KmeansWorkload {
    /// Generate `n` points in `dims` dimensions around `clusters` seeds.
    pub fn generate(n: usize, dims: usize, clusters: usize, iterations: usize, seed: u64) -> Self {
        assert!(clusters >= 1 && n >= clusters, "need at least one point per cluster");
        let mut rng = SmallRng::seed_from_u64(seed);
        let seeds: Vec<Vec<u64>> =
            (0..clusters).map(|_| (0..dims).map(|_| rng.gen_range(0..1000u64)).collect()).collect();
        let points = (0..n)
            .map(|i| {
                let s = &seeds[i % clusters];
                (0..dims).map(|d| s[d] + rng.gen_range(0..60u64)).collect()
            })
            .collect();
        KmeansWorkload { points, clusters, iterations, dims }
    }

    /// Initial centroid coordinates (the first `clusters` points).
    pub fn initial_centroids(&self) -> Vec<Vec<u64>> {
        (0..self.clusters).map(|c| self.points[c].clone()).collect()
    }

    fn nearest(centroids: &[Vec<u64>], point: &[u64]) -> usize {
        let mut best = 0usize;
        let mut best_dist = u64::MAX;
        for (c, centroid) in centroids.iter().enumerate() {
            let dist: u64 = centroid
                .iter()
                .zip(point.iter())
                .map(|(&a, &b)| a.abs_diff(b) * a.abs_diff(b))
                .sum();
            if dist < best_dist {
                best_dist = dist;
                best = c;
            }
        }
        best
    }

    /// Serial reference: final membership of every point and final centroids.
    pub fn reference(&self) -> (Vec<u64>, Vec<Vec<u64>>) {
        let mut centroids = self.initial_centroids();
        let mut membership = vec![0u64; self.points.len()];
        for _ in 0..self.iterations {
            let mut sums = vec![vec![0u64; self.dims]; self.clusters];
            let mut counts = vec![0u64; self.clusters];
            for (i, p) in self.points.iter().enumerate() {
                let c = Self::nearest(&centroids, p);
                membership[i] = c as u64;
                counts[c] += 1;
                for d in 0..self.dims {
                    sums[c][d] += p[d];
                }
            }
            for c in 0..self.clusters {
                for d in 0..self.dims {
                    // Empty clusters keep their previous centroid.
                    if let Some(mean) = sums[c][d].checked_div(counts[c]) {
                        centroids[c][d] = mean;
                    }
                }
            }
        }
        (membership, centroids)
    }
}

/// The kmeans benchmark.
pub struct Kmeans {
    workload: KmeansWorkload,
    membership: Region,
    centroids: Region, // stride dims
    accum: Region,     // stride dims + 1 (sums then count)
    reference: (Vec<u64>, Vec<Vec<u64>>),
}

impl Kmeans {
    /// Build the benchmark around a generated workload.
    pub fn new(workload: KmeansWorkload) -> Self {
        let mut space = AddressSpace::new();
        let membership = space.alloc_array("membership", workload.points.len() as u64);
        let centroids =
            space.alloc_strided("centroids", workload.clusters as u64, workload.dims as u64);
        let accum =
            space.alloc_strided("accum", workload.clusters as u64, workload.dims as u64 + 1);
        let reference = workload.reference();
        Kmeans { workload, membership, centroids, accum, reference }
    }

    fn centroid_addr(&self, c: u64, d: u64) -> u64 {
        self.centroids.addr_of_field(c, d)
    }

    fn accum_addr(&self, c: u64, d: u64) -> u64 {
        self.accum.addr_of_field(c, d)
    }

    fn point_hint(&self, point: u64) -> Hint {
        Hint::cache_line(self.membership.addr_of(point))
    }

    fn cluster_hint(&self, cluster: u64) -> Hint {
        Hint::object(3, cluster)
    }

    fn iteration_base(iter: u64) -> Timestamp {
        iter * PHASES
    }
}

impl SwarmApp for Kmeans {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn init_memory(&self, mem: &mut SimMemory) {
        for (c, centroid) in self.workload.initial_centroids().iter().enumerate() {
            for (d, &value) in centroid.iter().enumerate() {
                mem.store(self.centroid_addr(c as u64, d as u64), value);
            }
        }
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        // The driver of iteration 0 bootstraps everything else.
        vec![InitialTask::new(FID_DRIVER, 0, Hint::None, vec![0])]
    }

    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let dims = self.workload.dims as u64;
        match fid {
            FID_DRIVER => {
                // args = [iteration]. Spawn the spawners, the recenter tasks
                // and the next driver.
                let iter = args[0];
                let base = Self::iteration_base(iter);
                let n = self.workload.points.len();
                for chunk_start in (0..n).step_by(SPAWN_CHUNK) {
                    ctx.enqueue(FID_SPAWN, base + 1, Hint::None, &[iter, chunk_start as u64]);
                }
                for c in 0..self.workload.clusters as u64 {
                    ctx.enqueue(FID_RECENTER, base + 3, self.cluster_hint(c), &[c]);
                }
                if (iter + 1) < self.workload.iterations as u64 {
                    ctx.enqueue(
                        FID_DRIVER,
                        Self::iteration_base(iter + 1),
                        Hint::None,
                        &[iter + 1],
                    );
                }
            }
            FID_SPAWN => {
                // args = [iteration, chunk_start]: enqueue assign tasks.
                let iter = args[0];
                let base = Self::iteration_base(iter);
                let start = args[1] as usize;
                let end = (start + SPAWN_CHUNK).min(self.workload.points.len());
                for p in start..end {
                    ctx.enqueue(FID_ASSIGN, base + 1, self.point_hint(p as u64), &[iter, p as u64]);
                }
            }
            FID_ASSIGN => {
                // args = [iteration, point]: read the centroids, pick the
                // nearest, record membership, and spawn the update task.
                let iter = args[0];
                let p = args[1];
                let point = &self.workload.points[p as usize];
                let mut best = 0u64;
                let mut best_dist = u64::MAX;
                for c in 0..self.workload.clusters as u64 {
                    let mut dist = 0u64;
                    for d in 0..dims {
                        let coord = ctx.read(self.centroid_addr(c, d));
                        let diff = coord.abs_diff(point[d as usize]);
                        dist += diff * diff;
                    }
                    if dist < best_dist {
                        best_dist = dist;
                        best = c;
                    }
                }
                ctx.compute(10 * dims * self.workload.clusters as u64);
                ctx.write(self.membership.addr_of(p), best);
                let base = Self::iteration_base(iter);
                ctx.enqueue(FID_UPDATE, base + 2, self.cluster_hint(best), &[p, best]);
            }
            FID_UPDATE => {
                // args = [point, cluster]: add the point into the cluster
                // accumulator (the contended single-hint read-write data).
                let p = args[0];
                let c = args[1];
                let point = &self.workload.points[p as usize];
                for d in 0..dims {
                    let addr = self.accum_addr(c, d);
                    let sum = ctx.read(addr);
                    ctx.write(addr, sum + point[d as usize]);
                }
                let count_addr = self.accum_addr(c, dims);
                let count = ctx.read(count_addr);
                ctx.write(count_addr, count + 1);
            }
            FID_RECENTER => {
                // args = [cluster]: divide the accumulator into the centroid
                // and reset it for the next iteration.
                let c = args[0];
                let count = ctx.read(self.accum_addr(c, dims));
                // Keep the explicit guard: restructuring around checked_div
                // would change which simulated reads/writes are issued.
                #[allow(clippy::manual_checked_ops)]
                if count > 0 {
                    for d in 0..dims {
                        let sum = ctx.read(self.accum_addr(c, d));
                        ctx.write(self.centroid_addr(c, d), sum / count);
                        ctx.write(self.accum_addr(c, d), 0);
                    }
                    ctx.write(self.accum_addr(c, dims), 0);
                }
                let _ = ts;
            }
            other => panic!("unknown kmeans task function {other}"),
        }
    }

    fn num_task_fns(&self) -> usize {
        5
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        let (membership, centroids) = &self.reference;
        for (p, &want) in membership.iter().enumerate() {
            let got = mem.load(self.membership.addr_of(p as u64));
            if got != want {
                return Err(format!("membership of point {p}: got {got}, expected {want}"));
            }
        }
        for (c, centroid) in centroids.iter().enumerate() {
            for (d, &want) in centroid.iter().enumerate() {
                let got = mem.load(self.centroid_addr(c as u64, d as u64));
                if got != want {
                    return Err(format!("centroid {c}[{d}]: got {got}, expected {want}"));
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

    fn workload(seed: u64) -> KmeansWorkload {
        KmeansWorkload::generate(96, 4, 4, 3, seed)
    }

    fn run(app: Kmeans, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("kmeans must match the serial clustering")
    }

    #[test]
    fn reference_assigns_points_to_nearby_seeds() {
        let w = workload(1);
        let (membership, centroids) = w.reference();
        assert_eq!(membership.len(), 96);
        assert_eq!(centroids.len(), 4);
        // Every cluster should own at least one point in this well-separated
        // synthetic input.
        for c in 0..4u64 {
            assert!(membership.contains(&c), "cluster {c} is empty");
        }
    }

    #[test]
    fn matches_serial_on_one_core() {
        run(Kmeans::new(workload(2)), Scheduler::Random, 1);
    }

    #[test]
    fn matches_serial_under_all_schedulers() {
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(Kmeans::new(workload(3)), s, 16);
        }
    }

    #[test]
    fn centroid_updates_are_contended_under_random() {
        let stats = run(Kmeans::new(workload(4)), Scheduler::Random, 16);
        assert!(stats.tasks_committed > 96 * 3, "expected assign+update tasks per iteration");
    }
}

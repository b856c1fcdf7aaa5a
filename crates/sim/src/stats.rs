//! Execution statistics: the cycle and traffic breakdowns reported by the
//! paper's figures, plus bookkeeping counters used by tests and the harness.

use swarm_noc::TrafficStats;
use swarm_types::Hint;

/// Aggregate core-cycle breakdown (the stacked bars of Fig. 2b / Fig. 5a /
/// Fig. 8a / Fig. 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles spent running tasks that ultimately committed.
    pub committed: u64,
    /// Cycles spent running task executions that were later aborted.
    pub aborted: u64,
    /// Cycles spent spilling tasks from (and refilling them into) the
    /// hardware task queues.
    pub spill: u64,
    /// Cycles cores spent stalled on a full commit queue.
    pub stall: u64,
    /// Cycles cores spent idle because no task was available to dispatch.
    pub empty: u64,
}

impl CycleBreakdown {
    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.committed + self.aborted + self.spill + self.stall + self.empty
    }

    /// Fraction of the total in each category, in the figure's stacking
    /// order `[committed, aborted, spill, stall, empty]`.
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total();
        if t == 0 {
            return [0.0; 5];
        }
        [
            self.committed as f64 / t as f64,
            self.aborted as f64 / t as f64,
            self.spill as f64 / t as f64,
            self.stall as f64 / t as f64,
            self.empty as f64 / t as f64,
        ]
    }
}

/// One committed task's accesses, for the architecture-independent access
/// classification of Fig. 3 / Fig. 6. Collected only when profiling is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTaskAccesses {
    /// The task's (resolved) hint.
    pub hint: Hint,
    /// Number of task arguments (each counts as one argument access).
    pub num_args: usize,
    /// Word-granular accesses: (byte address, is_write).
    pub accesses: Vec<(u64, bool)>,
}

/// Result of one simulated run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Scheduler used.
    pub scheduler: String,
    /// Application simulated.
    pub app: String,
    /// Number of cores simulated.
    pub cores: usize,
    /// Total runtime in cycles (time until the last task committed).
    pub runtime_cycles: u64,
    /// Aggregate core-cycle breakdown.
    pub breakdown: CycleBreakdown,
    /// NoC traffic by class.
    pub traffic: TrafficStats,
    /// Number of committed tasks.
    pub tasks_committed: u64,
    /// Number of aborted task executions.
    pub tasks_aborted: u64,
    /// Number of tasks spilled to memory.
    pub tasks_spilled: u64,
    /// Number of GVT updates performed.
    pub gvt_updates: u64,
    /// Number of load-balancer reconfigurations performed.
    pub lb_reconfigs: u64,
    /// Total cycles messages spent queued in the NoC (always zero under
    /// [`swarm_types::NocModel::Analytic`]).
    pub noc_queue_cycles: u64,
    /// Committed cycles per tile (the load-balance signal of Section VI).
    pub committed_cycles_per_tile: Vec<u64>,
    /// Per-committed-task access traces (only when profiling was enabled).
    pub committed_accesses: Vec<CommittedTaskAccesses>,
    /// Per-link contention counters (`Some` only under
    /// [`swarm_types::NocModel::Contention`]).
    pub link_stats: Option<swarm_noc::LinkStats>,
}

impl RunStats {
    /// Coefficient of variation of per-tile committed cycles (a measure of
    /// load imbalance; 0 means perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let n = self.committed_cycles_per_tile.len();
        if n <= 1 {
            return 0.0;
        }
        let mean = self.committed_cycles_per_tile.iter().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .committed_cycles_per_tile
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    /// Speedup of this run relative to a baseline run (typically 1 core).
    ///
    /// # Panics
    ///
    /// Panics if this run's runtime is zero.
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        assert!(self.runtime_cycles > 0, "runtime must be positive");
        baseline.runtime_cycles as f64 / self.runtime_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_fractions() {
        let b = CycleBreakdown { committed: 50, aborted: 25, spill: 5, stall: 10, empty: 10 };
        assert_eq!(b.total(), 100);
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = CycleBreakdown::default();
        assert_eq!(b.total(), 0);
        assert_eq!(b.fractions(), [0.0; 5]);
    }

    #[test]
    fn load_imbalance_zero_for_balanced_tiles() {
        let mut s =
            RunStats { committed_cycles_per_tile: vec![100, 100, 100, 100], ..Default::default() };
        assert!(s.load_imbalance().abs() < 1e-12);
        s.committed_cycles_per_tile = vec![0, 0, 200, 200];
        assert!(s.load_imbalance() > 0.5);
    }

    #[test]
    fn speedup_is_ratio_of_runtimes() {
        let base = RunStats { runtime_cycles: 1000, ..Default::default() };
        let fast = RunStats { runtime_cycles: 250, ..Default::default() };
        assert!((fast.speedup_over(&base) - 4.0).abs() < 1e-12);
    }
}

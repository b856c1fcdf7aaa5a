//! Parallel experiment execution: a shared-cursor work-sharing thread pool
//! over [`RunRequest`]s.
//!
//! The scheduler × app × core-count matrix behind every figure is a set of
//! *independent, deterministic* simulations (each run draws all randomness
//! from its own seed), so fanning requests out across OS threads is pure
//! wall-clock speedup with zero accuracy risk. Workers pull requests from a
//! shared atomic cursor (dynamic work-sharing, so one slow 64-core point
//! does not leave the other workers idle behind a static partition), and
//! results are re-joined **in request order**, which makes the output of
//! every sweep byte-identical to the serial path — `tests/parallel_runner.rs`
//! in the workspace root locks this property down.
//!
//! Every figure command constructs a [`Pool`] from the `--jobs N` flag
//! (see [`crate::HarnessArgs`]); the default is the machine's available
//! parallelism. Every method is Result-typed: a failed point comes back as
//! a [`RunError`] in its own slot, so a figure renders it as `n/a` instead
//! of panicking.
//!
//! # Example
//!
//! ```
//! use spatial_hints::Scheduler;
//! use swarm_apps::{AppSpec, BenchmarkId, InputScale};
//! use swarm_bench::{Pool, RunRequest};
//!
//! # fn main() -> Result<(), swarm_bench::RunError> {
//! let pool = Pool::new(2);
//! let requests: Vec<RunRequest> = [1, 4]
//!     .iter()
//!     .map(|&cores| {
//!         RunRequest::new(
//!             AppSpec::coarse(BenchmarkId::Sssp),
//!             Scheduler::Hints,
//!             cores,
//!             InputScale::Tiny,
//!         )
//!     })
//!     .collect();
//! let stats = pool.try_run_matrix(&requests).into_iter().collect::<Result<Vec<_>, _>>()?;
//! assert_eq!(stats.len(), 2);
//! assert!(stats[0].runtime_cycles >= stats[1].runtime_cycles);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, InputScale};
use swarm_sim::RunStats;

use crate::runner::{run_point_result, ExperimentPoint, RunError, RunRequest};

/// One labelled speedup curve to sweep: `(label, app, scheduler)`.
///
/// The label is what [`crate::format_speedup_table_results`] prints as the
/// column header; app and scheduler identify the simulations to run.
pub type CurveSpec = (String, AppSpec, Scheduler);

/// One finished matrix slot: the stats, or the typed reason they are
/// missing.
pub type StatsResult = Result<RunStats, RunError>;

/// One finished sweep point: the measured point, or the typed reason it is
/// missing (what the `n/a`-aware report formatters consume).
pub type PointResult = Result<ExperimentPoint, RunError>;

/// A swept curve in the Result-typed pipeline: the label plus one
/// [`PointResult`] per core count.
pub type ResultCurve = (String, Vec<PointResult>);

/// What the pool does when a simulation point fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Stop scheduling new points after the first failure; points not yet
    /// started come back as [`RunError::Skipped`]. The default, matching the
    /// harness's historical abort-promptly behavior.
    FailFast,
    /// Run every point regardless of failures and report each failure in
    /// its slot — the graceful-degradation mode behind `--on-error collect`.
    CollectAll,
    /// Re-run a failed point up to `attempts` times total before recording
    /// its (final) failure, then keep going as [`FailurePolicy::CollectAll`]
    /// does. Simulations are deterministic, so this only helps against
    /// environmental flakes (e.g. resource exhaustion), not real failures.
    Retry {
        /// Total attempts per point (clamped to at least 1).
        attempts: u32,
    },
}

impl Default for FailurePolicy {
    /// Fail fast, as the harness always has.
    fn default() -> Self {
        FailurePolicy::FailFast
    }
}

/// A fixed-size pool of OS threads that executes experiment matrices.
///
/// The pool itself is trivially cheap to construct (it holds only the job
/// count and failure policy; threads are scoped per call), so binaries
/// create one up front from the parsed arguments and pass it to every sweep.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
    policy: FailurePolicy,
}

impl Pool {
    /// A pool running `jobs` requests concurrently. `jobs == 0` means "use
    /// the machine's available parallelism" (the `--jobs` default).
    pub fn new(jobs: usize) -> Pool {
        let jobs = if jobs == 0 { Self::available_parallelism() } else { jobs };
        Pool { jobs, policy: FailurePolicy::FailFast }
    }

    /// A single-threaded pool: runs every request on the calling thread, in
    /// request order. The parallel paths are defined to produce byte-identical
    /// results to this.
    pub fn serial() -> Pool {
        Pool { jobs: 1, policy: FailurePolicy::FailFast }
    }

    /// The same pool with a different [`FailurePolicy`] (what `--on-error`
    /// selects).
    #[must_use]
    pub fn with_policy(mut self, policy: FailurePolicy) -> Pool {
        self.policy = policy;
        self
    }

    /// The number of hardware threads to use by default.
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// The number of worker threads this pool uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The pool's failure policy.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Run every request and return one result per request **in request
    /// order**, regardless of which worker finished which request first. A
    /// failed point comes back as a typed [`RunError`] in its slot; which
    /// points still run after a failure is governed by the pool's
    /// [`FailurePolicy`].
    pub fn try_run_matrix(&self, requests: &[RunRequest]) -> Vec<StatsResult> {
        self.execute(requests, false)
    }

    /// [`Pool::try_run_matrix`] with access profiling enabled on every run
    /// (needed by the Fig. 3 / Fig. 6 classification commands).
    pub fn try_run_matrix_profiled(&self, requests: &[RunRequest]) -> Vec<StatsResult> {
        self.execute(requests, true)
    }

    /// Run a labelled set of requests, preserving labels and order — the
    /// shape the breakdown/traffic tables consume. Each slot carries its own
    /// [`StatsResult`], so a failed row degrades to `n/a` in the tables
    /// instead of tearing the figure down.
    pub fn try_run_labeled(
        &self,
        entries: Vec<(String, RunRequest)>,
    ) -> Vec<(String, StatsResult)> {
        let requests: Vec<RunRequest> = entries.iter().map(|(_, r)| *r).collect();
        let results = self.execute(&requests, false);
        entries.into_iter().zip(results).map(|((label, _), r)| (label, r)).collect()
    }

    /// Sweep several labelled curves at once, each relative to its own
    /// 1-core baseline (the parallel equivalent of [`crate::speedup_curve`]).
    /// All runs of all curves go through one shared matrix, so parallelism
    /// is harvested across series as well as within them.
    ///
    /// Each point is its own [`PointResult`], so a failed point renders as
    /// `n/a` instead of aborting the sweep. A point whose 1-core baseline
    /// failed reports the baseline's error (its speedup is undefined) even
    /// if its own run completed.
    pub fn try_speedup_curves(
        &self,
        series: &[CurveSpec],
        core_counts: &[u32],
        scale: InputScale,
        seed: u64,
    ) -> Vec<ResultCurve> {
        // Per series: one 1-core baseline request, then one request per
        // non-1 core count (1-core entries reuse the baseline stats, exactly
        // as the serial path does).
        let mut requests = Vec::new();
        for &(_, spec, scheduler) in series {
            requests.push(RunRequest::new(spec, scheduler, 1, scale).with_seed(seed));
            for &cores in core_counts.iter().filter(|&&c| c != 1) {
                requests.push(RunRequest::new(spec, scheduler, cores, scale).with_seed(seed));
            }
        }
        let mut results = self.execute(&requests, false).into_iter();
        series
            .iter()
            .map(|(label, spec, scheduler)| {
                let baseline = results.next().expect("one baseline per series");
                let points = core_counts
                    .iter()
                    .map(|&cores| {
                        let request =
                            RunRequest::new(*spec, *scheduler, cores, scale).with_seed(seed);
                        let stats = if cores == 1 {
                            baseline.clone()
                        } else {
                            results.next().expect("one run per non-1 core count")
                        };
                        speedup_point(request, &baseline, stats)
                    })
                    .collect();
                (label.clone(), points)
            })
            .collect()
    }

    /// Sweep several independent *groups* of curves, each normalized to its
    /// own shared baseline request, through one flat matrix — so parallelism
    /// is harvested across groups too (Fig. 7 runs one group per benchmark
    /// and normalizes every fine-/coarse-grain series to the coarse 1-core
    /// run). Returns each group's curves, in group order; a point whose
    /// group baseline failed reports the baseline's error, as in
    /// [`Pool::try_speedup_curves`].
    pub fn try_speedup_curve_groups(
        &self,
        groups: &[(RunRequest, Vec<CurveSpec>)],
        core_counts: &[u32],
        scale: InputScale,
        seed: u64,
    ) -> Vec<Vec<ResultCurve>> {
        let mut requests = Vec::new();
        for (baseline, series) in groups {
            requests.push(*baseline);
            for &(_, spec, scheduler) in series {
                for &cores in core_counts {
                    requests.push(RunRequest::new(spec, scheduler, cores, scale).with_seed(seed));
                }
            }
        }
        let mut results = self.execute(&requests, false).into_iter();
        groups
            .iter()
            .map(|(_, series)| {
                let baseline = results.next().expect("one baseline per group");
                series
                    .iter()
                    .map(|(label, spec, scheduler)| {
                        let points = core_counts
                            .iter()
                            .map(|&cores| {
                                let request = RunRequest::new(*spec, *scheduler, cores, scale)
                                    .with_seed(seed);
                                let stats =
                                    results.next().expect("one run per series per core count");
                                speedup_point(request, &baseline, stats)
                            })
                            .collect();
                        (label.clone(), points)
                    })
                    .collect()
            })
            .collect()
    }

    /// Deduplicate, then execute: several figures legitimately ask for the
    /// same point more than once (e.g. `summary` queries Hints on both the
    /// "coarse" and "best" version of apps that have no fine-grain variant).
    /// Runs are deterministic, so one simulation serves every duplicate
    /// slot — results still come back one per request, in request order.
    fn execute(&self, requests: &[RunRequest], profiled: bool) -> Vec<StatsResult> {
        let mut first_of: HashMap<RunRequest, usize> = HashMap::new();
        let mut unique: Vec<RunRequest> = Vec::new();
        let slots: Vec<usize> = requests
            .iter()
            .map(|&r| {
                *first_of.entry(r).or_insert_with(|| {
                    unique.push(r);
                    unique.len() - 1
                })
            })
            .collect();
        let unique_results = self.execute_unique(&unique, profiled);
        slots.into_iter().map(|i| unique_results[i].clone()).collect()
    }

    /// Dynamic work-sharing execution: workers pull the next unclaimed
    /// request index from a shared cursor (so one slow point never idles
    /// the rest behind a static partition) and stash `(index, result)` pairs
    /// locally; the caller re-joins them into request order.
    ///
    /// Every failure mode of a point — including a panic inside the engine —
    /// is captured as a [`RunError`] in that point's slot. Under
    /// [`FailurePolicy::FailFast`] a failure raises a flag that stops the
    /// other workers at their next pull, and every request never claimed
    /// comes back as [`RunError::Skipped`]; the other policies drain the
    /// whole matrix.
    fn execute_unique(&self, requests: &[RunRequest], profiled: bool) -> Vec<StatsResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        let fail_fast = self.policy == FailurePolicy::FailFast;
        let attempts = match self.policy {
            FailurePolicy::Retry { attempts } => attempts.max(1),
            _ => 1,
        };
        let workers = self.jobs.min(requests.len());
        if workers <= 1 {
            let mut results = Vec::with_capacity(requests.len());
            let mut failed = false;
            for &request in requests {
                if failed && fail_fast {
                    results.push(Err(RunError::Skipped { request }));
                    continue;
                }
                let result = run_with_retries(request, profiled, attempts);
                failed |= result.is_err();
                results.push(result);
            }
            return results;
        }
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let mut slots: Vec<Option<StatsResult>> = vec![None; requests.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            if fail_fast && failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&request) = requests.get(i) else { break };
                            let result = run_with_retries(request, profiled, attempts);
                            if result.is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                            local.push((i, result));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (i, result) in local {
                            slots[i] = Some(result);
                        }
                    }
                    // run_with_retries catches simulation panics, so a worker
                    // unwinding is a harness bug — propagate it.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or(Err(RunError::Skipped { request: requests[i] })))
            .collect()
    }
}

/// One sweep point: `stats` measured against `baseline`. A failed run
/// reports its own error; a completed run over a failed baseline reports the
/// baseline's error, since its speedup is undefined.
fn speedup_point(request: RunRequest, baseline: &StatsResult, stats: StatsResult) -> PointResult {
    match (baseline, stats) {
        (Ok(base), Ok(stats)) => {
            let speedup = stats.speedup_over(base);
            Ok(ExperimentPoint { request, stats, speedup })
        }
        (_, Err(e)) => Err(e),
        (Err(base_err), Ok(_)) => Err(base_err.clone()),
    }
}

/// Run one point, re-running failures up to `attempts` total times (the
/// [`FailurePolicy::Retry`] loop; the other policies pass `attempts == 1`).
fn run_with_retries(request: RunRequest, profiled: bool, attempts: u32) -> StatsResult {
    let mut result = run_point_result(request, profiled);
    for _ in 1..attempts {
        if result.is_ok() {
            break;
        }
        result = run_point_result(request, profiled);
    }
    result
}

impl Default for Pool {
    /// The default pool uses all available hardware threads.
    fn default() -> Self {
        Pool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_apps::BenchmarkId;

    fn request(cores: u32) -> RunRequest {
        RunRequest::new(
            AppSpec::coarse(BenchmarkId::Sssp),
            Scheduler::Hints,
            cores,
            InputScale::Tiny,
        )
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(Pool::new(0).jobs(), Pool::available_parallelism());
        assert_eq!(Pool::serial().jobs(), 1);
        assert_eq!(Pool::new(3).jobs(), 3);
    }

    /// Unwrap a matrix whose points are all expected to succeed.
    fn all_ok(results: Vec<StatsResult>) -> Vec<RunStats> {
        results.into_iter().map(|r| r.unwrap_or_else(|e| panic!("{e}"))).collect()
    }

    #[test]
    fn empty_matrix_is_empty() {
        assert!(Pool::new(4).try_run_matrix(&[]).is_empty());
    }

    #[test]
    fn matrix_results_are_in_request_order() {
        let requests = vec![request(4), request(1), request(2)];
        let stats = all_ok(Pool::new(3).try_run_matrix(&requests));
        assert_eq!(stats.len(), 3);
        for (req, s) in requests.iter().zip(&stats) {
            assert_eq!(s.cores, req.cores as usize);
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let requests = vec![request(1), request(2), request(4), request(8)];
        let serial = Pool::serial().try_run_matrix(&requests);
        let parallel = Pool::new(4).try_run_matrix(&requests);
        assert!(serial.iter().all(Result::is_ok));
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn duplicate_requests_are_deduplicated_but_all_answered() {
        let requests = vec![request(2), request(4), request(2), request(2)];
        let stats = all_ok(Pool::new(2).try_run_matrix(&requests));
        assert_eq!(stats.len(), 4);
        // Duplicates get the same (deterministic) result as their first
        // occurrence.
        assert_eq!(format!("{:?}", stats[0]), format!("{:?}", stats[2]));
        assert_eq!(format!("{:?}", stats[0]), format!("{:?}", stats[3]));
        assert_eq!(stats[1].cores, 4);
    }

    #[test]
    fn labeled_runs_keep_their_labels() {
        let entries = vec![("a".to_string(), request(1)), ("b".to_string(), request(2))];
        let out = Pool::new(2).try_run_labeled(entries);
        assert_eq!(out[0].0, "a");
        assert_eq!(out[1].0, "b");
        assert_eq!(out[1].1.as_ref().expect("a tiny point runs").cores, 2);
    }

    #[test]
    fn sweep_cores_matches_serial_speedup_curve() {
        let spec = AppSpec::coarse(BenchmarkId::Des);
        let cores = [1, 2, 4];
        let serial =
            crate::runner::speedup_curve(spec, Scheduler::Hints, &cores, InputScale::Tiny, 7);
        let series = [(String::new(), spec, Scheduler::Hints)];
        let mut curves = Pool::new(4).try_speedup_curves(&series, &cores, InputScale::Tiny, 7);
        let expected: Vec<PointResult> = serial.into_iter().map(Ok).collect();
        assert_eq!(format!("{:?}", curves.remove(0).1), format!("{expected:?}"));
    }

    #[test]
    fn shared_baseline_curves_normalize_to_it() {
        let spec = AppSpec::coarse(BenchmarkId::Bfs);
        let baseline = RunRequest::new(spec, Scheduler::Hints, 1, InputScale::Tiny);
        let series = vec![("H".to_string(), spec, Scheduler::Hints)];
        let groups = Pool::new(2).try_speedup_curve_groups(
            &[(baseline, series)],
            &[1, 4],
            InputScale::Tiny,
            0xF1605,
        );
        // The 1-core point of the same config is the baseline re-run, so its
        // speedup is exactly 1.
        let one_core = groups[0][0].1[0].as_ref().expect("the baseline config runs");
        assert_eq!(one_core.request, baseline);
        assert!((one_core.speedup - 1.0).abs() < 1e-12);
        assert!(groups[0][0].1[1].is_ok());
    }

    #[test]
    fn profiled_matrix_collects_accesses() {
        let stats = all_ok(Pool::new(2).try_run_matrix_profiled(&[request(2), request(4)]));
        assert!(stats.iter().all(|s| !s.committed_accesses.is_empty()));
    }

    /// A request doomed to a deterministic typed failure: a lost task wake
    /// at cycle 0 wedges the run into a deadlock.
    fn doomed(cores: u32) -> RunRequest {
        use swarm_sim::{FaultEvent, FaultKind};
        request(cores)
            .with_fault(FaultEvent { at_cycle: 0, kind: FaultKind::LostTaskWake { ts: 1 } })
    }

    #[test]
    fn collect_all_reports_each_failure_in_its_slot() {
        use swarm_types::SimError;
        let requests = vec![request(1), doomed(2), request(4)];
        let results = Pool::new(2).with_policy(FailurePolicy::CollectAll).try_run_matrix(&requests);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(results[2].is_ok(), "points after the failure still run");
        let err = results[1].as_ref().expect_err("the doomed point fails");
        assert!(matches!(err, RunError::Sim { error: SimError::Deadlock { .. }, .. }), "{err}");
    }

    #[test]
    fn fail_fast_skips_unclaimed_points() {
        let requests = vec![doomed(1), request(2), request(4)];
        let results = Pool::serial().try_run_matrix(&requests);
        assert!(results[0].as_ref().is_err_and(RunError::is_root_cause));
        for later in &results[1..] {
            let err = later.as_ref().expect_err("fail-fast skips the rest");
            assert!(matches!(err, RunError::Skipped { .. }), "{err}");
            assert!(!err.is_root_cause());
        }
    }

    #[test]
    fn retry_still_reports_deterministic_failures() {
        let requests = vec![doomed(2), request(1)];
        let results = Pool::serial()
            .with_policy(FailurePolicy::Retry { attempts: 3 })
            .try_run_matrix(&requests);
        // A deterministic failure fails every attempt; retry then behaves
        // like CollectAll and the healthy point still runs.
        assert!(results[0].as_ref().is_err_and(RunError::is_root_cause));
        assert!(results[1].is_ok());
    }

    #[test]
    fn parallel_try_matrix_matches_serial_under_collect_all() {
        let requests = vec![request(1), doomed(2), request(4), doomed(8)];
        let serial =
            Pool::serial().with_policy(FailurePolicy::CollectAll).try_run_matrix(&requests);
        let parallel =
            Pool::new(4).with_policy(FailurePolicy::CollectAll).try_run_matrix(&requests);
        assert_eq!(format!("{serial:#?}"), format!("{parallel:#?}"));
    }

    #[test]
    fn a_doomed_group_baseline_fails_only_its_own_group() {
        let spec = AppSpec::coarse(BenchmarkId::Sssp);
        let series = vec![("H".to_string(), spec, Scheduler::Hints)];
        let groups = vec![(doomed(1), series.clone()), (request(1), series)];
        let pool = Pool::new(2).with_policy(FailurePolicy::CollectAll);
        let curves = pool.try_speedup_curve_groups(&groups, &[1, 4], InputScale::Tiny, 0xF1605);
        assert_eq!(curves.len(), 2);
        // Every point of the doomed group carries the baseline's error, even
        // though its own runs completed...
        for point in &curves[0][0].1 {
            let err = point.as_ref().expect_err("the baseline failed");
            assert_eq!(err.request(), &doomed(1), "{err}");
            assert!(err.is_root_cause());
        }
        // ...while the healthy group's points are untouched.
        assert!(curves[1][0].1.iter().all(Result::is_ok));
        // Same requests in the same order at any job count.
        let serial = Pool::serial().with_policy(FailurePolicy::CollectAll);
        let again = serial.try_speedup_curve_groups(&groups, &[1, 4], InputScale::Tiny, 0xF1605);
        assert_eq!(format!("{curves:?}"), format!("{again:?}"));
    }
}

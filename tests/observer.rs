//! The observer interface sees everything the built-in statistics see.
//!
//! `RunStats` is accumulated by the engine's built-in statistics observer,
//! which consumes the same event stream any custom observer attached through
//! `SimBuilder::observer` receives. These tests prove the equivalence on a
//! real Table I benchmark: a hand-written observer must reconstruct the
//! built-in commit/abort counts exactly, so future metrics (e.g. NoC
//! contention counters) can attach without touching the engine.

use std::cell::RefCell;
use std::rc::Rc;

use swarm_repro::noc::TrafficClass;
use swarm_repro::prelude::*;
use swarm_repro::sim::observer::LinkOccupancyEvent;
use swarm_repro::types::config::GVT_EPOCH;
use swarm_repro::types::NocModel;

/// A from-scratch reimplementation of the headline counters, fed only by
/// observer hooks.
#[derive(Default)]
struct CountingObserver {
    commits: u64,
    committed_cycles: u64,
    aborted_executions: u64,
    aborted_cycles: u64,
    cascade_members: u64,
    dequeues: u64,
    flit_hops: u64,
}

impl SimObserver for CountingObserver {
    fn on_dequeue(&mut self, _event: &DequeueEvent) {
        self.dequeues += 1;
    }
    fn on_commit(&mut self, event: &CommitEvent<'_>) {
        self.commits += 1;
        self.committed_cycles += event.cycles;
    }
    fn on_abort(&mut self, event: &AbortEvent) {
        self.cascade_members += 1;
        if event.executed {
            self.aborted_executions += 1;
            self.aborted_cycles += event.cycles;
        }
    }
    fn on_network_message(&mut self, event: &NetworkEvent) {
        self.flit_hops += event.hops * event.flits;
    }
}

fn run_with_observer(
    bench: BenchmarkId,
    scheduler: Scheduler,
) -> (RunStats, Rc<RefCell<CountingObserver>>) {
    let counter = Rc::new(RefCell::new(CountingObserver::default()));
    let mut engine = Sim::builder()
        .cores(16)
        .app_boxed(AppSpec::coarse(bench).build(InputScale::Tiny, 99))
        .scheduler(scheduler)
        .observer(Rc::clone(&counter))
        .build()
        .expect("a valid simulation description");
    let stats = engine.run().expect("run must validate");
    (stats, counter)
}

#[test]
fn custom_observer_sees_the_same_commit_and_abort_counts_as_stats() {
    // des under Random at 16 cores: a Table I app with guaranteed
    // speculation waste, so both counters are exercised non-trivially.
    let (stats, counter) = run_with_observer(BenchmarkId::Des, Scheduler::Random);
    let counter = counter.borrow();
    assert!(stats.tasks_committed > 0 && stats.tasks_aborted > 0, "want real traffic: {stats:?}");
    assert_eq!(counter.commits, stats.tasks_committed);
    assert_eq!(counter.committed_cycles, stats.breakdown.committed);
    assert_eq!(counter.aborted_executions, stats.tasks_aborted);
    assert_eq!(counter.aborted_cycles, stats.breakdown.aborted);
    assert!(
        counter.cascade_members >= counter.aborted_executions,
        "cascades may include never-executed members"
    );
    assert_eq!(counter.flit_hops, stats.traffic.total());
    // Every committed or aborted-after-running execution was dispatched.
    assert!(counter.dequeues >= stats.tasks_committed);
}

#[test]
fn observer_counts_match_across_schedulers() {
    for scheduler in [Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
        let (stats, counter) = run_with_observer(BenchmarkId::Sssp, scheduler);
        let counter = counter.borrow();
        assert_eq!(counter.commits, stats.tasks_committed, "{scheduler}");
        assert_eq!(counter.aborted_executions, stats.tasks_aborted, "{scheduler}");
        assert_eq!(counter.flit_hops, stats.traffic.total(), "{scheduler}");
    }
}

#[test]
fn attaching_an_observer_does_not_change_the_results() {
    // Observers are read-only taps: a run with one attached must produce
    // bit-identical statistics to a run without.
    let (with_observer, _counter) = run_with_observer(BenchmarkId::Kvstore, Scheduler::Hints);
    let mut engine = Sim::builder()
        .cores(16)
        .app_boxed(AppSpec::coarse(BenchmarkId::Kvstore).build(InputScale::Tiny, 99))
        .scheduler(Scheduler::Hints)
        .build()
        .expect("a valid simulation description");
    let without_observer = engine.run().expect("run must validate");
    assert_eq!(with_observer, without_observer);
}

/// Counts the per-link occupancy events of GVT updates.
#[derive(Default)]
struct GvtHopCounter {
    gvt_hops: u64,
}

impl SimObserver for GvtHopCounter {
    fn on_link_occupancy(&mut self, event: &LinkOccupancyEvent) {
        if event.class == TrafficClass::Gvt {
            self.gvt_hops += 1;
        }
    }
}

#[test]
fn contention_link_walks_agree_with_and_without_an_observer() {
    // 256 cores = an 8x8 mesh under the contention NoC. Without a custom
    // observer the link walk skips building per-hop events; with one it
    // builds them inside the same walk. Both must leave identical stats.
    let run = |observer: Option<Rc<RefCell<GvtHopCounter>>>| {
        let mut cfg = SystemConfig::with_cores(256);
        cfg.noc.model = NocModel::Contention;
        let mut builder = Sim::builder()
            .config(cfg)
            .app_boxed(AppSpec::coarse(BenchmarkId::Bfs).build(InputScale::Tiny, 1))
            .scheduler(Scheduler::Random);
        if let Some(observer) = observer {
            builder = builder.observer(observer);
        }
        builder.build().expect("a valid simulation description").run().expect("must validate")
    };
    let counter = Rc::new(RefCell::new(GvtHopCounter::default()));
    let with_observer = run(Some(Rc::clone(&counter)));
    let without_observer = run(None);
    assert_eq!(with_observer, without_observer);
    // Every GVT epoch each tile walks its X-Y route to the arbiter (tile
    // 0): 448 links in all on the 8x8 mesh.
    assert!(with_observer.gvt_updates > 0);
    assert_eq!(counter.borrow().gvt_hops, with_observer.gvt_updates * 448);
}

/// Logs the cycle of every GVT update.
#[derive(Default)]
struct GvtLog(Vec<u64>);

impl SimObserver for GvtLog {
    fn on_gvt_update(&mut self, now: u64) {
        self.0.push(now);
    }
}

/// Run `cfg` and check that GVT update n, from 1, fired at cycle
/// n × `GVT_EPOCH`. `None` if the run failed.
fn check_gvt_cadence(
    spec: AppSpec,
    scheduler: Scheduler,
    cfg: SystemConfig,
    fault: Option<swarm_repro::sim::FaultEvent>,
) -> Option<()> {
    let log = Rc::new(RefCell::new(GvtLog::default()));
    let mut builder = Sim::builder()
        .config(cfg)
        .app_boxed(spec.build(InputScale::Tiny, 99))
        .scheduler(scheduler)
        .observer(Rc::clone(&log));
    if let Some(fault) = fault {
        builder = builder.fault_plan(fault.into());
    }
    let stats = builder.build().expect("a valid simulation description").run().ok()?;
    let at = format!("{} under {scheduler} with {fault:?}", spec.name());
    let log = &log.borrow().0;
    assert_eq!(log.len() as u64, stats.gvt_updates, "{at}");
    for (n, &cycle) in (1..).zip(log) {
        assert_eq!(cycle, n * GVT_EPOCH, "{at}: GVT update {n} off its epoch");
    }
    Some(())
}

#[test]
fn gvt_updates_fire_every_epoch_on_the_dot() {
    // `swarm serve` derives progress events from this cadence: the k-th
    // of every 64 updates is reported at GVT k × 64 × GVT_EPOCH.
    for bench in BenchmarkId::ALL {
        for scheduler in Scheduler::ALL {
            for cores in [1, 4, 64] {
                for noc in [NocModel::Analytic, NocModel::Contention] {
                    let mut cfg = SystemConfig::with_cores(cores);
                    cfg.noc.model = noc;
                    check_gvt_cadence(AppSpec::coarse(bench), scheduler, cfg, None)
                        .unwrap_or_else(|| panic!("{bench} {scheduler} {cores} {noc:?} failed"));
                }
            }
        }
    }
    // The same under every standard fault, for the runs that recover: a
    // fault may wedge a run, but never moves a GVT tick.
    let mut recovered = 0;
    for fault in swarm_repro::sim::standard_faults(100) {
        for bench in BenchmarkId::ALL {
            for cores in [1, 4] {
                let mut cfg = SystemConfig::with_cores(cores);
                cfg.max_cycles = 10_000_000;
                let spec = AppSpec::coarse(bench);
                recovered +=
                    check_gvt_cadence(spec, Scheduler::Hints, cfg, Some(fault)).is_some() as usize;
            }
        }
    }
    assert!(recovered >= 100, "only {recovered} faulted runs completed");
}

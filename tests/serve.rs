//! End-to-end suite for the serving stack: protocol determinism, cache
//! correctness, cross-client deduplication, and disk persistence.
//!
//! The core contract under test: a result served through the protocol —
//! fresh, from memory, from disk, or deduplicated against a concurrent
//! run — is *byte-identical* to running the same point directly with
//! [`swarm_bench::run_point_result`]. Simulations here are deterministic,
//! so the content-addressed cache is not an approximation; these tests
//! pin that equivalence end to end.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_bench::{run_point_result, run_point_result_observed, RunError};
use swarm_serve::proto::{render_request, stats_to_json, ErrorCode};
use swarm_serve::{
    parse_event, CacheSource, Event, FailureKind, PipeSummary, PointFailure, PointOutcome,
    PointRunner, Request, RunPoint, ServeOptions, Server, SubmitRequest, TcpServer, MAX_LINE_BYTES,
};
use swarm_sim::RunStats;
use swarm_types::{CanonKey, Canonical, FastHashMap};

fn to_failure(err: &RunError) -> PointFailure {
    let kind = match err {
        RunError::InvalidPoint { .. } => FailureKind::InvalidPoint,
        RunError::Sim { .. } => FailureKind::Sim,
        RunError::Panicked { .. } => FailureKind::Panicked,
        RunError::Skipped { .. } => FailureKind::Skipped,
    };
    PointFailure { kind, message: err.to_string() }
}

/// The reference runner: one direct, serial `run_point_result` per point.
struct DirectRunner;

impl PointRunner for DirectRunner {
    fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome> {
        points.iter().map(|p| run_point_result(*p, false).map_err(|e| to_failure(&e))).collect()
    }

    fn run_observed(&self, point: &RunPoint, on_gvt: &mut dyn FnMut(u64)) -> PointOutcome {
        struct Collect(std::sync::Arc<Mutex<Vec<u64>>>);
        impl swarm_sim::SimObserver for Collect {
            fn on_gvt_update(&mut self, now: u64) {
                self.0.lock().unwrap().push(now);
            }
        }
        let gvts = std::sync::Arc::new(Mutex::new(Vec::new()));
        let result = run_point_result_observed(*point, false, Collect(gvts.clone()));
        for &gvt in gvts.lock().unwrap().iter() {
            on_gvt(gvt);
        }
        result.map_err(|e| to_failure(&e))
    }
}

/// Wraps [`DirectRunner`] and counts how many times each canonical key is
/// actually simulated — the dedup tests assert every count is exactly 1.
struct CountingRunner {
    counts: std::sync::Arc<Mutex<FastHashMap<CanonKey, usize>>>,
}

impl CountingRunner {
    fn new() -> CountingRunner {
        CountingRunner { counts: std::sync::Arc::new(Mutex::new(FastHashMap::default())) }
    }
}

impl PointRunner for CountingRunner {
    fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome> {
        {
            let mut counts = self.counts.lock().unwrap();
            for point in points {
                *counts.entry(point.canon_key()).or_insert(0) += 1;
            }
        }
        DirectRunner.run_batch(points)
    }
}

fn point(app: BenchmarkId, scheduler: Scheduler, cores: u32) -> RunPoint {
    RunPoint::new(AppSpec::coarse(app), scheduler, cores, InputScale::Tiny)
}

fn submit_line(id: &str, points: &[RunPoint], progress: bool) -> String {
    let request =
        Request::Submit(SubmitRequest { id: id.to_string(), points: points.to_vec(), progress });
    format!("{}\n", render_request(&request))
}

/// Run one pipe session over `input` and return the summary plus every
/// event the server emitted, in order.
fn pipe<R: PointRunner + 'static>(server: &Server<R>, input: String) -> (PipeSummary, Vec<Event>) {
    let mut out = Vec::new();
    let summary = server.serve_pipe(Cursor::new(input), &mut out).expect("pipe I/O");
    let text = String::from_utf8(out).expect("events are UTF-8");
    let events = text
        .lines()
        .map(|line| parse_event(line).unwrap_or_else(|e| panic!("unparseable event {line}: {e}")))
        .collect();
    (summary, events)
}

fn finished_stats(events: &[Event]) -> Vec<(u64, CacheSource, RunStats)> {
    events
        .iter()
        .filter_map(|event| match event {
            Event::PointFinished { index, source, stats, .. } => {
                Some((*index, *source, stats.clone()))
            }
            _ => None,
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("swarm_serve_it_{}_{}_{}", std::process::id(), tag, n))
}

#[test]
fn pipe_session_matches_direct_runs_byte_for_byte() {
    let points = [
        point(BenchmarkId::Sssp, Scheduler::Hints, 4),
        point(BenchmarkId::Bfs, Scheduler::Random, 2),
    ];
    let server = Server::new(DirectRunner, ServeOptions::default()).unwrap();
    let (summary, events) = pipe(&server, submit_line("m1", &points, false));
    assert_eq!(summary, PipeSummary::default(), "a clean session sets no failure flags");

    let finished = finished_stats(&events);
    assert_eq!(finished.len(), points.len());
    for ((index, source, stats), p) in finished.iter().zip(&points) {
        assert_eq!(*source, CacheSource::Fresh, "first sight of a point is simulated");
        let direct = run_point_result(*p, false).unwrap();
        assert_eq!(*stats, direct, "point {index} diverged from the direct run");
        // Bit-for-bit through the wire codec too, not just PartialEq.
        assert_eq!(stats_to_json(stats).render(), stats_to_json(&direct).render());
    }
    match events.last().unwrap() {
        Event::RunDone { ok, failed, cache, .. } => {
            assert_eq!((*ok, *failed), (2, 0));
            assert_eq!((cache.hits, cache.misses), (0, 2));
        }
        other => panic!("expected run-done last, got {other:?}"),
    }
}

#[test]
fn repeat_submission_is_served_entirely_from_cache() {
    let points = [
        point(BenchmarkId::Sssp, Scheduler::Hints, 2),
        point(BenchmarkId::Des, Scheduler::Hints, 2),
    ];
    let server = Server::new(DirectRunner, ServeOptions::default()).unwrap();
    let input = format!("{}{}", submit_line("a", &points, false), submit_line("b", &points, false));
    let (_, events) = pipe(&server, input);

    let finished = finished_stats(&events);
    assert_eq!(finished.len(), 4);
    let (first, second) = finished.split_at(2);
    for ((_, source_a, stats_a), (_, source_b, stats_b)) in first.iter().zip(second) {
        assert_eq!(*source_a, CacheSource::Fresh);
        assert_eq!(*source_b, CacheSource::Memory, "the repeat must be cache-served");
        assert_eq!(stats_a, stats_b, "cache-served stats must be identical to fresh ones");
        assert_eq!(stats_to_json(stats_a).render(), stats_to_json(stats_b).render());
    }

    let dones: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::RunDone { id, cache, .. } => Some((id.clone(), *cache)),
            _ => None,
        })
        .collect();
    assert_eq!(dones.len(), 2);
    assert_eq!((dones[0].1.hits, dones[0].1.misses), (0, 2));
    // 100% of the repeat submission is cache-served (the CI smoke asserts
    // the >= 90% acceptance floor on this same protocol surface).
    assert_eq!((dones[1].1.hits, dones[1].1.misses), (2, 0));
    assert_eq!(dones[1].1.entries, 2);
}

#[test]
fn malformed_lines_get_typed_errors_and_the_session_continues() {
    let server = Server::new(DirectRunner, ServeOptions::default()).unwrap();
    let input = format!(
        "this is not json\n{{\"type\":\"launch\"}}\n\n{}{}\n",
        submit_line("ok", &[point(BenchmarkId::Sssp, Scheduler::Hints, 1)], false),
        "{\"type\":\"shutdown\"}",
    );
    let (summary, events) = pipe(&server, input);
    assert!(summary.saw_protocol_error);
    assert!(!summary.saw_invalid_point && !summary.saw_run_failure);

    // Two typed errors (bad JSON, unknown type), then a full successful
    // submission, then the shutdown acknowledgement: the connection
    // survived both bad lines.
    assert!(
        matches!(&events[0], Event::Protocol(e) if e.message.contains("byte")),
        "{:?}",
        events[0]
    );
    assert!(
        matches!(&events[1], Event::Protocol(e) if e.message.contains("launch")),
        "{:?}",
        events[1]
    );
    assert!(matches!(&events[2], Event::Accepted { points: 1, .. }));
    assert!(matches!(events.last().unwrap(), Event::Bye));
    assert_eq!(finished_stats(&events).len(), 1);
}

#[test]
fn an_over_long_line_gets_one_typed_error_and_the_session_continues() {
    let server = Server::new(DirectRunner, ServeOptions::default()).unwrap();
    let input = format!("{}\n{{\"type\":\"stats\"}}\n", "x".repeat(2 * MAX_LINE_BYTES));
    let (summary, events) = pipe(&server, input);
    assert!(summary.saw_protocol_error);
    assert_eq!(events.len(), 2, "{events:?}");
    assert!(
        matches!(&events[0], Event::Protocol(e) if e.code == ErrorCode::LineTooLong),
        "{:?}",
        events[0]
    );
    assert!(matches!(events[1], Event::ServerStats { .. }), "{:?}", events[1]);
}

#[test]
fn failing_points_fail_typed_without_poisoning_the_matrix() {
    // A lost task wake wedges the run into a deadlock, which the runner
    // reports as a typed Sim failure (see PR 8's taxonomy).
    let mut bad = point(BenchmarkId::Sssp, Scheduler::Hints, 4);
    bad.fault = Some("lost-wake:ts=1@0".parse().unwrap());
    let good = point(BenchmarkId::Sssp, Scheduler::Hints, 2);
    let server = Server::new(DirectRunner, ServeOptions::default()).unwrap();
    // Submit the mixed matrix twice: the second submission must serve the
    // memoized failure and the cached success without re-simulating.
    let input = format!(
        "{}{}",
        submit_line("mix", &[bad, good], false),
        submit_line("again", &[bad, good], false)
    );
    let (summary, events) = pipe(&server, input);

    let failed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::PointFailed { index, error, .. } => Some((*index, error.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(failed.len(), 2, "{events:?}");
    assert_eq!(failed[0].0, 0);
    assert_eq!(failed[0].1.kind, FailureKind::Sim);
    assert!(failed[0].1.message.contains("sssp under Hints at 4 cores failed"), "{failed:?}");
    assert_eq!(failed[1].1, failed[0].1, "the memoized failure is served verbatim");
    assert!(summary.saw_run_failure);
    assert!(!summary.saw_invalid_point && !summary.saw_protocol_error);
    // The good point still ran and matches its direct result.
    let finished = finished_stats(&events);
    assert_eq!(finished.len(), 2);
    assert_eq!(finished[0].2, run_point_result(good, false).unwrap());
    let dones: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::RunDone { ok, failed, cache, .. } => Some((*ok, *failed, *cache)),
            _ => None,
        })
        .collect();
    assert_eq!(dones.len(), 2);
    assert_eq!((dones[0].0, dones[0].1), (1, 1));
    assert_eq!((dones[1].0, dones[1].1), (1, 1));
    // Second pass: both points are hits (one memoized failure, one cached
    // success), nothing is re-simulated.
    assert_eq!((dones[1].2.hits, dones[1].2.misses), (2, 0));
}

#[test]
fn progress_mode_streams_gvt_without_perturbing_the_result() {
    let p = point(BenchmarkId::Des, Scheduler::Hints, 4);
    let options = ServeOptions { progress_every: 8, ..ServeOptions::default() };
    let server = Server::new(DirectRunner, options).unwrap();
    let (_, events) = pipe(&server, submit_line("prog", &[p], true));

    let gvts: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Progress { gvt, .. } => Some(*gvt),
            _ => None,
        })
        .collect();
    assert!(!gvts.is_empty(), "a des run at tiny scale advances GVT many times: {events:?}");
    assert!(gvts.windows(2).all(|w| w[0] <= w[1]), "GVT is monotonic: {gvts:?}");

    let finished = finished_stats(&events);
    assert_eq!(finished.len(), 1);
    assert_eq!(finished[0].1, CacheSource::Fresh);
    assert_eq!(finished[0].2, run_point_result(p, false).unwrap());
}

#[test]
fn disk_cache_survives_a_server_restart() {
    let dir = temp_dir("restart");
    let points = [point(BenchmarkId::Bfs, Scheduler::Hints, 2)];
    let options = ServeOptions { cache_dir: Some(dir.clone()), ..ServeOptions::default() };
    {
        let server = Server::new(DirectRunner, options.clone()).unwrap();
        let (_, events) = pipe(&server, submit_line("warm", &points, false));
        assert_eq!(finished_stats(&events)[0].1, CacheSource::Fresh);
    }
    // A brand-new server (empty memory) over the same directory serves the
    // same submission from disk, byte-identically, simulating nothing.
    let server = Server::new(PanicRunner, options).unwrap();
    let (_, events) = pipe(&server, submit_line("cold", &points, false));
    let finished = finished_stats(&events);
    assert_eq!(finished[0].1, CacheSource::Disk);
    assert_eq!(finished[0].2, run_point_result(points[0], false).unwrap());
    match events.last().unwrap() {
        Event::RunDone { cache, .. } => {
            assert_eq!((cache.hits, cache.misses, cache.disk_hits), (1, 0, 1));
        }
        other => panic!("expected run-done, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();

    /// A runner that must never be called: proves the restarted server
    /// answered purely from disk.
    struct PanicRunner;
    impl PointRunner for PanicRunner {
        fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome> {
            panic!("the disk-served session must not simulate, got {points:?}");
        }
    }
}

#[test]
fn concurrent_overlapping_clients_simulate_each_point_exactly_once() {
    let shared = [
        point(BenchmarkId::Sssp, Scheduler::Hints, 2),
        point(BenchmarkId::Bfs, Scheduler::Hints, 2),
    ];
    let only_a = point(BenchmarkId::Des, Scheduler::Hints, 2);
    let only_b = point(BenchmarkId::Sssp, Scheduler::Random, 2);
    let matrix_a = vec![shared[0], shared[1], only_a];
    let matrix_b = vec![shared[1], shared[0], only_b];

    let runner = CountingRunner::new();
    let counts_handle = runner.counts.clone();
    let server = Server::new(runner, ServeOptions::default()).unwrap();
    let tcp = TcpServer::spawn("127.0.0.1:0", server).unwrap();
    let addr = tcp.local_addr();

    let run_client = |id: String, matrix: Vec<RunPoint>| {
        move || -> Vec<(u64, CacheSource, RunStats)> {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writer.write_all(submit_line(&id, &matrix, false).as_bytes()).unwrap();
            let mut finished = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server hung up early");
                match parse_event(line.trim_end()).unwrap() {
                    Event::PointFinished { index, source, stats, .. } => {
                        finished.push((index, source, stats));
                    }
                    Event::PointFailed { error, .. } => panic!("unexpected failure: {error:?}"),
                    Event::RunDone { .. } => break,
                    _ => {}
                }
            }
            writer.write_all(b"{\"type\":\"shutdown\"}\n").unwrap();
            finished
        }
    };

    let (got_a, got_b) = std::thread::scope(|scope| {
        let a = scope.spawn(run_client("a".into(), matrix_a.clone()));
        let b = scope.spawn(run_client("b".into(), matrix_b.clone()));
        (a.join().unwrap(), b.join().unwrap())
    });

    // Every result, whichever client owned the simulation, matches the
    // direct run bit-for-bit.
    for (matrix, got) in [(&matrix_a, &got_a), (&matrix_b, &got_b)] {
        assert_eq!(got.len(), matrix.len());
        for (index, _, stats) in got {
            let direct = run_point_result(matrix[*index as usize], false).unwrap();
            assert_eq!(*stats, direct);
        }
    }

    // The union of simulated points has no duplicates: four distinct keys,
    // each simulated exactly once despite the overlap.
    tcp.shutdown();
    let counts = counts_handle.lock().unwrap();
    assert_eq!(counts.len(), 4, "{counts:?}");
    for (key, count) in counts.iter() {
        assert_eq!(*count, 1, "point {key} simulated more than once");
    }
}

/// A small deterministic family of points for the canonical-key property:
/// rich enough to cover every field the key must separate.
fn point_family() -> Vec<RunPoint> {
    let mut family = Vec::new();
    for (i, app) in [BenchmarkId::Sssp, BenchmarkId::Bfs, BenchmarkId::Des].iter().enumerate() {
        for (j, scheduler) in [Scheduler::Hints, Scheduler::Random].iter().enumerate() {
            for cores in [1u32, 2] {
                for seed in [0xF1605u64, 7] {
                    let mut p = point(*app, *scheduler, cores);
                    p.seed = seed;
                    if (i + j) % 2 == 0 {
                        p.noc = swarm_types::NocModel::Contention;
                    }
                    family.push(p);
                }
            }
        }
    }
    family
}

#[test]
fn canonical_key_equality_is_point_equality_across_the_family() {
    let family = point_family();
    for a in &family {
        for b in &family {
            assert_eq!(
                a == b,
                a.canon_key() == b.canon_key(),
                "keys must separate exactly the distinct points: {a:?} vs {b:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pairs from the family: equal wire encodings iff equal keys,
    /// and every point survives the protocol round trip unchanged.
    #[test]
    fn canon_keys_and_wire_round_trips_agree(ai in 0usize..24, bi in 0usize..24) {
        let family = point_family();
        let (a, b) = (family[ai % family.len()], family[bi % family.len()]);
        prop_assert_eq!(a == b, a.canon_key() == b.canon_key());
        let line = render_request(&Request::Submit(SubmitRequest {
            id: "rt".into(),
            points: vec![a, b],
            progress: false,
        }));
        match swarm_serve::proto::parse_request(&line).unwrap() {
            Request::Submit(back) => prop_assert_eq!(back.points, vec![a, b]),
            other => prop_assert!(false, "expected submit, got {:?}", other),
        }
    }
}

//! `serve-mixed`: a closed loop against a loopback `swarm_serve::TcpServer`.
//!
//! Two client connections (never more than the machine's hardware threads)
//! from this process each wait for `run-complete` before sending their next
//! submit. A submit asks for 1–3 tiny-scale points drawn by seed from a
//! working set that set-up simulates first; about one submit in ten adds one
//! never-seen point, a miss that simulates and then inserts into the cache.
//! The working set fits the memory tier, so nothing is evicted. A hit only
//! reads the cache; a miss simulates and writes it.
//!
//! The client writes each submit as one buffer with `TCP_NODELAY` set, so any
//! transport stall it measures belongs to the server, and it times its own
//! event parsing (`serve.client_parse_us`) so that cost is not blamed on the
//! server.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_bench::{FailurePolicy, Pool, RunError, RunRequest};
use swarm_serve::proto::render_request;
use swarm_serve::{
    parse_event, CacheReport, Event, FailureKind, PointFailure, PointOutcome, PointRunner, Request,
    RunPoint, ServeOptions, Server, SubmitRequest, TcpServer,
};
use swarm_sim::RunStats;
use swarm_types::{hash64, key_of, CanonKey};

use crate::layers::{self, Counts};
use crate::trace::{now_ns, Agg, Tracer};
use crate::{median, percentile, secs, Config, Metric, Outcome};

/// Apps the working set draws from (all fast at tiny scale).
const APPS: [BenchmarkId; 6] = [
    BenchmarkId::Bfs,
    BenchmarkId::Sssp,
    BenchmarkId::Des,
    BenchmarkId::Color,
    BenchmarkId::Kmeans,
    BenchmarkId::Nocsim,
];

/// Core counts the working set draws from.
const CORES: [u32; 3] = [1, 2, 4];

/// Size of the working set set-up simulates.
const POOL_POINTS: u64 = 32;

/// Seeds of never-seen points have this bit set; working-set seeds never do.
const FRESH_SEED_BIT: u64 = 1 << 40;

/// Submits each client makes per round of the plain run.
const ROUND_SUBMITS: u64 = 10;

/// Latency samples the plain run collects at least, so that its p99 has at
/// least ten samples beyond it.
const MIN_SAMPLES: usize = 1100;

/// Submits each client makes in one traced session.
const TRACED_SUBMITS: u64 = 40;

/// How many times set-up is measured (its median is reported).
const SETUP_REPEATS: usize = 5;

/// How long a client waits for the next event before calling the server
/// hung.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Client connections: two, but no more than the machine's hardware threads.
fn clients() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2) as u64
}

fn point_from_hash(h: u64, seed: u64) -> RunPoint {
    let app = APPS[(h % APPS.len() as u64) as usize];
    let scheduler = Scheduler::ALL[((h >> 8) % Scheduler::ALL.len() as u64) as usize];
    let cores = CORES[((h >> 16) % CORES.len() as u64) as usize];
    RunPoint { seed, ..RunPoint::new(AppSpec::coarse(app), scheduler, cores, InputScale::Tiny) }
}

/// The working set: distinct tiny points, each with its own input seed.
pub fn working_set(seed: u64, short: bool) -> Vec<RunPoint> {
    let n = if short { 4 } else { POOL_POINTS };
    (0..n)
        .map(|k| {
            let h = hash64(seed ^ hash64(k + 1));
            point_from_hash(h, h & 0xFFFF_FFFF)
        })
        .collect()
}

/// The points of submit `j` of client `client`: 1–3 working-set points,
/// plus one never-seen point in about one submit of ten.
pub fn submit_points(seed: u64, client: u64, j: u64, set: &[RunPoint]) -> Vec<RunPoint> {
    let h = hash64(seed ^ hash64((client << 48) ^ j ^ 0x5E12_7E00));
    let n = 1 + h % 3;
    let mut points: Vec<RunPoint> =
        (0..n).map(|m| set[(hash64(h ^ (m + 1)) % set.len() as u64) as usize]).collect();
    if hash64(h ^ 0xF2E5).is_multiple_of(10) {
        let g = hash64(h ^ 0x0E11);
        points.push(point_from_hash(g, FRESH_SEED_BIT | (g & 0xFFFF_FFFF)));
    }
    points
}

fn is_fresh(point: &RunPoint) -> bool {
    point.seed & FRESH_SEED_BIT != 0
}

fn to_request(point: &RunPoint) -> RunRequest {
    RunRequest {
        spec: point.spec,
        scheduler: point.scheduler,
        cores: point.cores,
        scale: point.scale,
        seed: point.seed,
        fault: point.fault,
        noc: point.noc,
    }
}

/// The runner `swarm serve` schedules on: the work-sharing pool, where one
/// bad point must not skip its batch-mates.
struct PoolRunner {
    pool: Pool,
}

impl PointRunner for PoolRunner {
    fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome> {
        let requests: Vec<RunRequest> = points.iter().map(to_request).collect();
        self.pool
            .try_run_matrix(&requests)
            .into_iter()
            .map(|result| {
                result.map_err(|err| {
                    let kind = match err {
                        RunError::InvalidPoint { .. } => FailureKind::InvalidPoint,
                        RunError::Sim { .. } => FailureKind::Sim,
                        RunError::Panicked { .. } => FailureKind::Panicked,
                        RunError::Skipped { .. } => FailureKind::Skipped,
                    };
                    PointFailure { kind, message: err.to_string() }
                })
            })
            .collect()
    }
}

fn pool_runner() -> PoolRunner {
    PoolRunner { pool: Pool::new(0).with_policy(FailurePolicy::CollectAll) }
}

/// What the traced server's runners saw.
#[derive(Default)]
struct RunnerLog {
    simulate_ns: u64,
    points: u64,
    tracer: Tracer,
    counts: Counts,
    simulated: Vec<(RunPoint, RunStats)>,
}

/// Decorator over the server's `PointRunner`: times every batch and counts
/// the points the server asked it to simulate.
struct TimedRunner<R> {
    inner: R,
    log: Arc<Mutex<RunnerLog>>,
}

impl<R: PointRunner> PointRunner for TimedRunner<R> {
    fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome> {
        let start = now_ns();
        let outcomes = self.inner.run_batch(points);
        let end = now_ns();
        let mut log = self.log.lock().expect("no runner panics while holding the log");
        log.simulate_ns += end - start;
        log.points += points.len() as u64;
        log.tracer.record("serve.simulate", &format!("{} points", points.len()), None, start, end);
        outcomes
    }
}

/// Simulates each point with every layer decorator attached.
struct TracedRunner {
    log: Arc<Mutex<RunnerLog>>,
}

impl PointRunner for TracedRunner {
    fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome> {
        points
            .iter()
            .map(|point| {
                let mut log = self.log.lock().expect("no runner panics while holding the log");
                let RunnerLog { tracer, counts, simulated, .. } = &mut *log;
                let result = layers::run_traced(to_request(point), false, tracer, counts, None);
                if let Ok(stats) = &result {
                    simulated.push((*point, stats.clone()));
                }
                result.map_err(|message| PointFailure { kind: FailureKind::Sim, message })
            })
            .collect()
    }
}

/// One submit as the client saw it; times in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
struct Sample {
    start: u64,
    latency: u64,
    send: u64,
    accept: u64,
    stream: u64,
    parse: u64,
    events: u64,
    bytes: u64,
    miss: bool,
}

/// The first stats served for each point; every later answer must match.
type Served = Mutex<HashMap<CanonKey, RunStats>>;

/// One protocol client on its own connection.
struct Client {
    id: u64,
    next: u64,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    broken: bool,
}

impl Client {
    fn connect(addr: SocketAddr, id: u64) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Client {
            id,
            next: 0,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            broken: false,
        })
    }

    /// Write one request line in a single write.
    fn send(&mut self, request: &Request) -> Result<u64, String> {
        let mut wire = render_request(request);
        wire.push('\n');
        self.writer.write_all(wire.as_bytes()).map_err(|e| format!("write failed: {e}"))?;
        Ok(wire.len() as u64)
    }

    /// Read and parse the next event, adding its size and parse time.
    fn event(&mut self, sample: &mut Sample) -> Result<Event, String> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("the server closed the connection".into());
        }
        sample.bytes += n as u64;
        sample.events += 1;
        let start = now_ns();
        let event = parse_event(self.line.trim_end());
        sample.parse += now_ns() - start;
        event.map_err(|e| format!("unparseable event: {e}"))
    }

    /// Submit `points` under `id` and follow the events to `run-complete`,
    /// checking the protocol and every served result.
    fn submit(&mut self, id: &str, points: &[RunPoint], served: &Served) -> Result<Sample, String> {
        let mut sample = Sample::default();
        let submit = Request::Submit(SubmitRequest {
            id: id.to_string(),
            points: points.to_vec(),
            progress: false,
        });
        let t0 = now_ns();
        sample.bytes += self.send(&submit)?;
        let t1 = now_ns();
        let mut accepted = None;
        let mut finished = 0;
        loop {
            let event = self.event(&mut sample)?;
            let now = now_ns();
            match event {
                Event::Accepted { id: e, points: n }
                    if e == id && n == points.len() as u64 && accepted.is_none() =>
                {
                    accepted = Some(now);
                }
                Event::PointStarted { id: e, .. } if e == id && accepted.is_some() => {}
                Event::PointFinished { id: e, index, stats, .. }
                    if e == id && accepted.is_some() && (index as usize) < points.len() =>
                {
                    let key = key_of(&points[index as usize]);
                    let mut served = served.lock().expect("no client panics holding the map");
                    match served.get(&key) {
                        Some(first) if *first != stats => {
                            return Err(format!(
                                "{id}: point {index} differs from its first answer"
                            ))
                        }
                        Some(_) => {}
                        None => {
                            served.insert(key, stats);
                        }
                    }
                    finished += 1;
                }
                Event::RunDone { id: e, ok, failed, cache } if e == id && accepted.is_some() => {
                    if failed > 0 {
                        return Err(format!("{id}: run-failed with {failed} failed points"));
                    }
                    if ok != points.len() as u64 || finished != points.len() {
                        return Err(format!("{id}: run-complete after {finished} of {ok} points"));
                    }
                    let t2 = accepted.expect("checked above");
                    sample.start = t0;
                    sample.latency = now - t0;
                    sample.send = t1 - t0;
                    sample.accept = t2 - t1;
                    sample.stream = now - t2;
                    sample.miss = cache.misses > 0;
                    return Ok(sample);
                }
                other => return Err(format!("{id}: protocol violation: unexpected {other:?}")),
            }
        }
    }

    /// Ask for the server's lifetime cache counters.
    fn stats(&mut self) -> Result<CacheReport, String> {
        self.send(&Request::Stats)?;
        match self.event(&mut Sample::default())? {
            Event::ServerStats { cache, .. } => Ok(cache),
            other => Err(format!("protocol violation: expected stats, got {other:?}")),
        }
    }

    /// Say goodbye so the server's handler thread ends.
    fn close(mut self) {
        if self.send(&Request::Shutdown).is_ok() {
            let _ = self.event(&mut Sample::default());
        }
    }
}

/// A running server with its clients.
///
/// Field order matters: dropping the clients closes their connections,
/// which the server's shutdown waits for.
struct Session {
    clients: Vec<Client>,
    tcp: TcpServer,
}

impl Session {
    /// Start a server on `runner`, connect the clients and warm the cache
    /// with the working set. Returns the session and its set-up seconds.
    fn start<R: PointRunner + 'static>(
        runner: R,
        set: &[RunPoint],
        served: &Served,
    ) -> Result<(Session, f64), String> {
        let start = Instant::now();
        let options = ServeOptions { mem_entries: 1 << 16, ..ServeOptions::default() };
        let server = Server::new(runner, options).map_err(|e| format!("server: {e}"))?;
        let tcp = TcpServer::spawn("127.0.0.1:0", server).map_err(|e| format!("bind: {e}"))?;
        let addr = tcp.local_addr();
        let clients = (0..clients())
            .map(|id| Client::connect(addr, id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut session = Session { clients, tcp };
        session.clients[0].submit("warm-up", set, served)?;
        Ok((session, secs(start)))
    }

    /// One closed-loop round: every working client makes `submits` submits
    /// on its own thread. Returns each submit's outcome and, when `traced`,
    /// the clients' spans.
    fn round(
        &mut self,
        submits: u64,
        seed: u64,
        set: &[RunPoint],
        served: &Served,
        traced: bool,
    ) -> (Vec<Result<Sample, String>>, Tracer) {
        let results: Vec<(Vec<Result<Sample, String>>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .filter(|c| !c.broken)
                .map(|client| {
                    scope.spawn(move || {
                        let mut results = Vec::new();
                        let mut tracer = Tracer::default();
                        for _ in 0..submits {
                            let points = submit_points(seed, client.id, client.next, set);
                            let id = format!("c{}-r{}", client.id, client.next);
                            client.next += 1;
                            let result = client.submit(&id, &points, served);
                            if let (true, Ok(s)) = (traced, &result) {
                                record_request(&mut tracer, &id, s);
                            }
                            client.broken = result.is_err();
                            results.push(result);
                            if client.broken {
                                break;
                            }
                        }
                        (results, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
        });
        let mut all = Vec::new();
        let mut tracer = Tracer::default();
        for (r, t) in results {
            all.extend(r);
            tracer.absorb(t);
        }
        (all, tracer)
    }

    fn working(&self) -> bool {
        self.clients.iter().any(|c| !c.broken)
    }

    fn stop(self) {
        for client in self.clients {
            client.close();
        }
        self.tcp.shutdown();
    }
}

/// The request span and its stage children, with the parse aggregate.
fn record_request(tracer: &mut Tracer, id: &str, s: &Sample) {
    let t0 = s.start;
    let end = t0 + s.latency;
    let request = tracer.record("serve.request", id, None, t0, end);
    tracer.record("serve.send", id, Some(request), t0, t0 + s.send);
    tracer.record("serve.accept", id, Some(request), t0 + s.send, t0 + s.send + s.accept);
    tracer.record("serve.stream", id, Some(request), end - s.stream, end);
    tracer.aggregate(request, "serve.client_parse", Agg { calls: s.events, ns: s.parse });
}

/// Record each submit's outcome on `out`; return the successful samples.
fn tally(results: Vec<Result<Sample, String>>, out: &mut Outcome) -> Vec<Sample> {
    let mut samples = Vec::new();
    for result in results {
        match result {
            Ok(s) => {
                out.check(None);
                samples.push(s);
            }
            Err(e) => out.check(Some(e)),
        }
    }
    samples
}

/// The cache counters this session must report: the working set missed
/// once, each never-seen point missed once, everything else hit.
fn check_cache(
    session: &mut Session,
    seed: u64,
    set: &[RunPoint],
    out: &mut Outcome,
) -> CacheReport {
    let (mut hits, mut misses) = (0u64, set.len() as u64);
    for client in &session.clients {
        for j in 0..client.next {
            for point in submit_points(seed, client.id, j, set) {
                if is_fresh(&point) {
                    misses += 1;
                } else {
                    hits += 1;
                }
            }
        }
    }
    let report = match session.clients[0].stats() {
        Ok(report) => report,
        Err(e) => {
            out.check(Some(e));
            return CacheReport::default();
        }
    };
    out.check((report.hits != hits || report.misses != misses || report.evictions != 0).then(
        || {
            format!(
                "server counted {} hits / {} misses / {} evictions, expected {hits} / {misses} / 0",
                report.hits, report.misses, report.evictions
            )
        },
    ));
    report
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The plain run: end-to-end metrics.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let set = working_set(cfg.seed, cfg.short);
    let served = Served::default();
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        match Session::start(pool_runner(), &set, &served) {
            Ok((s, setup)) => {
                setups.push(setup);
                if let Some(previous) = session.replace(s) {
                    Session::stop(previous);
                }
            }
            Err(e) => out.check(Some(e)),
        }
    }
    let Some(mut session) = session else { return out };

    let (round_submits, min_rounds) = if cfg.short { (3, 1) } else { (ROUND_SUBMITS, 2) };
    let mut rounds = 0;
    let mut samples = Vec::new();
    let cpu_start = crate::cpu_seconds();
    let start = Instant::now();
    // Past the configured time, keep going (up to three times as long) until
    // the p99 has ten samples beyond it.
    let more = |rounds: usize, samples: usize| {
        let t = secs(start);
        rounds < min_rounds || (t < cfg.seconds || samples < MIN_SAMPLES) && t < 3.0 * cfg.seconds
    };
    while session.working() && more(rounds, samples.len()) {
        let (results, _) = session.round(round_submits, cfg.seed, &set, &served, false);
        samples.extend(tally(results, &mut out));
        rounds += 1;
    }
    let total = secs(start);
    let cpu = crate::cpu_seconds() - cpu_start;
    check_cache(&mut session, cfg.seed, &set, &mut out);
    session.stop();

    // The digest: the working set, then the never-seen points of the
    // submits every run makes (the first `min_rounds` rounds).
    let served = served.into_inner().expect("client threads are joined");
    for point in &set {
        out.digest.feed_debug(&served.get(&key_of(point)));
    }
    for client in 0..clients() {
        for j in 0..round_submits * min_rounds as u64 {
            for point in submit_points(cfg.seed, client, j, &set).iter().filter(|p| is_fresh(p)) {
                out.digest.feed_debug(&served.get(&key_of(point)));
            }
        }
    }

    let latencies: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    out.time("wall_s", total / rounds.max(1) as f64, "s");
    out.time("cpu_s", cpu / rounds.max(1) as f64, "s");
    out.time("setup_s", median(&setups), "s");
    out.time("req_per_s", samples.len() as f64 / total, "1/s");
    out.time("latency_p50_ms", percentile(&latencies, 50.0), "ms");
    out.time("latency_p99_ms", percentile(&latencies, 99.0), "ms");
    out.notes.push(format!(
        "{rounds} rounds of {round_submits} submits per client; p99 over {} samples, {} beyond it",
        latencies.len(),
        crate::beyond(&latencies, 99.0)
    ));
    out
}

/// One traced iteration: the same fixed closed loop against an untraced
/// and a traced server (fresh cache each), per-layer metrics from the
/// traced one, and every point the traced server simulated checked against
/// an untraced twin.
pub fn traced_iteration(cfg: &Config, out: &mut Outcome) -> Vec<Metric> {
    let set = working_set(cfg.seed, cfg.short);
    let submits = if cfg.short { 6 } else { TRACED_SUBMITS };

    // One map for both servers: the traced one must answer exactly as the
    // untraced one did.
    let served = Served::default();
    let plain_wall = match Session::start(pool_runner(), &set, &served) {
        Ok((mut session, _)) => {
            let start = Instant::now();
            let (results, _) = session.round(submits, cfg.seed, &set, &served, false);
            let wall = secs(start);
            tally(results, out);
            check_cache(&mut session, cfg.seed, &set, out);
            session.stop();
            wall
        }
        Err(e) => {
            out.check(Some(e));
            f64::NAN
        }
    };

    let log = Arc::new(Mutex::new(RunnerLog::default()));
    let runner =
        TimedRunner { inner: TracedRunner { log: Arc::clone(&log) }, log: Arc::clone(&log) };
    let (mut session, _) = match Session::start(runner, &set, &served) {
        Ok(started) => started,
        Err(e) => {
            out.check(Some(e));
            return Vec::new();
        }
    };
    // Set-up's warm-up simulations are not part of the measured loop.
    *log.lock().expect("the dispatcher is idle") = RunnerLog::default();
    let start = Instant::now();
    let (results, mut tracer) = session.round(submits, cfg.seed, &set, &served, true);
    let traced_wall = secs(start);
    let samples = tally(results, out);
    let cache = check_cache(&mut session, cfg.seed, &set, out);
    session.stop();
    let log = std::mem::take(&mut *log.lock().expect("the server has stopped"));

    for (point, stats) in &log.simulated {
        let twin = layers::run_plain(to_request(point), false);
        out.check(match twin {
            Ok(twin) if twin == *stats => None,
            Ok(_) => Some(format!("{point:?}: traced RunStats differ from untraced")),
            Err(e) => Some(e),
        });
        out.digest.feed_debug(stats);
    }

    let mut metrics = layers::layer_metrics(&log.tracer, &log.counts);
    let mut m = Outcome::default();
    let stage = |name: &str| -> Vec<f64> {
        tracer.durations_ns(name).into_iter().map(|ns| ns as f64).collect()
    };
    let n = samples.len().max(1) as f64;
    m.time("serve.send_us", median(&stage("serve.send")) / 1e3, "us");
    m.time("serve.accept_ms", median(&stage("serve.accept")) / 1e6, "ms");
    m.time("serve.stream_ms", median(&stage("serve.stream")) / 1e6, "ms");
    m.count(
        "serve.events_per_request",
        samples.iter().map(|s| s.events).sum::<u64>() as f64 / n,
        "count",
    );
    m.count(
        "serve.bytes_per_request",
        samples.iter().map(|s| s.bytes).sum::<u64>() as f64 / n,
        "B",
    );
    let parse: Vec<f64> = samples.iter().map(|s| s.parse as f64 / 1e3).collect();
    m.time("serve.client_parse_us", median(&parse), "us");
    m.time("serve.simulate_s", log.simulate_ns as f64 / 1e9, "s");
    m.count("serve.points_simulated", log.points as f64, "count");
    let latency = |miss: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.miss == miss).map(|s| ms(s.latency)).collect()
    };
    m.time("serve.miss_latency_p50_ms", median(&latency(true)), "ms");
    m.time("serve.hit_latency_p50_ms", median(&latency(false)), "ms");
    m.count("serve.cache_hits", cache.hits as f64, "count");
    m.count("serve.cache_misses", cache.misses as f64, "count");
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    m.count("serve.hit_rate", cache.hits as f64 / lookups, "fraction");
    m.time("trace.overhead_frac", traced_wall / plain_wall - 1.0, "fraction");
    metrics.extend(m.metrics);
    if out.trace.is_empty() {
        tracer.absorb(log.tracer);
        out.trace = tracer;
    }
    metrics
}

/// The traced run.
pub fn run_traced(cfg: &Config) -> Outcome {
    crate::repeat_traced(cfg, |out| traced_iteration(cfg, out))
}

//! The job server: pipe mode, TCP mode, and the shared scheduling core.
//!
//! One [`Server`] owns the [`ResultCache`], the [`FairQueue`], and the
//! in-flight bookkeeping; any number of client handlers (one per pipe or
//! TCP connection) submit work to it. A dedicated dispatcher thread pulls
//! fair batches off the queue and is the only caller of the
//! [`PointRunner`]: every batch, progress points included, runs through
//! one [`run_batch`](PointRunner::run_batch). Handlers block on a condvar
//! until their points complete.
//!
//! Every queued point has one completion slot, shared by the request that
//! queued it and every request waiting on the same point. The dispatcher
//! fills the slot when the run ends, so a reader never depends on the
//! cache still holding the outcome when it wakes.
//!
//! Cross-client deduplication: when a point is already in flight for one
//! client, a second client submitting the same point *waits* on its slot
//! instead of re-simulating — the cache-correctness tests assert every
//! distinct point is simulated at most once even under concurrent
//! overlapping matrices.
//!
//! Results and failures share one memo, the cache's LRU-bounded memory
//! tier: runs are deterministic, so a resubmitted failure is a hit, and
//! `--mem-entries` bounds both.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use swarm_types::config::GVT_EPOCH;
use swarm_types::{CanonKey, Canonical, FastHashMap};

use crate::cache::ResultCache;
use crate::exec::{PointOutcome, PointRunner};
use crate::point::RunPoint;
use crate::proto::{
    parse_request, render_event, CacheReport, CacheSource, ErrorCode, Event, ProtoError, Request,
};
use crate::queue::FairQueue;

/// Max points taken from one client's lane per dispatch batch.
const INFLIGHT_PER_CLIENT: usize = 4;
/// Max points per dispatch batch across all clients.
const BATCH_POINTS: usize = 16;
/// A `progress:true` submission gets one `progress` event per this many
/// GVT updates. GVT advances every `GVT_EPOCH` cycles, so the events are
/// read off the finished run's `gvt_updates` count.
const PROGRESS_EVERY: u64 = 64;

/// The result cache's settings for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// In-memory cache capacity (entries).
    pub mem_entries: usize,
    /// On-disk cache directory (second tier) — `None` disables it.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { mem_entries: 1024, cache_dir: None }
    }
}

/// Where the dispatcher publishes one in-flight point's outcome.
type Slot = OnceLock<PointOutcome>;

struct Job {
    point: RunPoint,
    key: CanonKey,
    slot: Arc<Slot>,
}

struct State {
    cache: ResultCache,
    /// The completion slot of every queued or running point.
    in_flight: FastHashMap<CanonKey, Arc<Slot>>,
    queue: FairQueue<Job>,
    clients: u64,
    next_client: u64,
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work is queued (or on shutdown): wakes the dispatcher.
    work_cv: Condvar,
    /// Signalled when any point completes: wakes waiting handlers.
    done_cv: Condvar,
}

impl Shared {
    /// Memoize `job`'s outcome, fill its slot and wake the waiters.
    fn complete(&self, job: Job, outcome: PointOutcome) {
        let mut state = self.state.lock().unwrap();
        state.in_flight.remove(&job.key);
        state.cache.insert(job.key, outcome.clone());
        let _ = job.slot.set(outcome);
        drop(state);
        self.done_cv.notify_all();
    }
}

/// How a submitted point will be satisfied for this request.
///
/// `Ready` holds the full outcome inline; one resolution exists per point
/// per submission, so the variant size skew doesn't justify a box.
#[allow(clippy::large_enum_variant)]
enum Resolution {
    /// Memoized (a result or a failure): served immediately.
    Ready(PointOutcome, CacheSource),
    /// In flight: wait for the slot. `owned` when this request queued the
    /// simulation.
    Pending { slot: Arc<Slot>, owned: bool },
}

/// The scheduling core shared by all transports.
pub struct Server<R: PointRunner> {
    runner: Arc<R>,
    shared: Arc<Shared>,
}

/// What a pipe-mode session saw, for exit-code mapping in `swarm_bench`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeSummary {
    /// At least one line failed to parse as a request.
    pub saw_protocol_error: bool,
    /// At least one submitted point was invalid.
    pub saw_invalid_point: bool,
    /// At least one point failed at simulation time.
    pub saw_run_failure: bool,
}

impl<R: PointRunner + 'static> Server<R> {
    /// Create a server scheduling on `runner`.
    ///
    /// # Errors
    ///
    /// Fails only if the cache directory cannot be created.
    pub fn new(runner: R, options: ServeOptions) -> io::Result<Server<R>> {
        let cache = ResultCache::new(options.mem_entries, options.cache_dir)?;
        Ok(Server {
            runner: Arc::new(runner),
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    cache,
                    in_flight: FastHashMap::default(),
                    queue: FairQueue::new(),
                    clients: 0,
                    next_client: 0,
                    stop: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
        })
    }

    fn spawn_dispatcher(&self) -> JoinHandle<()> {
        let shared = Arc::clone(&self.shared);
        let runner = Arc::clone(&self.runner);
        std::thread::spawn(move || loop {
            let batch = {
                let mut state = shared.state.lock().unwrap();
                loop {
                    if state.stop && state.queue.is_empty() {
                        return;
                    }
                    let batch = state.queue.next_batch(INFLIGHT_PER_CLIENT, BATCH_POINTS);
                    if !batch.is_empty() {
                        break batch;
                    }
                    state = shared.work_cv.wait(state).unwrap();
                }
            };
            let points: Vec<RunPoint> = batch.iter().map(|job| job.point).collect();
            for (job, outcome) in batch.into_iter().zip(runner.run_batch(&points)) {
                shared.complete(job, outcome);
            }
        })
    }

    /// Stop and join the dispatcher, leaving the server ready to spawn
    /// another (a [`Server`] serves pipe sessions one after another).
    fn stop_dispatcher(&self, handle: JoinHandle<()>) {
        self.shared.state.lock().unwrap().stop = true;
        self.shared.work_cv.notify_all();
        let _ = handle.join();
        self.shared.state.lock().unwrap().stop = false;
    }

    /// Serve one session over an arbitrary reader/writer pair (stdin and
    /// stdout in `swarm serve` pipe mode). Returns when the input is
    /// exhausted or the client sends `shutdown`.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors writing events to `writer`.
    pub fn serve_pipe(
        &self,
        reader: impl BufRead,
        mut writer: impl Write,
    ) -> io::Result<PipeSummary> {
        let dispatcher = self.spawn_dispatcher();
        let client = self.register_client();
        let mut summary = PipeSummary::default();
        let result = self.session_loop(client, reader, &mut writer, &mut summary);
        self.unregister_client();
        self.stop_dispatcher(dispatcher);
        result.map(|()| summary)
    }

    fn register_client(&self) -> u64 {
        let mut state = self.shared.state.lock().unwrap();
        state.clients += 1;
        let id = state.next_client;
        state.next_client += 1;
        id
    }

    fn unregister_client(&self) {
        self.shared.state.lock().unwrap().clients -= 1;
    }

    /// Read request lines until EOF or `shutdown`, emitting events.
    fn session_loop(
        &self,
        client: u64,
        mut reader: impl BufRead,
        writer: &mut impl Write,
        summary: &mut PipeSummary,
    ) -> io::Result<()> {
        let mut buf = Vec::new();
        while let Some(line) = read_line_bounded(&mut reader, &mut buf)? {
            let Line::Text(line) = line else {
                summary.saw_protocol_error = true;
                let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                emit(writer, &Event::Protocol(ProtoError::new(ErrorCode::LineTooLong, message)))?;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_request(line) {
                Err(err) => {
                    summary.saw_protocol_error = true;
                    emit(writer, &Event::Protocol(err))?;
                }
                Ok(Request::Stats) => {
                    let state = self.shared.state.lock().unwrap();
                    let event =
                        Event::ServerStats { cache: state.cache.report(), clients: state.clients };
                    drop(state);
                    emit(writer, &event)?;
                }
                Ok(Request::Shutdown) => {
                    emit(writer, &Event::Bye)?;
                    break;
                }
                Ok(Request::Submit(submit)) => {
                    self.handle_submit(client, &submit, writer, summary)?;
                }
            }
        }
        Ok(())
    }

    /// Resolve every point of a submission under one lock acquisition,
    /// queue what this request owns, then stream results in order.
    fn handle_submit(
        &self,
        client: u64,
        submit: &crate::proto::SubmitRequest,
        writer: &mut impl Write,
        summary: &mut PipeSummary,
    ) -> io::Result<()> {
        let id = &submit.id;
        emit(writer, &Event::Accepted { id: id.clone(), points: submit.points.len() as u64 })?;

        let keys: Vec<CanonKey> = submit.points.iter().map(Canonical::canon_key).collect();
        let mut report = CacheReport::default();
        let resolutions: Vec<Resolution> = {
            let mut state = self.shared.state.lock().unwrap();
            let mut jobs = Vec::new();
            let resolutions = submit
                .points
                .iter()
                .zip(keys)
                .map(|(&point, key)| {
                    // In flight first: completion takes a point out of
                    // `in_flight` and into the cache under this lock, so a
                    // point is never in both, and a join must not count a
                    // cache miss.
                    if let Some(slot) = state.in_flight.get(&key) {
                        // Someone (possibly an earlier index of this very
                        // matrix) is already simulating this point.
                        let slot = Arc::clone(slot);
                        state.cache.count_joined_hit();
                        report.hits += 1;
                        return Resolution::Pending { slot, owned: false };
                    }
                    if let Some((outcome, source)) = state.cache.lookup(key) {
                        report.hits += 1;
                        if source == CacheSource::Disk {
                            report.disk_hits += 1;
                        }
                        return Resolution::Ready(outcome, source);
                    }
                    let slot = Arc::new(Slot::new());
                    state.in_flight.insert(key, Arc::clone(&slot));
                    report.misses += 1;
                    jobs.push(Job { point, key, slot: Arc::clone(&slot) });
                    Resolution::Pending { slot, owned: true }
                })
                .collect();
            state.queue.push(client, jobs);
            resolutions
        };
        self.shared.work_cv.notify_all();

        let mut ok = 0u64;
        let mut failed = 0u64;
        for (index, resolution) in resolutions.into_iter().enumerate() {
            let index = index as u64;
            emit(writer, &Event::PointStarted { id: id.clone(), index })?;
            let (outcome, source) = match resolution {
                Resolution::Ready(outcome, source) => (outcome, source),
                Resolution::Pending { slot, owned } => {
                    let source = if owned { CacheSource::Fresh } else { CacheSource::Memory };
                    (self.wait_for(&slot).clone(), source)
                }
            };
            match outcome {
                Ok(stats) => {
                    ok += 1;
                    // Only the request that simulated the point streams its
                    // progress: GVT update k fired at cycle k × GVT_EPOCH.
                    if submit.progress && source == CacheSource::Fresh {
                        let every = PROGRESS_EVERY * GVT_EPOCH;
                        for k in 1..=stats.gvt_updates / PROGRESS_EVERY {
                            let gvt = k * every;
                            emit(writer, &Event::Progress { id: id.clone(), index, gvt })?;
                        }
                    }
                    emit(writer, &Event::PointFinished { id: id.clone(), index, source, stats })?;
                }
                Err(error) => {
                    failed += 1;
                    if error.kind == crate::proto::FailureKind::InvalidPoint {
                        summary.saw_invalid_point = true;
                    } else {
                        summary.saw_run_failure = true;
                    }
                    emit(writer, &Event::PointFailed { id: id.clone(), index, error })?;
                }
            }
        }

        {
            let state = self.shared.state.lock().unwrap();
            let server = state.cache.report();
            report.evictions = server.evictions;
            report.entries = server.entries;
        }
        emit(writer, &Event::RunDone { id: id.clone(), ok, failed, cache: report })
    }

    /// Block until the dispatcher fills `slot`.
    fn wait_for<'s>(&self, slot: &'s Slot) -> &'s PointOutcome {
        let state = self.shared.state.lock().unwrap();
        let _state = self.shared.done_cv.wait_while(state, |_| slot.get().is_none()).unwrap();
        slot.get().expect("the dispatcher fills every slot it was queued with")
    }
}

/// The longest request line a session buffers, in bytes, not counting its
/// line terminator.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One request line read by [`read_line_bounded`].
enum Line<'a> {
    /// The line, without its terminator.
    Text(&'a str),
    /// A line longer than [`MAX_LINE_BYTES`]; its bytes were consumed
    /// without being buffered.
    TooLong,
}

/// Read the next line of `reader`, using `buf` as its storage; `None` at
/// end of input.
///
/// Like [`BufRead::lines`], a final line needs no terminator, a `\r\n`
/// ending is stripped whole, and a line that is not UTF-8 is an
/// [`io::ErrorKind::InvalidData`] error.
fn read_line_bounded<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<Line<'a>>> {
    buf.clear();
    let mut read_any = false;
    let mut too_long = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !read_any {
                return Ok(None);
            }
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if !too_long {
            let content = buf.len() + take - usize::from(newline.is_some());
            if content > MAX_LINE_BYTES {
                too_long = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    if too_long {
        return Ok(Some(Line::TooLong));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    std::str::from_utf8(buf).map(|line| Some(Line::Text(line))).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

fn emit(writer: &mut impl Write, event: &Event) -> io::Result<()> {
    writer.write_all(render_event(event).as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// A TCP front-end: accepts connections and serves each on its own
/// thread, all sharing one [`Server`] (and therefore one cache).
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting.
    /// The returned handle reports the bound address and stops the server
    /// on [`shutdown`](TcpServer::shutdown) or drop.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn spawn<R: PointRunner + 'static>(
        addr: impl ToSocketAddrs,
        server: Server<R>,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let dispatcher = server.spawn_dispatcher();
        let server = Arc::new(server);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                reap(&mut handlers);
                let Ok(stream) = stream else { continue };
                let server = Arc::clone(&server);
                handlers.push(std::thread::spawn(move || {
                    let _ = handle_tcp_client(&server, stream);
                }));
            }
            for handler in handlers {
                let _ = handler.join();
            }
            server.stop_dispatcher(dispatcher);
        });
        Ok(TcpServer { local_addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, wait for in-flight sessions, and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = accept_thread.join();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Join every connection thread in `handlers` that has exited, keeping the
/// rest, so a long-lived server holds no thread of a past connection.
fn reap(handlers: &mut Vec<JoinHandle<()>>) {
    for finished in handlers.extract_if(.., |handler| handler.is_finished()) {
        let _ = finished.join();
    }
}

fn handle_tcp_client<R: PointRunner + 'static>(
    server: &Server<R>,
    stream: TcpStream,
) -> io::Result<()> {
    let client = server.register_client();
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut summary = PipeSummary::default();
    let result = server.session_loop(client, reader, &mut writer, &mut summary);
    server.unregister_client();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reap_joins_exited_connection_threads_and_keeps_live_ones() {
        let (release, wait) = mpsc::channel::<()>();
        let live = std::thread::spawn(move || {
            let _ = wait.recv();
        });
        let mut handlers: Vec<JoinHandle<()>> = (0..3).map(|_| std::thread::spawn(|| {})).collect();
        handlers.insert(1, live);
        while handlers.iter().filter(|handler| handler.is_finished()).count() < 3 {
            std::thread::yield_now();
        }
        reap(&mut handlers);
        assert_eq!(handlers.len(), 1, "only the live connection thread is kept");
        assert!(!handlers[0].is_finished());
        release.send(()).unwrap();
        handlers.pop().unwrap().join().unwrap();
        reap(&mut handlers);
        assert!(handlers.is_empty());
    }
}

//! The line-delimited JSON protocol: typed requests, events, and errors.
//!
//! Every message is one JSON object on one line, tagged by a `"type"`
//! field. Clients send [`Request`]s; the server answers each with a stream
//! of [`Event`]s. Malformed input produces a typed [`ProtoError`] *event*
//! (`{"type":"error",...}`) — never a disconnect — so a scripting client
//! can fix its request and stay on the same connection.
//!
//! ```text
//! client → {"type":"submit","id":"r1","points":[{...},{...}]}
//! server ← {"type":"accepted","id":"r1","points":2}
//! server ← {"type":"point-started","id":"r1","index":0}
//! server ← {"type":"point-finished","id":"r1","index":0,"cached":false,"source":"run","stats":{...}}
//! server ← ...
//! server ← {"type":"run-complete","id":"r1","ok":2,"failed":0,"cache":{...}}
//! ```
//!
//! Both directions have full encode/decode support (the load generator is
//! a protocol *client*), and every message round-trips through its JSON
//! form — see the tests at the bottom.

use std::fmt;

use swarm_noc::{LinkCounters, LinkStats, TrafficStats};
use swarm_sim::{CommittedTaskAccesses, CycleBreakdown, RunStats};
use swarm_types::Hint;

use crate::json::{self, Value};
use crate::point::RunPoint;

/// Machine-readable class of a protocol error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The message's `"type"` is missing or unknown.
    UnknownType,
    /// A required field is missing.
    MissingField,
    /// A field has the wrong type or an invalid value.
    BadField,
    /// A run point inside a submit request is invalid.
    BadPoint,
    /// The line exceeded the server's request-line limit and was skipped.
    LineTooLong,
}

impl ErrorCode {
    /// The wire spelling of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::UnknownType => "unknown-type",
            ErrorCode::MissingField => "missing-field",
            ErrorCode::BadField => "bad-field",
            ErrorCode::BadPoint => "bad-point",
            ErrorCode::LineTooLong => "line-too-long",
        }
    }

    fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad-json" => ErrorCode::BadJson,
            "unknown-type" => ErrorCode::UnknownType,
            "missing-field" => ErrorCode::MissingField,
            "bad-field" => ErrorCode::BadField,
            "bad-point" => ErrorCode::BadPoint,
            "line-too-long" => ErrorCode::LineTooLong,
            _ => return None,
        })
    }
}

/// A typed protocol error: what class of problem, and a human-readable
/// message naming the offending field or byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ProtoError {
    /// Construct an error of the given class.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError { code, message: message.into() }
    }

    /// Shorthand for an [`ErrorCode::BadPoint`] error.
    pub fn bad_point(message: impl Into<String>) -> ProtoError {
        ProtoError::new(ErrorCode::BadPoint, message)
    }

    fn missing(field: &str) -> ProtoError {
        ProtoError::new(ErrorCode::MissingField, format!("missing field \"{field}\""))
    }

    fn bad_field(message: impl Into<String>) -> ProtoError {
        ProtoError::new(ErrorCode::BadField, message)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A submit request: run `points` under the request id `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen id echoed in every event for this submission.
    pub id: String,
    /// The run matrix.
    pub points: Vec<RunPoint>,
    /// Stream `progress` events (GVT advance) for points this submission
    /// actually simulates.
    pub progress: bool,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a run matrix.
    Submit(SubmitRequest),
    /// Ask for server-wide statistics.
    Stats,
    /// Close this connection (the server answers with `bye`).
    Shutdown,
}

/// Where a finished point's stats came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Simulated for this request.
    Fresh,
    /// Served from the in-memory cache (or deduplicated against a
    /// concurrent in-flight run of the same point).
    Memory,
    /// Served from the on-disk cache.
    Disk,
}

impl CacheSource {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheSource::Fresh => "run",
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
        }
    }

    fn from_wire(s: &str) -> Option<CacheSource> {
        Some(match s {
            "run" => CacheSource::Fresh,
            "memory" => CacheSource::Memory,
            "disk" => CacheSource::Disk,
            _ => return None,
        })
    }
}

/// Server-side failure taxonomy: the protocol projection of
/// `swarm_bench::RunError` (PR 8), minus the embedded request (the event's
/// `index` already names the point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The point does not describe a valid simulation.
    InvalidPoint,
    /// The simulation ran but failed with a typed error.
    Sim,
    /// The simulation panicked.
    Panicked,
    /// The point was never run (an earlier failure aborted the batch).
    Skipped,
}

impl FailureKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::InvalidPoint => "invalid-point",
            FailureKind::Sim => "sim",
            FailureKind::Panicked => "panicked",
            FailureKind::Skipped => "skipped",
        }
    }

    fn from_wire(s: &str) -> Option<FailureKind> {
        Some(match s {
            "invalid-point" => FailureKind::InvalidPoint,
            "sim" => FailureKind::Sim,
            "panicked" => FailureKind::Panicked,
            "skipped" => FailureKind::Skipped,
            _ => return None,
        })
    }
}

/// One point's failure: the taxonomy kind plus the harness's message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// Which class of failure.
    pub kind: FailureKind,
    /// Human-readable description (the `RunError` display form).
    pub message: String,
}

/// Cache counters reported in `run-complete` / `run-failed` and `stats`
/// events. `hits`/`misses`/`disk_hits` are scoped to the submission (or,
/// in a `stats` event, to the server's lifetime); `evictions` and
/// `entries` always describe the whole server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Points served without a new simulation.
    pub hits: u64,
    /// Points that had to be simulated.
    pub misses: u64,
    /// Subset of `hits` served from the on-disk store.
    pub disk_hits: u64,
    /// In-memory entries evicted so far (server-wide).
    pub evictions: u64,
    /// In-memory entries currently resident (server-wide).
    pub entries: u64,
}

/// A server → client message.
///
/// `PointFinished` carries a full inline [`RunStats`] (~320 bytes); events
/// exist one-at-a-time per protocol line, never in bulk collections, so the
/// size skew is irrelevant and boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The submission parsed; `points` runs will follow.
    Accepted {
        /// Echoed request id.
        id: String,
        /// Number of points in the matrix.
        points: u64,
    },
    /// Work on point `index` has begun.
    PointStarted {
        /// Echoed request id.
        id: String,
        /// Zero-based index into the submitted matrix.
        index: u64,
    },
    /// GVT progress of an in-flight simulated point (only with
    /// `"progress":true`, throttled).
    Progress {
        /// Echoed request id.
        id: String,
        /// Zero-based point index.
        index: u64,
        /// Current global virtual time.
        gvt: u64,
    },
    /// Point `index` finished; `stats` is its full result.
    PointFinished {
        /// Echoed request id.
        id: String,
        /// Zero-based point index.
        index: u64,
        /// Where the result came from.
        source: CacheSource,
        /// The simulation statistics.
        stats: RunStats,
    },
    /// Point `index` failed.
    PointFailed {
        /// Echoed request id.
        id: String,
        /// Zero-based point index.
        index: u64,
        /// The typed failure.
        error: PointFailure,
    },
    /// The whole submission is done (`run-complete` when `failed == 0`,
    /// `run-failed` otherwise).
    RunDone {
        /// Echoed request id.
        id: String,
        /// Points that produced stats.
        ok: u64,
        /// Points that failed.
        failed: u64,
        /// Cache accounting for this submission.
        cache: CacheReport,
    },
    /// Answer to a `stats` request.
    ServerStats {
        /// Lifetime cache accounting.
        cache: CacheReport,
        /// Currently connected clients.
        clients: u64,
    },
    /// A typed protocol error (the request line it answers was dropped;
    /// the connection stays open).
    Protocol(ProtoError),
    /// Answer to `shutdown`; the server closes the connection after it.
    Bye,
}

/// Parse one request line.
///
/// # Errors
///
/// Returns a typed [`ProtoError`] (never panics, never disconnects) for
/// malformed JSON, an unknown type, or invalid fields.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = json::parse(line).map_err(|e| ProtoError::new(ErrorCode::BadJson, e.to_string()))?;
    let obj = v.as_obj().ok_or_else(|| ProtoError::bad_field("a request must be a JSON object"))?;
    let kind = v
        .get("type")
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownType, "missing field \"type\""))?
        .as_str()
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownType, "\"type\" must be a string"))?;
    match kind {
        "submit" => {
            check_fields(obj, &["type", "id", "points", "progress"])?;
            let id = v
                .get("id")
                .ok_or_else(|| ProtoError::missing("id"))?
                .as_str()
                .ok_or_else(|| ProtoError::bad_field("\"id\" must be a string"))?
                .to_string();
            let points_v = v.get("points").ok_or_else(|| ProtoError::missing("points"))?;
            let arr = points_v
                .as_arr()
                .ok_or_else(|| ProtoError::bad_field("\"points\" must be an array"))?;
            if arr.is_empty() {
                return Err(ProtoError::bad_field("\"points\" must not be empty"));
            }
            let points = arr.iter().map(RunPoint::from_json).collect::<Result<Vec<_>, _>>()?;
            let progress = match v.get("progress") {
                None => false,
                Some(p) => p
                    .as_bool()
                    .ok_or_else(|| ProtoError::bad_field("\"progress\" must be a boolean"))?,
            };
            Ok(Request::Submit(SubmitRequest { id, points, progress }))
        }
        "stats" => {
            check_fields(obj, &["type"])?;
            Ok(Request::Stats)
        }
        "shutdown" => {
            check_fields(obj, &["type"])?;
            Ok(Request::Shutdown)
        }
        other => Err(ProtoError::new(
            ErrorCode::UnknownType,
            format!("unknown request type \"{other}\" (expected submit, stats, shutdown)"),
        )),
    }
}

/// Encode a request as its wire line (no trailing newline).
pub fn render_request(req: &Request) -> String {
    let v = match req {
        Request::Submit(s) => {
            let mut fields = vec![
                ("type".to_string(), Value::str("submit")),
                ("id".to_string(), Value::str(&s.id)),
                (
                    "points".to_string(),
                    Value::Arr(s.points.iter().map(RunPoint::to_json).collect()),
                ),
            ];
            if s.progress {
                fields.push(("progress".to_string(), Value::Bool(true)));
            }
            Value::Obj(fields)
        }
        Request::Stats => Value::Obj(vec![("type".to_string(), Value::str("stats"))]),
        Request::Shutdown => Value::Obj(vec![("type".to_string(), Value::str("shutdown"))]),
    };
    v.render()
}

fn cache_report_json(c: &CacheReport) -> Value {
    Value::Obj(vec![
        ("hits".to_string(), Value::UInt(c.hits)),
        ("misses".to_string(), Value::UInt(c.misses)),
        ("disk_hits".to_string(), Value::UInt(c.disk_hits)),
        ("evictions".to_string(), Value::UInt(c.evictions)),
        ("entries".to_string(), Value::UInt(c.entries)),
    ])
}

fn cache_report_from_json(v: &Value) -> Result<CacheReport, ProtoError> {
    Ok(CacheReport {
        hits: req_u64(v, "hits")?,
        misses: req_u64(v, "misses")?,
        disk_hits: req_u64(v, "disk_hits")?,
        evictions: req_u64(v, "evictions")?,
        entries: req_u64(v, "entries")?,
    })
}

/// Encode an event as its wire line (no trailing newline).
pub fn render_event(event: &Event) -> String {
    let v = match event {
        Event::Accepted { id, points } => Value::Obj(vec![
            ("type".to_string(), Value::str("accepted")),
            ("id".to_string(), Value::str(id)),
            ("points".to_string(), Value::UInt(*points)),
        ]),
        Event::PointStarted { id, index } => Value::Obj(vec![
            ("type".to_string(), Value::str("point-started")),
            ("id".to_string(), Value::str(id)),
            ("index".to_string(), Value::UInt(*index)),
        ]),
        Event::Progress { id, index, gvt } => Value::Obj(vec![
            ("type".to_string(), Value::str("progress")),
            ("id".to_string(), Value::str(id)),
            ("index".to_string(), Value::UInt(*index)),
            ("gvt".to_string(), Value::UInt(*gvt)),
        ]),
        Event::PointFinished { id, index, source, stats } => Value::Obj(vec![
            ("type".to_string(), Value::str("point-finished")),
            ("id".to_string(), Value::str(id)),
            ("index".to_string(), Value::UInt(*index)),
            ("cached".to_string(), Value::Bool(*source != CacheSource::Fresh)),
            ("source".to_string(), Value::str(source.as_str())),
            ("stats".to_string(), stats_to_json(stats)),
        ]),
        Event::PointFailed { id, index, error } => Value::Obj(vec![
            ("type".to_string(), Value::str("point-failed")),
            ("id".to_string(), Value::str(id)),
            ("index".to_string(), Value::UInt(*index)),
            (
                "error".to_string(),
                Value::Obj(vec![
                    ("kind".to_string(), Value::str(error.kind.as_str())),
                    ("message".to_string(), Value::str(&error.message)),
                ]),
            ),
        ]),
        Event::RunDone { id, ok, failed, cache } => Value::Obj(vec![
            (
                "type".to_string(),
                Value::str(if *failed == 0 { "run-complete" } else { "run-failed" }),
            ),
            ("id".to_string(), Value::str(id)),
            ("ok".to_string(), Value::UInt(*ok)),
            ("failed".to_string(), Value::UInt(*failed)),
            ("cache".to_string(), cache_report_json(cache)),
        ]),
        Event::ServerStats { cache, clients } => Value::Obj(vec![
            ("type".to_string(), Value::str("stats")),
            ("cache".to_string(), cache_report_json(cache)),
            ("clients".to_string(), Value::UInt(*clients)),
        ]),
        Event::Protocol(err) => Value::Obj(vec![
            ("type".to_string(), Value::str("error")),
            ("code".to_string(), Value::str(err.code.as_str())),
            ("message".to_string(), Value::str(&err.message)),
        ]),
        Event::Bye => Value::Obj(vec![("type".to_string(), Value::str("bye"))]),
    };
    v.render()
}

/// Parse one event line (the client half of the protocol; the load
/// generator and the round-trip tests use this).
///
/// # Errors
///
/// Returns a typed [`ProtoError`] for malformed JSON, an unknown type, or
/// invalid fields.
pub fn parse_event(line: &str) -> Result<Event, ProtoError> {
    let v = json::parse(line).map_err(|e| ProtoError::new(ErrorCode::BadJson, e.to_string()))?;
    let kind = v
        .get("type")
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownType, "missing field \"type\""))?
        .as_str()
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownType, "\"type\" must be a string"))?;
    match kind {
        "accepted" => {
            Ok(Event::Accepted { id: req_str(&v, "id")?, points: req_u64(&v, "points")? })
        }
        "point-started" => {
            Ok(Event::PointStarted { id: req_str(&v, "id")?, index: req_u64(&v, "index")? })
        }
        "progress" => Ok(Event::Progress {
            id: req_str(&v, "id")?,
            index: req_u64(&v, "index")?,
            gvt: req_u64(&v, "gvt")?,
        }),
        "point-finished" => {
            let source_str = req_str(&v, "source")?;
            let source = CacheSource::from_wire(&source_str)
                .ok_or_else(|| ProtoError::bad_field(format!("unknown source \"{source_str}\"")))?;
            let cached = v
                .get("cached")
                .and_then(Value::as_bool)
                .ok_or_else(|| ProtoError::missing("cached"))?;
            if cached != (source != CacheSource::Fresh) {
                return Err(ProtoError::bad_field("\"cached\" contradicts \"source\""));
            }
            let stats =
                stats_from_json(v.get("stats").ok_or_else(|| ProtoError::missing("stats"))?)?;
            Ok(Event::PointFinished {
                id: req_str(&v, "id")?,
                index: req_u64(&v, "index")?,
                source,
                stats,
            })
        }
        "point-failed" => {
            let err_v = v.get("error").ok_or_else(|| ProtoError::missing("error"))?;
            let kind_str = req_str(err_v, "kind")?;
            let kind = FailureKind::from_wire(&kind_str).ok_or_else(|| {
                ProtoError::bad_field(format!("unknown failure kind \"{kind_str}\""))
            })?;
            Ok(Event::PointFailed {
                id: req_str(&v, "id")?,
                index: req_u64(&v, "index")?,
                error: PointFailure { kind, message: req_str(err_v, "message")? },
            })
        }
        "run-complete" | "run-failed" => {
            let failed = req_u64(&v, "failed")?;
            if (kind == "run-complete") != (failed == 0) {
                return Err(ProtoError::bad_field("\"type\" contradicts \"failed\""));
            }
            Ok(Event::RunDone {
                id: req_str(&v, "id")?,
                ok: req_u64(&v, "ok")?,
                failed,
                cache: cache_report_from_json(
                    v.get("cache").ok_or_else(|| ProtoError::missing("cache"))?,
                )?,
            })
        }
        "stats" => Ok(Event::ServerStats {
            cache: cache_report_from_json(
                v.get("cache").ok_or_else(|| ProtoError::missing("cache"))?,
            )?,
            clients: req_u64(&v, "clients")?,
        }),
        "error" => {
            let code_str = req_str(&v, "code")?;
            let code = ErrorCode::from_wire(&code_str).ok_or_else(|| {
                ProtoError::bad_field(format!("unknown error code \"{code_str}\""))
            })?;
            Ok(Event::Protocol(ProtoError { code, message: req_str(&v, "message")? }))
        }
        "bye" => Ok(Event::Bye),
        other => {
            Err(ProtoError::new(ErrorCode::UnknownType, format!("unknown event type \"{other}\"")))
        }
    }
}

fn check_fields(obj: &[(String, Value)], allowed: &[&str]) -> Result<(), ProtoError> {
    for (key, _) in obj {
        if !allowed.contains(&key.as_str()) {
            return Err(ProtoError::bad_field(format!("unknown field \"{key}\"")));
        }
    }
    Ok(())
}

fn req_str(v: &Value, field: &str) -> Result<String, ProtoError> {
    v.get(field)
        .ok_or_else(|| ProtoError::missing(field))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ProtoError::bad_field(format!("\"{field}\" must be a string")))
}

fn req_u64(v: &Value, field: &str) -> Result<u64, ProtoError> {
    v.get(field)
        .ok_or_else(|| ProtoError::missing(field))?
        .as_u64()
        .ok_or_else(|| ProtoError::bad_field(format!("\"{field}\" must be a non-negative integer")))
}

/// Encode [`RunStats`] as a JSON object. Every field is covered, so cached
/// results round-trip byte-identically through the on-disk store and the
/// wire.
pub fn stats_to_json(stats: &RunStats) -> Value {
    let b = &stats.breakdown;
    let t = &stats.traffic;
    Value::Obj(vec![
        ("scheduler".to_string(), Value::str(&stats.scheduler)),
        ("app".to_string(), Value::str(&stats.app)),
        ("cores".to_string(), Value::UInt(stats.cores as u64)),
        ("runtime_cycles".to_string(), Value::UInt(stats.runtime_cycles)),
        (
            "breakdown".to_string(),
            Value::Obj(vec![
                ("committed".to_string(), Value::UInt(b.committed)),
                ("aborted".to_string(), Value::UInt(b.aborted)),
                ("spill".to_string(), Value::UInt(b.spill)),
                ("stall".to_string(), Value::UInt(b.stall)),
                ("empty".to_string(), Value::UInt(b.empty)),
            ]),
        ),
        (
            "traffic".to_string(),
            Value::Obj(vec![
                ("mem_flit_hops".to_string(), Value::UInt(t.mem_flit_hops)),
                ("abort_flit_hops".to_string(), Value::UInt(t.abort_flit_hops)),
                ("task_flit_hops".to_string(), Value::UInt(t.task_flit_hops)),
                ("gvt_flit_hops".to_string(), Value::UInt(t.gvt_flit_hops)),
            ]),
        ),
        ("tasks_committed".to_string(), Value::UInt(stats.tasks_committed)),
        ("tasks_aborted".to_string(), Value::UInt(stats.tasks_aborted)),
        ("tasks_spilled".to_string(), Value::UInt(stats.tasks_spilled)),
        ("gvt_updates".to_string(), Value::UInt(stats.gvt_updates)),
        ("lb_reconfigs".to_string(), Value::UInt(stats.lb_reconfigs)),
        ("noc_queue_cycles".to_string(), Value::UInt(stats.noc_queue_cycles)),
        (
            "committed_cycles_per_tile".to_string(),
            Value::Arr(stats.committed_cycles_per_tile.iter().map(|&c| Value::UInt(c)).collect()),
        ),
        (
            "committed_accesses".to_string(),
            Value::Arr(stats.committed_accesses.iter().map(accesses_to_json).collect()),
        ),
        (
            "link_stats".to_string(),
            match &stats.link_stats {
                None => Value::Null,
                Some(ls) => link_stats_to_json(ls),
            },
        ),
    ])
}

fn hint_to_json(hint: &Hint) -> Value {
    match hint {
        Hint::Value(v) => Value::Obj(vec![
            ("kind".to_string(), Value::str("value")),
            ("value".to_string(), Value::UInt(*v)),
        ]),
        Hint::None => Value::Obj(vec![("kind".to_string(), Value::str("none"))]),
        Hint::Same => Value::Obj(vec![("kind".to_string(), Value::str("same"))]),
    }
}

fn hint_from_json(v: &Value) -> Result<Hint, ProtoError> {
    let kind = req_str(v, "kind")?;
    match kind.as_str() {
        "value" => Ok(Hint::Value(req_u64(v, "value")?)),
        "none" => Ok(Hint::None),
        "same" => Ok(Hint::Same),
        other => Err(ProtoError::bad_field(format!("unknown hint kind \"{other}\""))),
    }
}

fn accesses_to_json(a: &CommittedTaskAccesses) -> Value {
    Value::Obj(vec![
        ("hint".to_string(), hint_to_json(&a.hint)),
        ("num_args".to_string(), Value::UInt(a.num_args as u64)),
        (
            "accesses".to_string(),
            Value::Arr(
                a.accesses
                    .iter()
                    .map(|&(addr, is_write)| {
                        Value::Arr(vec![Value::UInt(addr), Value::Bool(is_write)])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn accesses_from_json(v: &Value) -> Result<CommittedTaskAccesses, ProtoError> {
    let hint = hint_from_json(v.get("hint").ok_or_else(|| ProtoError::missing("hint"))?)?;
    let num_args = req_u64(v, "num_args")? as usize;
    let accesses = v
        .get("accesses")
        .and_then(Value::as_arr)
        .ok_or_else(|| ProtoError::missing("accesses"))?
        .iter()
        .map(|pair| {
            let items = pair.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                ProtoError::bad_field("each access must be an [address, is_write] pair")
            })?;
            let addr = items[0]
                .as_u64()
                .ok_or_else(|| ProtoError::bad_field("access address must be a u64"))?;
            let is_write = items[1]
                .as_bool()
                .ok_or_else(|| ProtoError::bad_field("access is_write must be a boolean"))?;
            Ok((addr, is_write))
        })
        .collect::<Result<Vec<_>, ProtoError>>()?;
    Ok(CommittedTaskAccesses { hint, num_args, accesses })
}

fn link_stats_to_json(ls: &LinkStats) -> Value {
    Value::Obj(vec![
        (
            "links".to_string(),
            Value::Arr(
                ls.links
                    .iter()
                    .map(|l| {
                        Value::Obj(vec![
                            ("messages".to_string(), Value::UInt(l.messages)),
                            ("flits".to_string(), Value::UInt(l.flits)),
                            ("queue_cycles".to_string(), Value::UInt(l.queue_cycles)),
                            ("occupancy_sum".to_string(), Value::UInt(l.occupancy_sum)),
                            ("max_occupancy".to_string(), Value::UInt(l.max_occupancy)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "class_queue_cycles".to_string(),
            Value::Arr(ls.class_queue_cycles.iter().map(|&c| Value::UInt(c)).collect()),
        ),
    ])
}

fn link_stats_from_json(v: &Value) -> Result<LinkStats, ProtoError> {
    let links = v
        .get("links")
        .and_then(Value::as_arr)
        .ok_or_else(|| ProtoError::missing("links"))?
        .iter()
        .map(|l| {
            Ok(LinkCounters {
                messages: req_u64(l, "messages")?,
                flits: req_u64(l, "flits")?,
                queue_cycles: req_u64(l, "queue_cycles")?,
                occupancy_sum: req_u64(l, "occupancy_sum")?,
                max_occupancy: req_u64(l, "max_occupancy")?,
            })
        })
        .collect::<Result<Vec<_>, ProtoError>>()?;
    let cqc = v
        .get("class_queue_cycles")
        .and_then(Value::as_arr)
        .ok_or_else(|| ProtoError::missing("class_queue_cycles"))?;
    if cqc.len() != 4 {
        return Err(ProtoError::bad_field("class_queue_cycles must have 4 entries"));
    }
    let mut class_queue_cycles = [0u64; 4];
    for (slot, item) in class_queue_cycles.iter_mut().zip(cqc) {
        *slot = item
            .as_u64()
            .ok_or_else(|| ProtoError::bad_field("class_queue_cycles entries must be u64"))?;
    }
    Ok(LinkStats { links, class_queue_cycles })
}

/// Decode [`RunStats`] from its JSON object form. Strict: every field is
/// required (matching [`stats_to_json`]), so a corrupt or truncated cache
/// file surfaces as a typed error, not a half-default result.
///
/// # Errors
///
/// Returns a typed [`ProtoError`] naming the first missing or mistyped
/// field.
pub fn stats_from_json(v: &Value) -> Result<RunStats, ProtoError> {
    let b = v.get("breakdown").ok_or_else(|| ProtoError::missing("breakdown"))?;
    let t = v.get("traffic").ok_or_else(|| ProtoError::missing("traffic"))?;
    Ok(RunStats {
        scheduler: req_str(v, "scheduler")?,
        app: req_str(v, "app")?,
        cores: req_u64(v, "cores")? as usize,
        runtime_cycles: req_u64(v, "runtime_cycles")?,
        breakdown: CycleBreakdown {
            committed: req_u64(b, "committed")?,
            aborted: req_u64(b, "aborted")?,
            spill: req_u64(b, "spill")?,
            stall: req_u64(b, "stall")?,
            empty: req_u64(b, "empty")?,
        },
        traffic: TrafficStats {
            mem_flit_hops: req_u64(t, "mem_flit_hops")?,
            abort_flit_hops: req_u64(t, "abort_flit_hops")?,
            task_flit_hops: req_u64(t, "task_flit_hops")?,
            gvt_flit_hops: req_u64(t, "gvt_flit_hops")?,
        },
        tasks_committed: req_u64(v, "tasks_committed")?,
        tasks_aborted: req_u64(v, "tasks_aborted")?,
        tasks_spilled: req_u64(v, "tasks_spilled")?,
        gvt_updates: req_u64(v, "gvt_updates")?,
        lb_reconfigs: req_u64(v, "lb_reconfigs")?,
        noc_queue_cycles: req_u64(v, "noc_queue_cycles")?,
        committed_cycles_per_tile: v
            .get("committed_cycles_per_tile")
            .and_then(Value::as_arr)
            .ok_or_else(|| ProtoError::missing("committed_cycles_per_tile"))?
            .iter()
            .map(|c| {
                c.as_u64().ok_or_else(|| {
                    ProtoError::bad_field("committed_cycles_per_tile entries must be u64")
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
        committed_accesses: v
            .get("committed_accesses")
            .and_then(Value::as_arr)
            .ok_or_else(|| ProtoError::missing("committed_accesses"))?
            .iter()
            .map(accesses_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        link_stats: match v.get("link_stats") {
            None => return Err(ProtoError::missing("link_stats")),
            Some(Value::Null) => None,
            Some(ls) => Some(link_stats_from_json(ls)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_hints::Scheduler;
    use swarm_apps::{AppSpec, BenchmarkId, InputScale};

    fn sample_stats() -> RunStats {
        RunStats {
            scheduler: "Hints".into(),
            app: "sssp".into(),
            cores: 4,
            runtime_cycles: 123_456,
            breakdown: CycleBreakdown { committed: 100, aborted: 20, spill: 3, stall: 4, empty: 5 },
            traffic: TrafficStats {
                mem_flit_hops: 11,
                abort_flit_hops: 22,
                task_flit_hops: 33,
                gvt_flit_hops: 44,
            },
            tasks_committed: 1000,
            tasks_aborted: 50,
            tasks_spilled: 7,
            gvt_updates: 99,
            lb_reconfigs: 2,
            noc_queue_cycles: 12,
            committed_cycles_per_tile: vec![10, 20, 30, 40],
            committed_accesses: vec![CommittedTaskAccesses {
                hint: Hint::Value(7),
                num_args: 2,
                accesses: vec![(0x1000, false), (0x1008, true)],
            }],
            link_stats: Some(LinkStats {
                links: vec![LinkCounters {
                    messages: 5,
                    flits: 6,
                    queue_cycles: 7,
                    occupancy_sum: 8,
                    max_occupancy: 9,
                }],
                class_queue_cycles: [1, 2, 3, 4],
            }),
        }
    }

    fn sample_point() -> RunPoint {
        RunPoint::new(AppSpec::coarse(BenchmarkId::Sssp), Scheduler::Hints, 4, InputScale::Tiny)
    }

    #[test]
    fn stats_round_trip_including_every_field() {
        let stats = sample_stats();
        let back = stats_from_json(&stats_to_json(&stats)).unwrap();
        assert_eq!(back, stats);
        // Byte-identical through a second encode: the wire form is stable.
        assert_eq!(stats_to_json(&back).render(), stats_to_json(&stats).render());
        // And the default (no link stats, empty vectors) round-trips too.
        let empty = RunStats::default();
        assert_eq!(stats_from_json(&stats_to_json(&empty)).unwrap(), empty);
    }

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
            Request::Submit(SubmitRequest {
                id: "r1".into(),
                points: vec![sample_point(), RunPoint { cores: 8, ..sample_point() }],
                progress: false,
            }),
            Request::Submit(SubmitRequest {
                id: "with options".into(),
                points: vec![RunPoint {
                    fault: Some("duplicate@100".parse().unwrap()),
                    noc: swarm_types::NocModel::Contention,
                    ..sample_point()
                }],
                progress: true,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let line = render_request(&req);
            let back = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, req, "{line}");
        }
    }

    #[test]
    fn every_event_round_trips() {
        let cache = CacheReport { hits: 1, misses: 2, disk_hits: 1, evictions: 0, entries: 3 };
        let events = vec![
            Event::Accepted { id: "r1".into(), points: 2 },
            Event::PointStarted { id: "r1".into(), index: 0 },
            Event::Progress { id: "r1".into(), index: 1, gvt: 5000 },
            Event::PointFinished {
                id: "r1".into(),
                index: 0,
                source: CacheSource::Fresh,
                stats: sample_stats(),
            },
            Event::PointFinished {
                id: "r1".into(),
                index: 1,
                source: CacheSource::Disk,
                stats: RunStats::default(),
            },
            Event::PointFailed {
                id: "r1".into(),
                index: 1,
                error: PointFailure {
                    kind: FailureKind::Sim,
                    message: "sssp under Hints at 4 cores failed: deadlock".into(),
                },
            },
            Event::RunDone { id: "r1".into(), ok: 2, failed: 0, cache },
            Event::RunDone { id: "r1".into(), ok: 1, failed: 1, cache },
            Event::ServerStats { cache, clients: 2 },
            Event::Protocol(ProtoError::new(ErrorCode::BadJson, "expected ':' at byte 7")),
            Event::Bye,
        ];
        for event in events {
            let line = render_event(&event);
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn run_done_type_tracks_failed_count() {
        let cache = CacheReport::default();
        let done = Event::RunDone { id: "x".into(), ok: 2, failed: 0, cache };
        assert!(render_event(&done).contains("\"run-complete\""));
        let failed = Event::RunDone { id: "x".into(), ok: 1, failed: 1, cache };
        assert!(render_event(&failed).contains("\"run-failed\""));
    }

    #[test]
    fn malformed_requests_are_typed_not_fatal() {
        for (line, code) in [
            ("not json at all", ErrorCode::BadJson),
            ("{\"type\":\"launch\"}", ErrorCode::UnknownType),
            ("{\"id\":\"x\"}", ErrorCode::UnknownType),
            ("{\"type\":\"submit\",\"points\":[]}", ErrorCode::MissingField),
            ("{\"type\":\"submit\",\"id\":\"x\",\"points\":[]}", ErrorCode::BadField),
            ("{\"type\":\"submit\",\"id\":\"x\",\"points\":[{}]}", ErrorCode::BadPoint),
            ("{\"type\":\"submit\",\"id\":\"x\",\"points\":[1]}", ErrorCode::BadPoint),
            ("{\"type\":\"stats\",\"extra\":1}", ErrorCode::BadField),
        ] {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, code, "{line}: {err}");
        }
    }

    #[test]
    fn truncated_stats_are_rejected() {
        let mut v = stats_to_json(&sample_stats());
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "noc_queue_cycles");
        }
        let err = stats_from_json(&v).unwrap_err();
        assert_eq!(err.code, ErrorCode::MissingField);
        assert!(err.message.contains("noc_queue_cycles"), "{err}");
    }
}

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
//! Every payload type has one JSON form, its [`Wire`] impl: structs declare
//! their fields once (`wire_struct!`) and wire enums their names once
//! (`wire_enum!`), so the encoder and the decoder cannot drift apart. Both
//! directions are supported (the load generator is a protocol *client*),
//! and every message round-trips through its JSON form — see the tests at
//! the bottom.

use std::fmt;

use swarm_noc::{LinkCounters, LinkStats, TrafficStats};
use swarm_sim::{CommittedTaskAccesses, CycleBreakdown, RunStats};
use swarm_types::Hint;

use crate::json::{self, Value};
use crate::point::RunPoint;

/// Declares a wire enum once: the enum, its wire spelling (`as_str`) and
/// its [`Wire`] codec all come from the one `Variant = "name"` table.
macro_rules! wire_enum {
    ($(#[$meta:meta])* pub enum $ty:ident { $($(#[$vmeta:meta])* $variant:ident = $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)*
        }

        impl $ty {
            /// The wire spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }

        impl Wire for $ty {
            fn to_json(&self) -> Value {
                Value::str(self.as_str())
            }

            fn from_json(v: &Value) -> Result<Self, ProtoError> {
                match v.as_str() {
                    $(Some($name) => Ok($ty::$variant),)*
                    _ => Err(ProtoError::mistyped(concat!("one of" $(, " ", $name)*))),
                }
            }
        }
    };
}

/// Declares a struct's JSON form once: an object whose keys are the listed
/// field names, in the listed order. The decoder is a struct literal, so
/// leaving a field off the list does not compile.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn to_json(&self) -> Value {
                Value::Obj(vec![$((stringify!($field).to_string(), self.$field.to_json())),*])
            }

            fn from_json(v: &Value) -> Result<Self, ProtoError> {
                v.as_obj().ok_or_else(|| ProtoError::mistyped("an object"))?;
                Ok($ty { $($field: field(v, stringify!($field))?),* })
            }
        }
    };
}

wire_enum! {
    /// Machine-readable class of a protocol error.
    pub enum ErrorCode {
        /// The line was not valid JSON.
        BadJson = "bad-json",
        /// The message's `"type"` is missing or unknown.
        UnknownType = "unknown-type",
        /// A required field is missing.
        MissingField = "missing-field",
        /// A field has the wrong type or an invalid value.
        BadField = "bad-field",
        /// A run point inside a submit request is invalid.
        BadPoint = "bad-point",
        /// The line exceeded the server's request-line limit and was skipped.
        LineTooLong = "line-too-long",
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

    /// A value of the wrong JSON type. The message starts with
    /// [`MISTYPED`]; [`field`] puts the field's name in front of it.
    fn mistyped(expected: &str) -> ProtoError {
        ProtoError::bad_field(format!("{MISTYPED}{expected}"))
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A type with one JSON form, shared by the wire and the on-disk cache.
pub trait Wire: Sized {
    /// This value's JSON form.
    fn to_json(&self) -> Value;

    /// Decode a value from its JSON form. Strict: every declared field is
    /// required, so a corrupt or truncated cache file surfaces as a typed
    /// error, not a half-default result.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`] naming the first missing or mistyped
    /// field.
    fn from_json(v: &Value) -> Result<Self, ProtoError>;
}

/// How a type-mismatch message starts before [`field`] names the field.
const MISTYPED: &str = "expected ";

/// Decode field `name` of the object `v`. An absent field is
/// [`ErrorCode::MissingField`], a mistyped one is [`ErrorCode::BadField`]
/// naming it, and an error from inside the field (which already names the
/// nested field) passes through unchanged.
///
/// # Errors
///
/// As above.
pub fn field<T: Wire>(v: &Value, name: &str) -> Result<T, ProtoError> {
    let item = v.get(name).ok_or_else(|| ProtoError::missing(name))?;
    T::from_json(item).map_err(|e| {
        if e.code == ErrorCode::BadField && e.message.starts_with(MISTYPED) {
            ProtoError::bad_field(format!("\"{name}\": {}", e.message))
        } else {
            e
        }
    })
}

impl Wire for u64 {
    fn to_json(&self) -> Value {
        Value::UInt(*self)
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        v.as_u64().ok_or_else(|| ProtoError::mistyped("a non-negative integer"))
    }
}

impl Wire for usize {
    fn to_json(&self) -> Value {
        Value::UInt(*self as u64)
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        usize::try_from(u64::from_json(v)?)
            .map_err(|_| ProtoError::mistyped("an integer that fits in usize"))
    }
}

impl Wire for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        v.as_bool().ok_or_else(|| ProtoError::mistyped("a boolean"))
    }
}

impl Wire for String {
    fn to_json(&self) -> Value {
        Value::str(self)
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        v.as_str().map(str::to_string).ok_or_else(|| ProtoError::mistyped("a string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        v.as_arr()
            .ok_or_else(|| ProtoError::mistyped("an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// `None` is `null`.
impl<T: Wire> Wire for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        Vec::<T>::from_json(v)?
            .try_into()
            .map_err(|_| ProtoError::mistyped(&format!("an array of {N} entries")))
    }
}

/// A pair is a two-element array (an access's `[address, is_write]`).
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(ProtoError::mistyped("a two-element array")),
        }
    }
}

/// `{"kind":"value","value":7}`, `{"kind":"none"}` or `{"kind":"same"}`.
impl Wire for Hint {
    fn to_json(&self) -> Value {
        let kind = match self {
            Hint::Value(_) => "value",
            Hint::None => "none",
            Hint::Same => "same",
        };
        let mut fields = vec![("kind".to_string(), Value::str(kind))];
        if let Hint::Value(v) = self {
            fields.push(("value".to_string(), v.to_json()));
        }
        Value::Obj(fields)
    }

    fn from_json(v: &Value) -> Result<Self, ProtoError> {
        match field::<String>(v, "kind")?.as_str() {
            "value" => Ok(Hint::Value(field(v, "value")?)),
            "none" => Ok(Hint::None),
            "same" => Ok(Hint::Same),
            other => Err(ProtoError::bad_field(format!(
                "\"kind\": expected value, none or same, found \"{other}\""
            ))),
        }
    }
}

wire_struct!(CycleBreakdown { committed, aborted, spill, stall, empty });
wire_struct!(TrafficStats { mem_flit_hops, abort_flit_hops, task_flit_hops, gvt_flit_hops });
wire_struct!(LinkCounters { messages, flits, queue_cycles, occupancy_sum, max_occupancy });
wire_struct!(LinkStats { links, class_queue_cycles });
wire_struct!(CommittedTaskAccesses { hint, num_args, accesses });
wire_struct!(RunStats {
    scheduler,
    app,
    cores,
    runtime_cycles,
    breakdown,
    traffic,
    tasks_committed,
    tasks_aborted,
    tasks_spilled,
    gvt_updates,
    lb_reconfigs,
    noc_queue_cycles,
    committed_cycles_per_tile,
    committed_accesses,
    link_stats,
});

/// A submit request: run `points` under the request id `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen id echoed in every event for this submission.
    pub id: String,
    /// The run matrix.
    pub points: Vec<RunPoint>,
    /// Stream `progress` events (GVT advance) for points this submission
    /// actually simulates and that complete; they precede the point's
    /// `point-finished` event.
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

wire_enum! {
    /// Where a finished point's stats came from.
    pub enum CacheSource {
        /// Simulated for this request.
        Fresh = "run",
        /// Served from the in-memory cache (or deduplicated against a
        /// concurrent in-flight run of the same point).
        Memory = "memory",
        /// Served from the on-disk cache.
        Disk = "disk",
    }
}

wire_enum! {
    /// Server-side failure taxonomy: the protocol projection of
    /// `swarm_bench::RunError`, minus the embedded request (the event's
    /// `index` already names the point).
    pub enum FailureKind {
        /// The point does not describe a valid simulation.
        InvalidPoint = "invalid-point",
        /// The simulation ran but failed with a typed error.
        Sim = "sim",
        /// The simulation panicked.
        Panicked = "panicked",
        /// The point was never run (an earlier failure aborted the batch).
        Skipped = "skipped",
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

wire_struct!(PointFailure { kind, message });

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

wire_struct!(CacheReport { hits, misses, disk_hits, evictions, entries });

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
    /// GVT progress of a simulated point (only with `"progress":true`,
    /// one per 64 GVT updates), read off its finished run.
    Progress {
        /// Echoed request id.
        id: String,
        /// Zero-based point index.
        index: u64,
        /// The cycle of that GVT update.
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

fn parse_json(line: &str) -> Result<Value, ProtoError> {
    json::parse(line).map_err(|e| ProtoError::new(ErrorCode::BadJson, e.to_string()))
}

fn type_tag(v: &Value) -> Result<&str, ProtoError> {
    v.get("type")
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownType, "missing field \"type\""))?
        .as_str()
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownType, "\"type\" must be a string"))
}

/// An object whose first key is the `"type"` tag `kind`.
fn tagged<'a>(kind: &str, fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    let tag = ("type", Value::str(kind));
    Value::Obj(std::iter::once(tag).chain(fields).map(|(k, v)| (k.to_string(), v)).collect())
}

/// Parse one request line.
///
/// # Errors
///
/// Returns a typed [`ProtoError`] (never panics, never disconnects) for
/// malformed JSON, an unknown type, or invalid fields.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = parse_json(line)?;
    let obj = v.as_obj().ok_or_else(|| ProtoError::bad_field("a request must be a JSON object"))?;
    match type_tag(&v)? {
        "submit" => {
            check_fields(obj, &["type", "id", "points", "progress"])?;
            let id = field(&v, "id")?;
            let points: Vec<RunPoint> = field(&v, "points")?;
            if points.is_empty() {
                return Err(ProtoError::bad_field("\"points\" must not be empty"));
            }
            let progress = v.get("progress").is_some() && field(&v, "progress")?;
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
    match req {
        Request::Submit(s) => {
            let progress = s.progress.then(|| ("progress", true.to_json()));
            tagged(
                "submit",
                [("id", s.id.to_json()), ("points", s.points.to_json())]
                    .into_iter()
                    .chain(progress),
            )
        }
        Request::Stats => tagged("stats", []),
        Request::Shutdown => tagged("shutdown", []),
    }
    .render()
}

/// Encode an event as its wire line (no trailing newline).
pub fn render_event(event: &Event) -> String {
    match event {
        Event::Accepted { id, points } => {
            tagged("accepted", [("id", id.to_json()), ("points", points.to_json())])
        }
        Event::PointStarted { id, index } => {
            tagged("point-started", [("id", id.to_json()), ("index", index.to_json())])
        }
        Event::Progress { id, index, gvt } => tagged(
            "progress",
            [("id", id.to_json()), ("index", index.to_json()), ("gvt", gvt.to_json())],
        ),
        Event::PointFinished { id, index, source, stats } => tagged(
            "point-finished",
            [
                ("id", id.to_json()),
                ("index", index.to_json()),
                ("cached", (*source != CacheSource::Fresh).to_json()),
                ("source", source.to_json()),
                ("stats", stats.to_json()),
            ],
        ),
        Event::PointFailed { id, index, error } => tagged(
            "point-failed",
            [("id", id.to_json()), ("index", index.to_json()), ("error", error.to_json())],
        ),
        Event::RunDone { id, ok, failed, cache } => tagged(
            if *failed == 0 { "run-complete" } else { "run-failed" },
            [
                ("id", id.to_json()),
                ("ok", ok.to_json()),
                ("failed", failed.to_json()),
                ("cache", cache.to_json()),
            ],
        ),
        Event::ServerStats { cache, clients } => {
            tagged("stats", [("cache", cache.to_json()), ("clients", clients.to_json())])
        }
        Event::Protocol(err) => {
            tagged("error", [("code", err.code.to_json()), ("message", err.message.to_json())])
        }
        Event::Bye => tagged("bye", []),
    }
    .render()
}

/// Parse one event line (the client half of the protocol; the load
/// generator and the round-trip tests use this).
///
/// # Errors
///
/// Returns a typed [`ProtoError`] for malformed JSON, an unknown type, or
/// invalid fields.
pub fn parse_event(line: &str) -> Result<Event, ProtoError> {
    let v = &parse_json(line)?;
    let kind = type_tag(v)?;
    match kind {
        "accepted" => Ok(Event::Accepted { id: field(v, "id")?, points: field(v, "points")? }),
        "point-started" => {
            Ok(Event::PointStarted { id: field(v, "id")?, index: field(v, "index")? })
        }
        "progress" => Ok(Event::Progress {
            id: field(v, "id")?,
            index: field(v, "index")?,
            gvt: field(v, "gvt")?,
        }),
        "point-finished" => {
            let source: CacheSource = field(v, "source")?;
            if field::<bool>(v, "cached")? != (source != CacheSource::Fresh) {
                return Err(ProtoError::bad_field("\"cached\" contradicts \"source\""));
            }
            Ok(Event::PointFinished {
                id: field(v, "id")?,
                index: field(v, "index")?,
                source,
                stats: field(v, "stats")?,
            })
        }
        "point-failed" => Ok(Event::PointFailed {
            id: field(v, "id")?,
            index: field(v, "index")?,
            error: field(v, "error")?,
        }),
        "run-complete" | "run-failed" => {
            let failed = field(v, "failed")?;
            if (kind == "run-complete") != (failed == 0) {
                return Err(ProtoError::bad_field("\"type\" contradicts \"failed\""));
            }
            Ok(Event::RunDone {
                id: field(v, "id")?,
                ok: field(v, "ok")?,
                failed,
                cache: field(v, "cache")?,
            })
        }
        "stats" => {
            Ok(Event::ServerStats { cache: field(v, "cache")?, clients: field(v, "clients")? })
        }
        "error" => Ok(Event::Protocol(ProtoError {
            code: field(v, "code")?,
            message: field(v, "message")?,
        })),
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
        let back = RunStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back, stats);
        // Byte-identical through a second encode: the wire form is stable.
        assert_eq!(back.to_json().render(), stats.to_json().render());
        // And the default (no link stats, empty vectors) round-trips too.
        let empty = RunStats::default();
        assert_eq!(RunStats::from_json(&empty.to_json()).unwrap(), empty);
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
        let mut v = sample_stats().to_json();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "noc_queue_cycles");
        }
        let err = RunStats::from_json(&v).unwrap_err();
        assert_eq!(err.code, ErrorCode::MissingField);
        assert!(err.message.contains("noc_queue_cycles"), "{err}");
    }

    /// Replace `breakdown.stall` in the sample stats' JSON form.
    fn with_stall(stall: Option<Value>) -> Value {
        let mut v = sample_stats().to_json();
        let Value::Obj(fields) = &mut v else { unreachable!("stats encode as an object") };
        let (_, Value::Obj(breakdown)) =
            fields.iter_mut().find(|(k, _)| k == "breakdown").expect("a breakdown field")
        else {
            unreachable!("the breakdown encodes as an object")
        };
        breakdown.retain(|(k, _)| k != "stall");
        if let Some(stall) = stall {
            breakdown.push(("stall".to_string(), stall));
        }
        v
    }

    #[test]
    fn nested_field_errors_name_the_nested_field() {
        let err = RunStats::from_json(&with_stall(None)).unwrap_err();
        assert_eq!(err.code, ErrorCode::MissingField, "{err}");
        assert_eq!(err.message, "missing field \"stall\"");
        let err = RunStats::from_json(&with_stall(Some(Value::str("four")))).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadField, "{err}");
        assert_eq!(err.message, "\"stall\": expected a non-negative integer");
        let mut v = sample_stats().to_json();
        let Value::Obj(fields) = &mut v else { unreachable!("stats encode as an object") };
        fields.retain(|(k, _)| k != "traffic");
        fields.push(("traffic".to_string(), Value::UInt(5)));
        let err = RunStats::from_json(&v).unwrap_err();
        assert_eq!(err.message, "\"traffic\": expected an object", "{err}");
        // So does a mistyped field of an event's nested object, and an unknown enum name.
        let event = render_event(&Event::ServerStats { cache: CacheReport::default(), clients: 1 })
            .replace("\"entries\":0", "\"entries\":-1");
        let err = parse_event(&event).unwrap_err();
        assert_eq!(
            (err.code, err.message.as_str()),
            (ErrorCode::BadField, "\"entries\": expected a non-negative integer")
        );
        let event = render_event(&Event::PointFinished {
            id: "r1".into(),
            index: 0,
            source: CacheSource::Fresh,
            stats: sample_stats(),
        })
        .replace("\"source\":\"run\"", "\"source\":\"tape\"");
        let err = parse_event(&event).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadField, "{err}");
        assert!(err.message.starts_with("\"source\": expected one of run memory disk"), "{err}");
    }

    /// `render_event` of a fresh `sample_stats()` point, as the
    /// hand-written encoder this codec replaced wrote it.
    const PINNED_POINT_FINISHED: &str = concat!(
        r#"{"type":"point-finished","id":"r1","index":0,"cached":false,"source":"run","#,
        r#""stats":{"scheduler":"Hints","app":"sssp","cores":4,"runtime_cycles":123456,"#,
        r#""breakdown":{"committed":100,"aborted":20,"spill":3,"stall":4,"empty":5},"#,
        r#""traffic":{"mem_flit_hops":11,"abort_flit_hops":22,"task_flit_hops":33,"gvt_flit_hops":44},"#,
        r#""tasks_committed":1000,"tasks_aborted":50,"tasks_spilled":7,"gvt_updates":99,"#,
        r#""lb_reconfigs":2,"noc_queue_cycles":12,"committed_cycles_per_tile":[10,20,30,40],"#,
        r#""committed_accesses":[{"hint":{"kind":"value","value":7},"num_args":2,"#,
        r#""accesses":[[4096,false],[4104,true]]}],"link_stats":{"links":[{"messages":5,"#,
        r#""flits":6,"queue_cycles":7,"occupancy_sum":8,"max_occupancy":9}],"#,
        r#""class_queue_cycles":[1,2,3,4]}}}"#,
    );

    #[test]
    fn point_finished_line_is_pinned() {
        let event = Event::PointFinished {
            id: "r1".into(),
            index: 0,
            source: CacheSource::Fresh,
            stats: sample_stats(),
        };
        assert_eq!(render_event(&event), PINNED_POINT_FINISHED);
        assert_eq!(parse_event(PINNED_POINT_FINISHED).unwrap(), event);
    }

    /// A disk-cache entry as `swarm serve --cache-dir` wrote it before this
    /// codec: sssp under Hints at 16 cores, tiny scale, contention NoC.
    const PINNED_CACHE_FILE: &str =
        include_str!("../tests/data/cache_entry_sssp_hints_16_contention.json");

    #[test]
    fn pinned_cache_file_decodes_and_re_encodes_byte_identically() {
        let stats = RunStats::from_json(&json::parse(PINNED_CACHE_FILE).unwrap()).unwrap();
        assert_eq!((stats.app.as_str(), stats.cores, stats.runtime_cycles), ("sssp", 16, 11800));
        let links = stats.link_stats.as_ref().expect("a contention run has link stats");
        assert_eq!(
            (links.links.len(), links.class_queue_cycles),
            (16, [48610, 33502, 10258, 17802])
        );
        assert_eq!(stats.to_json().render() + "\n", PINNED_CACHE_FILE);
    }
}

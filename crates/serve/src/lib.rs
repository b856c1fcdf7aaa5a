//! A long-lived simulation service with a content-addressed result cache.
//!
//! Every run in this reproduction is deterministic and fully described by
//! its [`RunPoint`] (app × scheduler × cores × scale × seed × NoC model ×
//! fault plan). This crate turns that property into a service:
//!
//! * [`point`] — [`RunPoint`], the one type that names a simulation point
//!   (the harness re-exports it as `swarm_bench::RunRequest`), with its
//!   JSON form and the one [`Canonical`](swarm_types::Canonical) impl;
//! * [`proto`] — a line-delimited JSON protocol with typed request,
//!   event, and error messages, and the one [`Wire`](proto::Wire) codec
//!   through which every payload type declares its JSON form once;
//! * [`cache`] — a content-addressed [`ResultCache`]: the canonical key of
//!   a run point ([`swarm_types::canon`]) addresses completed outcomes —
//!   [`RunStats`](swarm_sim::RunStats) or a typed failure — in a bounded
//!   memory tier and, for results, with `--cache-dir`, on disk, so
//!   repeated and overlapping requests are served without re-simulation;
//! * [`queue`] — a fairness-aware multi-tenant [`FairQueue`]: per-client
//!   round-robin with bounded in-flight points, so one large matrix cannot
//!   starve small interactive requests;
//! * [`exec`] — the [`PointRunner`] seam the server schedules points
//!   through; `swarm_bench` implements it on top of its work-sharing
//!   `Pool` (the dependency points *up* from this crate so the registry
//!   can host the `serve` subcommand);
//! * [`server`] — the [`Server`] itself: a stdin/stdout pipe mode and a
//!   `std::net` TCP listener mode, both speaking the same protocol, with
//!   cross-client deduplication of in-flight points and one dispatcher
//!   thread that runs every simulation.
//!
//! The `swarm serve` subcommand lives in `swarm_bench::figures`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod exec;
pub mod json;
pub mod point;
pub mod proto;
pub mod queue;
pub mod server;

pub use cache::ResultCache;
pub use exec::{PointOutcome, PointRunner};
pub use json::{JsonError, Value};
pub use point::RunPoint;
pub use proto::{
    parse_event, parse_request, CacheReport, CacheSource, Event, FailureKind, PointFailure,
    ProtoError, Request, SubmitRequest,
};
pub use queue::FairQueue;
pub use server::{PipeSummary, ServeOptions, Server, TcpServer, MAX_LINE_BYTES};

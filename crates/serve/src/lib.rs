//! A long-lived simulation service with a content-addressed result cache.
//!
//! Every run in this reproduction is deterministic and fully described by
//! its [`RunPoint`] (app × scheduler × cores × scale × seed × NoC model ×
//! fault plan). This crate turns that property into a service:
//!
//! * [`point`] — [`RunPoint`], the one type that names a simulation point
//!   (the harness re-exports it as `swarm_bench::RunRequest`), with its
//!   JSON form and the one [`Canonical`](swarm_types::Canonical) impl;
//! * [`proto`] — a line-delimited JSON protocol (strict parser + writer,
//!   hand-rolled: the offline build has no serde_json) with typed request,
//!   event, and error messages;
//! * [`cache`] — a content-addressed [`ResultCache`]: the canonical key of
//!   a run point ([`swarm_types::canon`]) addresses completed
//!   [`RunStats`](swarm_sim::RunStats) in memory and, with `--cache-dir`,
//!   on disk, so repeated and overlapping requests are served without
//!   re-simulation;
//! * [`queue`] — a fairness-aware multi-tenant [`FairQueue`]: per-client
//!   round-robin with bounded in-flight points, so one large matrix cannot
//!   starve small interactive requests;
//! * [`exec`] — the [`PointRunner`] seam the server schedules points
//!   through; `swarm_bench` implements it on top of its work-sharing
//!   `Pool` (the dependency points *up* from this crate so the registry
//!   can host the `serve` subcommand);
//! * [`server`] — the [`Server`] itself: a stdin/stdout pipe mode and a
//!   `std::net` TCP listener mode, both speaking the same protocol, with
//!   cross-client deduplication of in-flight points.
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

pub use cache::{CacheCounters, ResultCache};
pub use exec::{PointOutcome, PointRunner};
pub use json::{JsonError, Value};
pub use point::RunPoint;
pub use proto::{
    parse_event, parse_request, CacheReport, CacheSource, Event, FailureKind, PointFailure,
    ProtoError, Request, SubmitRequest,
};
pub use queue::FairQueue;
pub use server::{PipeSummary, ServeOptions, Server, TcpServer, MAX_LINE_BYTES};

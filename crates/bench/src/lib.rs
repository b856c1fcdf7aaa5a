//! Experiment harness for the reproduction's evaluation (Sections V–VI of
//! the paper): runs the nine benchmarks under the four schedulers at several
//! core counts and prints the tables and series behind every figure.
//!
//! The crate splits into these layers:
//!
//! * [`runner`] — executing one simulation point ([`RunRequest`], the
//!   harness's name for [`swarm_serve::RunPoint`], → [`swarm_sim::RunStats`]),
//!   plus the hand-written serial sweep used as the determinism reference;
//! * [`pool`] — the parallel experiment runner: a dynamic work-sharing
//!   thread pool ([`Pool`]) that executes whole scheduler × app × core-count
//!   matrices across OS threads and joins results in deterministic request
//!   order;
//! * [`report`] — plain-text table formatting matching the paper's figures;
//! * [`figures`] — the body of every figure/table command, parameterized by
//!   [`HarnessArgs`] (`--cores`, `--scale`, `--seed`, `--apps`,
//!   `--schedulers`, `--jobs`, `--on-error`);
//! * [`registry`] — the name → figure table behind the `swarm` binary
//!   (`swarm list`, `swarm fig2 ...`; see `REPRODUCING.md` in the
//!   repository root for the full index).
//!
//! Failure handling: every point runs through [`runner::run_point_result`],
//! which converts panics and typed simulator errors into [`RunError`]
//! values, and every [`Pool`] method hands those back per slot. The pool's
//! [`FailurePolicy`] decides whether a failure stops the matrix (`FailFast`,
//! the default: points not yet started come back skipped), lets the rest
//! finish (`CollectAll`), or retries. Either way every figure renders its
//! missing points as `n/a` cells, names each root cause once on stderr, and
//! exits with the codes in [`exit_code`].

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod pool;
pub mod registry;
pub mod report;
pub mod runner;

/// Process exit codes of the `swarm` subcommands.
pub mod exit_code {
    /// Everything ran and validated.
    pub const OK: i32 = 0;
    /// Bad command line (unknown subcommand, malformed `--plan`, ...).
    pub const USAGE: i32 = 2;
    /// Some simulation points failed; the surviving results were printed
    /// with `n/a` cells for the failed points.
    pub const PARTIAL: i32 = 3;
    /// The chaos battery found a contract violation (a fault made a run
    /// hang, panic, or go nondeterministic instead of failing typed).
    pub const CHAOS: i32 = 4;
}

pub use cli::{ExtraFlag, HarnessArgs, ListArg, UsageError};
pub use pool::{CurveSpec, FailurePolicy, PointResult, Pool, ResultCurve, StatsResult};
pub use registry::{find as find_command, FigureSpec, REGISTRY};
pub use report::{
    classification_header, format_breakdown_table_results, format_classification_row,
    format_speedup_table_results, format_traffic_queueing_table_results,
    format_traffic_table_results, gmean,
};
pub use runner::{
    run_point_result, run_point_result_observed, speedup_curve, ExperimentPoint, RunError,
    RunRequest,
};

//! The `serve` subcommand: a long-lived simulation service.
//!
//! ```text
//! swarm serve                         # pipe mode: protocol on stdin/stdout
//! swarm serve --tcp 127.0.0.1:7433    # TCP mode: one session per connection
//! swarm serve --cache-dir .swarm-cache
//! ```
//!
//! The protocol, cache, and scheduling core live in `swarm_serve`; this
//! module supplies the [`PointRunner`] implementation on top of the
//! work-sharing [`Pool`] (so `--jobs` means the same thing it means for
//! every sweep command) and maps the session outcome onto the harness exit
//! codes: a protocol error or invalid point exits
//! [`USAGE`](crate::exit_code::USAGE), a simulation failure exits
//! [`PARTIAL`](crate::exit_code::PARTIAL) — after the session completes,
//! since a serve session keeps answering across bad requests by design.

use std::path::PathBuf;

use swarm_serve::{
    FailureKind, PipeSummary, PointFailure, PointOutcome, PointRunner, RunPoint, ServeOptions,
    Server, TcpServer,
};

use crate::pool::{FailurePolicy, Pool};
use crate::runner::RunError;

/// Project a [`RunError`] onto the protocol failure taxonomy. The wire
/// message is the error's display form, which already names the point.
fn to_failure(err: &RunError) -> PointFailure {
    let kind = match err {
        RunError::InvalidPoint { .. } => FailureKind::InvalidPoint,
        RunError::Sim { .. } => FailureKind::Sim,
        RunError::Panicked { .. } => FailureKind::Panicked,
        RunError::Skipped { .. } => FailureKind::Skipped,
    };
    PointFailure { kind, message: err.to_string() }
}

/// The [`PointRunner`] the server schedules on: batches go through the
/// work-sharing [`Pool`] under [`FailurePolicy::CollectAll`] (one bad point
/// must not skip its batch-mates).
struct PoolRunner {
    pool: Pool,
}

impl PoolRunner {
    fn new(jobs: usize) -> PoolRunner {
        PoolRunner { pool: Pool::new(jobs).with_policy(FailurePolicy::CollectAll) }
    }
}

impl PointRunner for PoolRunner {
    fn run_batch(&self, points: &[RunPoint]) -> Vec<PointOutcome> {
        self.pool
            .try_run_matrix(points)
            .into_iter()
            .map(|result| result.map_err(|err| to_failure(&err)))
            .collect()
    }
}

/// The flags `serve` accepts (all optional), for usage and did-you-mean.
const SERVE_FLAGS: &[&str] = &["--tcp", "--cache-dir", "--jobs", "--mem-entries", "--help"];

fn usage() -> String {
    [
        "usage: swarm serve [--tcp ADDR] [--cache-dir DIR] [--jobs N] [--mem-entries N]",
        "",
        "Long-lived simulation service speaking line-delimited JSON.",
        "Default is pipe mode (requests on stdin, events on stdout);",
        "--tcp ADDR serves one session per TCP connection instead.",
        "",
        "  --tcp ADDR            listen on ADDR (e.g. 127.0.0.1:7433; port 0 picks one)",
        "  --cache-dir DIR       persist results to DIR (content-addressed, survives restarts)",
        "  --jobs N              simulation worker threads (0 = available parallelism)",
        "  --mem-entries N       in-memory cache capacity in results (default 1024)",
    ]
    .join("\n")
}

#[derive(Debug)]
struct ServeArgs {
    tcp: Option<String>,
    jobs: usize,
    options: ServeOptions,
}

fn parse_serve_args(args: &[String]) -> Result<Option<ServeArgs>, String> {
    let mut it = args.iter();
    let mut tcp = None;
    let mut jobs = 0usize;
    let mut options = ServeOptions::default();
    let mut seen: Vec<&str> = Vec::new();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            if seen.contains(&arg.as_str()) {
                return Err(format!("{arg} given twice"));
            }
            seen.push(arg);
        }
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--tcp" => tcp = Some(value("--tcp")?),
            "--cache-dir" => options.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--jobs" => {
                jobs = parse_num(&value("--jobs")?, "--jobs")?;
            }
            "--mem-entries" => {
                options.mem_entries = parse_num(&value("--mem-entries")?, "--mem-entries")?;
            }
            other => {
                let mut msg = format!("unknown flag '{other}'");
                if let Some(near) = crate::cli::closest_flag(other, SERVE_FLAGS.iter().copied()) {
                    msg.push_str(&format!(" (did you mean '{near}'?)"));
                }
                return Err(msg);
            }
        }
    }
    Ok(Some(ServeArgs { tcp, jobs, options }))
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: '{raw}' is not a valid number"))
}

/// Run the `serve` command with the argument slice following the
/// subcommand name.
pub fn run(args: &[String]) -> i32 {
    let parsed = match parse_serve_args(args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{}", usage());
            return crate::exit_code::OK;
        }
        Err(msg) => {
            eprintln!("swarm serve: {msg}");
            eprintln!("{}", usage());
            return crate::exit_code::USAGE;
        }
    };
    let runner = PoolRunner::new(parsed.jobs);
    let server = match Server::new(runner, parsed.options) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("swarm serve: creating cache directory failed: {err}");
            return crate::exit_code::USAGE;
        }
    };
    match parsed.tcp {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            match server.serve_pipe(stdin.lock(), stdout.lock()) {
                Ok(summary) => summary_exit_code(summary),
                Err(err) => {
                    eprintln!("swarm serve: session I/O failed: {err}");
                    crate::exit_code::PARTIAL
                }
            }
        }
        Some(addr) => {
            let tcp = match TcpServer::spawn(addr.as_str(), server) {
                Ok(tcp) => tcp,
                Err(err) => {
                    eprintln!("swarm serve: binding {addr} failed: {err}");
                    return crate::exit_code::USAGE;
                }
            };
            eprintln!("swarm serve: listening on {}", tcp.local_addr());
            // Serve until the process is killed: the accept loop owns the
            // lifetime; joining it blocks forever, which is the point of a
            // long-lived service.
            loop {
                std::thread::park();
            }
        }
    }
}

/// Map what a pipe session saw onto the harness exit codes: protocol
/// errors and invalid points are usage errors, simulation failures are
/// partial results, a clean session is OK.
fn summary_exit_code(summary: PipeSummary) -> i32 {
    if summary.saw_protocol_error || summary.saw_invalid_point {
        crate::exit_code::USAGE
    } else if summary.saw_run_failure {
        crate::exit_code::PARTIAL
    } else {
        crate::exit_code::OK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_hints::Scheduler;
    use swarm_apps::{AppSpec, BenchmarkId, InputScale};

    #[test]
    fn pool_runner_matches_the_direct_runner_bit_for_bit() {
        let point = RunPoint::new(
            AppSpec::coarse(BenchmarkId::Sssp),
            Scheduler::Hints,
            4,
            InputScale::Tiny,
        );
        let direct = crate::runner::run_point_result(point, false).unwrap();
        let via_pool = PoolRunner::new(1).run_batch(&[point]).pop().unwrap().unwrap();
        assert_eq!(via_pool, direct);
    }

    #[test]
    fn failures_project_onto_the_protocol_taxonomy() {
        let request = RunPoint::new(
            AppSpec::coarse(BenchmarkId::Bfs),
            Scheduler::Random,
            2,
            InputScale::Tiny,
        );
        let cases = [
            (
                RunError::InvalidPoint { request, error: swarm_sim::BuildError::MissingApp },
                FailureKind::InvalidPoint,
            ),
            (
                RunError::Sim { request, error: swarm_types::SimError::TaskLimitExceeded(1) },
                FailureKind::Sim,
            ),
            (RunError::Panicked { request, message: "boom".into() }, FailureKind::Panicked),
            (RunError::Skipped { request }, FailureKind::Skipped),
        ];
        for (err, kind) in cases {
            let failure = to_failure(&err);
            assert_eq!(failure.kind, kind);
            assert_eq!(failure.message, err.to_string());
        }
    }

    #[test]
    fn serve_args_parse_strictly_with_did_you_mean() {
        let ok =
            parse_serve_args(&["--jobs".into(), "2".into(), "--mem-entries".into(), "8".into()])
                .unwrap()
                .unwrap();
        assert_eq!(ok.jobs, 2);
        assert_eq!(ok.options.mem_entries, 8);
        assert!(parse_serve_args(&["--help".into()]).unwrap().is_none());
        let err = parse_serve_args(&["--tpc".into(), "x".into()]).unwrap_err();
        assert!(err.contains("did you mean '--tcp'?"), "{err}");
        let err = parse_serve_args(&["--cache-dir".into()]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err = parse_serve_args(&["--tcp".into(), "a".into(), "--tcp".into(), "b".into()])
            .unwrap_err();
        assert_eq!(err, "--tcp given twice");
    }
}

//! Command-line parsing shared by every subcommand of the `swarm` binary.
//!
//! Every figure command accepts:
//!
//! * `--cores 1,4,16,64` — the core counts to sweep (default `1,4,16,64`);
//! * `--scale tiny|small|medium` — workload size (default `small`);
//! * `--seed N` — workload seed (default fixed);
//! * `--apps a,b,c` — restrict to a subset of benchmarks where applicable;
//! * `--schedulers random,stealing,hints,lbhints` — restrict the scheduler
//!   comparison;
//! * `--noc analytic|contention` — network model (default `analytic`, the
//!   paper's fixed-latency mesh; `contention` adds per-link queueing);
//! * `--jobs N` — worker threads for the experiment matrix (default: all
//!   available hardware threads; `--jobs 1` forces the serial path);
//! * `--on-error fail|collect` — what the pool does when a point fails
//!   (default `fail`: stop promptly; `collect` runs everything). Under
//!   either policy a missing point prints as an `n/a` cell and the command
//!   exits 3. There is no retry: runs are deterministic.
//!
//! Parsing is strict: an unknown `--flag`, a flag given twice, a flag missing
//! its value, or an unrecognised value is a usage error (exit 2 with a
//! diagnostic on stderr), not a silent fallback. List flags (`--apps`, `--schedulers`, `--cores`)
//! warn on stderr about each element they drop and fail when an explicitly
//! passed list ends up selecting nothing. Bare positional tokens are still
//! tolerated so wrapper scripts can pass benchmark names positionally.

use std::str::FromStr;

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_types::NocModel;

use crate::pool::{CurveSpec, FailurePolicy, Pool, ResultCurve};
use crate::runner::RunRequest;

/// Why parsing stopped without producing usable [`HarnessArgs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// `-h`/`--help` was passed: print usage and exit 0.
    Help,
    /// A malformed flag or value: print the message and exit 2.
    Invalid(String),
}

impl UsageError {
    fn invalid(msg: impl Into<String>) -> Self {
        UsageError::Invalid(msg.into())
    }
}

/// A command-specific flag a figure accepts on top of the shared set (e.g.
/// `summary --json`, `chaos --plan SPEC`). Declaring it keeps the strict
/// parser from rejecting it as unknown; the parser records its value, which
/// the figure reads back through [`HarnessArgs::extra`].
#[derive(Debug, Clone, Copy)]
pub struct ExtraFlag {
    /// Full flag spelling, including the leading dashes (e.g. `"--json"`).
    pub name: &'static str,
    /// Whether the flag consumes the following token as its value.
    pub takes_value: bool,
}

/// The shared flags, for usage text and did-you-mean suggestions.
const KNOWN_FLAGS: &[&str] = &[
    "--cores",
    "--scale",
    "--seed",
    "--apps",
    "--schedulers",
    "--noc",
    "--jobs",
    "--on-error",
    "--help",
];

/// A list-valued flag that remembers whether the user set it explicitly.
///
/// Several figures narrow the default app or scheduler set (`fig4` omits
/// LBHints, `table2` defaults to the beyond-Table-I workloads), but an
/// explicit request must always win — even when it happens to name the
/// default set. This used to be hand-rolled twice (`apps`/`apps_explicit`,
/// `schedulers`/`schedulers_explicit`); [`ListArg`] is the one shared
/// implementation.
///
/// Dereferences to a slice, so `args.apps.iter()`, `.len()` and
/// `.contains(..)` work directly.
#[derive(Debug, Clone)]
pub struct ListArg<T> {
    values: Vec<T>,
    explicit: bool,
}

impl<T: Clone> ListArg<T> {
    /// A default (non-explicit) value.
    pub fn implicit(default: Vec<T>) -> Self {
        ListArg { values: default, explicit: false }
    }

    /// Whether the user set this flag explicitly.
    pub fn is_explicit(&self) -> bool {
        self.explicit
    }

    /// The parsed values, replaced by `figure_default` when the flag was not
    /// given explicitly. An explicit value always wins, even when it names
    /// the global default set.
    pub fn or(&self, figure_default: &[T]) -> Vec<T> {
        if self.explicit {
            self.values.clone()
        } else {
            figure_default.to_vec()
        }
    }

    /// Overwrite with values parsed from a comma-separated flag argument and
    /// mark the flag explicit. Each element that fails to parse, and each
    /// repeat of an earlier element (which would print the same row or
    /// column twice), is dropped and reported via `warnings`; a list that
    /// ends up selecting nothing is a usage error (a silently empty
    /// selection used to make figures print headers over zero rows).
    fn set_from_csv(
        &mut self,
        flag: &str,
        raw: &str,
        valid: &str,
        warnings: &mut Vec<String>,
    ) -> Result<(), UsageError>
    where
        T: FromStr + PartialEq,
    {
        let mut values = Vec::new();
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.parse() {
                Ok(v) if values.contains(&v) => {
                    warnings.push(format!("{flag}: ignoring repeated value '{part}'"));
                }
                Ok(v) => values.push(v),
                Err(_) => warnings
                    .push(format!("{flag}: ignoring unrecognized value '{part}' (valid: {valid})")),
            }
        }
        if values.is_empty() {
            return Err(UsageError::invalid(format!(
                "{flag} '{raw}' selects nothing (valid: {valid})"
            )));
        }
        self.values = values;
        self.explicit = true;
        Ok(())
    }
}

impl<T> std::ops::Deref for ListArg<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.values
    }
}

/// Parse an `--on-error` value: `fail` or `collect`.
fn parse_policy(raw: &str) -> Option<FailurePolicy> {
    match raw.to_ascii_lowercase().as_str() {
        "fail" => Some(FailurePolicy::FailFast),
        "collect" => Some(FailurePolicy::CollectAll),
        _ => None,
    }
}

/// Comma-joined benchmark names, for diagnostics.
fn valid_apps() -> String {
    BenchmarkId::ALL.iter().map(|b| b.name()).collect::<Vec<_>>().join(", ")
}

/// Comma-joined scheduler names, for diagnostics. Display names are
/// capitalised ("LBHints"), but `FromStr` accepts the lowercase spellings,
/// so that is what the diagnostic suggests.
fn valid_schedulers() -> String {
    Scheduler::ALL.iter().map(|s| s.name().to_ascii_lowercase()).collect::<Vec<_>>().join(", ")
}

/// Levenshtein edit distance, for the unknown-flag did-you-mean hint. The
/// candidate set is a handful of short flag names, so the textbook DP is
/// plenty.
pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest known flag within an edit distance of 3, if any (ties break
/// alphabetically so the hint is deterministic).
pub(crate) fn closest_flag<'a>(
    flag: &str,
    candidates: impl Iterator<Item = &'a str>,
) -> Option<&'a str> {
    candidates
        .map(|c| (levenshtein(flag, c), c))
        .filter(|&(d, _)| d <= 3)
        .min_by_key(|&(d, c)| (d, c))
        .map(|(_, c)| c)
}

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Core counts to sweep (defaults to 1,4,16,64; the `chaos` command
    /// narrows it via [`HarnessArgs::cores_or`]).
    pub cores: ListArg<u32>,
    /// Workload scale.
    pub scale: InputScale,
    /// Workload seed.
    pub seed: u64,
    /// Benchmarks to run (defaults to the nine of Table I; `table2` defaults
    /// to the beyond-Table-I set via [`HarnessArgs::apps_or`]).
    pub apps: ListArg<BenchmarkId>,
    /// Schedulers to compare (defaults to Random/Stealing/Hints/LBHints;
    /// several figures narrow it via [`HarnessArgs::schedulers_or`]).
    pub schedulers: ListArg<Scheduler>,
    /// Network model (`--noc`; default analytic, the paper's fixed-latency
    /// mesh).
    pub noc: NocModel,
    /// Worker threads for the experiment matrix (0 = available parallelism).
    pub jobs: usize,
    /// What the pool does when a point fails (`--on-error`).
    pub policy: FailurePolicy,
    /// Diagnostics for tolerated-but-suspect input (dropped list elements);
    /// [`HarnessArgs::parse_args`] prints them to stderr.
    pub warnings: Vec<String>,
    /// The command-specific extra flags given, with their values (empty for
    /// a flag that takes none); read through [`HarnessArgs::extra`].
    extras: Vec<(&'static str, String)>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            cores: ListArg::implicit(vec![1, 4, 16, 64]),
            scale: InputScale::Small,
            seed: 0xF1605,
            apps: ListArg::implicit(BenchmarkId::TABLE1.to_vec()),
            schedulers: ListArg::implicit(Scheduler::ALL.to_vec()),
            noc: NocModel::Analytic,
            jobs: 0,
            policy: FailurePolicy::FailFast,
            warnings: Vec::new(),
            extras: Vec::new(),
        }
    }
}

/// Print the shared flag usage (the per-command `--help` text).
fn print_flag_usage() {
    println!("common flags (all figure commands):");
    println!("  --cores A,B,C           core counts to sweep (default 1,4,16,64)");
    println!("  --scale tiny|small|medium");
    println!("                          workload size (default small)");
    println!("  --seed N                workload seed");
    println!("  --apps a,b,c            restrict the benchmark set");
    println!("  --schedulers a,b,c      restrict the scheduler comparison");
    println!("  --noc analytic|contention");
    println!("                          network model (default analytic)");
    println!("  --jobs N                worker threads (default: all hardware threads)");
    println!("  --on-error fail|collect");
    println!("                          failure policy for the experiment pool");
}

impl HarnessArgs {
    /// Parse the argument slice a `swarm` subcommand receives (everything
    /// after the subcommand name), printing diagnostics. `Err` carries the
    /// process exit code: 0 after `--help`, 2 on a usage error.
    ///
    /// # Errors
    ///
    /// Returns the exit code the command should return: [`crate::exit_code::OK`]
    /// after printing `--help` text, [`crate::exit_code::USAGE`] after a
    /// malformed flag or value.
    pub fn parse_args(args: &[String]) -> Result<Self, i32> {
        Self::parse_args_with(args, &[])
    }

    /// [`HarnessArgs::parse_args`] for commands with extra flags of their
    /// own (e.g. `summary --json`, `chaos --plan`). The extras are accepted
    /// instead of rejected as unknown, and the command reads their values
    /// through [`HarnessArgs::extra`].
    ///
    /// # Errors
    ///
    /// Same contract as [`HarnessArgs::parse_args`].
    pub fn parse_args_with(args: &[String], extras: &[ExtraFlag]) -> Result<Self, i32> {
        match Self::parse_from_with(args.to_vec(), extras) {
            Ok(parsed) => {
                for w in &parsed.warnings {
                    eprintln!("warning: {w}");
                }
                Ok(parsed)
            }
            Err(UsageError::Help) => {
                print_flag_usage();
                Err(crate::exit_code::OK)
            }
            Err(UsageError::Invalid(msg)) => {
                eprintln!("error: {msg}");
                Err(crate::exit_code::USAGE)
            }
        }
    }

    /// Parse from an explicit argument vector with no extra flags.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError::Help`] on `-h`/`--help` and
    /// [`UsageError::Invalid`] on malformed input.
    pub fn parse_from(args: Vec<String>) -> Result<Self, UsageError> {
        Self::parse_from_with(args, &[])
    }

    /// Parse from an explicit argument vector, tolerating the given
    /// command-specific extra flags.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError::Help`] on `-h`/`--help` and
    /// [`UsageError::Invalid`] on an unknown `--flag`, a flag given twice
    /// (which of the two should win is anyone's guess), a flag missing its
    /// value, an unrecognised value, or an explicit list flag that selects
    /// nothing.
    pub fn parse_from_with(args: Vec<String>, extras: &[ExtraFlag]) -> Result<Self, UsageError> {
        let mut parsed = HarnessArgs::default();
        let mut seen: Vec<String> = Vec::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag.starts_with("--") {
                if seen.contains(&flag) {
                    return Err(UsageError::invalid(format!("{flag} given twice")));
                }
                seen.push(flag.clone());
            }
            let mut value = |name: &str| {
                it.next().ok_or_else(|| UsageError::invalid(format!("{name} requires a value")))
            };
            match flag.as_str() {
                "--help" | "-h" => return Err(UsageError::Help),
                "--cores" => {
                    let v = value("--cores")?;
                    parsed.cores.set_from_csv(
                        "--cores",
                        &v,
                        "positive integers",
                        &mut parsed.warnings,
                    )?;
                }
                "--scale" => {
                    let v = value("--scale")?;
                    parsed.scale = v.parse().map_err(|e| {
                        let valid = InputScale::ALL.map(InputScale::name).join(", ");
                        UsageError::invalid(format!("{e} (valid: {valid})"))
                    })?;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    parsed.seed = v.parse().map_err(|_| {
                        UsageError::invalid(format!("--seed '{v}' is not a number"))
                    })?;
                }
                "--apps" => {
                    let v = value("--apps")?;
                    parsed.apps.set_from_csv("--apps", &v, &valid_apps(), &mut parsed.warnings)?;
                }
                "--schedulers" => {
                    let v = value("--schedulers")?;
                    parsed.schedulers.set_from_csv(
                        "--schedulers",
                        &v,
                        &valid_schedulers(),
                        &mut parsed.warnings,
                    )?;
                }
                "--noc" => {
                    let v = value("--noc")?;
                    parsed.noc = v.parse().map_err(|e| {
                        let valid = NocModel::ALL.map(NocModel::name).join(", ");
                        UsageError::invalid(format!("{e} (valid: {valid})"))
                    })?;
                }
                "--jobs" => {
                    let v = value("--jobs")?;
                    parsed.jobs = v.parse().map_err(|_| {
                        UsageError::invalid(format!("--jobs '{v}' is not a number"))
                    })?;
                }
                "--on-error" => {
                    let v = value("--on-error")?;
                    parsed.policy = parse_policy(&v).ok_or_else(|| {
                        UsageError::invalid(format!(
                            "unknown --on-error policy '{v}' (valid: fail, collect)"
                        ))
                    })?;
                }
                other if extras.iter().any(|e| e.name == other) => {
                    let extra = extras.iter().find(|e| e.name == other).expect("matched above");
                    let v = if extra.takes_value { value(extra.name)? } else { String::new() };
                    parsed.extras.push((extra.name, v));
                }
                other if other.starts_with("--") => {
                    let known = KNOWN_FLAGS.iter().copied().chain(extras.iter().map(|e| e.name));
                    let hint = match closest_flag(other, known) {
                        Some(best) => format!(" (did you mean '{best}'?)"),
                        None => String::new(),
                    };
                    return Err(UsageError::invalid(format!("unknown flag '{other}'{hint}")));
                }
                // Bare positionals (and single-dash tokens other than -h)
                // stay tolerated: wrapper scripts pass benchmark names
                // positionally and the figures ignore them.
                _ => {}
            }
        }
        Ok(parsed)
    }

    /// The value of the command-specific extra flag `name` if it was given
    /// (empty for a flag that takes no value), `None` otherwise.
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The largest core count in the sweep (used by the breakdown figures,
    /// which the paper reports at the maximum machine size).
    pub fn max_cores(&self) -> u32 {
        self.cores.iter().copied().max().unwrap_or(1)
    }

    /// The experiment pool honouring `--jobs` and `--on-error`.
    pub fn pool(&self) -> Pool {
        Pool::new(self.jobs).with_policy(self.policy)
    }

    /// A request for one simulation point at this invocation's scale, seed
    /// and network model (what almost every figure matrix is built from).
    pub fn request(&self, spec: AppSpec, scheduler: Scheduler, cores: u32) -> RunRequest {
        RunRequest {
            spec,
            scheduler,
            cores,
            scale: self.scale,
            seed: self.seed,
            fault: None,
            noc: self.noc,
        }
    }

    /// Sweep `series` over the core counts, each curve against its own
    /// 1-core run, with every point at this invocation's scale, seed and
    /// network model.
    pub fn speedup_curves(&self, series: &[CurveSpec]) -> Vec<ResultCurve> {
        let groups: Vec<_> =
            series.iter().map(|s| (self.request(s.1, s.2, 1), vec![s.clone()])).collect();
        self.pool().try_speedup_curve_groups(&groups, &self.cores).into_iter().flatten().collect()
    }

    /// The core counts to sweep, replaced by `figure_default` when the user
    /// did not pass `--cores` (the `chaos` command sweeps a smaller default
    /// than the figures). An explicit `--cores` always wins.
    pub fn cores_or(&self, figure_default: &[u32]) -> Vec<u32> {
        self.cores.or(figure_default)
    }

    /// The benchmarks to run, replaced by `figure_default` when the user did
    /// not pass `--apps` (the `table2` command defaults to the
    /// beyond-Table-I workloads instead of the Table I nine). An explicit
    /// `--apps` always wins.
    pub fn apps_or(&self, figure_default: &[BenchmarkId]) -> Vec<BenchmarkId> {
        self.apps.or(figure_default)
    }

    /// The schedulers to compare, restricted to `figure_default` when the
    /// user did not pass `--schedulers` (several figures omit LBHints, which
    /// only appears from Fig. 10 on). An explicit `--schedulers` always
    /// wins, even when it names the full default set.
    pub fn schedulers_or(&self, figure_default: &[Scheduler]) -> Vec<Scheduler> {
        self.schedulers.or(figure_default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn parse(v: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(s(v)).expect("arguments parse")
    }

    fn parse_err(v: &[&str]) -> String {
        match HarnessArgs::parse_from(s(v)) {
            Err(UsageError::Invalid(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn defaults_cover_the_table1_apps_and_all_schedulers() {
        // The default app set stays the Table I nine so the figure commands
        // keep reproducing the paper's evaluation; the beyond-Table-I
        // workloads are opted into via `--apps` or `apps_or`.
        let args = HarnessArgs::default();
        assert_eq!(&*args.apps, BenchmarkId::TABLE1);
        assert!(!args.apps.is_explicit());
        assert_eq!(args.schedulers.len(), 4);
        assert_eq!(args.max_cores(), 64);
        assert_eq!(args.noc, NocModel::Analytic);
    }

    #[test]
    fn apps_or_respects_explicit_choice() {
        let beyond = BenchmarkId::BEYOND_TABLE1;
        assert_eq!(HarnessArgs::default().apps_or(&beyond), beyond.to_vec());
        let explicit = parse(&["--apps", "kvstore,des"]);
        assert!(explicit.apps.is_explicit());
        assert_eq!(
            explicit.apps_or(&beyond),
            vec![BenchmarkId::Kvstore, BenchmarkId::Des],
            "an explicit --apps must win over the figure default"
        );
    }

    #[test]
    fn parses_cores_scale_apps_and_noc() {
        let args = parse(&[
            "--cores",
            "1,2,8",
            "--scale",
            "tiny",
            "--apps",
            "des,kmeans",
            "--seed",
            "9",
            "--noc",
            "contention",
        ]);
        assert_eq!(&*args.cores, [1, 2, 8]);
        assert_eq!(args.scale, InputScale::Tiny);
        assert_eq!(&*args.apps, [BenchmarkId::Des, BenchmarkId::Kmeans]);
        assert_eq!(args.seed, 9);
        assert_eq!(args.noc, NocModel::Contention);
        assert!(args.warnings.is_empty());
    }

    #[test]
    fn unknown_scale_is_a_usage_error_naming_the_valid_set() {
        // `--scale full` used to fall through to Small silently; figures
        // then reported Small numbers under a "full"-scale invocation.
        let msg = parse_err(&["--scale", "full"]);
        assert!(msg.contains("full") && msg.contains("tiny, small, medium"), "got: {msg}");
        let typo = parse_err(&["--scale", "smal"]);
        assert!(typo.contains("smal"), "got: {typo}");
    }

    #[test]
    fn unknown_flags_are_rejected_with_a_hint() {
        let msg = parse_err(&["--schedulres", "hints"]);
        assert!(msg.contains("--schedulres"), "got: {msg}");
        assert!(msg.contains("did you mean '--schedulers'"), "got: {msg}");
        // Nothing close: no hint, still an error.
        let none = parse_err(&["--bogus-flag"]);
        assert!(none.contains("--bogus-flag") && !none.contains("did you mean"), "got: {none}");
        // Bare positionals stay tolerated for wrapper scripts.
        let ok = parse(&["bfs", "--cores", "1,2"]);
        assert_eq!(&*ok.cores, [1, 2]);
    }

    #[test]
    fn extra_flags_are_tolerated_when_declared() {
        let extras = [
            ExtraFlag { name: "--json", takes_value: false },
            ExtraFlag { name: "--plan", takes_value: true },
        ];
        let args = HarnessArgs::parse_from_with(s(&["--json", "--cores", "1,2"]), &extras)
            .expect("declared extra flag parses");
        assert_eq!(&*args.cores, [1, 2]);
        assert_eq!(args.extra("--json"), Some(""));
        assert_eq!(args.extra("--plan"), None);
        // A value-taking extra consumes its value so the value is not
        // mistaken for a positional or flag, and records it.
        let planned = HarnessArgs::parse_from_with(s(&["--plan", "dup@3", "--jobs", "2"]), &extras)
            .expect("--plan consumes its value");
        assert_eq!(planned.jobs, 2);
        assert_eq!(planned.extra("--plan"), Some("dup@3"));
        assert_eq!(planned.extra("--json"), None);
        // ... and missing its value is an error like any other flag.
        let msg = match HarnessArgs::parse_from_with(s(&["--plan"]), &extras) {
            Err(UsageError::Invalid(msg)) => msg,
            other => panic!("expected usage error, got {other:?}"),
        };
        assert!(msg.contains("--plan requires a value"), "got: {msg}");
        // Undeclared, it is rejected.
        assert!(matches!(HarnessArgs::parse_from(s(&["--json"])), Err(UsageError::Invalid(_))));
    }

    #[test]
    fn trailing_flag_without_value_is_a_usage_error() {
        let msg = parse_err(&["--jobs"]);
        assert!(msg.contains("--jobs requires a value"), "got: {msg}");
        let scale = parse_err(&["--cores", "1,2", "--scale"]);
        assert!(scale.contains("--scale requires a value"), "got: {scale}");
    }

    #[test]
    fn dropped_list_elements_warn_and_empty_lists_fail() {
        // Partial drop: warn, keep the parsable subset.
        let args = parse(&["--schedulers", "hints,hintz"]);
        assert_eq!(&*args.schedulers, [Scheduler::Hints]);
        assert_eq!(args.warnings.len(), 1);
        assert!(args.warnings[0].contains("hintz"), "got: {:?}", args.warnings);
        // Wholly unparsable: usage error naming the valid set.
        let msg = parse_err(&["--schedulers", "hintz"]);
        assert!(msg.contains("hintz") && msg.contains("hints"), "got: {msg}");
        let apps = parse_err(&["--apps", "zorp,blag"]);
        assert!(apps.contains("zorp,blag") && apps.contains("bfs"), "got: {apps}");
        let cores = parse_err(&["--cores", "x"]);
        assert!(cores.contains("--cores"), "got: {cores}");
    }

    #[test]
    fn repeated_list_elements_keep_the_first_and_warn() {
        let args = parse(&["--cores", "4,1,4", "--schedulers", "hints,random,hints"]);
        assert_eq!(&*args.cores, [4, 1]);
        assert_eq!(&*args.schedulers, [Scheduler::Hints, Scheduler::Random]);
        assert_eq!(args.warnings.len(), 2, "got: {:?}", args.warnings);
        assert!(args.warnings[0].contains("--cores") && args.warnings[0].contains("'4'"));
        assert!(args.warnings[1].contains("--schedulers") && args.warnings[1].contains("'hints'"));
        // Repeats are found by value, not spelling.
        let apps = parse(&["--apps", "bfs,BFS"]);
        assert_eq!(&*apps.apps, [BenchmarkId::Bfs]);
        assert!(apps.warnings[0].contains("repeated value 'BFS'"), "got: {:?}", apps.warnings);
    }

    #[test]
    fn bad_seed_jobs_and_noc_are_usage_errors() {
        assert!(parse_err(&["--seed", "nine"]).contains("--seed"));
        assert!(parse_err(&["--jobs", "many"]).contains("--jobs"));
        let noc = parse_err(&["--noc", "magic"]);
        assert!(noc.contains("analytic, contention"), "got: {noc}");
    }

    #[test]
    fn help_flag_requests_usage() {
        assert!(matches!(HarnessArgs::parse_from(s(&["--help"])), Err(UsageError::Help)));
        assert!(matches!(HarnessArgs::parse_from(s(&["-h"])), Err(UsageError::Help)));
    }

    #[test]
    fn jobs_flag_selects_pool_size() {
        let args = parse(&["--jobs", "3"]);
        assert_eq!(args.jobs, 3);
        assert_eq!(args.pool().jobs(), 3);
        // Default (0) resolves to the machine's available parallelism.
        let auto = HarnessArgs::default();
        assert_eq!(auto.pool().jobs(), crate::Pool::available_parallelism());
    }

    #[test]
    fn schedulers_or_respects_explicit_choice() {
        let subset = [Scheduler::Random, Scheduler::Hints];
        assert_eq!(HarnessArgs::default().schedulers_or(&subset), subset.to_vec());
        let explicit = parse(&["--schedulers", "lbhints"]);
        assert_eq!(explicit.schedulers_or(&subset), vec![Scheduler::LbHints]);
        // Explicitly naming the full default set is honoured, not silently
        // replaced by the figure default.
        let full = parse(&["--schedulers", "random,stealing,hints,lbhints"]);
        assert!(full.schedulers.is_explicit());
        assert_eq!(full.schedulers_or(&subset), Scheduler::ALL.to_vec());
    }

    #[test]
    fn cores_or_respects_explicit_choice() {
        assert_eq!(HarnessArgs::default().cores_or(&[1, 16]), vec![1, 16]);
        let explicit = parse(&["--cores", "1,4,16,64"]);
        assert!(explicit.cores.is_explicit());
        assert_eq!(explicit.cores_or(&[1, 16]), vec![1, 4, 16, 64]);
    }

    #[test]
    fn on_error_selects_the_failure_policy() {
        assert_eq!(HarnessArgs::default().policy, FailurePolicy::FailFast);
        let collect = parse(&["--on-error", "collect"]);
        assert_eq!(collect.policy, FailurePolicy::CollectAll);
        assert_eq!(collect.pool().policy(), FailurePolicy::CollectAll);
        // A malformed policy is a usage error, not a silent default.
        let msg = parse_err(&["--on-error", "explode"]);
        assert!(msg.contains("explode") && msg.contains("fail, collect"), "got: {msg}");
        // There is no retry policy: runs are deterministic.
        let retry = parse_err(&["--on-error", "retry:3"]);
        assert!(retry.contains("retry:3"), "got: {retry}");
    }

    #[test]
    fn a_flag_given_twice_is_a_usage_error() {
        // Scalar, list and extra flags alike: neither occurrence silently
        // wins.
        let policy = parse_err(&["--on-error", "collect", "--on-error", "fail"]);
        assert_eq!(policy, "--on-error given twice");
        let apps = parse_err(&["--apps", "des", "--cores", "1", "--apps", "bfs"]);
        assert_eq!(apps, "--apps given twice");
        assert_eq!(parse_err(&["--seed", "1", "--seed", "1"]), "--seed given twice");
        let extras = [ExtraFlag { name: "--plan", takes_value: true }];
        let plans = s(&["--plan", "duplicate@1", "--plan", "abort-storm@2"]);
        match HarnessArgs::parse_from_with(plans, &extras) {
            Err(UsageError::Invalid(msg)) => assert_eq!(msg, "--plan given twice"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        // A repeated bare positional is still tolerated.
        assert_eq!(&*parse(&["bfs", "bfs", "--cores", "2"]).cores, [2]);
    }

    #[test]
    fn request_carries_the_noc_model() {
        use swarm_apps::AppSpec;
        let args = parse(&["--noc", "contention"]);
        let spec = AppSpec::coarse(BenchmarkId::Bfs);
        let req = args.request(spec, Scheduler::Hints, 16);
        assert_eq!(req.noc, NocModel::Contention);
        assert_eq!(parse(&[]).request(spec, Scheduler::Hints, 16).noc, NocModel::Analytic);
    }

    #[test]
    fn list_args_deref_to_slices() {
        let args = parse(&["--apps", "des"]);
        assert!(args.apps.contains(&BenchmarkId::Des));
        assert_eq!(args.apps.len(), 1);
        assert_eq!(args.apps.iter().count(), 1);
    }
}

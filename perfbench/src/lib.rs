//! The repository's benchmark: what the simulator, the figure harness and
//! the simulation server cost the people who run them, end to end and split
//! by layer.
//!
//! Three workloads, each driven through the crates' public APIs:
//!
//! * [`matrix`] — `contention-matrix`: the nine Table I coarse apps under
//!   every scheduler at 256 cores with per-link NoC queueing, one point at a
//!   time on one thread;
//! * [`serve`] — `serve-mixed`: a closed loop of two clients against a
//!   loopback `swarm_serve::TcpServer`, mostly cache hits with a seeded
//!   share of never-seen points;
//! * [`figplan`] — the in-process replay of the 13-command paper suite that
//!   the traced `figures` run uses to split its time by layer (the untimed
//!   suite itself runs through the `swarm` binary, driven by `run.py`).
//!
//! A plain run measures end-to-end metrics with no instrumentation. A traced
//! run repeats a fixed amount of work with the decorators of [`layers`]
//! attached and reports per-layer metrics; every traced point is checked
//! against an untraced twin, because the decorators must perturb nothing.

pub mod figplan;
pub mod layers;
pub mod matrix;
pub mod serve;
pub mod trace;

use std::time::Instant;

use swarm_serve::Value;
use swarm_types::hash64;

/// How one workload run is configured (from the command line).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long the timed phase (or the traced repeats) should last.
    pub seconds: f64,
    /// A shortened form for the benchmark's own tests: tiny inputs, one
    /// iteration.
    pub short: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether the value is an exact count that must repeat bit for bit
    /// under the same seed (as opposed to a host time).
    pub exact: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (points, commands, submits, twin checks).
    pub attempted: u64,
    /// Operations that failed; each failure also leaves a note.
    pub failed: u64,
    /// Every metric measured, in report order.
    pub metrics: Vec<Metric>,
    /// Digest of every simulated output of the fixed-size prefix of the run.
    pub digest: Digest,
    /// Human-readable remarks (failures, sample counts).
    pub notes: Vec<String>,
    /// Spans recorded by a traced run, written out at exit.
    pub trace: trace::Tracer,
}

impl Outcome {
    /// Record a host-time or derived metric.
    pub fn time(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, exact: false });
    }

    /// Record an exact count (or a ratio of exact counts).
    pub fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, exact: true });
    }

    /// Count one attempted operation, failed if `error` is `Some`.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(error) = error {
            self.failed += 1;
            self.notes.push(format!("FAILED: {error}"));
        }
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The run as one JSON line (`run.py` turns it into the report line).
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("digest".to_string(), Value::str(self.digest.hex())),
            ("notes".to_string(), Value::Arr(self.notes.iter().map(Value::str).collect())),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
        .render()
    }
}

/// The traced run of a workload: repeat one fixed traced iteration for the
/// configured time (at least once), then report host times as medians over
/// the repeats and exact counts once — after checking that every repeat
/// produced the same counts.
pub fn repeat_traced(
    cfg: &Config,
    mut iteration: impl FnMut(&mut Outcome) -> Vec<Metric>,
) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut repeats = vec![iteration(&mut out)];
    // The digest covers the first repeat only, so it does not depend on how
    // many repeats fit in the time.
    let digest = out.digest;
    while secs(start) < cfg.seconds {
        repeats.push(iteration(&mut out));
    }
    out.digest = digest;
    merge_repeats(&repeats, &mut out);
    out.notes.push(format!("{} traced repeats", repeats.len()));
    out
}

/// Combine the metrics of several repeats of the same traced work: host
/// times take their median, exact counts must agree (a disagreement is a
/// determinism failure recorded on `out`).
fn merge_repeats(repeats: &[Vec<Metric>], out: &mut Outcome) {
    let Some(first) = repeats.first() else { return };
    for (i, metric) in first.iter().enumerate() {
        // A repeat that failed early reports fewer metrics; its failure is
        // already counted.
        let values: Vec<f64> = repeats.iter().filter_map(|r| r.get(i)).map(|m| m.value).collect();
        if metric.exact {
            let same = values.iter().all(|&v| v.to_bits() == metric.value.to_bits());
            out.check(
                (!same).then(|| format!("{} differs across repeats: {values:?}", metric.name)),
            );
            out.metrics.push(metric.clone());
        } else {
            out.metrics.push(Metric { value: median(&values), ..metric.clone() });
        }
    }
}

/// A 64-bit FNV-1a digest of simulated outputs, so the parent and a change
/// can be compared: a pure-speed change must keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold in the `Debug` rendering of `value` (stable for `RunStats`).
    pub fn feed_debug(&mut self, value: &impl std::fmt::Debug) {
        self.feed(format!("{value:?}").as_bytes());
    }

    /// Hex form for reports.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The seed of iteration `i` of a run with workload seed `seed`: every
/// iteration simulates fresh inputs, so no memo can serve one iteration
/// from another.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    hash64(seed ^ hash64(i.wrapping_add(1))) & 0xFFFF_FFFF
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly above the nearest-rank percentile `pct`.
pub fn beyond(values: &[f64], pct: f64) -> usize {
    let p = percentile(values, pct);
    values.iter().filter(|&&v| v > p).count()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// User plus system CPU seconds every thread of this process has used so
/// far, ended threads included (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond
/// resolution; `/proc` reports only 10 ms ticks, too coarse for the mostly
/// idle serve loop).
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and the
    // clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: 1024 CPUs, the size of the C library's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Spreads a single-threaded workload over every CPU this process may use,
/// one iteration per CPU in turn. The CPUs of a shared host do not run at
/// one speed: left alone, a single thread stays on whichever CPU it started
/// on, and a run's times depend on that draw.
#[derive(Debug)]
pub struct CpuRotation {
    cpus: Vec<usize>,
}

impl Default for CpuRotation {
    /// The CPUs in the calling thread's affinity mask.
    fn default() -> CpuRotation {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable and exactly as large as the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let cpus = if rc == 0 {
            (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
        } else {
            Vec::new()
        };
        CpuRotation { cpus }
    }
}

impl CpuRotation {
    /// Pin the calling thread to the CPU for iteration `i` (best effort: a
    /// failure leaves the thread where it is).
    pub fn pin(&self, i: u64) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[(i % self.cpus.len() as u64) as usize];
        self.set(&[cpu]);
    }

    fn set(&self, cpus: &[usize]) {
        let mut mask = [0u64; MASK_WORDS];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is readable and exactly as large as the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

impl Drop for CpuRotation {
    /// Give the thread back every CPU it started with.
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            self.set(&self.cpus);
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s, each naming a
//! simulated cycle and a [`FaultKind`]. The engine schedules every event
//! into its timing wheel at run start, so faults fire at *exact,
//! reproducible* points in the event order: the same plan against the same
//! app and configuration perturbs the run identically every time. Attach a
//! plan with [`crate::SimBuilder::fault_plan`]; each execution is announced
//! through [`crate::SimObserver::on_fault_injected`].
//!
//! Faults fall into two classes:
//!
//! * **Recoverable faults** ([`FaultKind::DelayedMessage`],
//!   [`FaultKind::DuplicateMessage`], [`FaultKind::QueueSqueeze`],
//!   [`FaultKind::AbortStorm`], [`FaultKind::CorruptHint`]) perturb timing,
//!   traffic accounting, queue capacity or placement; the run must still
//!   complete with a `validate()`-clean, deterministic result.
//! * **Wedging faults** ([`FaultKind::LostTaskWake`], and
//!   [`FaultKind::StuckCore`] when no other core can reach the work) starve
//!   the system of progress; the run must terminate with a typed
//!   [`SimError`](swarm_types::SimError) — never a hang or a panic. The
//!   conformance kit's [`crate::conformance::check_plan`] asserts exactly
//!   this invariant.
//!
//! Plans are serializable: the derive markers keep the types compatible
//! with the vendored `serde` surface, and the canonical interchange format
//! is the text form implemented by `Display`/`FromStr`
//! (`kind[:k=v[,k=v]]@cycle`, events joined by `;` — see
//! [`FaultPlan::from_str`]).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};
use swarm_types::{CoreId, TileId, Timestamp};

/// What goes wrong. All variants carry only small `Copy` scalars so a
/// [`FaultEvent`] can ride inside hashable experiment-request keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Register a task at timestamp `ts` on tile 0 that is counted as
    /// remaining work but has no task-queue entry and no pending wake — the
    /// lost-wake fault class. The run must end in a typed
    /// `SimError::Deadlock` once healthy work drains.
    LostTaskWake {
        /// Timestamp of the planted task.
        ts: Timestamp,
    },
    /// From the fault cycle on, every off-tile memory transfer issued by
    /// cores of `tile` takes `extra_cycles` longer (a persistently slow NoC
    /// link). Timing-only: results must stay correct and deterministic.
    DelayedMessage {
        /// Tile whose remote accesses are delayed.
        tile: TileId,
        /// Extra latency per delayed transfer, in cycles.
        extra_cycles: u32,
    },
    /// The next NoC message is delivered twice (and accounted twice in the
    /// traffic breakdown). Observational under the analytic NoC model:
    /// timing and results are untouched. Under
    /// [`swarm_types::NocModel::Contention`] the duplicate also walks the
    /// links a second time, so it occupies real bandwidth and can delay
    /// later messages — but never the one it duplicates.
    DuplicateMessage,
    /// From the fault cycle on, `tile`'s effective task-queue capacity is
    /// clamped to `capacity` entries, forcing spills (a partial task-unit
    /// failure). Recoverable through the existing spill/refill protocol.
    QueueSqueeze {
        /// Tile whose task queue is squeezed.
        tile: TileId,
        /// Effective capacity from the fault cycle on (clamped to >= 1).
        capacity: u16,
    },
    /// From the fault cycle on, `core` never dequeues another task. Other
    /// cores may absorb its work; if none can, the run must end in a typed
    /// `SimError::Deadlock`.
    StuckCore {
        /// The core that stops dequeuing.
        core: CoreId,
    },
    /// Abort every live speculative task (running or finished) once, in
    /// deterministic tile order. All aborted work requeues and re-executes,
    /// so the storm is recoverable by construction.
    AbortStorm,
    /// From the fault cycle on, every newly enqueued task with a concrete
    /// spatial hint has its hint value XORed with `xor` (a corrupted hint
    /// field). Hints steer placement only, so results must stay correct.
    CorruptHint {
        /// Mask XORed into `Hint::Value` hints.
        xor: u64,
    },
}

impl FaultKind {
    /// Short stable name of the fault class (the text-format keyword and
    /// the column label used by `swarm chaos`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LostTaskWake { .. } => "lost-wake",
            FaultKind::DelayedMessage { .. } => "delay",
            FaultKind::DuplicateMessage => "duplicate",
            FaultKind::QueueSqueeze { .. } => "squeeze",
            FaultKind::StuckCore { .. } => "stuck",
            FaultKind::AbortStorm => "abort-storm",
            FaultKind::CorruptHint { .. } => "corrupt-hint",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::LostTaskWake { ts } => write!(f, "lost-wake:ts={ts}"),
            FaultKind::DelayedMessage { tile, extra_cycles } => {
                write!(f, "delay:tile={},extra={extra_cycles}", tile.0)
            }
            FaultKind::DuplicateMessage => write!(f, "duplicate"),
            FaultKind::QueueSqueeze { tile, capacity } => {
                write!(f, "squeeze:tile={},cap={capacity}", tile.0)
            }
            FaultKind::StuckCore { core } => write!(f, "stuck:core={}", core.0),
            FaultKind::AbortStorm => write!(f, "abort-storm"),
            FaultKind::CorruptHint { xor } => write!(f, "corrupt-hint:xor={xor}"),
        }
    }
}

/// A single injectable fault: a [`FaultKind`] plus the simulated cycle at
/// which the engine executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated cycle at which the fault fires. Same-cycle faults fire in
    /// plan order after every engine event already scheduled for the cycle.
    pub at_cycle: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind, self.at_cycle)
    }
}

/// Parse-error type for the fault-plan text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

fn parse_args<'a>(
    spec: &str,
    body: Option<&'a str>,
    names: &[&str],
) -> Result<Vec<(&'a str, u64)>, FaultParseError> {
    let body = match body {
        Some(b) => b,
        None if names.is_empty() => return Ok(vec![]),
        None => return Err(FaultParseError(format!("`{spec}` is missing `{}`", names.join(",")))),
    };
    let mut out = Vec::new();
    for part in body.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| FaultParseError(format!("`{part}` in `{spec}` is not `key=value`")))?;
        if !names.contains(&k) {
            return Err(FaultParseError(format!("unknown parameter `{k}` in `{spec}`")));
        }
        if out.iter().any(|&(seen, _)| seen == k) {
            return Err(FaultParseError(format!("parameter `{k}` is given twice in `{spec}`")));
        }
        let v = v
            .parse::<u64>()
            .map_err(|_| FaultParseError(format!("`{v}` in `{spec}` is not a number")))?;
        out.push((k, v));
    }
    Ok(out)
}

fn lookup(args: &[(&str, u64)], name: &str, spec: &str) -> Result<u64, FaultParseError> {
    args.iter()
        .find(|(k, _)| *k == name)
        .map(|&(_, v)| v)
        .ok_or_else(|| FaultParseError(format!("`{spec}` is missing `{name}=`")))
}

/// [`lookup`] narrowed to the parameter's field type; a value that does not
/// fit is rejected rather than wrapped.
fn lookup_as<T: TryFrom<u64>>(
    args: &[(&str, u64)],
    name: &str,
    spec: &str,
) -> Result<T, FaultParseError> {
    let v = lookup(args, name, spec)?;
    T::try_from(v).map_err(|_| FaultParseError(format!("`{name}={v}` in `{spec}` is out of range")))
}

impl FromStr for FaultEvent {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (kind_spec, cycle) = s
            .rsplit_once('@')
            .ok_or_else(|| FaultParseError(format!("`{s}` is missing `@cycle`")))?;
        let at_cycle = cycle
            .trim()
            .parse::<u64>()
            .map_err(|_| FaultParseError(format!("`{cycle}` is not a cycle number")))?;
        let (name, body) = match kind_spec.split_once(':') {
            Some((n, b)) => (n.trim(), Some(b)),
            None => (kind_spec.trim(), None),
        };
        let kind = match name {
            "lost-wake" => {
                let args = parse_args(s, body, &["ts"])?;
                FaultKind::LostTaskWake { ts: lookup(&args, "ts", s)? }
            }
            "delay" => {
                let args = parse_args(s, body, &["tile", "extra"])?;
                FaultKind::DelayedMessage {
                    tile: TileId(lookup_as(&args, "tile", s)?),
                    extra_cycles: lookup_as(&args, "extra", s)?,
                }
            }
            "duplicate" => {
                parse_args(s, body, &[])?;
                FaultKind::DuplicateMessage
            }
            "squeeze" => {
                let args = parse_args(s, body, &["tile", "cap"])?;
                FaultKind::QueueSqueeze {
                    tile: TileId(lookup_as(&args, "tile", s)?),
                    capacity: lookup_as(&args, "cap", s)?,
                }
            }
            "stuck" => {
                let args = parse_args(s, body, &["core"])?;
                FaultKind::StuckCore { core: CoreId(lookup_as(&args, "core", s)?) }
            }
            "abort-storm" => {
                parse_args(s, body, &[])?;
                FaultKind::AbortStorm
            }
            "corrupt-hint" => {
                let args = parse_args(s, body, &["xor"])?;
                FaultKind::CorruptHint { xor: lookup(&args, "xor", s)? }
            }
            other => return Err(FaultParseError(format!("unknown fault kind `{other}`"))),
        };
        Ok(FaultEvent { at_cycle, kind })
    }
}

/// An ordered list of [`FaultEvent`]s to inject into one run.
///
/// The plan is executed verbatim: events are scheduled at their cycles in
/// plan order (ties fire in plan order), making every injected fault a
/// deterministic part of the event sequence. An empty plan is equivalent to
/// no plan at all.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append an event, builder-style.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Append an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The plan's events, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl From<FaultEvent> for FaultPlan {
    fn from(event: FaultEvent) -> Self {
        FaultPlan { events: vec![event] }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            plan.push(part.parse()?);
        }
        Ok(plan)
    }
}

/// One representative [`FaultEvent`] per fault class, all firing at
/// `at_cycle`: the battery `swarm chaos` sweeps, one
/// [`crate::conformance::check_plan`] per fault.
pub fn standard_faults(at_cycle: u64) -> Vec<FaultEvent> {
    vec![
        FaultEvent { at_cycle, kind: FaultKind::LostTaskWake { ts: 50 } },
        FaultEvent {
            at_cycle,
            kind: FaultKind::DelayedMessage { tile: TileId(0), extra_cycles: 7 },
        },
        FaultEvent { at_cycle, kind: FaultKind::DuplicateMessage },
        FaultEvent { at_cycle, kind: FaultKind::QueueSqueeze { tile: TileId(0), capacity: 2 } },
        FaultEvent { at_cycle, kind: FaultKind::StuckCore { core: CoreId(0) } },
        FaultEvent { at_cycle, kind: FaultKind::AbortStorm },
        FaultEvent { at_cycle, kind: FaultKind::CorruptHint { xor: 0xDEAD_BEEF } },
    ]
}

/// Live fault switches consulted by the engine and state hot paths. All
/// fields start disabled; with no plan attached every check is a cheap
/// always-false branch and the run is bit-identical to a fault-free build.
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    /// `DelayedMessage`: tile whose remote transfers pay extra latency.
    pub delayed: Option<(TileId, u32)>,
    /// `DuplicateMessage`: deliver (and account) the next message twice.
    pub duplicate_next: bool,
    /// `QueueSqueeze`: tile whose task queue is clamped to a capacity.
    pub squeeze: Option<(TileId, u16)>,
    /// `StuckCore`: core that no longer dequeues.
    pub stuck: Option<CoreId>,
    /// `CorruptHint`: mask XORed into newly enqueued value hints.
    pub hint_xor: Option<u64>,
}

impl FaultRuntime {
    /// Whether `core` has been wedged by a `StuckCore` fault.
    #[inline]
    pub fn is_stuck(&self, core: CoreId) -> bool {
        self.stuck == Some(core)
    }

    /// Extra cycles each off-tile transfer from `tile` currently pays.
    #[inline]
    pub fn extra_remote_latency(&self, tile: TileId) -> u64 {
        match self.delayed {
            Some((t, extra)) if t == tile => extra as u64,
            _ => 0,
        }
    }

    /// The task-queue capacity `tile` may currently use, given the
    /// configured capacity `cap`.
    #[inline]
    pub fn effective_task_queue_cap(&self, tile: TileId, cap: usize) -> usize {
        match self.squeeze {
            Some((t, c)) if t == tile => cap.min((c as usize).max(1)),
            _ => cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_standard_fault_round_trips_through_the_text_format() {
        for event in standard_faults(123) {
            let text = event.to_string();
            let parsed: FaultEvent = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, event, "{text}");
        }
    }

    #[test]
    fn plans_round_trip_and_tolerate_whitespace() {
        let plan = FaultPlan::new()
            .with(FaultEvent { at_cycle: 10, kind: FaultKind::AbortStorm })
            .with(FaultEvent {
                at_cycle: 20,
                kind: FaultKind::QueueSqueeze { tile: TileId(3), capacity: 4 },
            });
        let text = plan.to_string();
        assert_eq!(text, "abort-storm@10;squeeze:tile=3,cap=4@20");
        assert_eq!(text.parse::<FaultPlan>().unwrap(), plan);
        assert_eq!(
            " abort-storm@10 ; squeeze:tile=3,cap=4@20 ".parse::<FaultPlan>().unwrap(),
            plan
        );
        assert_eq!("".parse::<FaultPlan>().unwrap(), FaultPlan::new());
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for bad in [
            "abort-storm",
            "nonsense@5",
            "delay:tile=1@x",
            "squeeze:tile=1@9",
            "lost-wake:ts=a@3",
            "squeeze:tile=1,tile=2,cap=3@0",
            // Values that do not fit their field are rejected, not wrapped.
            "stuck:core=99999999999@1",
            "stuck:core=4294967296@1",
            "delay:tile=4294967296,extra=1@0",
            "delay:tile=0,extra=4294967296@0",
            "squeeze:tile=4294967296,cap=2@0",
            "squeeze:tile=0,cap=65536@0",
        ] {
            let err = bad.parse::<FaultEvent>().expect_err(bad).to_string();
            assert!(err.starts_with("invalid fault spec"), "{bad}: {err}");
        }
        // The largest values that fit still parse exactly.
        let edge: FaultEvent = "squeeze:tile=4294967295,cap=65535@0".parse().unwrap();
        assert_eq!(
            edge.kind,
            FaultKind::QueueSqueeze { tile: TileId(u32::MAX), capacity: u16::MAX }
        );
        let edge: FaultEvent = "stuck:core=4294967295@1".parse().unwrap();
        assert_eq!(edge.kind, FaultKind::StuckCore { core: CoreId(u32::MAX) });
    }

    #[test]
    fn runtime_switches_start_disabled() {
        let rt = FaultRuntime::default();
        assert!(!rt.is_stuck(CoreId(0)));
        assert_eq!(rt.extra_remote_latency(TileId(0)), 0);
        assert_eq!(rt.effective_task_queue_cap(TileId(0), 64), 64);
    }

    #[test]
    fn runtime_switches_apply_only_to_their_target() {
        let rt = FaultRuntime {
            delayed: Some((TileId(1), 5)),
            squeeze: Some((TileId(2), 0)),
            stuck: Some(CoreId(3)),
            ..FaultRuntime::default()
        };
        assert_eq!(rt.extra_remote_latency(TileId(1)), 5);
        assert_eq!(rt.extra_remote_latency(TileId(0)), 0);
        // A zero-capacity squeeze still leaves one usable entry.
        assert_eq!(rt.effective_task_queue_cap(TileId(2), 64), 1);
        assert_eq!(rt.effective_task_queue_cap(TileId(1), 64), 64);
        assert!(rt.is_stuck(CoreId(3)) && !rt.is_stuck(CoreId(2)));
    }
}

//! The one type that names a simulation point.
//!
//! [`RunPoint`] is the unit of work the service schedules and caches, and
//! the unit the harness runs: `swarm_bench` re-exports it as `RunRequest`.
//! It is defined here, the lowest crate that sees [`AppSpec`], [`Scheduler`]
//! and [`FaultEvent`], so the server, cache and protocol speak it without
//! depending on the harness.
//!
//! A point's [`Canonical`] form covers every input that determines the
//! simulation's output — the app and granularity, scheduler, core count,
//! scale, seed, NoC model, fault plan, *and* the full derived
//! [`SystemConfig`] — so the [`CanonKey`](swarm_types::CanonKey) is a
//! sound content address for
//! cached [`RunStats`](swarm_sim::RunStats).

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_sim::FaultEvent;
use swarm_types::{CanonBuf, Canonical, NocModel, SystemConfig};

use crate::json::Value;
use crate::proto::{ProtoError, Wire};

/// Everything that determines one simulation's output.
///
/// Equal points produce equal results (runs are deterministic), which is
/// what lets the harness's pool deduplicate repeated points inside a matrix
/// and the server cache results by [`Canonical`] key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunPoint {
    /// Which application (and granularity).
    pub spec: AppSpec,
    /// Which scheduler.
    pub scheduler: Scheduler,
    /// Number of simulated cores.
    pub cores: u32,
    /// Input scale.
    pub scale: InputScale,
    /// Workload seed (the same seed produces the same input for every
    /// scheduler and core count, as the paper's methodology requires).
    pub seed: u64,
    /// Optional deterministic fault to inject into the run (see
    /// [`swarm_sim::fault`]). `None` — the case for every figure sweep —
    /// leaves the simulation byte-identical to a fault-free build; the
    /// chaos/robustness suites set it to stress the pipeline.
    pub fault: Option<FaultEvent>,
    /// Which network model to simulate under. `Analytic` — the case for
    /// every pinned figure — is the paper's fixed-latency mesh;
    /// `Contention` adds per-link queueing (`--noc contention`).
    pub noc: NocModel,
}

/// The default workload seed of [`RunPoint::new`].
pub const DEFAULT_SEED: u64 = 0xF1605;

impl RunPoint {
    /// A point with the default seed, no fault, and the analytic NoC.
    pub fn new(spec: AppSpec, scheduler: Scheduler, cores: u32, scale: InputScale) -> RunPoint {
        RunPoint {
            spec,
            scheduler,
            cores,
            scale,
            seed: DEFAULT_SEED,
            fault: None,
            noc: NocModel::Analytic,
        }
    }

    /// The same point with a different workload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same point with `fault` injected into the run.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultEvent) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The same point under the given network model.
    #[must_use]
    pub fn with_noc(mut self, noc: NocModel) -> Self {
        self.noc = noc;
        self
    }

    /// The machine configuration this point simulates under:
    /// `SystemConfig::with_cores(cores)` with the NoC model applied. The
    /// harness builds every machine from it, so the config the cache keys
    /// on is the config that runs. Zero cores yield a config that
    /// [`SystemConfig::validate`] rejects.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::with_cores(self.cores);
        cfg.noc.model = self.noc;
        cfg
    }
}

/// A point's JSON form. `seed`, `noc` and `fault` are optional on input
/// (defaulting to [`DEFAULT_SEED`], `analytic`, and none); everything else
/// is required, unknown fields are rejected, and every error is
/// [`ErrorCode::BadPoint`](crate::proto::ErrorCode::BadPoint).
impl Wire for RunPoint {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("app".to_string(), Value::str(self.spec.name())),
            ("scheduler".to_string(), Value::str(self.scheduler.name().to_ascii_lowercase())),
            ("cores".to_string(), Value::UInt(self.cores as u64)),
            ("scale".to_string(), Value::str(self.scale.name())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("noc".to_string(), Value::str(self.noc.name())),
        ];
        if let Some(fault) = &self.fault {
            fields.push(("fault".to_string(), Value::str(fault.to_string())));
        }
        Value::Obj(fields)
    }

    fn from_json(v: &Value) -> Result<RunPoint, ProtoError> {
        let obj = v.as_obj().ok_or_else(|| ProtoError::bad_point("a point must be an object"))?;
        for (key, _) in obj {
            if !["app", "scheduler", "cores", "scale", "seed", "noc", "fault"]
                .contains(&key.as_str())
            {
                return Err(ProtoError::bad_point(format!("unknown point field \"{key}\"")));
            }
        }
        let app = point_str(v, "app")?;
        let (bench_name, fine) = match app.strip_suffix("-fg") {
            Some(base) => (base, true),
            None => (app, false),
        };
        let benchmark: BenchmarkId =
            bench_name.parse().map_err(|e: String| ProtoError::bad_point(format!("app: {e}")))?;
        if fine && !BenchmarkId::WITH_FINE_GRAIN.contains(&benchmark) {
            return Err(ProtoError::bad_point(format!(
                "app: {bench_name} has no fine-grain version"
            )));
        }
        let spec = if fine { AppSpec::fine(benchmark) } else { AppSpec::coarse(benchmark) };
        let scheduler: Scheduler = point_str(v, "scheduler")?
            .parse()
            .map_err(|e: String| ProtoError::bad_point(format!("scheduler: {e}")))?;
        let cores = v
            .get("cores")
            .ok_or_else(|| ProtoError::bad_point("missing point field \"cores\""))?
            .as_u64()
            .filter(|c| (1..=4096).contains(c))
            .ok_or_else(|| ProtoError::bad_point("cores must be an integer in 1..=4096"))?
            as u32;
        let scale = point_str(v, "scale")?.parse().map_err(|e| {
            let expected = InputScale::ALL.map(InputScale::name).join(", ");
            ProtoError::bad_point(format!("{e} (expected {expected})"))
        })?;
        let seed = match v.get("seed") {
            None => DEFAULT_SEED,
            Some(s) => s.as_u64().ok_or_else(|| ProtoError::bad_point("seed must be a u64"))?,
        };
        let noc = match v.get("noc") {
            None => NocModel::Analytic,
            Some(n) => n
                .as_str()
                .ok_or_else(|| ProtoError::bad_point("noc must be a string"))?
                .parse()
                .map_err(|e| {
                    let expected = NocModel::ALL.map(NocModel::name).join(", ");
                    ProtoError::bad_point(format!("{e} (expected {expected})"))
                })?,
        };
        let fault = match v.get("fault") {
            None | Some(Value::Null) => None,
            Some(f) => {
                let text =
                    f.as_str().ok_or_else(|| ProtoError::bad_point("fault must be a string"))?;
                Some(
                    text.parse::<FaultEvent>()
                        .map_err(|e| ProtoError::bad_point(format!("fault: {e}")))?,
                )
            }
        };
        Ok(RunPoint { spec, scheduler, cores, scale, seed, fault, noc })
    }
}

fn point_str<'a>(v: &'a Value, field: &str) -> Result<&'a str, ProtoError> {
    v.get(field)
        .ok_or_else(|| ProtoError::bad_point(format!("missing point field \"{field}\"")))?
        .as_str()
        .ok_or_else(|| ProtoError::bad_point(format!("{field} must be a string")))
}

/// The canonical form covers every simulation input: the app identity and
/// granularity, scheduler, core count, scale, seed, NoC model, the fault
/// plan (via its stable `Display`/`FromStr` text form), and the full
/// derived [`SystemConfig`].
impl Canonical for RunPoint {
    fn canonicalize(&self, buf: &mut CanonBuf) {
        buf.put_str(self.spec.benchmark.name());
        buf.put_bool(self.spec.fine_grain);
        buf.put_str(self.scheduler.name());
        buf.put_u32(self.cores);
        buf.put_str(self.scale.name());
        buf.put_u64(self.seed);
        self.fault.map(|f| f.to_string()).canonicalize(buf);
        self.system_config().canonicalize(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_types::key_of;

    fn base() -> RunPoint {
        RunPoint::new(AppSpec::coarse(BenchmarkId::Sssp), Scheduler::Hints, 4, InputScale::Tiny)
    }

    #[test]
    fn json_round_trips_with_defaults_and_options() {
        let mut p = base();
        assert_eq!(RunPoint::from_json(&p.to_json()).unwrap(), p);
        p.spec = AppSpec::fine(BenchmarkId::Sssp);
        p.noc = NocModel::Contention;
        p.seed = 12345;
        p.fault = Some("duplicate@100".parse().unwrap());
        assert_eq!(RunPoint::from_json(&p.to_json()).unwrap(), p);
    }

    #[test]
    fn minimal_point_gets_the_harness_defaults() {
        let v = crate::json::parse(
            "{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\"}",
        )
        .unwrap();
        assert_eq!(RunPoint::from_json(&v).unwrap(), base());
    }

    #[test]
    fn malformed_points_are_typed_errors() {
        for (text, needle) in [
            ("{\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\"}", "app"),
            ("{\"app\":\"zorp\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\"}", "zorp"),
            ("{\"app\":\"des-fg\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\"}", "fine-grain"),
            ("{\"app\":\"sssp\",\"scheduler\":\"zmap\",\"cores\":4,\"scale\":\"tiny\"}", "zmap"),
            ("{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":0,\"scale\":\"tiny\"}", "cores"),
            ("{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"huge\"}", "huge"),
            (
                "{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\",\"noc\":\"magic\"}",
                "magic",
            ),
            (
                "{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\",\"bogus\":1}",
                "bogus",
            ),
            (
                "{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\",\"fault\":\"zap\"}",
                "fault",
            ),
            (
                "{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":4,\"scale\":\"tiny\",\"fault\":\"stuck:core=4294967296@1\"}",
                "out of range",
            ),
        ] {
            let v = crate::json::parse(text).unwrap();
            let err = RunPoint::from_json(&v).expect_err(text);
            assert!(err.message.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn every_point_field_moves_the_canon_key() {
        let b = base();
        let edits: Vec<RunPoint> = vec![
            RunPoint { spec: AppSpec::coarse(BenchmarkId::Bfs), ..b },
            RunPoint { spec: AppSpec::fine(BenchmarkId::Sssp), ..b },
            RunPoint { scheduler: Scheduler::Random, ..b },
            RunPoint { cores: 8, ..b },
            RunPoint { scale: InputScale::Small, ..b },
            RunPoint { seed: b.seed + 1, ..b },
            RunPoint { fault: Some("duplicate@7".parse().unwrap()), ..b },
            RunPoint { noc: NocModel::Contention, ..b },
        ];
        let mut keys = vec![key_of(&b)];
        for (i, e) in edits.iter().enumerate() {
            let key = key_of(e);
            assert!(!keys.contains(&key), "edit #{i} collided");
            keys.push(key);
        }
    }

    #[test]
    fn system_config_mirrors_the_harness_construction() {
        let p = RunPoint { noc: NocModel::Contention, ..base() };
        let mut expect = SystemConfig::with_cores(4);
        expect.noc.model = NocModel::Contention;
        assert_eq!(p.system_config(), expect);
    }
}

//! The `swarm chaos` subcommand: the fault-injection conformance battery.
//!
//! For every selected app × scheduler × core count, injects each fault of
//! [`swarm_sim::standard_faults`] (or one whole `--plan` of faults) and
//! asserts the chaos contract via [`swarm_sim::chaos`]: the faulted run must
//! either complete validation-clean and bit-identical on repeat, or fail
//! with the same typed `SimError` on repeat — never hang (a cycle-budget
//! watchdog guards every run), panic, or go silently wrong.
//!
//! Flags beyond the shared harness set:
//!
//! * `--plan "<fault>[;<fault>...]"` — check one specific fault plan instead
//!   of the curated per-fault sweep; the text format is
//!   `kind[:k=v[,k=v]]@cycle`, e.g. `lost-wake:ts=50@100;squeeze:tile=0,cap=2@400`.
//!   A malformed plan exits with [`crate::exit_code::USAGE`].
//!
//! Exits with [`crate::exit_code::CHAOS`] on the first contract violation,
//! [`crate::exit_code::OK`] otherwise.

use crate::HarnessArgs;
use spatial_hints::Scheduler;
use swarm_apps::AppSpec;
use swarm_sim::chaos::{check_chaos, check_plan, ChaosOptions, ChaosOutcome};
use swarm_sim::conformance::MapperSpec;
use swarm_sim::{standard_faults, FaultPlan, SwarmApp, TaskMapper};
use swarm_types::SystemConfig;

/// Watchdog cycle budget per battery run: far above any tiny/small-scale
/// run, so only a genuine hang trips it — as a typed error, not a timeout.
const WATCHDOG_CYCLES: u64 = 10_000_000;

/// The cycle at which each curated fault fires (early enough that every
/// tiny-scale run is still busy).
const FAULT_CYCLE: u64 = 100;

/// Run the `chaos` command with the argument slice that follows the
/// subcommand name (`swarm chaos <args...>`).
pub fn run(raw: &[String]) -> i32 {
    let extras = [crate::ExtraFlag { name: "--plan", takes_value: true }];
    let args = match HarnessArgs::parse_args_with(raw, &extras) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let plan = match extract_plan(raw) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: invalid --plan: {e}");
            return crate::exit_code::USAGE;
        }
    };
    let cores = args.cores_or(&[1, 16]);
    // A machine that cannot be built is a bad command line, not a
    // chaos-contract violation.
    for &n in &cores {
        if let Err(e) = SystemConfig::with_cores(n).validate() {
            eprintln!("error: --cores {n} is not a valid machine: {e}");
            return crate::exit_code::USAGE;
        }
    }

    type Builder = Box<dyn Fn(&SystemConfig) -> Box<dyn TaskMapper>>;
    let builders: Vec<(Scheduler, Builder)> = args
        .schedulers
        .iter()
        .map(|&s| {
            let build: Builder = Box::new(move |cfg: &SystemConfig| s.build(cfg));
            (s, build)
        })
        .collect();
    let mappers: Vec<MapperSpec<'_>> = builders
        .iter()
        .map(|(s, build)| MapperSpec { name: s.name(), build: build.as_ref() })
        .collect();
    let opts = ChaosOptions {
        core_counts: cores.clone(),
        config: SystemConfig::with_cores,
        max_cycles: WATCHDOG_CYCLES,
    };
    let faults = standard_faults(FAULT_CYCLE);

    match &plan {
        Some(plan) => println!(
            "Chaos battery: plan [{plan}] x {} schedulers x cores {cores:?} (scale {:?})",
            mappers.len(),
            args.scale
        ),
        None => println!(
            "Chaos battery: {} standard faults x {} schedulers x cores {cores:?} (scale {:?})",
            faults.len(),
            mappers.len(),
            args.scale
        ),
    }
    println!("{:<10}{:>8}{:>12}{:>14}{:>8}", "app", "combos", "completed", "typed-failed", "runs");

    for &bench in args.apps.iter() {
        let spec = AppSpec::coarse(bench);
        let (scale, seed) = (args.scale, args.seed);
        let make = move || -> Box<dyn SwarmApp> { spec.build(scale, seed) };
        let (combos, completed, runs) = match &plan {
            Some(plan) => match check_plan(&make, &mappers, plan, &opts) {
                Ok(combos) => {
                    let completed = combos
                        .iter()
                        .filter(|c| matches!(c.outcome, ChaosOutcome::Completed { .. }))
                        .count();
                    (combos.len(), completed, combos.len() * 2)
                }
                Err(violation) => return report_violation(&violation),
            },
            None => match check_chaos(&make, &mappers, &faults, &opts) {
                Ok(report) => (report.combos.len(), report.completed(), report.runs),
                Err(violation) => return report_violation(&violation),
            },
        };
        println!(
            "{:<10}{:>8}{:>12}{:>14}{:>8}",
            bench.name(),
            combos,
            completed,
            combos - completed,
            runs
        );
    }
    println!("chaos contract held: every combo completed clean or failed typed, twice over");
    crate::exit_code::OK
}

/// Print a contract violation and pick the chaos exit code.
fn report_violation(violation: &str) -> i32 {
    eprintln!("chaos violation: {violation}");
    crate::exit_code::CHAOS
}

/// Pull `--plan <text>` out of the raw argument slice ([`HarnessArgs`]
/// ignores flags it does not know).
fn extract_plan(raw: &[String]) -> Result<Option<FaultPlan>, String> {
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--plan" {
            return match it.next() {
                Some(text) => text.parse::<FaultPlan>().map(Some).map_err(|e| e.to_string()),
                None => Err("missing value after --plan".to_string()),
            };
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn a_tiny_battery_passes_clean() {
        let code = run(&s(&[
            "--scale",
            "tiny",
            "--apps",
            "sssp",
            "--schedulers",
            "hints",
            "--cores",
            "4",
        ]));
        assert_eq!(code, crate::exit_code::OK);
    }

    #[test]
    fn an_explicit_plan_is_checked_instead_of_the_sweep() {
        let code = run(&s(&[
            "--scale",
            "tiny",
            "--apps",
            "des",
            "--schedulers",
            "random",
            "--cores",
            "1",
            "--plan",
            "lost-wake:ts=3@0",
        ]));
        assert_eq!(code, crate::exit_code::OK, "a typed deadlock satisfies the contract");
    }

    #[test]
    fn a_malformed_plan_is_a_usage_error() {
        assert_eq!(run(&s(&["--plan", "warp-core-breach@9"])), crate::exit_code::USAGE);
        assert_eq!(run(&s(&["--plan"])), crate::exit_code::USAGE);
    }
}

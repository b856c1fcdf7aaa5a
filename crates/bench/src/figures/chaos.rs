//! The `swarm chaos` subcommand: the fault-injection conformance battery.
//!
//! For every selected app × scheduler × core count, injects each fault of
//! [`swarm_sim::standard_faults`] (or one whole `--plan` of faults) and
//! asserts the chaos contract via [`swarm_sim::conformance::check_plan`]:
//! the faulted run must either complete validation-clean and bit-identical
//! on repeat, or fail with the same typed `SimError` on repeat — never hang
//! (a cycle-budget watchdog guards every run), panic, or go silently wrong.
//!
//! Every battery machine is built under the shared `--noc` model; under
//! `contention` the header says so.
//!
//! Flags beyond the shared harness set:
//!
//! * `--plan "<fault>[;<fault>...]"` — check one specific fault plan instead
//!   of the curated per-fault sweep; the text format is
//!   `kind[:k=v[,k=v]]@cycle`, e.g. `lost-wake:ts=50@100;squeeze:tile=0,cap=2@400`.
//!   A malformed plan, or one with no events, exits with
//!   [`crate::exit_code::USAGE`].
//!
//! Exits with [`crate::exit_code::CHAOS`] on the first contract violation,
//! [`crate::exit_code::OK`] otherwise.

use crate::HarnessArgs;
use swarm_apps::AppSpec;
use swarm_sim::conformance::{check_plan, CheckOptions, MapperSpec, Outcome};
use swarm_sim::{standard_faults, FaultPlan, SwarmApp};
use swarm_types::{NocModel, SystemConfig};

/// Watchdog cycle budget per battery run: far above any tiny/small-scale
/// run, so only a genuine hang trips it — as a typed error, not a timeout.
const WATCHDOG_CYCLES: u64 = 10_000_000;

/// The cycle at which each curated fault fires (early enough that every
/// tiny-scale run is still busy).
const FAULT_CYCLE: u64 = 100;

/// Run the `chaos` command with the argument slice that follows the
/// subcommand name (`swarm chaos <args...>`).
pub fn run(raw: &[String]) -> i32 {
    let extras = [crate::ExtraFlag {
        name: "--plan",
        takes_value: true,
        help: "check one fault plan, e.g. lost-wake:ts=50@100",
    }];
    let args = match HarnessArgs::parse_args_with(raw, &extras) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let plan = match args.extra("--plan").map(parse_plan).transpose() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("error: invalid --plan: {e}");
            return crate::exit_code::USAGE;
        }
    };
    let cores = args.cores_or(&[1, 16]);
    let (config, noc_note): (fn(u32) -> SystemConfig, &str) = match args.noc {
        NocModel::Analytic => (SystemConfig::with_cores, ""),
        NocModel::Contention => (contention_config, " under the contention NoC"),
    };
    // A machine that cannot be built is a bad command line, not a
    // chaos-contract violation.
    for &n in &cores {
        if let Err(e) = config(n).validate() {
            eprintln!("error: --cores {n} is not a valid machine: {e}");
            return crate::exit_code::USAGE;
        }
    }

    let mappers: Vec<MapperSpec<'_>> =
        args.schedulers.iter().map(|s| MapperSpec { name: s.name(), factory: s }).collect();
    let opts = CheckOptions { core_counts: cores.clone(), config, max_cycles: WATCHDOG_CYCLES };
    // The curated sweep checks one single-fault plan per standard fault.
    let (subject, plans) = match plan {
        Some(plan) => (format!("plan [{plan}]"), vec![plan]),
        None => {
            let plans: Vec<FaultPlan> =
                standard_faults(FAULT_CYCLE).into_iter().map(FaultPlan::from).collect();
            (format!("{} standard faults", plans.len()), plans)
        }
    };

    println!(
        "Chaos battery: {subject} x {} schedulers x cores {cores:?}{noc_note} (scale {:?})",
        mappers.len(),
        args.scale
    );
    println!("{:<10}{:>8}{:>12}{:>14}{:>8}", "app", "combos", "completed", "typed-failed", "runs");

    for &bench in args.apps.iter() {
        let spec = AppSpec::coarse(bench);
        let (scale, seed) = (args.scale, args.seed);
        let make = move || -> Box<dyn SwarmApp> { spec.build(scale, seed) };
        let (mut combos, mut completed) = (0, 0);
        for plan in &plans {
            match check_plan(&make, &mappers, plan, &opts) {
                Ok(outcomes) => {
                    combos += outcomes.len();
                    completed += outcomes
                        .iter()
                        .filter(|c| matches!(c.outcome, Outcome::Completed { .. }))
                        .count();
                }
                Err(violation) => return report_violation(&violation),
            }
        }
        // check_plan runs every combination twice.
        println!(
            "{:<10}{:>8}{:>12}{:>14}{:>8}",
            bench.name(),
            combos,
            completed,
            combos - completed,
            combos * 2
        );
    }
    println!("chaos contract held: every combo completed clean or failed typed, twice over");
    crate::exit_code::OK
}

/// [`SystemConfig::with_cores`] under the contention NoC.
fn contention_config(cores: u32) -> SystemConfig {
    let mut cfg = SystemConfig::with_cores(cores);
    cfg.noc.model = NocModel::Contention;
    cfg
}

/// Print a contract violation and pick the chaos exit code.
fn report_violation(violation: &str) -> i32 {
    eprintln!("chaos violation: {violation}");
    crate::exit_code::CHAOS
}

/// Parse a `--plan` value into a non-empty fault plan.
fn parse_plan(text: &str) -> Result<FaultPlan, String> {
    match text.parse::<FaultPlan>() {
        Ok(plan) if plan.is_empty() => Err("the plan has no fault events".to_string()),
        Ok(plan) => Ok(plan),
        Err(e) => Err(e.to_string()),
    }
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
        // A plan with no events would quietly run a fault-free battery.
        assert_eq!(run(&s(&["--plan", ""])), crate::exit_code::USAGE);
        assert_eq!(run(&s(&["--plan", " ; "])), crate::exit_code::USAGE);
        // A second plan would silently go unchecked.
        let twice = s(&["--plan", "lost-wake:ts=3@0", "--plan", "abort-storm@2"]);
        assert_eq!(run(&twice), crate::exit_code::USAGE);
    }
}

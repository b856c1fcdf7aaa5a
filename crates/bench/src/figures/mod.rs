//! One module per figure/table command of the evaluation.
//!
//! Each module exposes a single `run(args: &[String]) -> i32` entry point
//! taking the argument slice that follows the subcommand name and returning
//! the process exit code (see [`crate::exit_code`]); the
//! [`registry`](crate::registry) maps subcommand names to these entry
//! points, and the `swarm` binary dispatches through it. Keeping the bodies
//! here (instead of in `src/bin/`) means the figure logic is ordinary
//! library code: unit-testable, documented, and free of argument-plumbing
//! boilerplate.
//!
//! Every figure runs its points through the Result-typed [`crate::Pool`]
//! methods, renders a failed point as `n/a`, and ends with
//! `report_failures`, which names each root cause once on stderr and picks
//! the exit code.

use crate::runner::RunError;

pub mod ablation_lb;
pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod noc_profile;
pub mod serve;
pub mod summary;
pub mod sysconfig;
pub mod table1;
pub mod table2;

/// Print every distinct root-cause failure to stderr and pick the exit
/// code: [`crate::exit_code::OK`] when every point ran, otherwise
/// [`crate::exit_code::PARTIAL`] — the tables above have already rendered
/// the missing points as `n/a` cells.
pub(crate) fn report_failures<'a>(errors: impl IntoIterator<Item = &'a RunError>) -> i32 {
    let mut root_causes: Vec<String> = Vec::new();
    let mut any = false;
    for err in errors {
        any = true;
        if err.is_root_cause() {
            let msg = err.to_string();
            // A baseline failure is cloned into every point it dooms;
            // report each distinct cause once.
            if !root_causes.contains(&msg) {
                root_causes.push(msg);
            }
        }
    }
    if !any {
        return crate::exit_code::OK;
    }
    for msg in &root_causes {
        eprintln!("error: {msg}");
    }
    eprintln!("warning: some points failed; their cells render as n/a above");
    crate::exit_code::PARTIAL
}

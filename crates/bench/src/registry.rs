//! The figure registry: one table mapping subcommand names to the figure
//! entry points in [`crate::figures`].
//!
//! The `swarm` binary dispatches subcommands through [`find`]/[`REGISTRY`],
//! so adding a figure means adding one module and one table row, not a new
//! binary with its own argument plumbing.

use crate::figures;

/// One registered figure/table command.
pub struct FigureSpec {
    /// Subcommand name (`swarm <name> ...`).
    pub name: &'static str,
    /// One-line description shown by `swarm list`.
    pub about: &'static str,
    /// The entry point; receives the arguments after the subcommand name
    /// and returns the process exit code (see [`crate::exit_code`]).
    pub run: fn(&[String]) -> i32,
}

/// Every figure/table command, in the order `swarm list` prints them.
pub const REGISTRY: &[FigureSpec] = &[
    FigureSpec {
        name: "fig2",
        about: "motivation: des speedups and cycle breakdown under all four schedulers",
        run: figures::fig2::run,
    },
    FigureSpec {
        name: "fig3",
        about: "architecture-independent classification of committed memory accesses",
        run: figures::fig3::run,
    },
    FigureSpec {
        name: "fig4",
        about: "speedup of Random/Stealing/Hints from 1 to N cores, per application",
        run: figures::fig4::run,
    },
    FigureSpec {
        name: "fig5",
        about: "core-cycle and NoC-traffic breakdowns at the largest core count",
        run: figures::fig5::run,
    },
    FigureSpec {
        name: "fig6",
        about: "access classification of coarse- vs fine-grain task versions",
        run: figures::fig6::run,
    },
    FigureSpec {
        name: "fig7",
        about: "speedup of fine- vs coarse-grain versions under each scheduler",
        run: figures::fig7::run,
    },
    FigureSpec {
        name: "fig8",
        about: "fine-grain cycle and traffic breakdowns, normalized to CG-Random",
        run: figures::fig8::run,
    },
    FigureSpec {
        name: "fig10",
        about: "speedup of all four schedulers with best task granularity per scheme",
        run: figures::fig10::run,
    },
    FigureSpec {
        name: "fig11",
        about: "cycle breakdown where the load balancer matters (des/nocsim/silo/kmeans)",
        run: figures::fig11::run,
    },
    FigureSpec {
        name: "table1",
        about: "Table I: benchmark characteristics and 1-core run times",
        run: figures::table1::run,
    },
    FigureSpec {
        name: "table2",
        about: "beyond-Table-I workloads (maxflow/triangle/kvstore) characterised and swept",
        run: figures::table2::run,
    },
    FigureSpec {
        name: "sysconfig",
        about: "Table II: configuration of the simulated 256-core system",
        run: figures::sysconfig::run,
    },
    FigureSpec {
        name: "summary",
        about: "Section VI-B gmean speedups and efficiency metrics (supports --json)",
        run: figures::summary::run,
    },
    FigureSpec {
        name: "ablation-lb",
        about: "Section VI-A ablation: committed-cycles vs idle-count load-balance signal",
        run: figures::ablation_lb::run,
    },
    FigureSpec {
        name: "chaos",
        about: "fault-injection battery: every fault must fail typed or complete clean",
        run: figures::chaos::run,
    },
    FigureSpec {
        name: "noc-profile",
        about: "per-link queueing heat tables under the contention NoC model",
        run: figures::noc_profile::run,
    },
    FigureSpec {
        name: "serve",
        about: "long-lived simulation service with a content-addressed result cache",
        run: figures::serve::run,
    },
];

/// Look a command up by name.
pub fn find(name: &str) -> Option<&'static FigureSpec> {
    REGISTRY.iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_reachable() {
        for spec in REGISTRY {
            assert_eq!(find(spec.name).unwrap().name, spec.name);
        }
        assert!(find("fig9").is_none(), "the paper has no reproducible fig9");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate command names in the registry");
    }

    #[test]
    fn registry_covers_all_fifteen_legacy_binaries() {
        // Fourteen of the fifteen standalone binaries that `swarm` replaced
        // are subcommands, `ablation_lb` spelled `ablation-lb`; the
        // underscored spellings do not resolve. The fifteenth,
        // `bench_snapshot`, was deleted with its `bench` command: perfbench
        // is the one measurement instrument.
        let legacy = [
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig10",
            "fig11",
            "table1",
            "table2",
            "sysconfig",
            "summary",
            "ablation-lb",
        ];
        assert_eq!(legacy.len(), 14);
        for name in legacy {
            assert!(find(name).is_some(), "{name} missing from the registry");
        }
        assert!(find("ablation_lb").is_none() && find("noc_profile").is_none());
        assert!(find("bench_snapshot").is_none());
        // The registry carries those fourteen commands plus `chaos`,
        // `noc-profile` and `serve` (which never had standalone binaries).
        assert_eq!(REGISTRY.len(), 17);
        assert!(find("chaos").is_some());
        assert!(find("noc-profile").is_some());
        assert!(find("serve").is_some());
        assert!(find("bench-serve").is_none());
    }
}

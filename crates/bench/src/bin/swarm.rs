//! The harness binary: every figure and table of the evaluation as one
//! subcommand each, driven by the [`swarm_bench::registry`].
//!
//! ```text
//! swarm list                 # what can I run?
//! swarm fig2 --scale small   # any figure
//! swarm summary --json
//! swarm sysconfig
//! swarm serve --tcp 127.0.0.1:7433
//! ```
//!
//! It is the only binary.

use swarm_bench::{exit_code, registry};

fn print_usage() {
    println!("usage: swarm <command> [flags...]");
    println!();
    println!("Reproduces the figures and tables of 'Data-Centric Execution of");
    println!("Speculative Parallel Programs' (MICRO 2016). Common flags:");
    println!("  --cores 1,4,16,64     core counts to sweep");
    println!("  --scale tiny|small|medium");
    println!("  --seed N              workload seed");
    println!("  --apps a,b,c          restrict the benchmark set");
    println!("  --schedulers r,s,h,l  restrict the scheduler comparison");
    println!("  --noc analytic|contention");
    println!("                        network model: fixed-latency mesh (default) or");
    println!("                        per-link queueing (see 'swarm noc-profile')");
    println!("  --jobs N              worker threads (output is identical at any N)");
    println!("  --on-error fail|collect");
    println!("                        failure policy: stop promptly (default) or run");
    println!("                        everything; failed points print n/a");
    println!();
    println!("exit codes: 0 ok, 2 usage error, 3 some points failed, 4 chaos violation,");
    println!("            141 stdout closed by its reader");
    println!();
    println!("commands:");
    print_command_table();
    println!();
    println!("Run 'swarm list' for the same table, or see REPRODUCING.md for");
    println!("per-figure details and expected runtimes.");
}

fn print_command_table() {
    for spec in registry::REGISTRY {
        println!("  {:<12} {}", spec.name, spec.about);
    }
}

/// End the process quietly, with [`exit_code::BROKEN_PIPE`], when stdout's
/// reader goes away (`swarm chaos | head -1`). Every `println!` panics on a
/// write error, and a closed pipe is the reader's choice, not a failure of
/// the command; any other panic still reaches the default hook.
fn exit_quietly_on_broken_pipe() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let closed = info.payload_as_str().is_some_and(|message| {
            message.starts_with("failed printing to stdout") && message.contains("Broken pipe")
        });
        if closed {
            std::process::exit(exit_code::BROKEN_PIPE);
        }
        default_hook(info);
    }));
}

fn main() {
    exit_quietly_on_broken_pipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => print_usage(),
        Some("list") => print_command_table(),
        Some(name) => match registry::find(name) {
            Some(spec) => {
                let rest = &args[1..];
                if rest.iter().any(|a| a == "--help" || a == "-h") {
                    // Intercepted here so the help text can include the
                    // command table; the shared parser would otherwise
                    // print only the flag summary.
                    println!("swarm {}: {}", spec.name, spec.about);
                    println!();
                    print_usage();
                } else {
                    let code = (spec.run)(rest);
                    if code != swarm_bench::exit_code::OK {
                        std::process::exit(code);
                    }
                }
            }
            None => {
                eprintln!("swarm: unknown command '{name}'");
                eprintln!("Run 'swarm list' to see the available commands.");
                std::process::exit(2);
            }
        },
    }
}

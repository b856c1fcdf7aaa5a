//! Table II: configuration of the simulated system (formerly the `table2`
//! binary; renamed so `table2` can report the beyond-Table-I workloads).
//!
//! This is the one figure command that runs no simulations (it only prints
//! the machine parameters), so it takes no flags but `-h`/`--help`; any
//! other argument is a usage error.

use swarm_types::SystemConfig;

const USAGE: &str = "usage: swarm sysconfig\n\nPrint Table II, the 256-core machine configuration.";

/// Run the `sysconfig` command with the argument slice that follows the
/// subcommand name (`swarm sysconfig <args...>`).
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None => {}
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return crate::exit_code::OK;
        }
        Some(other) => {
            eprintln!("swarm sysconfig: unexpected argument '{other}' (it takes no flags)");
            eprintln!("{USAGE}");
            return crate::exit_code::USAGE;
        }
    }
    let cfg = SystemConfig::with_cores(256);
    println!("Table II: configuration of the {}-core system", cfg.num_cores());
    println!(
        "  Cores       {} cores in {} tiles ({} cores/tile)",
        cfg.num_cores(),
        cfg.num_tiles(),
        cfg.cores_per_tile
    );
    println!(
        "  L1 caches   {} lines/core, {}-cycle latency",
        cfg.cache.l1_lines, cfg.cache.l1_latency
    );
    println!(
        "  L2 caches   {} lines/tile, {}-cycle latency",
        cfg.cache.l2_lines, cfg.cache.l2_latency
    );
    println!(
        "  L3 cache    {} lines/slice (static NUCA), {}-cycle bank latency",
        cfg.cache.l3_lines_per_tile, cfg.cache.l3_latency
    );
    println!("  Main mem    {}-cycle latency", cfg.cache.mem_latency);
    println!(
        "  NoC         {}x{} mesh, {}-bit links, X-Y routing, {} cycle/hop (+{} on turns)",
        cfg.tiles_x, cfg.tiles_y, cfg.noc.link_bits, cfg.noc.hop_latency, cfg.noc.turn_penalty
    );
    println!(
        "  Queues      {} task queue entries/core ({} total), {} commit queue entries/core ({} total)",
        cfg.queues.task_queue_per_core,
        cfg.queues.task_queue_per_core * cfg.num_cores(),
        cfg.queues.commit_queue_per_core,
        cfg.queues.commit_queue_per_core * cfg.num_cores()
    );
    println!("  Swarm instrs {} cycles per enqueue/dequeue/finish", cfg.spec.task_mgmt_cost);
    println!(
        "  Conflicts   exact line-granular read/write sets, {}-cycle checks (+{}/comparison)",
        cfg.spec.conflict_check_cost, cfg.spec.conflict_compare_cost
    );
    println!("  Commits     GVT updates every {} cycles", cfg.spec.gvt_epoch);
    println!(
        "  Spills      coalescers fire at {}% occupancy, spill up to {} tasks",
        cfg.queues.spill_threshold_pct, cfg.queues.spill_batch
    );
    println!(
        "  LB          {} buckets/tile, reconfig every {} cycles, correction {}%",
        cfg.lb_buckets_per_tile, cfg.lb_epoch, cfg.lb_correction_pct
    );

    crate::exit_code::OK
}

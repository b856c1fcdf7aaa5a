//! Table II: configuration of the simulated system (formerly the `table2`
//! binary; renamed so `table2` can report the beyond-Table-I workloads).
//!
//! This is the one figure command that runs no simulations (it only prints
//! the machine parameters), so it takes no flags but `-h`/`--help`; any
//! other argument is a usage error.

use swarm_types::config::{
    CONFLICT_CHECK_COST, CONFLICT_COMPARE_COST, GVT_EPOCH, HOP_LATENCY, L1_LATENCY, L2_LATENCY,
    L3_LATENCY, LB_BUCKETS_PER_TILE, LB_CORRECTION_PCT, LINK_BITS, MEM_LATENCY, TASK_MGMT_COST,
    TURN_PENALTY,
};
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
    println!("  L1 caches   {} lines/core, {}-cycle latency", cfg.cache.l1_lines, L1_LATENCY);
    println!("  L2 caches   {} lines/tile, {}-cycle latency", cfg.cache.l2_lines, L2_LATENCY);
    println!(
        "  L3 cache    {} lines/slice (static NUCA), {}-cycle bank latency",
        cfg.cache.l3_lines_per_tile, L3_LATENCY
    );
    println!("  Main mem    {MEM_LATENCY}-cycle latency");
    println!(
        "  NoC         {}x{} mesh, {LINK_BITS}-bit links, X-Y routing, {HOP_LATENCY} cycle/hop \
         (+{TURN_PENALTY} on turns)",
        cfg.tiles_x, cfg.tiles_y
    );
    println!(
        "  Queues      {} task queue entries/core ({} total), {} commit queue entries/core ({} total)",
        cfg.queues.task_queue_per_core,
        cfg.queues.task_queue_per_core * cfg.num_cores(),
        cfg.queues.commit_queue_per_core,
        cfg.queues.commit_queue_per_core * cfg.num_cores()
    );
    println!("  Swarm instrs {TASK_MGMT_COST} cycles per enqueue/dequeue/finish");
    println!(
        "  Conflicts   exact line-granular read/write sets, {CONFLICT_CHECK_COST}-cycle checks \
         (+{CONFLICT_COMPARE_COST}/comparison)"
    );
    println!("  Commits     GVT updates every {GVT_EPOCH} cycles");
    println!(
        "  Spills      up to {} tasks, only when a tile's task queue is full",
        cfg.queues.spill_batch
    );
    println!(
        "  LB          {LB_BUCKETS_PER_TILE} buckets/tile, reconfig every {} cycles, \
         correction {LB_CORRECTION_PCT}%",
        cfg.lb_epoch
    );

    crate::exit_code::OK
}

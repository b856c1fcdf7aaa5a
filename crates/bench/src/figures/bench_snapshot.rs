//! Machine-readable snapshot of the `mechanisms` microbenchmarks.
//!
//! Times the memory-system hot-path mechanisms with the same
//! calibrate-then-median harness the vendored criterion shim uses, and emits
//! `BENCH_mechanisms.json` (ns/op per mechanism) so the performance
//! trajectory of the hot path is tracked in version control, not just in
//! terminal scrollback.
//!
//! ```text
//! bench_snapshot [--out PATH] [--test]   # default: BENCH_mechanisms.json
//! ```
//!
//! Most entries are ns/op of one mechanism; the `engine_cycles_per_sec`
//! entry is whole-engine throughput (simulated cycles per wall-clock
//! second) on a synthetic chain workload that isolates the engine hot
//! loop. `--test` is the CI smoke mode: fewer samples, smaller workload,
//! same output schema.

use std::time::Instant;

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_mem::{AccessKind, CacheModel, LruSet, SimMemory};
use swarm_sim::{BloomFilter, InitialTask, RoundRobinMapper, Sim, SwarmApp, TaskCtx};
use swarm_types::{CacheConfig, CoreId, Hint, LineAddr, NocModel};

use crate::runner::{run_point_result, RunError, RunRequest};

/// Samples taken per mechanism; the median is reported.
const SAMPLES: usize = 20;

/// Samples per mechanism in `--test` (smoke) mode.
const SAMPLES_FAST: usize = 3;

/// Median ns/op of `payload`, calibrated so one sample runs >= 1 ms
/// (>= 100 us in `--test` mode).
fn time_ns_mode(fast: bool, mut payload: impl FnMut()) -> f64 {
    let floor_us = if fast { 100 } else { 1_000 };
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            payload();
        }
        if start.elapsed().as_micros() >= floor_us || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let samples = if fast { SAMPLES_FAST } else { SAMPLES };
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                payload();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    per_iter[per_iter.len() / 2]
}

/// Synthetic workload that isolates the engine hot loop: `roots` ordered
/// task chains of length `chain + 1`, each task touching one private line
/// and enqueuing its successor. Memory-system costs are minimal (every
/// access is a warm hit on a distinct line), so wall time is dominated by
/// the dispatch/finish/commit machinery this series tracks.
struct EngineLoop {
    roots: u64,
    chain: u64,
}

impl SwarmApp for EngineLoop {
    fn name(&self) -> &str {
        "engine_loop"
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        (0..self.roots)
            .map(|i| InitialTask::new(0, i, Hint::value(i), vec![i, self.chain]))
            .collect()
    }

    fn run_task(&self, _fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let (slot, left) = (args[0], args[1]);
        ctx.update(0x10_0000 + slot * 64, |v| v.wrapping_add(1));
        if left > 0 {
            ctx.enqueue(0, ts + 1, Hint::value(slot), vec![slot, left - 1]);
        }
    }
}

/// One full engine run of the [`EngineLoop`] workload; returns the
/// simulated runtime in cycles.
fn engine_loop_run(roots: u64, chain: u64) -> u64 {
    let mut engine = Sim::builder()
        .app(EngineLoop { roots, chain })
        .mapper(Box::new(RoundRobinMapper::new()))
        .cores(64)
        .build()
        .expect("engine_loop workload builds");
    engine.run().expect("engine_loop workload runs").runtime_cycles
}

/// Run the `bench_snapshot` command with the argument slice that follows the
/// subcommand name (`swarm bench <args...>`).
pub fn run(args: &[String]) -> i32 {
    let mut args = args.iter().cloned();
    let mut out = String::from("BENCH_mechanisms.json");
    let mut fast = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out requires a path"),
            "--test" => fast = true,
            other => panic!("unknown argument {other:?} (expected --out PATH or --test)"),
        }
    }
    let mut results: Vec<(&str, f64)> = Vec::new();

    {
        let mut caches = CacheModel::new(CacheConfig::default(), 64, 4);
        let mut i = 0u64;
        results.push((
            "cache_model_access_64tiles",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                let core = CoreId((i % 256) as u32);
                std::hint::black_box(caches.access(core, LineAddr(i % 8192), AccessKind::Read));
            }),
        ));
    }
    {
        let mut lru = LruSet::new(4096);
        let mut i = 0u64;
        results.push((
            "lru_set_insert",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                std::hint::black_box(lru.insert(i % 16384));
            }),
        ));
    }
    {
        let mut lru = LruSet::new(4096);
        for i in 0..4096u64 {
            lru.insert(i);
        }
        let mut i = 0u64;
        results.push((
            "lru_set_touch_hot",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                std::hint::black_box(lru.touch(i % 4096));
            }),
        ));
    }
    {
        let mut mem = SimMemory::new();
        for i in 0..8192u64 {
            mem.store(i * 8, i);
        }
        let mut i = 0u64;
        results.push((
            "sim_memory_load_store",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                let addr = (i % 8192) * 8;
                let value = mem.load(addr);
                std::hint::black_box(mem.store(addr, value.wrapping_add(1)));
            }),
        ));
    }
    {
        let mut mem = SimMemory::new();
        let mut i = 0u64;
        results.push((
            "sim_memory_store_logged",
            time_ns_mode(fast, || {
                i = i.wrapping_add(8);
                std::hint::black_box(mem.store_logged(i % 65536, i));
            }),
        ));
    }
    {
        let mut filter = BloomFilter::new(2048, 8);
        let mut i = 0u64;
        results.push((
            "bloom_insert_2kbit_8way",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                filter.insert(LineAddr(i % 4096));
            }),
        ));
    }

    // Whole-engine throughput: simulated cycles per wall-clock second on
    // the [`EngineLoop`] workload (the engine hot loop, with the memory
    // system reduced to warm hits). This is the machine-readable series
    // the ROADMAP's hot-loop item is tracked by.
    let (roots, chain) = if fast { (64, 7) } else { (256, 15) };
    let sim_cycles = engine_loop_run(roots, chain);
    let ns_per_run = time_ns_mode(fast, || {
        std::hint::black_box(engine_loop_run(roots, chain));
    });
    let engine_cycles_per_sec = sim_cycles as f64 * 1e9 / ns_per_run;

    // NoC queueing under the contention model: total link-queueing cycles
    // for Random vs Hints on two Table I apps at 16 cores, tiny scale.
    // These runs are deterministic (cycle counts, not wall time), and the
    // series is the machine-readable record that hint-based spatial
    // locality pays measurably fewer queueing cycles than random mapping.
    // A failed run leaves its series out of the JSON and prints `n/a`.
    let mut noc_queueing: Vec<(String, Result<u64, RunError>)> = Vec::new();
    for bench in [BenchmarkId::Bfs, BenchmarkId::Des] {
        for scheduler in [Scheduler::Random, Scheduler::Hints] {
            let request = RunRequest::new(AppSpec::coarse(bench), scheduler, 16, InputScale::Tiny)
                .with_noc(NocModel::Contention);
            let name =
                format!("noc_queueing_{}_{}", bench.name(), scheduler.name().to_ascii_lowercase());
            let cycles = run_point_result(request, false).map(|stats| stats.noc_queue_cycles);
            noc_queueing.push((name, cycles));
        }
    }

    // Hand-rolled JSON (the offline build has no serde_json); mechanism
    // names are static identifiers, so nothing needs escaping.
    let mut entries: Vec<String> = results
        .iter()
        .map(|(name, ns)| format!("    {{\"name\": \"{name}\", \"ns_per_op\": {ns:.1}}}"))
        .collect();
    entries.push(format!(
        "    {{\"name\": \"engine_cycles_per_sec\", \"cycles_per_sec\": {engine_cycles_per_sec:.0}}}"
    ));
    for (name, cycles) in &noc_queueing {
        if let Ok(cycles) = cycles {
            entries.push(format!("    {{\"name\": \"{name}\", \"queue_cycles\": {cycles}}}"));
        }
    }
    // The `serve_*` series belong to `bench-serve`; rewriting this file
    // must not drop them (and vice versa — bench-serve preserves ours).
    if let Ok(text) = std::fs::read_to_string(&out) {
        if let Ok(value) = swarm_serve::json::parse(&text) {
            if let Some(existing) = value.get("results").and_then(swarm_serve::Value::as_arr) {
                for entry in existing {
                    let name = entry.get("name").and_then(swarm_serve::Value::as_str);
                    if name.is_some_and(|n| n.starts_with("serve_")) {
                        entries.push(format!("    {}", entry.render_spaced()));
                    }
                }
            }
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"mechanisms\",\n  \"unit\": \"ns_per_op\",\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));

    println!("{:<32}{:>12}", "mechanism", "ns/op");
    for (name, ns) in &results {
        println!("{name:<32}{ns:>12.1}");
    }
    println!("{:<32}{engine_cycles_per_sec:>12.0}", "engine_cycles_per_sec");
    for (name, cycles) in &noc_queueing {
        match cycles {
            Ok(cycles) => println!("{name:<32}{cycles:>12}"),
            Err(_) => println!("{name:<32}{:>12}", "n/a"),
        }
    }
    println!("wrote {out}");

    super::report_failures(noc_queueing.iter().filter_map(|(_, c)| c.as_ref().err()))
}

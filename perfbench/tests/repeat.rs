//! The exact-count repeat check: a shortened form of each workload, run
//! twice with one seed, must report identical counts (and digests), and a
//! second seed must change the generated inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashSet;

use perfbench::{figplan, matrix, serve, Config, Outcome};

fn short(seed: u64) -> Config {
    Config { seed, seconds: 0.0, short: true }
}

/// Every exact count, bit for bit.
fn counts(out: &Outcome) -> Vec<(String, u64)> {
    out.metrics.iter().filter(|m| m.exact).map(|m| (m.name.clone(), m.value.to_bits())).collect()
}

fn assert_repeats(a: &Outcome, b: &Outcome) {
    assert_eq!(a.failed, 0, "{:?}", a.notes);
    assert_eq!(b.failed, 0, "{:?}", b.notes);
    assert!(counts(a).len() >= 20, "the traced run reports its counts");
    assert_eq!(counts(a), counts(b));
    assert_eq!(a.digest, b.digest);
}

#[test]
fn contention_matrix_counts_repeat_exactly() {
    let a = matrix::run_traced(&short(7));
    let b = matrix::run_traced(&short(7));
    assert_repeats(&a, &b);
    assert!(a.get("noc.link_traversals").unwrap() > 0.0, "the contention walk runs");
    assert!(a.get("core.steal_calls").unwrap() > 0.0, "Stealing's hook runs");
    assert!(a.get("core.lb_epoch_calls").unwrap() > 0.0, "LBHints' hook runs");
    assert_ne!(matrix::requests(7, true), matrix::requests(8, true));
}

#[test]
fn serve_mixed_counts_repeat_exactly() {
    let a = serve::run_traced(&short(7));
    let b = serve::run_traced(&short(7));
    assert_repeats(&a, &b);
    assert!(a.get("serve.cache_hits").unwrap() > 0.0);
    assert_eq!(
        a.get("serve.cache_misses").unwrap(),
        4.0 + a.get("serve.points_simulated").unwrap(),
        "every miss beyond the warm-up simulates exactly once"
    );
    assert_ne!(serve::working_set(7, true), serve::working_set(8, true));
    let fresh = |seed| -> Vec<_> {
        (0..50)
            .flat_map(|j| serve::submit_points(seed, 0, j, &serve::working_set(seed, true)))
            .collect()
    };
    assert_ne!(fresh(7), fresh(8));
}

#[test]
fn figures_replay_counts_repeat_exactly() {
    let a = figplan::run_traced(&short(7), "tiny");
    let b = figplan::run_traced(&short(7), "tiny");
    assert_repeats(&a, &b);
    assert_eq!(a.get("noc.link_traversals"), Some(0.0), "figures run the analytic NoC");
    assert_ne!(
        figplan::suite(&figplan::suite_args("tiny", 7, true)),
        figplan::suite(&figplan::suite_args("tiny", 8, true))
    );
}

#[test]
fn replay_plans_the_runs_the_suite_simulates() {
    // The small-scale suite at the default flags simulates 558 points, 257
    // of them distinct (a profiled run differs from an unprofiled one).
    let suite = figplan::suite(&figplan::suite_args("small", 0xF1605, false));
    let runs: usize = suite.iter().map(|(_, _, requests)| requests.len()).sum();
    let distinct: HashSet<_> = suite
        .iter()
        .flat_map(|(_, profiled, requests)| requests.iter().map(move |r| (*r, *profiled)))
        .collect();
    assert_eq!((runs, distinct.len()), (558, 257));
}

#[test]
fn plain_runs_report_every_end_to_end_metric() {
    for out in [matrix::run(&short(3)), serve::run(&short(3))] {
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        for name in ["wall_s", "cpu_s", "setup_s", "req_per_s", "latency_p50_ms", "latency_p99_ms"]
        {
            assert!(out.get(name).is_some_and(|v| v > 0.0), "{name} missing or zero");
        }
    }
}

//! End-to-end CLI test: every `swarm <figure>` subcommand runs a real
//! pooled sweep at `--scale tiny` with trimmed app sets, exits 0, prints its
//! title line, and renders no `n/a` cell. Byte identity across `--jobs`
//! levels is pinned by `tests/parallel_runner.rs` and `tests/conformance.rs`
//! at the workspace root.
//!
//! The `*_matches_legacy` names date from when each test compared the
//! subcommand against a standalone per-figure binary; `swarm` is now the
//! only binary, and the names are kept so the test ids stay stable.

use std::process::{Command, Output};

/// Run `swarm <args...>` and return its stdout, asserting a clean exit.
fn stdout_of(bin: &str, args: &[&str]) -> Vec<u8> {
    let Output { status, stdout, stderr } =
        Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        status.success(),
        "{bin} {args:?} exited with {status}; stderr:\n{}",
        String::from_utf8_lossy(&stderr)
    );
    stdout
}

/// Assert `swarm <subcommand> <args...>` exits 0, prints `title` as a whole
/// line, and renders every point (no `n/a` cell, no JSON `null`).
fn assert_runs(subcommand: &str, args: &[&str], title: &str) {
    let mut swarm_args = vec![subcommand];
    swarm_args.extend_from_slice(args);
    let stdout = String::from_utf8(stdout_of(env!("CARGO_BIN_EXE_swarm"), &swarm_args))
        .expect("figure output is UTF-8");
    assert!(
        stdout.lines().any(|line| line == title),
        "`swarm {subcommand} {args:?}` did not print the title line {title:?}:\n{stdout}"
    );
    assert!(
        !stdout.contains("n/a") && !stdout.contains("null"),
        "`swarm {subcommand} {args:?}` left a point unrendered:\n{stdout}"
    );
}

/// Fast sweep flags: tiny inputs, two core counts, a 2-worker pool (so the
/// parallel path is exercised too).
const SWEEP: &[&str] = &["--scale", "tiny", "--cores", "1,8", "--jobs", "2"];

macro_rules! golden {
    ($test:ident, $name:literal, extra: $extra:expr, title: $title:literal) => {
        #[test]
        fn $test() {
            let mut args: Vec<&str> = SWEEP.to_vec();
            args.extend_from_slice($extra);
            assert_runs($name, &args, $title);
        }
    };
}

// The two-app subsets keep the tiny sweeps fast while still covering the
// multi-app chunking logic of each figure; fine-grain figures pick apps
// that have fine-grain variants.
golden!(
    fig2_matches_legacy,
    "fig2",
    extra: &[],
    title: "Fig. 2a: des speedup vs cores (relative to 1-core Swarm)"
);
golden!(
    fig3_matches_legacy,
    "fig3",
    extra: &["--apps", "des,sssp"],
    title: "Fig. 3: classification of memory accesses (fractions of each app's total)"
);
golden!(
    fig4_matches_legacy,
    "fig4",
    extra: &["--apps", "des,sssp"],
    title: "Fig. 4 [des]: speedup vs cores"
);
golden!(
    fig5_matches_legacy,
    "fig5",
    extra: &["--apps", "des,sssp"],
    title: "Fig. 5a [des]: core-cycle breakdown at 8 cores (normalized to Random)"
);
golden!(
    fig6_matches_legacy,
    "fig6",
    extra: &["--apps", "sssp,astar"],
    title: "Fig. 6: access classification, coarse-grain vs fine-grain (normalized to CG total)"
);
golden!(
    fig7_matches_legacy,
    "fig7",
    extra: &["--apps", "sssp,astar"],
    title: "Fig. 7 [sssp]: CG and FG speedup vs cores (relative to CG at 1 core)"
);
golden!(
    fig8_matches_legacy,
    "fig8",
    extra: &["--apps", "sssp,astar"],
    title: "Fig. 8a [sssp]: FG core-cycle breakdown at 8 cores (normalized to CG-Random)"
);
golden!(
    fig10_matches_legacy,
    "fig10",
    extra: &["--apps", "des,sssp"],
    title: "Fig. 10 [des]: speedup vs cores"
);
golden!(
    fig11_matches_legacy,
    "fig11",
    extra: &["--apps", "des,kmeans"],
    title: "Fig. 11 [des]: core-cycle breakdown at 8 cores (normalized to Random)"
);
golden!(
    table1_matches_legacy,
    "table1",
    extra: &["--apps", "des,sssp"],
    title: "Table I: benchmark information (scale: Tiny, seed: 0xf1605)"
);
golden!(
    table2_matches_legacy,
    "table2",
    extra: &[],
    title: "Table 2: workloads beyond Table I (scale: Tiny, seed: 0xf1605)"
);
golden!(
    ablation_lb_matches_legacy,
    "ablation-lb",
    extra: &["--apps", "des,kmeans"],
    title: "Section VI-A ablation at 8 cores: load-balancer signal comparison"
);
golden!(
    summary_matches_legacy,
    "summary",
    extra: &["--apps", "des,sssp"],
    title: "Section VI-B summary at 8 cores (speedups over 1-core Random)"
);

#[test]
fn summary_json_matches_legacy() {
    // The JSON form has no title line: its first line opens the array and
    // every app appears as one object with all seven metrics filled in.
    let mut args: Vec<&str> = vec!["summary"];
    args.extend_from_slice(SWEEP);
    args.extend_from_slice(&["--apps", "des,sssp", "--json"]);
    let stdout = String::from_utf8(stdout_of(env!("CARGO_BIN_EXE_swarm"), &args)).unwrap();
    assert_eq!(stdout.lines().next(), Some("["), "{stdout}");
    assert!(stdout.contains("\"app\": \"des\""), "{stdout}");
    assert!(stdout.contains("\"app\": \"sssp\""), "{stdout}");
    assert_eq!(stdout.matches("\"lbhints_speedup\": ").count(), 2, "{stdout}");
    assert!(!stdout.contains("null"), "{stdout}");
}

#[test]
fn sysconfig_matches_legacy() {
    // No sweep flags: sysconfig runs no simulations.
    assert_runs("sysconfig", &[], "Table II: configuration of the 256-core system");
}

#[test]
fn legacy_alias_names_resolve_too() {
    // `swarm ablation_lb` (the legacy binary's name) must behave exactly
    // like the canonical `swarm ablation-lb`.
    let swarm = env!("CARGO_BIN_EXE_swarm");
    let args = ["--scale", "tiny", "--cores", "1,4", "--jobs", "2", "--apps", "des"];
    let dashed = stdout_of(swarm, &[&["ablation-lb"], &args[..]].concat());
    let underscored = stdout_of(swarm, &[&["ablation_lb"], &args[..]].concat());
    assert_eq!(dashed, underscored);
}

#[test]
fn swarm_list_names_every_command() {
    let listing = String::from_utf8(stdout_of(env!("CARGO_BIN_EXE_swarm"), &["list"])).unwrap();
    for spec in swarm_bench::REGISTRY {
        assert!(listing.contains(spec.name), "swarm list omits {}", spec.name);
    }
    // Explicit pin for the serving stack: `swarm list` is the discovery
    // surface the docs point at, so the name is part of the contract.
    assert!(listing.contains("serve"), "{listing}");
}

#[test]
fn serve_pipe_round_trips_a_submission_end_to_end() {
    use std::io::Write;
    use std::process::Stdio;
    // One two-point matrix submitted twice through the real binary's pipe
    // mode: the repeat must be served from cache with identical stats.
    let submit = concat!(
        "{\"type\":\"submit\",\"id\":\"g\",\"points\":[",
        "{\"app\":\"sssp\",\"scheduler\":\"hints\",\"cores\":2,\"scale\":\"tiny\"},",
        "{\"app\":\"bfs\",\"scheduler\":\"random\",\"cores\":1,\"scale\":\"tiny\"}]}\n",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_swarm"))
        .args(["serve", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning swarm serve");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(submit.as_bytes()).unwrap();
    stdin.write_all(submit.as_bytes()).unwrap();
    stdin.write_all(b"{\"type\":\"shutdown\"}\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("swarm serve exits");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.matches("\"type\":\"run-complete\"").count(), 2, "{stdout}");
    // The repeat run reports every point as a hit...
    assert!(stdout.contains("\"hits\":2,\"misses\":0"), "{stdout}");
    // ...and the two point-finished stats payloads are byte-identical to
    // the first pass once the cached/source markers are stripped.
    let payloads: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"type\":\"point-finished\""))
        .map(|l| l.split("\"stats\":").nth(1).expect("a stats payload"))
        .collect();
    assert_eq!(payloads.len(), 4, "{stdout}");
    assert_eq!(payloads[0], payloads[2]);
    assert_eq!(payloads[1], payloads[3]);
    assert!(stdout.contains("\"type\":\"bye\""), "{stdout}");
}

#[test]
fn bad_scale_exits_2_with_a_diagnostic() {
    // `--scale full` used to silently run at Small; it must now be a
    // usage error naming the valid set.
    let out = Command::new(env!("CARGO_BIN_EXE_swarm"))
        .args(["fig2", "--scale", "full"])
        .output()
        .expect("spawning swarm");
    assert_eq!(out.status.code(), Some(2), "bad --scale must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tiny, small, medium"), "stderr must name the valid set:\n{stderr}");
}

#[test]
fn noc_profile_prints_link_heat_tables() {
    let stdout = String::from_utf8(stdout_of(
        env!("CARGO_BIN_EXE_swarm"),
        &["noc-profile", "--scale", "tiny", "--apps", "bfs", "--cores", "16", "--jobs", "2"],
    ))
    .unwrap();
    assert!(stdout.contains("total queueing cycles"), "{stdout}");
    assert!(stdout.contains("hottest link"), "{stdout}");
    assert!(stdout.contains("per-link queueing cycles"), "{stdout}");
}

#[test]
fn unknown_commands_fail_with_a_hint() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_swarm")).arg("fig9").output().expect("spawning swarm");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("swarm list"));
}

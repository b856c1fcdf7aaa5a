//! CLI usage-error regression suite: malformed invocations must exit 2
//! with a diagnostic on stderr, not silently fall back to defaults.
//!
//! Each case here pins a historical silent failure: `--scale full` used to
//! run at Small while claiming a full-scale invocation, unknown `--flags`
//! and unparsable `--schedulers`/`--apps` lists were dropped without a
//! word, and a trailing flag with no value was ignored outright.

use std::process::Command;

/// Run `swarm <args...>` and return (exit code, stdout, stderr).
fn swarm(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--bin", "swarm", "--"])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the swarm binary runs");
    (
        output.status.code().expect("an exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn malformed_invocations_exit_2_with_a_diagnostic() {
    // (args, substring the stderr diagnostic must contain)
    let cases: &[(&[&str], &str)] = &[
        // Unknown --scale values used to map silently to Small.
        (&["fig2", "--scale", "full"], "tiny, small, medium"),
        (&["fig2", "--scale", "smal"], "smal"),
        // Unknown flags used to be ignored by the `_ => {}` arm.
        (&["fig2", "--bogus-flag"], "--bogus-flag"),
        (&["fig2", "--schedulres", "hints"], "did you mean '--schedulers'"),
        // A wholly unparsable list used to silently keep the default set.
        (&["fig2", "--schedulers", "hintz"], "hintz"),
        (&["fig5", "--apps", "zorp,blag"], "selects nothing"),
        // A trailing flag with no value used to be dropped outright.
        (&["fig2", "--jobs"], "--jobs requires a value"),
        (&["summary", "--scale"], "--scale requires a value"),
        // Malformed scalar values and the --noc model name are strict too.
        (&["fig2", "--seed", "nine"], "--seed"),
        (&["fig5", "--noc", "magic"], "analytic, contention"),
        // `serve` has its own flag set but the same strictness contract.
        (&["serve", "--bogus"], "--bogus"),
        (&["serve", "--tpc", "127.0.0.1:0"], "did you mean '--tcp'"),
        (&["serve", "--cache-dir"], "--cache-dir requires a value"),
        (&["serve", "--mem-entries", "lots"], "not a valid number"),
        // The old measurement commands are gone: perfbench measures.
        (&["bench"], "unknown command"),
        (&["bench-serve"], "unknown command"),
    ];
    for (args, needle) in cases {
        let (code, _, stderr) = swarm(args);
        assert_eq!(code, 2, "swarm {args:?} must exit 2, stderr:\n{stderr}");
        assert!(
            stderr.contains(needle),
            "swarm {args:?} stderr must mention {needle:?}, got:\n{stderr}"
        );
    }
}

#[test]
fn partially_bad_lists_warn_but_proceed() {
    // `--schedulers hints,hintz` drops `hintz` with a warning and still
    // runs; exercised through `sysconfig`-free fig3 would simulate, so use
    // the cheapest real command at tiny scale.
    let (code, stdout, stderr) = swarm(&[
        "table1",
        "--scale",
        "tiny",
        "--apps",
        "bfs,zorp",
        "--schedulers",
        "hints",
        "--jobs",
        "2",
    ]);
    assert_eq!(code, 0, "stderr:\n{stderr}");
    assert!(stderr.contains("zorp"), "dropped element must be reported, got:\n{stderr}");
    assert!(stdout.contains("bfs"), "the parsable subset still runs:\n{stdout}");
}

#[test]
fn failed_points_degrade_to_na_instead_of_panicking() {
    // A zero-core point is not a valid simulation. These commands used to
    // panic on it (exit 101 with a backtrace); like every other figure they
    // must print the table with `n/a` cells (`null` in JSON), name the
    // cause once on stderr and exit 3. `noc-profile` prints no table for a
    // failed point, and `chaos` rejects the machine up front as a usage
    // error (exit 2), since a bad machine is not a contract violation.
    const INVALID: &str = "is not a valid simulation";
    let cases: &[(&[&str], i32, &str, &str)] = &[
        (&["summary", "--apps", "bfs"], 3, "n/a", INVALID),
        (&["summary", "--apps", "bfs", "--json"], 3, "null", INVALID),
        (&["summary", "--apps", "bfs", "--noc", "contention"], 3, "n/a", INVALID),
        (&["fig7", "--apps", "bfs"], 3, "n/a", INVALID),
        (&["ablation-lb", "--apps", "des"], 3, "n/a", INVALID),
        (&["noc-profile", "--apps", "bfs"], 3, "", INVALID),
        (&["chaos", "--apps", "bfs"], 2, "", "--cores 0"),
    ];
    for (args, expect, missing, cause) in cases {
        let args = [*args, &["--scale", "tiny", "--cores", "0"]].concat();
        let (code, stdout, stderr) = swarm(&args);
        assert_eq!(code, *expect, "swarm {args:?} must exit {expect}, stderr:\n{stderr}");
        assert!(stdout.contains(missing), "swarm {args:?} must print {missing:?}:\n{stdout}");
        assert!(stderr.contains(cause), "swarm {args:?} must name the cause, got:\n{stderr}");
        assert!(!stderr.contains("panicked"), "swarm {args:?} panicked:\n{stderr}");
    }
}

#[test]
fn command_help_exits_zero_with_usage() {
    let (code, stdout, _) = swarm(&["fig2", "--help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("--scale"), "help text lists the shared flags:\n{stdout}");
}

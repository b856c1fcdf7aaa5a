//! CLI usage-error regression suite: malformed invocations must exit 2
//! with a diagnostic on stderr, not silently fall back to defaults.
//!
//! Each case here pins a historical silent failure: `--scale full` used to
//! run at Small while claiming a full-scale invocation, unknown `--flags`
//! and unparsable `--schedulers`/`--apps` lists were dropped without a
//! word, and a trailing flag with no value was ignored outright. A reader
//! that closes stdout early (`swarm chaos | head -1`) used to make the
//! next `println!` panic with exit 101.

use std::process::{Command, Stdio};

/// `cargo run` of `swarm <args...>`, not yet started.
fn swarm_command(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO"));
    command
        .args(["run", "--quiet", "--bin", "swarm", "--"])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    command
}

/// Run `swarm <args...>` and return (exit code, stdout, stderr).
fn swarm(args: &[&str]) -> (i32, String, String) {
    let output = swarm_command(args).output().expect("the swarm binary runs");
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
        // Runs are deterministic, so there is no retry policy.
        (&["fig2", "--on-error", "retry:3"], "retry:3"),
        // `serve` has its own flag set but the same strictness contract.
        (&["serve", "--bogus"], "--bogus"),
        (&["serve", "--tpc", "127.0.0.1:0"], "did you mean '--tcp'"),
        (&["serve", "--cache-dir"], "--cache-dir requires a value"),
        (&["serve", "--mem-entries", "lots"], "not a valid number"),
        // The fair-queue and progress settings are constants, not flags.
        (&["serve", "--batch", "8"], "unknown flag '--batch'"),
        (&["serve", "--progress-every", "8"], "unknown flag '--progress-every'"),
        // A repeated flag used to let its last occurrence win silently
        // (or, for `chaos --plan`, its first).
        (&["table1", "--scale", "tiny", "--apps", "des", "--apps", "bfs"], "--apps given twice"),
        (&["fig2", "--seed", "1", "--seed", "2"], "--seed given twice"),
        (&["summary", "--scale", "tiny", "--json", "--json"], "--json given twice"),
        (
            &[
                "chaos",
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
                "--plan",
                "abort-storm@2",
            ],
            "--plan given twice",
        ),
        (&["serve", "--jobs", "1", "--jobs", "2"], "--jobs given twice"),
        // `sysconfig` prints a fixed table and takes no flags at all.
        (&["sysconfig", "--cores", "4"], "unexpected argument '--cores'"),
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
fn breakdown_titles_name_the_row_they_normalize_to() {
    // The tables normalize to their first successful row; with Hints the
    // only scheduler, the title used to claim "normalized to Random" over
    // a Hints row reading 1.000.
    let (code, stdout, stderr) = swarm(&[
        "fig5",
        "--scale",
        "tiny",
        "--cores",
        "4",
        "--apps",
        "bfs",
        "--schedulers",
        "hints",
    ]);
    assert_eq!(code, 0, "stderr:\n{stderr}");
    assert!(stdout.contains("normalized to Hints"), "{stdout}");
    assert!(!stdout.contains("Random"), "{stdout}");
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
fn chaos_runs_its_battery_under_the_selected_noc() {
    let base =
        ["chaos", "--scale", "tiny", "--apps", "bfs", "--cores", "4", "--schedulers", "hints"];
    let (code, stdout, stderr) = swarm(&[&base[..], &["--noc", "contention"]].concat());
    assert_eq!(code, 0, "stderr:\n{stderr}");
    let header = stdout.lines().next().expect("a header line");
    assert!(header.contains("cores [4] under the contention NoC (scale Tiny)"), "{header}");
    // The default analytic battery keeps its header unchanged.
    let (code, stdout, stderr) = swarm(&base);
    assert_eq!(code, 0, "stderr:\n{stderr}");
    assert!(!stdout.contains("NoC"), "{stdout}");
}

#[test]
fn command_help_exits_zero_with_usage() {
    // (command, what its help must show, what it must not show): each
    // command prints its own flags, not another command's.
    let cases: [(&str, &[&str], &[&str]); 5] = [
        ("fig2", &["--scale"], &["--json", "--plan"]),
        ("serve", &["--tcp", "--cache-dir", "--mem-entries"], &["--scale"]),
        ("sysconfig", &["usage: swarm sysconfig"], &["--scale"]),
        ("chaos", &["--scale", "--plan"], &["--json"]),
        ("summary", &["--scale", "--json"], &["--plan"]),
    ];
    for (command, present, absent) in cases {
        let (code, stdout, stderr) = swarm(&[command, "--help"]);
        assert_eq!(code, 0, "{command} --help\nstderr:\n{stderr}");
        for flag in present {
            assert!(stdout.contains(flag), "{command} --help lacks {flag}:\n{stdout}");
        }
        for flag in absent {
            assert!(!stdout.contains(flag), "{command} --help shows {flag}:\n{stdout}");
        }
    }
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let mut child = swarm_command(&["chaos", "--scale", "tiny", "--jobs", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the swarm binary starts");
    // Close the pipe's only read end before the command prints its header.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("the command ends");
    let stderr = String::from_utf8_lossy(&output.stderr);
    // 141 (128 + SIGPIPE), not the panic exit code 101.
    assert_eq!(output.status.code(), Some(141), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

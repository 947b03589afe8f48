//! CLI usage-error regression suite: malformed invocations must exit 2
//! with a diagnostic on stderr, not silently fall back to defaults.
//!
//! Each case here pins a historical silent failure: `--scale full` used to
//! run at Small while claiming a full-scale invocation, unknown `--flags`
//! and unparsable `--schedulers`/`--apps` lists were dropped without a
//! word, and a trailing flag with no value was ignored outright. A closed
//! stdout (`swarm ... | head`) used to end in a panic backtrace.

use std::process::{Command, Stdio};

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
        // `bench-serve` routes through the shared strict parser.
        (&["bench-serve", "--clients"], "--clients requires a value"),
        (&["bench-serve", "--cleints", "2"], "did you mean '--clients'"),
        // `bench` used to panic (exit 101) on a bad or valueless flag.
        (&["bench", "--bogus"], "--bogus"),
        (&["bench", "--out"], "--out requires a value"),
        (&["bench", "--tset"], "did you mean '--test'"),
        // `sysconfig` takes no flags; it used to ignore them and exit 0.
        (&["sysconfig", "--bogus"], "--bogus"),
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
fn command_help_exits_zero_with_usage() {
    let (code, stdout, _) = swarm(&["fig2", "--help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("--scale"), "help text lists the shared flags:\n{stdout}");
}

#[test]
fn a_closed_stdout_ends_quietly_with_exit_141() {
    for args in [&["sysconfig", "--help"][..], &["--help"], &["list"]] {
        let mut child = Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--bin", "swarm", "--"])
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the swarm binary starts");
        // Close the read end at once, long before `cargo run` has started
        // swarm, so its first write finds no reader.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("swarm exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(141), "swarm {args:?}, stderr:\n{stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "swarm {args:?} must end quietly, stderr:\n{stderr}"
        );
    }
}

//! Golden-output tests: every deterministic `swarm <figure>` subcommand
//! must print exactly the bytes committed under `tests/golden/`. Those
//! files were recorded from the former standalone per-figure binaries
//! (`fig2`, `table2`, ...) while `swarm` was proven byte-identical to them,
//! so these pins carry that identity forward after the binaries' removal.
//! They run at `--scale tiny` with trimmed app sets to stay fast.
//!
//! `bench` (the old `bench_snapshot`) is deliberately absent: it measures
//! wall-clock times, so its output is legitimately nondeterministic.

use std::path::Path;
use std::process::{Command, Output};

/// Run one harness binary with `args` and return its stdout, asserting a
/// clean exit.
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

/// Assert `swarm <subcommand> <args...>` prints exactly the bytes of
/// `tests/golden/<golden>.txt`.
fn assert_golden(golden: &str, subcommand: &str, args: &[&str]) {
    let mut swarm_args = vec![subcommand];
    swarm_args.extend_from_slice(args);
    let actual = stdout_of(env!("CARGO_BIN_EXE_swarm"), &swarm_args);
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{golden}.txt"));
    let expected =
        std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert!(
        actual == expected,
        "`swarm {subcommand} {args:?}` differs from {}:\n--- actual ---\n{}",
        path.display(),
        String::from_utf8_lossy(&actual),
    );
}

/// Fast sweep flags: tiny inputs, two core counts, a 2-worker pool (the
/// pool is byte-identical at any job count, so this also keeps exercising
/// the parallel path).
const SWEEP: &[&str] = &["--scale", "tiny", "--cores", "1,8", "--jobs", "2"];

macro_rules! golden {
    ($test:ident, $golden:literal, $name:literal, extra: $extra:expr) => {
        #[test]
        fn $test() {
            let mut args: Vec<&str> = SWEEP.to_vec();
            args.extend_from_slice($extra);
            assert_golden($golden, $name, &args);
        }
    };
}

// The two-app subsets keep the tiny sweeps fast while still covering the
// multi-app chunking logic of each figure; fine-grain figures pick apps
// that have fine-grain variants.
golden!(fig2_matches_legacy, "fig2", "fig2", extra: &[]);
golden!(fig3_matches_legacy, "fig3", "fig3", extra: &["--apps", "des,sssp"]);
golden!(fig4_matches_legacy, "fig4", "fig4", extra: &["--apps", "des,sssp"]);
golden!(fig5_matches_legacy, "fig5", "fig5", extra: &["--apps", "des,sssp"]);
golden!(fig6_matches_legacy, "fig6", "fig6", extra: &["--apps", "sssp,astar"]);
golden!(fig7_matches_legacy, "fig7", "fig7", extra: &["--apps", "sssp,astar"]);
golden!(fig8_matches_legacy, "fig8", "fig8", extra: &["--apps", "sssp,astar"]);
golden!(fig10_matches_legacy, "fig10", "fig10", extra: &["--apps", "des,sssp"]);
golden!(fig11_matches_legacy, "fig11", "fig11", extra: &["--apps", "des,kmeans"]);
golden!(table1_matches_legacy, "table1", "table1", extra: &["--apps", "des,sssp"]);
golden!(table2_matches_legacy, "table2", "table2", extra: &[]);
golden!(ablation_lb_matches_legacy, "ablation-lb", "ablation-lb", extra: &["--apps", "des,kmeans"]);
golden!(summary_matches_legacy, "summary", "summary", extra: &["--apps", "des,sssp"]);
golden!(
    summary_json_matches_legacy,
    "summary-json",
    "summary",
    extra: &["--apps", "des,sssp", "--json"]
);

#[test]
fn sysconfig_matches_legacy() {
    // No sweep flags: sysconfig runs no simulations.
    assert_golden("sysconfig", "sysconfig", &[]);
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
    // Explicit pins for the serving stack: `swarm list` is the discovery
    // surface the docs point at, so these names are part of the contract.
    assert!(listing.contains("serve"), "{listing}");
    assert!(listing.contains("bench-serve"), "{listing}");
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

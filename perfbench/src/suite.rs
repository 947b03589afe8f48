//! The `suite-small` workload: the 13 figure and table commands of the real
//! `swarm` binary, each run as `swarm <cmd> --scale small --jobs 2 --seed
//! 988677`, one after another, pass after pass for `--seconds`.
//!
//! Every pass regenerates the figures from the repository's default
//! workload seed, as a user regenerating the paper's figures does; the
//! benchmark seed only orders the commands of each pass. Seeding the inputs
//! instead made one pass take 2.4 s to 5.2 s on a 2-vCPU Xeon guest,
//! depending on the seed -- the suite's commands share their inputs, so one
//! large input slows half of them at once -- which no run of a few passes
//! averages out.
//!
//! Every command must exit 0 and print the same bytes in every pass, and
//! match the pinned stdout digest.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::{fnv1a, Summary};
use crate::trace::{timed, Recorder, Shared};
use crate::{calib, host, pins, Outcome};

/// The figure and table commands, in the order `swarm list` prints them.
const COMMANDS: [&str; 13] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "table1",
    "table2",
    "summary",
    "ablation-lb",
];

/// The workload seed of every command's inputs.
const INPUT_SEED: u64 = pins::DEFAULT_SEED;

/// Run one command to completion; its stdout digest, or why it failed.
fn run_command(swarm: &Path, cmd: &str, seed: u64) -> Result<u64, String> {
    let seed = seed.to_string();
    let args = [cmd, "--scale", "small", "--jobs", "2", "--seed", &seed];
    let out = Command::new(swarm)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("starting swarm {cmd} failed: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("swarm {cmd} exited with {}: {}", out.status, stderr.trim()));
    }
    Ok(fnv1a(&out.stdout))
}

/// Process start-up of the real binary: `swarm list`, start to exit, in
/// seconds.
fn process_start_s(swarm: &Path, out: &mut Outcome) -> Option<f64> {
    out.attempted += 1;
    let t = Instant::now();
    let status = Command::new(swarm).arg("list").stdout(Stdio::null()).status();
    match status {
        Ok(s) if s.success() => return Some(t.elapsed().as_secs_f64()),
        Ok(s) => out.fail(format!("swarm list exited with {s}")),
        Err(e) => out.fail(format!("starting swarm list failed: {e}")),
    }
    None
}

/// What one pass measured, each but `setup` in [`COMMANDS`] order.
struct Pass {
    /// Seconds of a process start before each command, so that set-up is
    /// sampled all through a run rather than in one burst.
    setup: Vec<f64>,
    /// Seconds of each command, start to exit.
    times: Vec<f64>,
    /// Seconds of the calibration kernel run right before each command.
    kernel: Vec<f64>,
    /// Stdout digest of each command.
    digests: Vec<u64>,
}

/// One pass over the commands in `order`, each digest checked against the
/// pins.
fn pass(swarm: &Path, order: &[usize], out: &mut Outcome, rec: Option<&Shared>) -> Option<Pass> {
    let n = COMMANDS.len();
    let mut p =
        Pass { setup: Vec::new(), times: vec![0.0; n], kernel: vec![0.0; n], digests: vec![0; n] };
    for &i in order {
        let cmd = COMMANDS[i];
        p.setup.push(process_start_s(swarm, out)?);
        out.attempted += 1;
        p.kernel[i] = calib::kernel_s();
        let t = Instant::now();
        let result = match rec {
            Some(rec) => timed(rec, SPANS[i], || run_command(swarm, cmd, INPUT_SEED)),
            None => run_command(swarm, cmd, INPUT_SEED),
        };
        p.times[i] = t.elapsed().as_secs_f64();
        p.digests[i] = match result {
            Ok(d) => d,
            Err(err) => {
                out.fail(err);
                return None;
            }
        };
        match pins::lookup("suite-small", INPUT_SEED, cmd) {
            Some(pinned) if pinned != p.digests[i] => {
                out.fail(format!(
                    "swarm {cmd} --seed {INPUT_SEED}: stdout digest {:016x} != pinned \
                     {pinned:016x}",
                    p.digests[i]
                ));
                return None;
            }
            Some(_) => out.pinned_checks += 1,
            None => {}
        }
    }
    Some(p)
}

/// Span names of the commands, in [`COMMANDS`] order.
const SPANS: [&str; 13] = [
    "bench.fig2",
    "bench.fig3",
    "bench.fig4",
    "bench.fig5",
    "bench.fig6",
    "bench.fig7",
    "bench.fig8",
    "bench.fig10",
    "bench.fig11",
    "bench.table1",
    "bench.table2",
    "bench.summary",
    "bench.ablation-lb",
];

/// The order of the commands in pass `k` of a run with workload seed `seed`.
fn order(seed: u64, k: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..COMMANDS.len()).collect();
    crate::shuffle(&mut order, &mut crate::input_seed(seed, k));
    order
}

/// The untraced run: passes for `seconds`. Every pass runs the same
/// commands on the same inputs and must print the same bytes. A command's
/// time is the lower quartile of its times over the passes. Each command is
/// preceded by the calibration kernel (see [`calib`]), and the sum of the
/// commands' times is taken in units of the kernel's lower quartile over
/// the run: right after a command exits, the kernel's own time varied by
/// 3x while the commands' did not, so one kernel run is too noisy a
/// yardstick for the command after it. The run reports commands per
/// reference second. With `traced`, passes alternate between untraced and
/// traced -- spans per command under a span per pass -- and the
/// per-command times, in host milliseconds, become per-layer metrics.
pub fn run(swarm: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let rec: Shared = Shared::new(Recorder::new().into());
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut per_cmd: Vec<Vec<f64>> = vec![Vec::new(); COMMANDS.len()];
    let mut kernel = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    for k in 0.. {
        let traced_now = traced && k % 2 == 1;
        if !out.ok() || (k > traced as u64 && Instant::now() >= deadline) {
            break;
        }
        let order = order(seed, k);
        let result = if traced_now {
            timed(&rec, "bench.suite", || pass(swarm, &order, &mut out, Some(&rec)))
        } else {
            pass(swarm, &order, &mut out, None)
        };
        let Some(p) = result else { break };
        if reference.get_or_insert_with(|| p.digests.clone()) != &p.digests {
            out.fail(format!("suite-small: stdout changed between passes {k} and 0"));
            break;
        }
        if traced_now { &mut traced_s } else { &mut plain_s }.push(p.times.iter().sum::<f64>());
        for (i, s) in p.times.iter().enumerate() {
            per_cmd[i].push(s * 1e3);
        }
        if !traced_now {
            setup.extend(p.setup);
            kernel.extend(p.kernel);
        }
    }
    if !traced {
        out.metric("setup_s", "s", setup);
        if let (true, Some(kernel)) = (out.ok(), Summary::of(&kernel)) {
            let command_s: f64 =
                per_cmd.iter().filter_map(|ms| Summary::of(ms)).map(|s| s.q1).sum();
            let units = command_s / 1e3 / kernel.q1;
            let ops = COMMANDS.len() as f64 / (units * calib::REFERENCE_S);
            out.metric("ops_per_s", "1/s", vec![ops]);
        }
        return out;
    }
    for (i, ms) in per_cmd.into_iter().enumerate() {
        out.metric(&format!("{}_ms", SPANS[i]), "ms", ms);
    }
    let overhead =
        Summary::of(&traced_s).zip(Summary::of(&plain_s)).map(|(t, p)| t.median / p.median);
    out.metric("bench.suite_s", "s", plain_s);
    out.metric("trace_overhead_ratio", "ratio", overhead.into_iter().collect());
    out.metric("peak_rss_mb", "MB", host::children_peak_rss_mb().into_iter().collect());
    out.spans = Some(rec.borrow().spans_csv());
    out
}

/// The stdout digest of every command, one pin line each.
pub fn pin_lines(swarm: &Path) -> Result<Vec<String>, String> {
    COMMANDS
        .iter()
        .map(|cmd| {
            let digest = run_command(swarm, cmd, INPUT_SEED)?;
            Ok(format!("suite-small {INPUT_SEED} {cmd} {digest:016x}"))
        })
        .collect()
}

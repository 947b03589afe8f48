//! The swarm benchmark: three workloads, end-to-end metrics from untraced
//! runs and per-layer metrics from separate traced runs.
//!
//! ```text
//! perfbench --swarm <swarm binary> --out-dir <dir> --workload <name> \
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --swarm <swarm binary> --print-pins --seed N
//! ```
//!
//! `run.sh` builds both binaries and supplies `--swarm` and `--out-dir`.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`; a per-layer metric whose layer the
//! workload does not pass through reads 0). Run metadata -- host, toolchain,
//! revision, seed, and each metric's sample count, median and quartiles --
//! is printed before it and written to the output directory with the span
//! dump. The exit code is 0 only when every correctness check passed; a
//! usage error exits 2 without a result. See README.md for the workloads and
//! the layer-to-metric map.

mod calib;
mod des;
mod host;
mod pins;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use spatial_hints::Scheduler;
use swarm_serve::json::Value;

use crate::stats::Summary;

/// The benchmark's contract: its workloads and both metric tiers.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

fn contract() -> Value {
    swarm_serve::json::parse(CONTRACT).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every entry of the contract's list `key` (`workloads`,
/// `end_to_end` or `per_layer`; workloads have no unit).
fn contract_list(key: &str) -> Vec<(String, String)> {
    let doc = contract();
    let field = |entry: &Value, name: &str| {
        entry.get(name).and_then(Value::as_str).unwrap_or_default().to_string()
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// What one run measured and which checks failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulation points, commands or requests.
    pub attempted: u64,
    /// One message per operation or check that failed.
    pub failures: Vec<String>,
    /// Results compared against a pinned digest.
    pub pinned_checks: u64,
    /// `(name, unit, samples)`; a metric's value is its samples' median.
    pub metrics: Vec<(String, &'static str, Vec<f64>)>,
    /// The span dump of the traced run, as CSV.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.metrics.push((name.to_string(), unit, samples));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    swarm: PathBuf,
    out_dir: PathBuf,
    print_pins: bool,
}

fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pins::DEFAULT_SEED,
        seconds: contract()
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("BENCHMARK.json sets run_seconds"),
        trace: false,
        swarm: PathBuf::new(),
        out_dir: PathBuf::from("."),
        print_pins: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            args.print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse_seed(value).ok_or(format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("--seconds must be in (0, 600], got {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--swarm" => args.swarm = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !args.swarm.is_file() {
        return Err(format!("--swarm {:?} is not a file", args.swarm));
    }
    let workloads: Vec<String> = contract_list("workloads").into_iter().map(|(n, _)| n).collect();
    if !args.print_pins && !workloads.contains(&args.workload) {
        return Err(format!("--workload must be one of {workloads:?}, got {:?}", args.workload));
    }
    Ok(args)
}

/// The next value of a splitmix64 generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by a splitmix64 state.
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
}

/// Item `k` of the seed sequence derived from `seed`: `seed` itself, then
/// splitmix64-derived seeds. It gives des circuits' input seeds and the
/// order of each pass.
pub fn input_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    splitmix(&mut (seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// Every digest to pin for `seed`, one line each (see [`pins`]): the first
/// `PIN_BASKET` des circuits under both schedulers and the serve points;
/// for the default seed, whose inputs the suite runs, also the suite's
/// commands.
fn print_pins(args: &Args) -> Result<(), String> {
    const PIN_BASKET: u64 = 8;
    for input in (0..PIN_BASKET).map(|k| input_seed(args.seed, k)) {
        println!("{}", des::pin_line(Scheduler::Random, input)?);
        println!("{}", des::pin_line(Scheduler::Hints, input)?);
    }
    println!("{}", serve::pin_line(args.seed)?);
    if args.seed == pins::DEFAULT_SEED {
        for line in suite::pin_lines(&args.swarm)? {
            println!("{line}");
        }
    }
    Ok(())
}

fn run(args: &Args) -> Outcome {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match (args.workload.as_str(), trace) {
        ("des", false) => des::run(seed, secs),
        ("des", true) => des::run_traced(seed, secs),
        ("suite-small", _) => suite::run(&args.swarm, seed, secs, trace),
        ("serve-mix", _) => serve::run(&args.swarm, &args.out_dir, seed, secs, trace),
        (other, _) => unreachable!("BENCHMARK.json names workload {other}, which is not run here"),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.print_pins {
        return match print_pins(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("perfbench: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let mut outcome = run(&args);
    let tier = contract_list(if args.trace { "per_layer" } else { "end_to_end" });
    for (name, unit, _) in &outcome.metrics {
        assert!(
            tier.contains(&(name.clone(), unit.to_string())),
            "{name} [{unit}] is not in the tier"
        );
    }

    let mut metrics = Vec::new();
    let mut summaries = Vec::new();
    for (name, unit) in &tier {
        let summary = outcome
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, _, samples)| Summary::of(samples));
        if summary.is_none() && !args.trace && outcome.ok() {
            outcome.fail(format!("{name} was not measured"));
        }
        let value = summary.map_or(0.0, |s| s.median);
        match summary {
            Some(s) => println!(
                "{name:<28} {value:>16.6} {unit:<6} (n={}, q1={:.6}, q3={:.6})",
                s.n, s.q1, s.q3
            ),
            None => println!("{name:<28} {:>16} {unit:<6} (not on this workload's path)", "0"),
        }
        metrics.push((
            name.to_string(),
            Value::Obj(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::str(unit)),
            ]),
        ));
        if let Some(s) = summary {
            summaries.push((name.to_string(), s.to_json()));
        }
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }

    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, args.trace as u8);
    let meta = Value::Obj(vec![
        ("workload".into(), Value::str(&args.workload)),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("seed_pinned".into(), Value::Bool(pins::is_pinned(args.seed))),
        ("pinned_checks".into(), Value::UInt(outcome.pinned_checks)),
        ("held_out_seed".into(), Value::UInt(pins::HELD_OUT_SEED)),
        ("host".into(), host::metadata()),
        ("failures".into(), Value::Arr(outcome.failures.iter().map(Value::str).collect())),
        ("metrics".into(), Value::Obj(summaries)),
    ]);
    let meta_text = meta.render();
    println!("run metadata: {meta_text}");
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(args.out_dir.join(format!("{stem}.json")), &meta_text))
        .and_then(|()| match &outcome.spans {
            Some(csv) => std::fs::write(args.out_dir.join(format!("{stem}-spans.csv")), csv),
            None => Ok(()),
        });
    if let Err(err) = written {
        eprintln!("perfbench: writing run artifacts to {:?} failed: {err}", args.out_dir);
    }

    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.ok())),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failures.len() as u64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if outcome.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The `des` workload: the des benchmark at medium scale on 64 simulated
//! cores under the analytic NoC, one simulation at a time in this thread,
//! driven through the public library API.
//!
//! The untraced run simulates a fixed basket of circuits under Random (the
//! abort-heavy case: app bodies, memory probes and abort cascades dominate)
//! and under Hints (few aborts, many spills: dispatch, commit/GVT and
//! spill/refill dominate), pass after pass for `--seconds`; the workload
//! seed only orders each pass. Seeded circuits do not give a figure that
//! holds across seeds: the work of a medium circuit varies by two orders of
//! magnitude from one seed to the next (on a 2-vCPU Xeon guest one runs in
//! 0.3 s, another in 36 s), and so does its mix of aborts, hence its rate
//! in task bodies per second. The basket's circuits are derived from the
//! repository's default workload seed and run for about a second each
//! under Random. The traced run simulates the seed's own circuit, as
//! `swarm --seed` would build it, under Random. Simulated caches start
//! empty in every simulation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_mem::{AccessKind, CacheModel, SimMemory};
use swarm_sim::{Engine, RunStats, Sim, SwarmApp, TaskMapper};
use swarm_types::{CacheConfig, CoreId, LineAddr, SystemConfig};

use crate::stats::{fnv1a, Summary};
use crate::trace::{timed, Recorder, Shared, TracedApp, TracedMapper};
use crate::{calib, host, pins, Outcome};

const CORES: u32 = 64;

/// The digest pinned for a simulation: every `RunStats` field, via its
/// derived `Debug` form.
fn stats_digest(stats: &RunStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

fn build_app(input_seed: u64) -> Box<dyn SwarmApp> {
    AppSpec::coarse(BenchmarkId::Des).build(InputScale::Medium, input_seed)
}

fn build_engine(app: Box<dyn SwarmApp>, scheduler: Scheduler) -> Result<Engine, String> {
    Sim::builder()
        .cores(CORES)
        .app_boxed(app)
        .scheduler(scheduler)
        .build()
        .map_err(|e| format!("building the simulation failed: {e}"))
}

fn bodies(stats: &RunStats) -> f64 {
    (stats.tasks_committed + stats.tasks_aborted) as f64
}

/// The workload name under which `scheduler`'s digests are pinned.
fn pin_name(scheduler: Scheduler) -> &'static str {
    match scheduler {
        Scheduler::Hints => "des-hints",
        _ => "des-random",
    }
}

/// Compare a finished simulation of input seed `input` under `scheduler`
/// against the pinned digest, if one exists.
fn check(out: &mut Outcome, scheduler: Scheduler, input: u64, stats: &RunStats) -> bool {
    let digest = stats_digest(stats);
    let name = pin_name(scheduler);
    match pins::lookup(name, input, "stats") {
        Some(pinned) if pinned != digest => {
            out.fail(format!(
                "{name} input seed {input}: RunStats digest {digest:016x} != pinned \
                 {pinned:016x}"
            ));
            false
        }
        Some(_) => {
            out.pinned_checks += 1;
            true
        }
        None => true,
    }
}

/// The basket: items of the default seed's circuit sequence (see
/// [`crate::input_seed`]), each about a second under Random and half that
/// under Hints on a 2-vCPU Xeon guest, under both schedulers.
const BASKET: [(u64, Scheduler); 6] = [
    (0, Scheduler::Random),
    (5, Scheduler::Random),
    (7, Scheduler::Random),
    (0, Scheduler::Hints),
    (5, Scheduler::Hints),
    (7, Scheduler::Hints),
];

/// The untraced run: passes over the basket, in a seeded order, for
/// `seconds`. Every pass simulates the same circuits and must give the same
/// `RunStats`. Each simulation is preceded by the calibration kernel and
/// timed in its units (see [`calib`]); a basket item's time is the lower
/// quartile over the passes. The run reports the basket's task bodies
/// (committed or aborted) per reference second of `Engine::run`, and the
/// median input generation plus `SimBuilder::build`, in reference seconds.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setup = Vec::new();
    let mut units: [Vec<f64>; BASKET.len()] = Default::default();
    let mut first: [Option<RunStats>; BASKET.len()] = Default::default();
    'passes: for pass in 0.. {
        let mut order: Vec<usize> = (0..BASKET.len()).collect();
        crate::shuffle(&mut order, &mut crate::input_seed(seed, pass));
        for i in order {
            if pass >= 2 && Instant::now() >= deadline {
                break 'passes;
            }
            out.attempted += 1;
            let (k, scheduler) = BASKET[i];
            let input = crate::input_seed(pins::DEFAULT_SEED, k);
            let kernel_s = calib::kernel_s();
            let t0 = Instant::now();
            let engine = build_engine(build_app(input), scheduler);
            let t1 = Instant::now();
            let result = engine.and_then(|mut e| e.run().map_err(|err| err.to_string()));
            let run_s = t1.elapsed().as_secs_f64();
            setup.push((t1 - t0).as_secs_f64() / kernel_s * calib::REFERENCE_S);
            let name = pin_name(scheduler);
            let stats = match result {
                Ok(stats) => stats,
                Err(err) => {
                    out.fail(format!("{name} input seed {input}: {err}"));
                    break 'passes;
                }
            };
            match &first[i] {
                Some(earlier) if &stats != earlier => {
                    out.fail(format!("{name} input seed {input}: a repeat differs"));
                    break 'passes;
                }
                Some(_) => {}
                None => {
                    if !check(&mut out, scheduler, input, &stats) {
                        break 'passes;
                    }
                    first[i] = Some(stats);
                }
            }
            units[i].push(run_s / kernel_s);
        }
    }
    out.metric("setup_s", "s", setup);
    if out.ok() {
        let bodies: f64 = first.iter().flatten().map(bodies).sum();
        let units: f64 = units.iter().filter_map(|u| Summary::of(u)).map(|s| s.q1).sum();
        out.metric("ops_per_s", "1/s", vec![bodies / (units * calib::REFERENCE_S)]);
    }
    out
}

/// One traced simulation of input `input_seed`: the app and mapper are
/// wrapped, and the benchmark's own calls are spans too.
fn traced_once(input_seed: u64, scheduler: Scheduler, rec: &Shared) -> Result<RunStats, String> {
    let app = timed(rec, "apps.build", || build_app(input_seed));
    let app = TracedApp { inner: app, rec: rec.clone() };
    let mapper_rec = rec.clone();
    let factory = move |cfg: &SystemConfig| -> Box<dyn TaskMapper> {
        Box::new(TracedMapper { inner: scheduler.build(cfg), rec: mapper_rec.clone() })
    };
    let mut engine =
        timed(rec, "sim.build", || Sim::builder().cores(CORES).app(app).scheduler(factory).build())
            .map_err(|e| format!("building the traced simulation failed: {e}"))?;
    timed(rec, "sim.run", || engine.run()).map_err(|e| e.to_string())
}

/// The traced run: the seed's own circuit under Random again and again,
/// alternating an untraced and a traced simulation, for `seconds`.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let scheduler = Scheduler::Random;
    let workload = pin_name(scheduler);
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut layer: BTreeMap<&'static str, (&'static str, Vec<f64>)> = BTreeMap::new();
    let mut push = |name: &'static str, unit: &'static str, v: f64| {
        layer.entry(name).or_insert((unit, Vec::new())).1.push(v);
    };
    let mut last: Option<(RunStats, Recorder)> = None;
    while last.is_none() || Instant::now() < deadline {
        out.attempted += 2;
        let engine = build_engine(build_app(seed), scheduler);
        let t0 = Instant::now();
        let plain = engine.and_then(|mut e| e.run().map_err(|err| err.to_string()));
        let plain_run_s = t0.elapsed().as_secs_f64();
        let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
        let traced = traced_once(seed, scheduler, &rec);
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                for err in [p.err(), t.err()].into_iter().flatten() {
                    out.fail(format!("{workload} seed {seed} circuit 0: {err}"));
                }
                break;
            }
        };
        if traced != plain {
            out.fail(format!("{workload} seed {seed}: traced RunStats differ from untraced"));
            break;
        }
        if !check(&mut out, scheduler, seed, &plain) {
            break;
        }
        push("sim.cycles_per_s", "1/s", plain.runtime_cycles as f64 / plain_run_s);
        push("sim.commits_per_s", "1/s", plain.tasks_committed as f64 / plain_run_s);
        let rec = Rc::try_unwrap(rec).ok().expect("the engine is dropped").into_inner();
        let run_ms = rec.total_ms("sim.run");
        let self_ms = rec.totals().get("sim.run").map_or(0.0, |a| a.self_ns as f64 / 1e6);
        let task = rec.totals().get("apps.run_task").copied().unwrap_or_default();
        push("trace_overhead_ratio", "ratio", run_ms / 1e3 / plain_run_s);
        push("apps.build_ms", "ms", rec.total_ms("apps.build"));
        push("apps.validate_ms", "ms", rec.total_ms("apps.validate"));
        push("apps.run_task_ms", "ms", task.total_ns as f64 / 1e6);
        push("apps.run_task_calls", "count", task.calls as f64);
        push("apps.run_task_ns_per_call", "ns", task.total_ns as f64 / task.calls.max(1) as f64);
        push("sim.build_ms", "ms", rec.total_ms("sim.build"));
        push("sim.run_ms", "ms", run_ms);
        push("sim.engine_self_ms", "ms", self_ms);
        push("sim.engine_self_share", "ratio", self_ms / run_ms);
        let calls = |name: &str| rec.totals().get(name).map_or(0, |a| a.calls) as f64;
        push("hints.map_task_ms", "ms", rec.total_ms("hints.map_task"));
        push("hints.map_task_calls", "count", calls("hints.map_task"));
        push("hints.on_commit_ms", "ms", rec.total_ms("hints.on_commit"));
        push("hints.lb_epoch_ms", "ms", rec.total_ms("hints.lb_epoch"));
        push("hints.steal_ms", "ms", rec.total_ms("hints.steal"));
        last = Some((plain, rec));
    }
    let Some((stats, rec)) = last else { return out };
    for (name, (unit, values)) in layer {
        out.metric(name, unit, values);
    }
    let counts = [
        ("sim.runtime_cycles", stats.runtime_cycles),
        ("sim.tasks_committed", stats.tasks_committed),
        ("sim.tasks_aborted", stats.tasks_aborted),
        ("sim.tasks_spilled", stats.tasks_spilled),
        ("sim.gvt_updates", stats.gvt_updates),
        ("sim.cycles.committed", stats.breakdown.committed),
        ("sim.cycles.aborted", stats.breakdown.aborted),
        ("sim.cycles.spill", stats.breakdown.spill),
        ("sim.cycles.stall", stats.breakdown.stall),
        ("sim.cycles.empty", stats.breakdown.empty),
        ("noc.mem_flit_hops", stats.traffic.mem_flit_hops),
        ("noc.abort_flit_hops", stats.traffic.abort_flit_hops),
        ("noc.task_flit_hops", stats.traffic.task_flit_hops),
        ("noc.gvt_flit_hops", stats.traffic.gvt_flit_hops),
        ("noc.queue_cycles", stats.noc_queue_cycles),
    ];
    for (name, value) in counts {
        out.metric(name, "count", vec![value as f64]);
    }
    out.metric("sim.useful_ratio", "ratio", vec![stats.tasks_committed as f64 / bodies(&stats)]);
    out.metric("mem.cache_access_ns", "ns", mem_cache_access_ns());
    out.metric("mem.load_store_ns", "ns", mem_load_store_ns());
    out.metric("peak_rss_mb", "MB", host::peak_rss_mb("self").into_iter().collect());
    out.spans = Some(rec.spans_csv());
    out
}

/// Nanoseconds per call of `op`, over five batches of `calls` calls.
fn ns_per_call(calls: u64, mut op: impl FnMut(u64)) -> Vec<f64> {
    (0..5)
        .map(|batch| {
            let t = Instant::now();
            for i in 0..calls {
                op(batch * calls + i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect()
}

/// `CacheModel::access` on the 64-tile hierarchy, reads spread over 256
/// cores and 8192 lines.
fn mem_cache_access_ns() -> Vec<f64> {
    let mut caches = CacheModel::new(CacheConfig::default(), 64, 4);
    ns_per_call(200_000, |i| {
        let core = CoreId((i % 256) as u32);
        std::hint::black_box(caches.access(core, LineAddr(i % 8192), AccessKind::Read));
    })
}

/// A `SimMemory` load followed by a store to the same word, over 8192
/// resident words.
fn mem_load_store_ns() -> Vec<f64> {
    let mut mem = SimMemory::new();
    for i in 0..8192u64 {
        mem.store(i * 8, i);
    }
    ns_per_call(1_000_000, |i| {
        let addr = (i % 8192) * 8;
        let value = mem.load(addr);
        std::hint::black_box(mem.store(addr, value.wrapping_add(1)));
    })
}

/// The pin line of the simulation of input seed `input` under `scheduler`.
pub fn pin_line(scheduler: Scheduler, input: u64) -> Result<String, String> {
    let stats = build_engine(build_app(input), scheduler)
        .and_then(|mut e| e.run().map_err(|err| err.to_string()))?;
    Ok(format!("{} {input} stats {:016x}", pin_name(scheduler), stats_digest(&stats)))
}

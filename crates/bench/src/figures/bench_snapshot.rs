//! Machine-readable snapshot of the mechanism microbenchmarks: the
//! harness's only microbenchmark.
//!
//! Times the mechanisms the paper adds to Swarm (hint hashing, Bloom
//! signatures, the load balancer's tile map) and the memory-system hot path
//! with a calibrate-then-median loop, and emits `BENCH_mechanisms.json`
//! (ns/op per mechanism) so the performance trajectory of the hot path is
//! tracked in version control, not just in terminal scrollback.
//!
//! ```text
//! swarm bench [--out PATH] [--test]   # default: BENCH_mechanisms.json
//! ```
//!
//! Most entries are ns/op of one mechanism; the `engine_cycles_per_sec`
//! entry is whole-engine throughput (simulated cycles per wall-clock
//! second) on a synthetic chain workload that isolates the engine hot
//! loop. `--test` is the CI smoke mode: fewer samples, smaller workload,
//! same output schema, and every body still runs.

use std::time::Instant;

use spatial_hints::{Scheduler, TileMap};
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_mem::{AccessKind, CacheModel, LruSet, SimMemory};
use swarm_sim::{BloomFilter, InitialTask, RoundRobinMapper, Sim, SwarmApp, TaskCtx};
use swarm_types::{hash_to_bucket, CacheConfig, CoreId, Hint, LineAddr, NocModel};

use crate::runner::{run_app, RunRequest};

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

/// Flags `swarm bench` accepts (for the did-you-mean hint).
const BENCH_FLAGS: &[&str] = &["--out", "--test"];

/// Parse `swarm bench`'s flags into (output path, smoke mode).
fn parse_bench_args(args: &[String]) -> Result<(String, bool), String> {
    let mut it = args.iter();
    let mut out = String::from("BENCH_mechanisms.json");
    let mut fast = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().cloned().ok_or("--out requires a value")?,
            "--test" => fast = true,
            other => {
                let mut msg = format!("unknown flag '{other}'");
                if let Some(near) = crate::cli::closest_flag(other, BENCH_FLAGS.iter().copied()) {
                    msg.push_str(&format!(" (did you mean '{near}'?)"));
                }
                return Err(msg);
            }
        }
    }
    Ok((out, fast))
}

/// Run the `bench` command with the argument slice that follows the
/// subcommand name (`swarm bench <args...>`).
pub fn run(args: &[String]) -> i32 {
    let (out, fast) = match parse_bench_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("swarm bench: {msg}");
            eprintln!(
                "usage: swarm bench [--out PATH] [--test]   # default: BENCH_mechanisms.json"
            );
            return crate::exit_code::USAGE;
        }
    };
    let mut results: Vec<(&str, f64)> = Vec::new();

    {
        let mut i = 0u64;
        results.push((
            "hint_to_tile_hash",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                std::hint::black_box(Hint::value(i).to_tile(64));
            }),
        ));
    }
    {
        let mut i = 0u64;
        results.push((
            "hint_to_bucket_hash",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                std::hint::black_box(hash_to_bucket(i, 1024));
            }),
        ));
    }
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
        // A des gate body's shape: five accesses per (core, line), three
        // reads then two writes. The first read and the first write take
        // the full path (a read leaves the line shared, so the first write
        // must claim it); the other three repeat the line and take the
        // repeated-line fast path.
        let mut caches = CacheModel::new(CacheConfig::default(), 64, 4);
        let mut i = 0u64;
        results.push((
            "cache_model_repeat_line_64tiles",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                let group = i / 5;
                let kind = if i % 5 < 3 { AccessKind::Read } else { AccessKind::Write };
                let core = CoreId((group % 256) as u32);
                std::hint::black_box(caches.access(core, LineAddr(group % 8192), kind));
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
    {
        let mut filter = BloomFilter::new(2048, 8);
        for i in 0..64u64 {
            filter.insert(LineAddr(i));
        }
        let mut i = 0u64;
        results.push((
            "bloom_check_2kbit_8way",
            time_ns_mode(fast, || {
                i = i.wrapping_add(1);
                std::hint::black_box(filter.maybe_contains(LineAddr(i % 4096)));
            }),
        ));
    }
    {
        let weights: Vec<u64> = (0..1024u64).map(|i| (i * 37) % 997).collect();
        results.push((
            "tile_map_rebalance_1024_buckets",
            time_ns_mode(fast, || {
                let mut map = TileMap::new(1024, 64);
                std::hint::black_box(map.rebalance(&weights, 80));
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
    let mut noc_queueing: Vec<(String, u64)> = Vec::new();
    for bench in [BenchmarkId::Bfs, BenchmarkId::Des] {
        for scheduler in [Scheduler::Random, Scheduler::Hints] {
            let stats = run_app(
                RunRequest::new(AppSpec::coarse(bench), scheduler, 16, InputScale::Tiny)
                    .with_noc(NocModel::Contention),
            );
            let name =
                format!("noc_queueing_{}_{}", bench.name(), scheduler.name().to_ascii_lowercase());
            noc_queueing.push((name, stats.noc_queue_cycles));
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
        entries.push(format!("    {{\"name\": \"{name}\", \"queue_cycles\": {cycles}}}"));
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
        println!("{name:<32}{cycles:>12}");
    }
    println!("wrote {out}");

    crate::exit_code::OK
}

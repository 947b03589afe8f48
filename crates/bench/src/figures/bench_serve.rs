//! The `bench-serve` load generator: measure the serving stack end to end.
//!
//! Spins up an in-process TCP [`swarm_serve::Server`] (on an ephemeral
//! port, scheduling on the same pool-backed runner as `swarm serve`),
//! then replays a seeded, deterministic request mix from concurrent
//! protocol clients and reports requests/s, points/s, the cache hit rate,
//! and per-request latency percentiles. Two series are committed to the
//! benchmark snapshot (`BENCH_mechanisms.json` by default) so the serving
//! path's throughput and cache effectiveness are tracked in version
//! control alongside the memory-system mechanisms:
//!
//! ```text
//! swarm bench-serve [--clients N] [--requests N] [--distinct N]
//!                   [--scale S] [--seed N] [--jobs N] [--out PATH] [--test]
//! ```
//!
//! The mix draws each request from `--distinct` precomputed matrices via a
//! [`hash64`] chain, so repeats are guaranteed and the measured hit rate is
//! a property of the seed, not of wall-clock chance. `--test` is the CI
//! smoke mode: fewer clients and requests, same schema.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_serve::{
    parse_event, proto::render_request, CacheReport, Event, Request, RunPoint, ServeOptions,
    Server, SubmitRequest, TcpServer,
};
use swarm_types::hash64;

use crate::cli::HarnessArgs;
use crate::figures::serve::PoolRunner;

/// Applications the mix draws from (fast at tiny scale, all Table I).
const MIX_APPS: &[BenchmarkId] = &[BenchmarkId::Sssp, BenchmarkId::Bfs, BenchmarkId::Des];

/// Schedulers the mix draws from.
const MIX_SCHEDULERS: &[Scheduler] = &[Scheduler::Hints, Scheduler::Random];

/// Core counts the mix draws from.
const MIX_CORES: &[u32] = &[1, 2, 4];

/// Build the pool of distinct run matrices the request mix draws from.
/// Everything derives from `seed` through [`hash64`] chains: same seed,
/// same matrices, same measured hit rate.
fn build_matrices(distinct: usize, scale: InputScale, seed: u64) -> Vec<Vec<RunPoint>> {
    (0..distinct as u64)
        .map(|m| {
            let h = hash64(seed ^ hash64(m.wrapping_add(1)));
            let len = 1 + (h % 3) as usize;
            (0..len as u64)
                .map(|p| {
                    let hp = hash64(h ^ hash64(p.wrapping_add(1)));
                    let app = MIX_APPS[(hp % MIX_APPS.len() as u64) as usize];
                    let scheduler =
                        MIX_SCHEDULERS[((hp >> 8) % MIX_SCHEDULERS.len() as u64) as usize];
                    let cores = MIX_CORES[((hp >> 16) % MIX_CORES.len() as u64) as usize];
                    RunPoint::new(AppSpec::coarse(app), scheduler, cores, scale)
                })
                .collect()
        })
        .collect()
}

/// What one client thread measured.
#[derive(Default)]
struct ClientReport {
    latencies: Vec<Duration>,
    points_ok: u64,
    points_failed: u64,
    cache: CacheReport,
    protocol_violations: u64,
}

/// Replay `requests` submissions drawn from `matrices` over one TCP
/// connection, measuring submit-to-run-done latency for each.
fn run_client(
    addr: std::net::SocketAddr,
    client: u64,
    requests: usize,
    seed: u64,
    matrices: &[Vec<RunPoint>],
) -> std::io::Result<ClientReport> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut report = ClientReport::default();
    let mut line = String::new();
    for request in 0..requests as u64 {
        let pick = hash64(seed ^ (client << 32) ^ request) % matrices.len() as u64;
        let id = format!("c{client}-r{request}");
        let submit = Request::Submit(SubmitRequest {
            id: id.clone(),
            points: matrices[pick as usize].clone(),
            progress: false,
        });
        let start = Instant::now();
        write_line(&mut writer, &submit)?;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                report.protocol_violations += 1;
                return Ok(report);
            }
            match parse_event(line.trim_end()) {
                Err(_) | Ok(Event::Protocol(_)) => report.protocol_violations += 1,
                Ok(Event::PointFinished { .. }) => report.points_ok += 1,
                Ok(Event::PointFailed { .. }) => report.points_failed += 1,
                Ok(Event::RunDone { id: done_id, cache, .. }) => {
                    if done_id != id {
                        report.protocol_violations += 1;
                    }
                    report.latencies.push(start.elapsed());
                    report.cache.hits += cache.hits;
                    report.cache.misses += cache.misses;
                    report.cache.disk_hits += cache.disk_hits;
                    break;
                }
                Ok(_) => {}
            }
        }
    }
    write_line(&mut writer, &Request::Shutdown)?;
    Ok(report)
}

/// Send one request line in a single write. Splitting off the `"\n"`
/// leaves a partial line in flight that Nagle holds until the server's
/// delayed ACK fires (~40 ms on Linux), on every request.
fn write_line(writer: &mut impl Write, request: &Request) -> std::io::Result<()> {
    let mut line = render_request(request);
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Percentile by nearest-rank on a sorted slice.
fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Merge the serve series into the benchmark snapshot at `path`,
/// preserving every non-`serve_`-prefixed entry (the mechanisms series the
/// `bench` command owns) and the file's spaced, 4-space-indented layout.
fn merge_snapshot(path: &str, serve_entries: &[String]) -> std::io::Result<()> {
    let mut kept: Vec<String> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(value) = swarm_serve::json::parse(&text) {
            if let Some(results) = value.get("results").and_then(swarm_serve::Value::as_arr) {
                for entry in results {
                    let name = entry.get("name").and_then(swarm_serve::Value::as_str);
                    if name.is_some_and(|n| !n.starts_with("serve_")) {
                        kept.push(format!("    {}", entry.render_spaced()));
                    }
                }
            }
        }
    }
    kept.extend(serve_entries.iter().cloned());
    let json = format!(
        "{{\n  \"bench\": \"mechanisms\",\n  \"unit\": \"ns_per_op\",\n  \"results\": [\n{}\n  ]\n}}\n",
        kept.join(",\n")
    );
    std::fs::write(path, json)
}

/// Run the `bench-serve` command with the argument slice following the
/// subcommand name.
pub fn run(raw: &[String]) -> i32 {
    let extras = [
        crate::ExtraFlag { name: "--clients", takes_value: true },
        crate::ExtraFlag { name: "--requests", takes_value: true },
        crate::ExtraFlag { name: "--distinct", takes_value: true },
        crate::ExtraFlag { name: "--out", takes_value: true },
        crate::ExtraFlag { name: "--test", takes_value: false },
    ];
    let args = match HarnessArgs::parse_args_with(raw, &extras) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let fast = raw.iter().any(|a| a == "--test");
    let (mut clients, mut requests, mut distinct) =
        if fast { (2usize, 4usize, 3usize) } else { (4, 25, 8) };
    let mut out = String::from("BENCH_mechanisms.json");
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> usize {
            it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or_else(|| {
                eprintln!("bench-serve: {name} requires a positive integer");
                std::process::exit(crate::exit_code::USAGE);
            })
        };
        match flag.as_str() {
            "--clients" => clients = num("--clients"),
            "--requests" => requests = num("--requests"),
            "--distinct" => distinct = num("--distinct"),
            "--out" => {
                out = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("bench-serve: --out requires a path");
                    std::process::exit(crate::exit_code::USAGE);
                });
            }
            _ => {}
        }
    }

    let matrices = build_matrices(distinct, args.scale, args.seed);
    let total_points: usize = matrices.iter().map(Vec::len).sum();
    println!(
        "bench-serve: {clients} clients x {requests} requests over {distinct} distinct matrices \
         ({total_points} distinct points, scale {:?}, seed {:#x})",
        args.scale, args.seed
    );

    let server = Server::new(PoolRunner::new(args.jobs), ServeOptions::default())
        .expect("no cache dir is configured, so server creation cannot fail");
    let tcp = TcpServer::spawn("127.0.0.1:0", server).expect("binding an ephemeral port");
    let addr = tcp.local_addr();

    let seed = args.seed;
    let start = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let matrices = &matrices;
        let handles: Vec<_> = (0..clients as u64)
            .map(|client| scope.spawn(move || run_client(addr, client, requests, seed, matrices)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic").unwrap_or_default())
            .collect()
    });
    let elapsed = start.elapsed();
    tcp.shutdown();

    let mut latencies: Vec<Duration> = Vec::new();
    let mut points_ok = 0u64;
    let mut points_failed = 0u64;
    let mut violations = 0u64;
    let mut cache = CacheReport::default();
    for report in &reports {
        latencies.extend(&report.latencies);
        points_ok += report.points_ok;
        points_failed += report.points_failed;
        violations += report.protocol_violations;
        cache.hits += report.cache.hits;
        cache.misses += report.cache.misses;
        cache.disk_hits += report.cache.disk_hits;
    }
    latencies.sort_unstable();

    let completed = latencies.len();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let req_per_sec = completed as f64 / secs;
    let points_per_sec = (points_ok + points_failed) as f64 / secs;
    let lookups = cache.hits + cache.misses;
    let hit_rate = if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 };
    let p50 = percentile(&latencies, 50.0);
    let p90 = percentile(&latencies, 90.0);
    let p99 = percentile(&latencies, 99.0);

    println!("{:<28}{:>14}", "metric", "value");
    println!("{:<28}{:>14}", "requests completed", completed);
    println!("{:<28}{:>14.1}", "requests/s", req_per_sec);
    println!("{:<28}{:>14.1}", "points/s", points_per_sec);
    println!("{:<28}{:>14.3}", "cache hit rate", hit_rate);
    println!("{:<28}{:>14.1}", "latency p50 (us)", p50.as_nanos() as f64 / 1e3);
    println!("{:<28}{:>14.1}", "latency p90 (us)", p90.as_nanos() as f64 / 1e3);
    println!("{:<28}{:>14.1}", "latency p99 (us)", p99.as_nanos() as f64 / 1e3);
    println!("{:<28}{:>14}", "points ok", points_ok);
    println!("{:<28}{:>14}", "points failed", points_failed);
    println!("{:<28}{:>14}", "protocol violations", violations);

    let serve_entries = vec![
        format!(
            "    {{\"name\": \"serve_requests_per_sec\", \"requests_per_sec\": {req_per_sec:.1}}}"
        ),
        format!("    {{\"name\": \"serve_cache_hit_rate\", \"hit_rate\": {hit_rate:.3}}}"),
        format!(
            "    {{\"name\": \"serve_latency_p50_us\", \"us\": {:.1}}}",
            p50.as_nanos() as f64 / 1e3
        ),
        format!(
            "    {{\"name\": \"serve_latency_p99_us\", \"us\": {:.1}}}",
            p99.as_nanos() as f64 / 1e3
        ),
    ];
    match merge_snapshot(&out, &serve_entries) {
        Ok(()) => println!("wrote {out}"),
        Err(err) => {
            eprintln!("bench-serve: writing {out} failed: {err}");
            return crate::exit_code::PARTIAL;
        }
    }

    if violations > 0 {
        eprintln!("bench-serve: {violations} protocol violations — the serving stack is broken");
        crate::exit_code::CHAOS
    } else if points_failed > 0 {
        crate::exit_code::PARTIAL
    } else {
        crate::exit_code::OK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_are_deterministic_in_the_seed() {
        let a = build_matrices(8, InputScale::Tiny, 0xF1605);
        let b = build_matrices(8, InputScale::Tiny, 0xF1605);
        assert_eq!(a, b);
        let c = build_matrices(8, InputScale::Tiny, 0xF1606);
        assert_ne!(a, c, "a different seed draws a different mix");
        assert!(a.iter().all(|m| (1..=3).contains(&m.len())));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 100.0), Duration::from_millis(100));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }

    #[test]
    fn snapshot_merge_preserves_foreign_entries_and_replaces_serve_series() {
        let path =
            std::env::temp_dir().join(format!("bench_serve_merge_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let original = "{\n  \"bench\": \"mechanisms\",\n  \"unit\": \"ns_per_op\",\n  \"results\": [\n    {\"name\": \"lru_set_insert\", \"ns_per_op\": 8.3},\n    {\"name\": \"serve_cache_hit_rate\", \"hit_rate\": 0.1}\n  ]\n}\n";
        std::fs::write(&path, original).unwrap();
        let entries =
            vec!["    {\"name\": \"serve_cache_hit_rate\", \"hit_rate\": 0.9}".to_string()];
        merge_snapshot(&path, &entries).unwrap();
        let merged = std::fs::read_to_string(&path).unwrap();
        assert!(merged.contains("{\"name\": \"lru_set_insert\", \"ns_per_op\": 8.3}"), "{merged}");
        assert!(merged.contains("\"hit_rate\": 0.9"), "{merged}");
        assert!(!merged.contains("0.1"), "stale serve series must be replaced: {merged}");
        swarm_serve::json::parse(&merged).expect("merged snapshot stays valid JSON");
        std::fs::remove_file(&path).unwrap();
    }
}

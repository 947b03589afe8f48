//! The `serve-mix` workload: `swarm serve --tcp 127.0.0.1:0 --jobs 2
//! --cache-dir <fresh dir>`, driven closed-loop by two client connections.
//!
//! A *session* starts a server on an empty cache directory and plays the
//! seed's request sequence: every distinct point is requested [`REPEATS`]
//! times in a seeded order, one point per submit, and each client sends its
//! next submit only after the previous one's `run-done`. The first request
//! of a point misses (simulate, then write through to disk), the others hit
//! memory -- or wait on the in-flight run of the same point, which the
//! server also answers from memory. A second server then starts on the same
//! directory and answers every point from disk. Sessions repeat for
//! `--seconds`.
//!
//! The clients are ordinary: default socket options (no `TCP_NODELAY`, no
//! `TCP_QUICKACK`; only a read timeout so a hung server cannot hang the
//! benchmark), one write per request line. Every event's arrival time is
//! recorded, so a stall shows in the event it delays.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spatial_hints::Scheduler;
use swarm_apps::{AppSpec, BenchmarkId, InputScale};
use swarm_serve::proto::{render_event, render_request, stats_to_json};
use swarm_serve::{parse_event, Event, Request, ResultCache, RunPoint, SubmitRequest};
use swarm_sim::{RunStats, Sim};
use swarm_types::{key_of, CanonKey};

use crate::stats::{fnv1a, percentile, Summary};
use crate::trace::Recorder;
use crate::{host, pins, shuffle, Outcome};

/// Distinct points per session.
const DISTINCT: usize = 24;
/// Requests per distinct point per session.
const REPEATS: usize = 4;
const CLIENTS: usize = 2;
const SCHEDULERS: [Scheduler; 4] =
    [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints];
const CORES: [u32; 3] = [4, 16, 64];
/// How long a server may take to start listening or to answer one event.
const PATIENCE: Duration = Duration::from_secs(60);

/// The seed's distinct points and request order.
struct Plan {
    points: Vec<RunPoint>,
    /// Indices into `points`, in request order.
    requests: Vec<usize>,
}

impl Plan {
    /// Small-scale Table I points (app x scheduler x cores, each with the
    /// workload seed as its input seed), [`DISTINCT`] of them chosen and
    /// ordered by `seed`.
    fn new(seed: u64) -> Plan {
        let mut rng = seed;
        let mut all = Vec::new();
        for app in BenchmarkId::TABLE1 {
            for scheduler in SCHEDULERS {
                for cores in CORES {
                    let mut p =
                        RunPoint::new(AppSpec::coarse(app), scheduler, cores, InputScale::Small);
                    p.seed = seed;
                    all.push(p);
                }
            }
        }
        shuffle(&mut all, &mut rng);
        all.truncate(DISTINCT);
        let mut requests: Vec<usize> = (0..REPEATS).flat_map(|_| 0..DISTINCT).collect();
        shuffle(&mut requests, &mut rng);
        Plan { points: all, requests }
    }
}

/// The library run of `point`, built as the server builds it.
fn direct_run(point: &RunPoint) -> Result<RunStats, String> {
    Sim::builder()
        .cores(point.cores)
        .app_boxed(point.spec.build(point.scale, point.seed))
        .scheduler(point.scheduler)
        .build()
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())
}

/// A running server; killed and reaped when dropped.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Start `swarm serve` on `cache_dir`; also returns spawn-to-listening
    /// seconds.
    fn start(swarm: &Path, cache_dir: &Path) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(swarm)
            .args(["serve", "--tcp", "127.0.0.1:0", "--jobs", "2", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting swarm serve failed: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the listening line, then drains stderr so the server never
        // blocks on a full pipe; returns everything else it printed.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                match line.split("listening on ").nth(1) {
                    Some(addr) => {
                        let _ = tx.send(addr.trim().to_string());
                    }
                    None => {
                        rest.push_str(&line);
                        rest.push('\n');
                    }
                }
            }
            rest
        });
        let mut server =
            Server { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), stderr: Some(drain) };
        let addr = rx.recv_timeout(PATIENCE).map_err(|_| {
            let _ = server.child.kill();
            let _ = server.child.wait();
            let said = server.stderr.take().and_then(|h| h.join().ok()).unwrap_or_default();
            format!("swarm serve did not report a listening address: {said}")
        })?;
        server.addr = addr.parse().map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        host::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

/// One answered request, with event arrival times in seconds after its
/// submit was written.
struct Answer {
    point: usize,
    source: String,
    /// The whole `point-finished` line.
    line: String,
    accepted_s: f64,
    finished_s: f64,
    done_s: f64,
    hits: u64,
    misses: u64,
}

/// The `stats` object of a `point-finished` line, byte for byte.
fn stats_payload(line: &str) -> Option<&str> {
    let start = line.find("\"stats\":")? + "\"stats\":".len();
    line.strip_suffix('}').map(|l| &l[start..])
}

/// Submit `points` as request `id` and read its events. With a recorder,
/// the waits between events are spans under one span for the request.
fn request(
    reader: &mut BufReader<TcpStream>,
    id: &str,
    points: Vec<RunPoint>,
    mut rec: Option<&mut Recorder>,
) -> Result<Vec<(u64, Answer)>, String> {
    let n = points.len();
    let line =
        render_request(&Request::Submit(SubmitRequest { id: id.into(), points, progress: false }));
    let mut wire = line.into_bytes();
    wire.push(b'\n');
    let t0 = Instant::now();
    if let Some(r) = rec.as_deref_mut() {
        r.open("serve.request");
        r.open("serve.wait_accepted");
    }
    reader.get_mut().write_all(&wire).map_err(|e| format!("writing {id} failed: {e}"))?;
    let mut accepted_s = 0.0;
    let mut finished: Vec<(u64, String, String, f64)> = Vec::new();
    let mut text = String::new();
    loop {
        text.clear();
        match reader.read_line(&mut text) {
            Ok(0) => return Err(format!("server closed the connection during {id}")),
            Ok(_) => {}
            Err(e) => return Err(format!("reading events of {id} failed: {e}")),
        }
        let at = t0.elapsed().as_secs_f64();
        let line = text.trim_end();
        match parse_event(line).map_err(|e| format!("bad event for {id}: {e}: {line}"))? {
            Event::Accepted { .. } => {
                accepted_s = at;
                if let Some(r) = rec.as_deref_mut() {
                    r.close("serve.wait_accepted");
                    r.open("serve.wait_point_finished");
                }
            }
            Event::PointStarted { .. } => {}
            Event::PointFinished { index, source, .. } => {
                stats_payload(line).ok_or("point-finished without stats")?;
                finished.push((index, source.as_str().into(), line.into(), at));
                if finished.len() == n {
                    if let Some(r) = rec.as_deref_mut() {
                        r.close("serve.wait_point_finished");
                        r.open("serve.wait_run_done");
                    }
                }
            }
            Event::PointFailed { index, error, .. } => {
                return Err(format!("{id} point {index} failed: {}", error.message));
            }
            Event::RunDone { failed, cache, .. } => {
                if failed != 0 || finished.len() != n {
                    return Err(format!("{id}: run-done with {failed} failed points"));
                }
                if let Some(r) = rec.as_deref_mut() {
                    r.close("serve.wait_run_done");
                    r.close("serve.request");
                }
                return Ok(finished
                    .into_iter()
                    .map(|(index, source, line, finished_s)| {
                        let answer = Answer {
                            point: 0,
                            source,
                            line,
                            accepted_s,
                            finished_s,
                            done_s: at,
                            hits: cache.hits,
                            misses: cache.misses,
                        };
                        (index, answer)
                    })
                    .collect());
            }
            other => return Err(format!("unexpected event for {id}: {}", render_event(&other))),
        }
    }
}

/// One client's share of the request sequence, closed-loop.
fn client(
    addr: SocketAddr,
    plan: &Plan,
    which: usize,
    traced: bool,
) -> Result<(Vec<Answer>, Option<Recorder>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut rec = traced.then(Recorder::new);
    let mut answers = Vec::new();
    for (n, &p) in plan.requests.iter().enumerate().skip(which).step_by(CLIENTS) {
        let id = format!("r{n}");
        let mut got = request(&mut reader, &id, vec![plan.points[p]], rec.as_mut())?;
        let (_, mut answer) = got.pop().ok_or("no answer")?;
        answer.point = p;
        answers.push(answer);
    }
    Ok((answers, rec))
}

struct Session {
    setup_s: Vec<f64>,
    wall_s: f64,
    answers: Vec<Answer>,
    disk: Vec<(usize, String, String)>,
    peak_rss_mb: Option<f64>,
    rec: Option<Recorder>,
}

fn session(swarm: &Path, plan: &Plan, cache_dir: &Path, traced: bool) -> Result<Session, String> {
    let _ = std::fs::remove_dir_all(cache_dir);
    std::fs::create_dir_all(cache_dir).map_err(|e| format!("creating {cache_dir:?}: {e}"))?;
    let (server, setup) = Server::start(swarm, cache_dir)?;
    let t0 = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(server.addr, plan, c, traced && c == 0)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads return errors")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = server.peak_rss_mb();
    drop(server);
    let mut answers = Vec::new();
    let mut rec = None;
    for result in results {
        let (a, r) = result?;
        answers.extend(a);
        rec = rec.or(r);
    }
    // A fresh server on the same directory must answer every point from
    // disk.
    let (server, setup2) = Server::start(swarm, cache_dir)?;
    let stream = TcpStream::connect(server.addr).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let disk = request(&mut reader, "disk", plan.points.clone(), None)?
        .into_iter()
        .map(|(index, a)| (index as usize, a.source, a.line))
        .collect();
    drop(reader);
    drop(server);
    let _ = std::fs::remove_dir_all(cache_dir);
    Ok(Session { setup_s: vec![setup, setup2], wall_s, answers, disk, peak_rss_mb, rec })
}

/// Check one session's answers; `payloads` collects the first payload of
/// every point across sessions.
fn check_session(s: &Session, payloads: &mut [Option<String>]) -> Result<(), String> {
    let mut runs = vec![0usize; payloads.len()];
    let answers = s.answers.iter().map(|a| (a.point, &a.source, &a.line));
    let disk = s.disk.iter().map(|(p, source, line)| (*p, source, line));
    for (p, source, line) in answers.clone().chain(disk.clone()) {
        let payload = stats_payload(line).expect("checked on arrival");
        match &payloads[p] {
            Some(first) if first != payload => {
                return Err(format!("point {p}: a {source} answer differs from an earlier one"));
            }
            Some(_) => {}
            None => payloads[p] = Some(payload.to_string()),
        }
    }
    for (p, source, _) in answers {
        if source == "run" {
            runs[p] += 1;
        }
    }
    if let Some(p) = runs.iter().position(|&r| r != 1) {
        return Err(format!("point {p} was simulated {} times in one session", runs[p]));
    }
    if let Some((p, source, _)) = disk.clone().find(|(_, source, _)| source.as_str() != "disk") {
        return Err(format!("point {p} came from {source}, not disk, after a restart"));
    }
    Ok(())
}

/// Microseconds per call of `op` in each of 7 batches of ~50 ms.
fn us_per_call(mut op: impl FnMut(u64)) -> Vec<f64> {
    let mut i = 0u64;
    (0..7)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed() < Duration::from_millis(50) {
                for _ in 0..16 {
                    op(i);
                    i += 1;
                }
                calls += 16;
            }
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect()
}

/// Codec, cache and key microbenchmarks on the workload's own data.
fn micro(out: &mut Outcome, plan: &Plan, line: &str) -> Result<(), String> {
    let event = parse_event(line).map_err(|e| e.to_string())?;
    let Event::PointFinished { stats, .. } = &event else {
        return Err("not a point-finished event".into());
    };
    out.metric(
        "serve.encode_event_us",
        "us",
        us_per_call(|_| {
            std::hint::black_box(render_event(&event));
        }),
    );
    out.metric(
        "serve.decode_event_us",
        "us",
        us_per_call(|_| {
            std::hint::black_box(parse_event(line).is_ok());
        }),
    );
    // The server's default in-memory capacity, filled, so every insert of
    // a new key evicts.
    let capacity = 1024u64;
    let key = |i: u64| CanonKey::of_bytes(&i.to_le_bytes());
    let mut cache = ResultCache::new(capacity as usize, None).map_err(|e| e.to_string())?;
    for i in 0..capacity {
        cache.insert(key(i), stats.clone());
    }
    let mut next = capacity;
    out.metric(
        "serve.cache_insert_us",
        "us",
        us_per_call(|_| {
            cache.insert(key(next), stats.clone());
            next += 1;
        }),
    );
    out.metric(
        "serve.cache_lookup_us",
        "us",
        us_per_call(|i| {
            std::hint::black_box(cache.lookup(key(next - 1 - i % capacity)).is_some());
        }),
    );
    out.metric(
        "types.canon_key_us",
        "us",
        us_per_call(|i| {
            std::hint::black_box(key_of(&plan.points[i as usize % plan.points.len()]));
        }),
    );
    Ok(())
}

/// The serve-mix run; with `traced`, sessions alternate between untraced
/// and traced, and per-layer metrics are reported.
pub fn run(swarm: &Path, out_dir: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::new(seed);
    let cache_dir: PathBuf = out_dir.join(format!("serve-cache-{}", std::process::id()));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut payloads: Vec<Option<String>> = vec![None; plan.points.len()];
    let mut sessions: Vec<(bool, Session)> = Vec::new();
    while sessions.len() < 1 + traced as usize || Instant::now() < deadline {
        let traced_now = traced && sessions.len() % 2 == 1;
        out.attempted += plan.requests.len() as u64;
        let result = session(swarm, &plan, &cache_dir, traced_now)
            .and_then(|s| check_session(&s, &mut payloads).map(|()| s));
        match result {
            Ok(s) => sessions.push((traced_now, s)),
            Err(err) => {
                let _ = std::fs::remove_dir_all(&cache_dir);
                out.fail(format!("serve-mix seed {seed}: {err}"));
                return out;
            }
        }
    }
    // Every answer must equal the library's own run of the point.
    let mut digest_input = String::new();
    for (point, payload) in plan.points.iter().zip(&payloads) {
        out.attempted += 1;
        let direct = direct_run(point).map(|stats| stats_to_json(&stats).render());
        match direct {
            Ok(json) if Some(&json) == payload.as_ref() => digest_input.push_str(&json),
            Ok(_) => {
                out.fail(format!("{}: served stats differ from a direct run", point_name(point)))
            }
            Err(err) => out.fail(format!("{}: direct run failed: {err}", point_name(point))),
        }
    }
    if out.ok() {
        let digest = fnv1a(digest_input.as_bytes());
        match pins::lookup("serve-mix", seed, "points") {
            Some(pinned) if pinned != digest => out.fail(format!(
                "serve-mix seed {seed}: stats digest {digest:016x} != pinned {pinned:016x}"
            )),
            Some(_) => out.pinned_checks += 1,
            None => {}
        }
    }
    let ops = |t: bool| -> Vec<f64> {
        sessions
            .iter()
            .filter(|(tr, _)| *tr == t)
            .map(|(_, s)| s.answers.len() as f64 / s.wall_s)
            .collect()
    };
    if !traced {
        out.metric("setup_s", "s", sessions.iter().flat_map(|(_, s)| s.setup_s.clone()).collect());
        out.metric("ops_per_s", "1/s", ops(false));
        return out;
    }
    let first = &sessions[0].1;
    let all = || sessions.iter().flat_map(|(_, s)| &s.answers);
    let latency: Vec<f64> = all().map(|a| a.done_s * 1e3).collect();
    let is_hit = |a: &&Answer| a.source != "run";
    out.metric("serve.latency_p50_ms", "ms", percentile(&latency, 50.0).into_iter().collect());
    out.metric("serve.latency_p95_ms", "ms", percentile(&latency, 95.0).into_iter().collect());
    out.metric(
        "serve.hit_latency_p50_ms",
        "ms",
        all().filter(is_hit).map(|a| a.done_s * 1e3).collect(),
    );
    out.metric(
        "serve.miss_latency_p50_ms",
        "ms",
        all().filter(|a| !is_hit(a)).map(|a| a.done_s * 1e3).collect(),
    );
    let traced_answers = || sessions.iter().filter(|(t, _)| *t).flat_map(|(_, s)| &s.answers);
    out.metric("serve.accepted_ms", "ms", traced_answers().map(|a| a.accepted_s * 1e3).collect());
    out.metric(
        "serve.point_finished_ms",
        "ms",
        traced_answers().map(|a| a.finished_s * 1e3).collect(),
    );
    out.metric("serve.run_done_ms", "ms", traced_answers().map(|a| a.done_s * 1e3).collect());
    out.metric(
        "serve.hits",
        "count",
        vec![first.answers.iter().map(|a| a.hits).sum::<u64>() as f64],
    );
    out.metric(
        "serve.misses",
        "count",
        vec![first.answers.iter().map(|a| a.misses).sum::<u64>() as f64],
    );
    out.metric(
        "serve.disk_hits",
        "count",
        vec![first.disk.iter().filter(|d| d.1 == "disk").count() as f64],
    );
    out.metric("serve.session_s", "s", sessions.iter().map(|(_, s)| s.wall_s).collect());
    out.metric("peak_rss_mb", "MB", sessions.iter().filter_map(|(_, s)| s.peak_rss_mb).collect());
    let overhead =
        Summary::of(&ops(false)).zip(Summary::of(&ops(true))).map(|(p, t)| p.median / t.median);
    out.metric("trace_overhead_ratio", "ratio", overhead.into_iter().collect());
    // The microbenchmarks use a miss's own point-finished event.
    let miss = first.answers.iter().find(|a| a.source == "run").expect("every session has misses");
    if let Err(err) = micro(&mut out, &plan, &miss.line) {
        out.fail(format!("serve-mix microbenchmarks: {err}"));
    }
    out.spans = sessions.iter().rev().find_map(|(_, s)| s.rec.as_ref()).map(Recorder::spans_csv);
    out
}

fn point_name(p: &RunPoint) -> String {
    format!("{} {} {} cores", p.spec.name(), p.scheduler.name(), p.cores)
}

/// The pin line of `seed`: a digest of the library's stats of every
/// distinct point, in plan order.
pub fn pin_line(seed: u64) -> Result<String, String> {
    let mut text = String::new();
    for point in &Plan::new(seed).points {
        text.push_str(&stats_to_json(&direct_run(point)?).render());
    }
    Ok(format!("serve-mix {seed} points {:016x}", fnv1a(text.as_bytes())))
}

//! Regression tests for the repeat-access conflict memo of
//! `SimState::access_line`: a task body's repeat access to the line it just
//! checked reuses that check instead of probing the line table again.
//!
//! Each test pins one of the memo's guards with a tiny program whose
//! outcome changes if the guard is dropped. The pinned benchmark digests
//! cannot catch these: a missed victim or a stale check cost only shows up
//! on the exact interleavings built here.
//!
//! Tasks are placed with [`HintTile`] (hint `v` runs on tile `v`). In the
//! two-tile tests a ts-0 task on tile 1 computes for a while before
//! enqueueing the ts-1 task under test, so the ts-2 task on tile 0 has run
//! (and is registered in the line table, uncommitted) by the time the task
//! under test starts.

use std::sync::{Arc, Mutex};

use swarm_sim::{
    FaultEvent, FaultKind, FaultPlan, InitialTask, PinnedMapper, RunStats, Sim, SwarmApp, TaskCtx,
    TaskMapper,
};
use swarm_types::{CacheConfig, Hint, SpeculationConfig, SystemConfig, TileId};

/// The contended line's word.
const L: u64 = 0x1000;
/// A word on another line.
const M: u64 = 0x2000;

/// Hint `v` runs on tile `v`.
struct HintTile;

impl TaskMapper for HintTile {
    fn name(&self) -> &str {
        "hint-tile"
    }
    fn map_task(&mut self, hint: Hint, _creator: Option<TileId>, num_tiles: usize) -> TileId {
        TileId((hint.raw().unwrap_or(0) % num_tiles as u64) as u32)
    }
}

/// Task functions of the two-tile programs.
const DELAY: u16 = 0;
const EARLY: u16 = 1;
const LATE: u16 = 2;

/// The two-tile initial tasks: the ts-0 delay task on tile 1 (it enqueues
/// the `EARLY` task at ts 1, also on tile 1) and the `LATE` task at ts 2 on
/// tile 0, which runs first.
fn two_tile_tasks() -> Vec<InitialTask> {
    vec![
        InitialTask::new(DELAY, 0, Hint::value(1), vec![]),
        InitialTask::new(LATE, 2, Hint::value(0), vec![]),
    ]
}

fn delay_then_enqueue_early(ctx: &mut TaskCtx<'_>) {
    ctx.compute(500);
    ctx.enqueue(EARLY, 1, Hint::value(1), vec![]);
}

/// Simulated cycles of a conflict check against `entries` line-table
/// entries.
fn check_cost(entries: u64) -> u64 {
    let spec = SpeculationConfig::default();
    spec.conflict_check_cost + entries * spec.conflict_compare_cost
}

fn run(app: impl SwarmApp + 'static, cfg: SystemConfig, mapper: Box<dyn TaskMapper>) -> RunStats {
    Sim::builder()
        .config(cfg)
        .app(app)
        .mapper(mapper)
        .build()
        .expect("valid description")
        .run()
        .expect("the run completes and validates")
}

/// `EARLY` reads the line, then writes it; `LATE` (later key) read the line
/// before either access. The read finds no victim, but the write that
/// follows it must still scan the later readers and abort `LATE`: a memo
/// left by a read does not cover a write.
#[test]
fn a_write_after_a_read_still_aborts_a_later_reader() {
    struct ReadThenWrite;
    impl SwarmApp for ReadThenWrite {
        fn name(&self) -> &str {
            "read-then-write"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            two_tile_tasks()
        }
        fn run_task(&self, fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            match fid {
                DELAY => delay_then_enqueue_early(ctx),
                EARLY => {
                    let v = ctx.read(L);
                    ctx.write(L, v + 1);
                }
                LATE => {
                    let v = ctx.read(L);
                    ctx.write(M, v + 100);
                }
                _ => unreachable!("unknown task function"),
            }
        }
        fn num_task_fns(&self) -> usize {
            3
        }
        fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
            // Serial order: EARLY makes L = 1, then LATE reads it.
            match (mem.load(L), mem.load(M)) {
                (1, 101) => Ok(()),
                got => Err(format!("(L, M) = {got:?}, expected (1, 101)")),
            }
        }
    }
    let stats = run(ReadThenWrite, SystemConfig::with_cores(2), Box::new(HintTile));
    assert_eq!(stats.tasks_aborted, 1, "the write must abort the later reader");
}

/// `EARLY`'s first read finds `LATE` (a later writer) and aborts it, which
/// empties the line's table entry. The repeat read must probe the table
/// again and charge no check at all, not reuse the check that saw `LATE`.
#[test]
fn an_access_that_found_victims_is_followed_by_a_full_probe() {
    struct AbortThenReread {
        repeat_latency: Mutex<Vec<u64>>,
    }
    impl SwarmApp for AbortThenReread {
        fn name(&self) -> &str {
            "abort-then-reread"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            two_tile_tasks()
        }
        fn run_task(&self, fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            match fid {
                DELAY => delay_then_enqueue_early(ctx),
                EARLY => {
                    ctx.read(L);
                    let before = ctx.cycles();
                    ctx.read(L);
                    self.repeat_latency.lock().unwrap().push(ctx.cycles() - before);
                }
                LATE => ctx.write(L, 7),
                _ => unreachable!("unknown task function"),
            }
        }
        fn num_task_fns(&self) -> usize {
            3
        }
        fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
            match mem.load(L) {
                7 => Ok(()),
                got => Err(format!("L = {got}, expected 7")),
            }
        }
    }
    let app = Arc::new(AbortThenReread { repeat_latency: Mutex::new(Vec::new()) });
    let stats = run(ArcApp(app.clone()), SystemConfig::with_cores(2), Box::new(HintTile));
    assert_eq!(stats.tasks_aborted, 1, "the first read must abort the later writer");
    // The repeat read hits the L1 and finds the line unregistered.
    let l1 = CacheConfig::default().l1_latency;
    assert_eq!(*app.repeat_latency.lock().unwrap(), vec![l1]);
}

/// A task re-executed after an abort must not reuse the last check of its
/// previous execution, even when no other access ran in between.
///
/// On one core, `FIRST` writes the line and `SECOND`'s read then checks it
/// against that registered, uncommitted writer. `FIRST` commits at the next
/// GVT epoch while `SECOND` is still running; an abort storm then aborts
/// `SECOND` (no access involved), and its re-execution's read finds the
/// line unregistered, so it must charge no check.
#[test]
fn a_reexecuted_task_does_not_inherit_its_old_memo() {
    const FIRST: u16 = 0;
    const SECOND: u16 = 1;
    struct StormedReader {
        first_read_latency: Mutex<Vec<u64>>,
    }
    impl SwarmApp for StormedReader {
        fn name(&self) -> &str {
            "stormed-reader"
        }
        fn initial_tasks(&self) -> Vec<InitialTask> {
            vec![
                InitialTask::new(FIRST, 0, Hint::value(0), vec![]),
                InitialTask::new(SECOND, 1, Hint::value(0), vec![]),
            ]
        }
        fn run_task(&self, fid: u16, _ts: u64, _args: &[u64], ctx: &mut TaskCtx<'_>) {
            match fid {
                FIRST => ctx.write(L, 3),
                SECOND => {
                    let before = ctx.cycles();
                    let v = ctx.read(L);
                    self.first_read_latency.lock().unwrap().push(ctx.cycles() - before);
                    ctx.compute(5_000);
                    // The body's last access is to the line, so the memo it
                    // leaves behind matches the re-execution's first access.
                    ctx.write(L, v + 1);
                }
                _ => unreachable!("unknown task function"),
            }
        }
        fn num_task_fns(&self) -> usize {
            2
        }
        fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
            match mem.load(L) {
                4 => Ok(()),
                got => Err(format!("L = {got}, expected 4")),
            }
        }
    }
    let app = Arc::new(StormedReader { first_read_latency: Mutex::new(Vec::new()) });
    let stats = Sim::builder()
        .config(SystemConfig::single_core())
        .app(ArcApp(app.clone()))
        .mapper(Box::new(PinnedMapper))
        .fault_plan(
            FaultPlan::new().with(FaultEvent { at_cycle: 3_000, kind: FaultKind::AbortStorm }),
        )
        .build()
        .expect("valid description")
        .run()
        .expect("the run completes and validates");
    assert_eq!(stats.tasks_aborted, 1, "the storm aborts the running reader once");
    // Both reads hit the L1 (the same core wrote the line); only the first
    // execution's read finds the line registered (by FIRST).
    let l1 = CacheConfig::default().l1_latency;
    assert_eq!(*app.first_read_latency.lock().unwrap(), vec![l1 + check_cost(1), l1]);
}

/// Runs a shared app, so a test can read what the app recorded after the
/// engine (which owns its app) has run.
struct ArcApp<A>(Arc<A>);

impl<A: SwarmApp> SwarmApp for ArcApp<A> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.0.initial_tasks()
    }
    fn run_task(&self, fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
        self.0.run_task(fid, ts, args, ctx)
    }
    fn num_task_fns(&self) -> usize {
        self.0.num_task_fns()
    }
    fn validate(&self, mem: &swarm_mem::SimMemory) -> Result<(), String> {
        self.0.validate(mem)
    }
}

//! Spans recorded from the benchmark's own side of each layer boundary.
//!
//! Nothing inside the simulator is instrumented. Instead the traced des run
//! wraps the application from `AppSpec::build` in [`TracedApp`] and the
//! scheduler's mapper in [`TracedMapper`], so every call the engine makes
//! into the app and scheduler layers is timed, and the benchmark times the
//! calls it makes itself (`AppSpec::build`, `SimBuilder::build`,
//! `Engine::run`). The suite and serve workloads record one span per
//! command, request and event.
//!
//! A span's *self* time is its duration minus the time covered by its
//! children; the engine's own time is the self time of `sim.run`.
//! Aggregates cover every span. The first [`KEEP_SPANS`] spans are also kept
//! in memory with their parents and written out at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use swarm_mem::SimMemory;
use swarm_sim::{InitialTask, SwarmApp, TaskCtx, TaskMapper};
use swarm_types::{Hint, TileId};

/// How many raw spans a recorder keeps for the span dump. A traced des run
/// makes one span per task body and per mapping call, millions on large
/// inputs; the aggregates do not depend on this cap.
pub const KEEP_SPANS: usize = 1 << 18;

/// One finished span. `parent` indexes the recorder's span sequence.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Call count, total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    index: u32,
    start_ns: u64,
    children_ns: u64,
}

/// Records spans in one thread; see the module docs.
pub struct Recorder {
    epoch: Instant,
    count: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, Aggregate>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            count: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span called `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let index = self.count;
        self.count = self.count.saturating_add(1);
        let parent = self.stack.last().map(|o| o.index);
        let start_ns = self.now_ns();
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(Span { name, parent, start_ns, end_ns: start_ns });
        }
        self.stack.push(Open { index, start_ns, children_ns: 0 });
    }

    /// Close the innermost open span, which must be called `name`.
    pub fn close(&mut self, name: &'static str) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("every close matches an open");
        let dur = end_ns - open.start_ns;
        if let Some(span) = self.kept.get_mut(open.index as usize) {
            span.end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let agg = self.totals.entry(name).or_default();
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - open.children_ns;
    }

    /// Aggregates by span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, Aggregate> {
        &self.totals
    }

    /// Total milliseconds spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e6)
    }

    /// The kept spans as CSV: `index,parent,name,start_ns,end_ns`.
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("index,parent,name,start_ns,end_ns\n");
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(out, "{i},{parent},{},{},{}", s.name, s.start_ns, s.end_ns);
        }
        out
    }
}

/// A recorder shared by the wrappers of one traced simulation.
pub type Shared = Rc<RefCell<Recorder>>;

/// Run `f` inside a span called `name`. The recorder is not borrowed while
/// `f` runs, so spans nest.
pub fn timed<R>(rec: &Shared, name: &'static str, f: impl FnOnce() -> R) -> R {
    rec.borrow_mut().open(name);
    let result = f();
    rec.borrow_mut().close(name);
    result
}

/// A [`SwarmApp`] that times every call into the wrapped application.
pub struct TracedApp {
    pub inner: Box<dyn SwarmApp>,
    pub rec: Shared,
}

impl SwarmApp for TracedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init_memory(&self, mem: &mut SimMemory) {
        timed(&self.rec, "apps.init_memory", || self.inner.init_memory(mem))
    }
    fn initial_tasks(&self) -> Vec<InitialTask> {
        timed(&self.rec, "apps.initial_tasks", || self.inner.initial_tasks())
    }
    fn run_task(&self, fid: u16, ts: u64, args: &[u64], ctx: &mut TaskCtx<'_>) {
        timed(&self.rec, "apps.run_task", || self.inner.run_task(fid, ts, args, ctx))
    }
    fn num_task_fns(&self) -> usize {
        self.inner.num_task_fns()
    }
    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        timed(&self.rec, "apps.validate", || self.inner.validate(mem))
    }
}

/// A [`TaskMapper`] that times every scheduling decision of the wrapped
/// mapper and forwards its fixed policies untouched.
pub struct TracedMapper {
    pub inner: Box<dyn TaskMapper>,
    pub rec: Shared,
}

impl TaskMapper for TracedMapper {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn map_task(&mut self, hint: Hint, creator: Option<TileId>, num_tiles: usize) -> TileId {
        let inner = &mut self.inner;
        timed(&self.rec, "hints.map_task", || inner.map_task(hint, creator, num_tiles))
    }
    fn bucket_of(&self, hint: Hint) -> Option<u16> {
        self.inner.bucket_of(hint)
    }
    fn serialize_same_hint(&self) -> bool {
        self.inner.serialize_same_hint()
    }
    fn steals(&self) -> bool {
        self.inner.steals()
    }
    fn steal_victim(&mut self, thief: TileId, idle_per_tile: &[usize]) -> Option<TileId> {
        let inner = &mut self.inner;
        timed(&self.rec, "hints.steal", || inner.steal_victim(thief, idle_per_tile))
    }
    fn on_commit(&mut self, tile: TileId, bucket: Option<u16>, cycles: u64) {
        let inner = &mut self.inner;
        timed(&self.rec, "hints.on_commit", || inner.on_commit(tile, bucket, cycles))
    }
    fn on_lb_epoch(&mut self, now: u64, idle_per_tile: &[usize]) -> bool {
        let inner = &mut self.inner;
        timed(&self.rec, "hints.lb_epoch", || inner.on_lb_epoch(now, idle_per_tile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_recorded() {
        let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
        timed(&rec, "outer", || {
            timed(&rec, "inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            timed(&rec, "inner", || ());
        });
        let r = rec.borrow();
        let outer = r.totals()["outer"];
        let inner = r.totals()["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        let csv = r.spans_csv();
        assert!(csv.contains("\n0,,outer,") && csv.contains("\n1,0,inner,"), "{csv}");
    }
}

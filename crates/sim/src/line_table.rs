//! The speculative line-access table: cache line -> uncommitted readers and
//! writers.
//!
//! This table is consulted on every speculative access (conflict detection)
//! and updated on every task registration, abort and commit, so it sits on
//! the simulator's hottest path. It used to be a `FastHashMap<LineAddr,
//! LineAccessors>`; it is now the same flat, linearly probed
//! [`OpenTable`] core the memory system uses, with the
//! non-`Copy` accessor lists parked in a free-listed slab so that removing a
//! line keeps its `Vec` capacities for the next line that lands in the slot
//! (steady-state registration allocates nothing).
//!
//! Each line also caches the largest registered reader key and writer key.
//! **Invariant:** after every method call, `max_reader()` and `max_writer()`
//! equal the maximum of their list, or `(0, TaskId(0))` — below every real
//! key — when it is empty. The lists are private, so no caller can push past
//! the bounds. Eager conflict detection aborts only *later*-key accessors,
//! and almost every access finds none, so `bound > my_key` rules out a
//! victim in O(1); the scan still runs whenever a later key exists.
//! Registration order is preserved (a key is removed by shifting the tail,
//! never by swapping), so a scan finds victims — and the simulator aborts
//! them — in exactly the order a scan of the full list did before the bounds
//! existed. Skipping a scan that would find nothing changes no outcome, and
//! the simulated check cost still counts every registered entry.
//!
//! `tests/properties.rs` in the workspace root cross-checks this structure
//! against a `HashMap` reference model under randomized register/unregister
//! interleavings.

use swarm_mem::{OpenTable, Probe};
use swarm_types::{LineAddr, TaskId};

use crate::task::OrderKey;

/// Bound value of a list with no registered key. No real key is below it, so
/// "is the bound later than `k`?" is `false` for every `k` on an empty list.
const EMPTY_BOUND: OrderKey = (0, TaskId(0));

/// Readers and writers currently registered for a cache line, with the
/// largest registered key of each list.
///
/// Entries carry the accessor's full commit-order key `(ts, id)`, not just
/// its id: conflict checks compare keys on every speculative access, and
/// looking the timestamp up in the task arena per entry was a random read
/// into an ever-growing array (a near-guaranteed cache miss) on the hottest
/// loop of the simulator. A task's key never changes, so the copy here can
/// never go stale.
///
/// The lists are private so that every change goes through a method that
/// keeps the bounds exact; the module docs give the invariant and why scan
/// order is preserved.
#[derive(Debug, Clone)]
pub struct LineAccessors {
    /// Commit-order keys of uncommitted tasks that read the line, in
    /// registration order.
    readers: Vec<OrderKey>,
    /// Commit-order keys of uncommitted tasks that wrote the line, in
    /// registration order.
    writers: Vec<OrderKey>,
    /// Largest key in `readers`.
    max_reader: OrderKey,
    /// Largest key in `writers`.
    max_writer: OrderKey,
}

impl Default for LineAccessors {
    fn default() -> Self {
        LineAccessors {
            readers: Vec::new(),
            writers: Vec::new(),
            max_reader: EMPTY_BOUND,
            max_writer: EMPTY_BOUND,
        }
    }
}

impl LineAccessors {
    /// Whether no task is registered on the line.
    pub fn is_empty(&self) -> bool {
        self.readers.is_empty() && self.writers.is_empty()
    }

    /// Number of registered entries, readers plus writers.
    pub fn len(&self) -> usize {
        self.readers.len() + self.writers.len()
    }

    /// Keys of the registered readers, in registration order.
    pub fn readers(&self) -> &[OrderKey] {
        &self.readers
    }

    /// Keys of the registered writers, in registration order.
    pub fn writers(&self) -> &[OrderKey] {
        &self.writers
    }

    /// The largest registered reader key; `(0, TaskId(0))` when none.
    pub fn max_reader(&self) -> OrderKey {
        self.max_reader
    }

    /// The largest registered writer key; `(0, TaskId(0))` when none.
    pub fn max_writer(&self) -> OrderKey {
        self.max_writer
    }

    /// Whether some registered reader's key is later than `key`.
    #[inline]
    pub fn has_later_reader(&self, key: OrderKey) -> bool {
        self.max_reader > key
    }

    /// Whether some registered writer's key is later than `key`.
    #[inline]
    pub fn has_later_writer(&self, key: OrderKey) -> bool {
        self.max_writer > key
    }

    /// Register `key` as a reader; a no-op if it already is one.
    #[inline]
    pub fn add_reader(&mut self, key: OrderKey) {
        add_key(&mut self.readers, &mut self.max_reader, key);
    }

    /// Register `key` as a writer; a no-op if it already is one.
    #[inline]
    pub fn add_writer(&mut self, key: OrderKey) {
        add_key(&mut self.writers, &mut self.max_writer, key);
    }

    /// Drop every entry of `task` (at most one per list, since registration
    /// dedups and a task's key never changes).
    pub fn remove_task(&mut self, task: TaskId) {
        remove_task_key(&mut self.readers, &mut self.max_reader, task);
        remove_task_key(&mut self.writers, &mut self.max_writer, task);
    }

    /// Drop every entry, keeping the lists' capacity.
    fn clear(&mut self) {
        self.readers.clear();
        self.writers.clear();
        self.max_reader = EMPTY_BOUND;
        self.max_writer = EMPTY_BOUND;
    }
}

/// Append `key` to `list` unless present, raising `max` if needed. A key
/// above the bound cannot be in the list, so only the others pay the
/// membership scan.
#[inline]
fn add_key(list: &mut Vec<OrderKey>, max: &mut OrderKey, key: OrderKey) {
    if key > *max {
        *max = key;
    } else if list.contains(&key) {
        return;
    }
    list.push(key);
}

/// Remove `task`'s entry from `list`, preserving the order of the rest, and
/// recompute `max` only if the removed key was the maximum.
#[inline]
fn remove_task_key(list: &mut Vec<OrderKey>, max: &mut OrderKey, task: TaskId) {
    let Some(pos) = list.iter().position(|k| k.1 == task) else {
        return;
    };
    let removed = list.remove(pos);
    if removed == *max {
        *max = list.iter().copied().max().unwrap_or(EMPTY_BOUND);
    }
}

/// Slot index marking "no slab entry" in the open-addressed index.
const NO_SLOT: u32 = u32::MAX;

/// Open-addressed map from [`LineAddr`] to [`LineAccessors`].
///
/// Line addresses are byte addresses divided by the line size, so no real
/// key ever reaches the `u64::MAX` empty-slot sentinel of the underlying
/// table.
#[derive(Debug)]
pub struct LineTable {
    /// line -> slab slot.
    index: OpenTable<u32>,
    /// Accessor lists; freed slots keep their capacity and are reused.
    slots: Vec<LineAccessors>,
    /// Freed slab slots available for reuse.
    free: Vec<u32>,
    /// Number of lines currently present.
    len: usize,
}

impl LineTable {
    /// Create an empty table.
    pub fn new() -> Self {
        LineTable {
            index: OpenTable::new(64, NO_SLOT),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of lines with at least one registered accessor entry.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no line is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The accessors of `line`, if present.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&LineAccessors> {
        match self.index.probe(line.0) {
            Probe::Found(pos) => Some(&self.slots[self.index.val_at(pos) as usize]),
            Probe::Vacant(_) => None,
        }
    }

    /// Mutable accessors of `line`, if present.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut LineAccessors> {
        match self.index.probe(line.0) {
            Probe::Found(pos) => Some(&mut self.slots[self.index.val_at(pos) as usize]),
            Probe::Vacant(_) => None,
        }
    }

    /// The accessors of `line`, inserting an empty entry if absent (the
    /// `entry(line).or_default()` of the former `HashMap`).
    #[inline]
    pub fn entry_or_default(&mut self, line: LineAddr) -> &mut LineAccessors {
        let slot = match self.index.probe(line.0) {
            Probe::Found(pos) => self.index.val_at(pos),
            Probe::Vacant(mut pos) => {
                // Grow only when actually inserting (a hit must stay
                // allocation-free), keeping occupancy below half the slots
                // so probe chains stay short.
                if (self.len + 1) * 2 > self.index.slots() {
                    self.index.grow(NO_SLOT);
                    pos = match self.index.probe(line.0) {
                        Probe::Vacant(p) => p,
                        Probe::Found(_) => unreachable!("key cannot appear during growth"),
                    };
                }
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        self.slots.push(LineAccessors::default());
                        (self.slots.len() - 1) as u32
                    }
                };
                self.index.occupy(pos, line.0, slot);
                self.len += 1;
                slot
            }
        };
        &mut self.slots[slot as usize]
    }

    /// Remove `line` if present. Its accessor lists are cleared but their
    /// capacity is kept for reuse by the next inserted line.
    pub fn remove(&mut self, line: LineAddr) {
        if let Probe::Found(pos) = self.index.probe(line.0) {
            let slot = self.index.val_at(pos);
            self.index.remove_at(pos);
            self.slots[slot as usize].clear();
            self.free.push(slot);
            self.len -= 1;
        }
    }
}

impl Default for LineTable {
    fn default() -> Self {
        LineTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = LineTable::new();
        assert!(t.is_empty());
        let line = LineAddr(42);
        assert!(t.get(line).is_none());
        t.entry_or_default(line).add_reader((0, TaskId(7)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(line).unwrap().readers(), [(0, TaskId(7))]);
        t.get_mut(line).unwrap().add_writer((1, TaskId(8)));
        assert_eq!(t.get(line).unwrap().writers(), [(1, TaskId(8))]);
        t.remove(line);
        assert!(t.get(line).is_none());
        assert!(t.is_empty());
        // Removing an absent line is a no-op.
        t.remove(line);
        assert!(t.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_without_stale_contents() {
        let mut t = LineTable::new();
        t.entry_or_default(LineAddr(1)).add_reader((5, TaskId(1)));
        t.entry_or_default(LineAddr(1)).add_writer((6, TaskId(2)));
        t.remove(LineAddr(1));
        // The reused slot must come back empty, bounds included.
        let acc = t.entry_or_default(LineAddr(2));
        assert!(acc.is_empty());
        assert_eq!((acc.max_reader(), acc.max_writer()), (EMPTY_BOUND, EMPTY_BOUND));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = LineTable::new();
        for line in 0..500u64 {
            t.entry_or_default(LineAddr(line)).add_writer((line, TaskId(line)));
        }
        assert_eq!(t.len(), 500);
        for line in 0..500u64 {
            assert_eq!(t.get(LineAddr(line)).unwrap().writers(), [(line, TaskId(line))]);
        }
    }

    #[test]
    fn removal_keeps_registration_order_and_exact_bounds() {
        let mut acc = LineAccessors::default();
        for (ts, id) in [(4, 1), (9, 2), (2, 3), (9, 4), (7, 5)] {
            acc.add_writer((ts, TaskId(id)));
        }
        acc.add_writer((2, TaskId(3))); // duplicate below the bound: no-op
        assert_eq!(acc.max_writer(), (9, TaskId(4)));
        assert!(acc.has_later_writer((9, TaskId(2))) && !acc.has_later_writer((9, TaskId(4))));
        // Removing a non-maximum keeps the bound; the rest keep their order.
        acc.remove_task(TaskId(2));
        assert_eq!(acc.writers(), [(4, TaskId(1)), (2, TaskId(3)), (9, TaskId(4)), (7, TaskId(5))]);
        assert_eq!(acc.max_writer(), (9, TaskId(4)));
        // Removing the maximum recomputes it from the remaining keys.
        acc.remove_task(TaskId(4));
        assert_eq!(acc.max_writer(), (7, TaskId(5)));
        assert_eq!(acc.writers(), [(4, TaskId(1)), (2, TaskId(3)), (7, TaskId(5))]);
        // A task that is not registered is a no-op.
        acc.remove_task(TaskId(99));
        assert_eq!(acc.len(), 3);
        for id in [1, 3, 5] {
            acc.remove_task(TaskId(id));
        }
        assert!(acc.is_empty());
        assert_eq!(acc.max_writer(), EMPTY_BOUND);
        assert!(!acc.has_later_writer(EMPTY_BOUND) && !acc.has_later_reader(EMPTY_BOUND));
    }
}

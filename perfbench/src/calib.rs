//! Host-speed calibration for the CPU-bound workloads.
//!
//! On a shared 2-vCPU KVM guest (Intel Xeon) the same `Engine::run` took
//! 0.93 s to 1.79 s depending on what co-tenants were doing, in phases that
//! last tens of seconds, with no steal time reported; the fastest of a run's
//! identical simulations still moved by a fifth from one run of the
//! benchmark to the next. A fixed kernel that belongs to the benchmark, not
//! to the program, slows down with the host, if less: [`kernel_s`] is timed
//! right before every measured operation, and each operation counts as
//! `its seconds / the kernel's seconds` *kernel units*. A change to the
//! program moves the units an operation takes; a co-tenant moves both times
//! and partly cancels. A run reports the lower quartile of a simulation's
//! units, since co-tenants only ever slow it down (the suite's commands use
//! the run's kernel quartile instead; see suite.rs). In an eight-minute
//! recording on such a host, the median of `Engine::run` over 35-second
//! windows spread 20% (interquartile range over median) in seconds and 6%
//! in units; des set-up spread 11% and 3%.
//!
//! Results are reported in *reference seconds*: kernel units times
//! [`REFERENCE_S`], the kernel's time on a quiet host, so the figures read
//! as seconds on that host.

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// About the kernel's time on a quiet 2-vCPU Intel Xeon KVM guest, in
/// seconds.
pub const REFERENCE_S: f64 = 0.05;

/// Run the calibration kernel once; its wall-clock seconds.
///
/// The kernel mixes what the simulator spends its time on: a binary heap
/// (the event queue), a hash map (tables keyed by address or task),
/// dependent loads through a 4 MiB permutation (cache misses) and a sort of
/// 4.8 MB of keys. Its inputs are fixed, so every call does the same work.
/// The mix matters: without the sort, the kernel slowed down more than the
/// simulator when co-tenants were busy; without the dependent loads, less.
pub fn kernel_s() -> f64 {
    const LINKS: usize = 1 << 20;
    const STEPS: u64 = 400_000;
    const SORTED: usize = 600_000;
    let t = Instant::now();
    let mut state = 0x5EED_CA1B_u64;
    let mut perm: Vec<u32> = (0..LINKS as u32).collect();
    crate::shuffle(&mut perm, &mut state);
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let (mut at, mut acc) = (0u32, 0u64);
    for i in 0..STEPS {
        let key = crate::splitmix(&mut state);
        heap.push(std::cmp::Reverse(key >> 8));
        if heap.len() > 4096 {
            acc ^= heap.pop().map_or(0, |r| r.0);
        }
        *map.entry(key % 65_536).or_insert(0) += i;
        at = perm[at as usize];
        acc = acc.wrapping_add(at as u64);
    }
    let mut keys: Vec<u64> = (0..SORTED).map(|_| crate::splitmix(&mut state)).collect();
    keys.sort_unstable();
    std::hint::black_box((acc, map.len(), keys[SORTED / 2]));
    t.elapsed().as_secs_f64()
}

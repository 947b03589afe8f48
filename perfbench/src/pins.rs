//! Pinned correctness digests.
//!
//! `pins/tuning.txt` holds the digests of the seeds the benchmark was tuned
//! on (including the default seed); `pins/held-out.txt` holds those of
//! [`HELD_OUT_SEED`], which was never run for timing while the benchmark was
//! tuned, so a later claim can be re-checked on data it was not fitted to.
//! Each line is `<workload> <seed> <item> <digest>`. For des the seed is a
//! circuit's input seed and the item `stats`, under `des-random` and
//! `des-hints` for the two schedulers; for the suite it is
//! the default seed (the suite's only inputs) and the item the command; for
//! serve it is the workload seed and the item `points`.
//! Regenerate a seed's lines with `perfbench --print-pins --seed <n>` after a
//! change that is meant to alter simulated results.

/// The workload seed used when `--seed` is not given (the repository's
/// default workload seed).
pub const DEFAULT_SEED: u64 = 0xF1605;

/// The seed kept out of tuning.
pub const HELD_OUT_SEED: u64 = 0x5EED_0B5E;

const TUNING: &str = include_str!("../pins/tuning.txt");
const HELD_OUT: &str = include_str!("../pins/held-out.txt");

/// The pinned digest of `item` of `workload` at `seed`, if pinned.
pub fn lookup(workload: &str, seed: u64, item: &str) -> Option<u64> {
    TUNING.lines().chain(HELD_OUT.lines()).find_map(|line| {
        let mut f = line.split_whitespace();
        let hit = f.next() == Some(workload)
            && f.next()?.parse::<u64>().ok()? == seed
            && f.next() == Some(item);
        if hit {
            u64::from_str_radix(f.next()?, 16).ok()
        } else {
            None
        }
    })
}

/// Whether any digest is pinned for `seed`.
pub fn is_pinned(seed: u64) -> bool {
    TUNING.lines().chain(HELD_OUT.lines()).any(|line| {
        line.split_whitespace().nth(1).and_then(|s| s.parse::<u64>().ok()) == Some(seed)
    })
}

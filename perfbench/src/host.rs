//! What the benchmark reads about the host it runs on.
//!
//! On a shared host the same round runs up to 40% slower for tens of
//! seconds at a time, while neighbours load the machine; no guest-side
//! counter (steal time, CPU time) shows it. The benchmark therefore times
//! a fixed loop that uses no code of the program right before each round,
//! and a shorter one right after each set-up, and scales each timing by
//! the loop's speed against a reference. On a 2-vCPU Xeon host this cut
//! the spread of six seeds' `sim_s_per_s` medians from 16-18% to 1.5-4%.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The gauge speed timings are scaled to: about that of the 2-vCPU Xeon
/// host the benchmark was tuned on, unloaded.
pub const REFERENCE_OPS_PER_S: f64 = 2e7;

/// Gauge length read before each round: about 10 ms.
pub const ROUND_GAUGE_OPS: u64 = 200_000;
/// Gauge length read after each set-up: about as long as one set-up.
pub const SETUP_GAUGE_OPS: u64 = 10_000;

/// Operations per second of `ops` steps of a fixed heap-and-hash-map
/// loop: a gauge of how fast the host runs right now. The loop allocates
/// nothing and hashes with fixed keys, so every process runs the same
/// instructions.
pub fn speed(ops: u64) -> f64 {
    let mut rng = crate::gen::Rng::new(42);
    let mut heap = BinaryHeap::with_capacity(256);
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(2048, Default::default());
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops {
        let k = rng.next();
        heap.push(k >> 20);
        if heap.len() > 200 {
            acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        }
        map.insert(k & 1023, i);
        if let Some(v) = map.get(&((k >> 7) & 1023)) {
            acc ^= v;
        }
    }
    std::hint::black_box(acc);
    ops as f64 / t0.elapsed().as_secs_f64()
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

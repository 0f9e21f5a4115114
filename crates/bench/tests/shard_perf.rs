//! Acceptance floor for the sharded kernel: on a host with ≥ 4 cores, the
//! horizon replay on a 4-shard kernel must run at least 1.5× faster than
//! the same replay on 1 shard. (Shard speedups are measured by
//! `perfbench`; see `perfbench/README.md`.)
//!
//! On hosts with fewer than 4 cores the test prints a skip notice and
//! passes: shard workers are real OS threads, so a wall-clock speedup is
//! physically impossible without the cores — asserting one there would
//! only reward a lie. CI runs this on multi-core runners in release mode.

use pier_bench::experiments::horizon;
use pier_bench::{RunCtx, Scale};
use std::time::Instant;

/// `(wall seconds, events processed)` for one seeded horizon replay.
fn timed_replay(shards: usize) -> (f64, u64) {
    let t0 = Instant::now();
    let out = horizon::run(&RunCtx { shards, ..RunCtx::new(Scale::Quick) });
    (t0.elapsed().as_secs_f64(), out.events.processed)
}

#[test]
fn four_shard_replay_at_least_1_5x_single_shard() {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if cores < 4 {
        println!(
            "skipping 4-shard speedup floor: host has {cores} core(s), \
             4 shard workers cannot run in parallel here"
        );
        return;
    }

    // Warm-up pays one-time costs (vocab interning, metric registration).
    let _ = timed_replay(1);

    // Wall-clock comparisons on shared CI runners are noisy, so one clean
    // win out of three attempts is accepted — a genuine serialization
    // regression fails all three rounds.
    let mut last = (f64::NAN, f64::NAN);
    for _ in 0..3 {
        let (base_s, base_events) = timed_replay(1);
        let (sharded_s, sharded_events) = timed_replay(4);
        assert_eq!(
            base_events, sharded_events,
            "sharding changed the simulation — that is a correctness bug, not a perf issue"
        );
        last = (base_s, sharded_s);
        if base_s >= sharded_s * 1.5 {
            return;
        }
    }
    panic!(
        "4-shard replay below the 1.5x floor in 3/3 rounds: \
         1 shard {:.2}s vs 4 shards {:.2}s ({:.2}x)",
        last.0,
        last.1,
        last.0 / last.1
    );
}

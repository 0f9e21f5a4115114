#![forbid(unsafe_code)]
//! `shard_bench` — wall-clock throughput of the sharded kernel on a real
//! workload: the horizon experiment's full Lab replay at 1, 2, and 4
//! kernel shards. Every run must produce bit-identical traffic and event
//! counts (asserted here — a speedup that changes results is a bug, not a
//! speedup); only the wall clock may move. Results print as a table and
//! are written to `BENCH_shard.json` at the workspace root so later PRs
//! have a perf trajectory to compare against.
//!
//! Besides the `--scale`-selected rung, every run also times the
//! `metro-lite` preset — the metro code path (shared share catalog, mixed
//! profiles, metro experiment arms) at a size a CI box replays in under a
//! second — so the trajectory always carries a metro-path datapoint.
//!
//! Honest numbers: the JSON records `shard.host_parallelism`. On a
//! single-core host the sharded runs pay barrier overhead with no
//! parallelism to buy back, so a sub-1× "speedup" there is expected and
//! meaningful — read the speedup against the recorded core count.
//!
//! Run with `cargo run -p pier-bench --release --bin shard_bench`
//! (`-- --scale sparse|full` for bigger replays).

use pier_bench::cli::{self, Flags};
use pier_bench::experiments::horizon;
use pier_bench::{RunCtx, Scale};
use std::io::Write;
use std::time::Instant;

struct Point {
    shards: usize,
    wall_s: f64,
    events: u64,
    total_messages: u64,
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// One timed replay. The trailing replay state (interned vocabulary,
/// allocator warmth) is shared process-wide, so callers should discard a
/// warm-up run before comparing.
fn replay(scale: Scale, shards: usize) -> Point {
    let t0 = Instant::now();
    let out = horizon::run(&RunCtx { shards, ..RunCtx::new(scale) });
    Point {
        shards,
        wall_s: t0.elapsed().as_secs_f64(),
        events: out.events.processed,
        total_messages: out.summary.get("total_messages").expect("traffic stat") as u64,
    }
}

/// Interleaved min-of-3 over the shard counts. Shared hosts drift: rounds
/// interleave (1,2,4,1,2,4,…) so slow background phases don't land on one
/// configuration, and min wall time is the robust estimator — noise only
/// ever adds time. Also re-asserts the determinism contract: sharding must
/// not change what was simulated.
fn bench_scale(scale: Scale) -> Vec<Point> {
    let mut points: Vec<Point> = SHARD_COUNTS.iter().map(|&s| replay(scale, s)).collect();
    for _ in 0..2 {
        for (i, &s) in SHARD_COUNTS.iter().enumerate() {
            let p = replay(scale, s);
            assert_eq!(p.events, points[i].events, "replay diverged between rounds");
            if p.wall_s < points[i].wall_s {
                points[i] = p;
            }
        }
    }
    for p in &points[1..] {
        assert_eq!(
            (p.events, p.total_messages),
            (points[0].events, points[0].total_messages),
            "{}-shard replay diverged from the 1-shard run",
            p.shards
        );
    }
    points
}

fn print_points(points: &[Point]) {
    println!("{:<8} {:>10} {:>14} {:>14}", "shards", "best wall_s", "events", "events/s");
    for p in points {
        println!(
            "{:<8} {:>10.2} {:>14} {:>14.0}",
            p.shards,
            p.wall_s,
            p.events,
            p.events as f64 / p.wall_s.max(1e-9)
        );
    }
}

/// The JSON keys of one benched scale, under `shard.<prefix>`.
fn push_keys(results: &mut Vec<(String, f64)>, prefix: &str, points: &[Point]) {
    let speedup2 = points[0].wall_s / points[1].wall_s.max(1e-9);
    let speedup4 = points[0].wall_s / points[2].wall_s.max(1e-9);
    let k = |name: &str| format!("shard.{prefix}{name}");
    results.push((k("events"), points[0].events as f64));
    results.push((k("s1_wall_s"), points[0].wall_s));
    results.push((k("s2_wall_s"), points[1].wall_s));
    results.push((k("s4_wall_s"), points[2].wall_s));
    results.push((k("s1_events_per_s"), points[0].events as f64 / points[0].wall_s.max(1e-9)));
    results.push((k("s4_events_per_s"), points[2].events as f64 / points[2].wall_s.max(1e-9)));
    results.push((k("speedup_2x"), speedup2));
    results.push((k("speedup_4x"), speedup4));
}

fn main() {
    let mut flags = Flags::new(std::env::args().skip(1));
    let scale = cli::scale(&mut flags).and_then(|scale| flags.finish().map(|()| scale));
    let scale = scale.unwrap_or_else(|e| {
        eprintln!("shard_bench: {e}\nusage: shard_bench [--scale S]");
        std::process::exit(2);
    });
    let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "shard_bench: horizon replay at {scale:?} scale on a {host}-way host \
         (--scale sparse|full for bigger runs)"
    );

    // Warm-up run: pays one-time costs (vocabulary interning, lazy metric
    // registration, allocator growth) so the timed runs compare kernels,
    // not process start-up.
    let _ = replay(scale, 1);

    let points = bench_scale(scale);
    print_points(&points);
    let speedup2 = points[0].wall_s / points[1].wall_s.max(1e-9);
    let speedup4 = points[0].wall_s / points[2].wall_s.max(1e-9);
    println!("\nspeedup vs 1 shard: 2 shards {speedup2:.2}x, 4 shards {speedup4:.2}x");

    // The metro-path datapoint, always present regardless of `--scale`.
    let lite_points = if scale == Scale::MetroLite {
        None
    } else {
        println!("\nmetro-lite rung (shared-catalog metro code path at CI size):");
        let lp = bench_scale(Scale::MetroLite);
        print_points(&lp);
        Some(lp)
    };

    let path = pier_bench::output::results_dir()
        .parent()
        .map(|r| r.join("BENCH_shard.json"))
        .unwrap_or_else(|| "BENCH_shard.json".into());
    let mut results: Vec<(String, f64)> = vec![("shard.host_parallelism".into(), host as f64)];
    push_keys(&mut results, "", &points);
    push_keys(&mut results, "metro_lite_", lite_points.as_deref().unwrap_or(&points));
    let mut json = String::from("{\n");
    for (i, (name, v)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {v:.3}{comma}\n"));
    }
    json.push_str("}\n");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("→ {}", path.display()),
        Err(e) => eprintln!("(json write failed: {e})"),
    }
}

//! Shard-count determinism over *real* experiments: every trial result
//! must be a pure function of `(scale, seed)` — independent of how many
//! kernel shards the simulation ran on, and independent of how shards
//! compose with sweep `--jobs`. This is the acceptance property of the
//! sharded kernel: `--shards` is a wall-clock knob, never a semantics
//! knob.
//!
//! The mirror of `sweep_determinism.rs` one level down: that file pins
//! trial results against *trial-level* parallelism (worker threads
//! running whole trials); this one pins them against *kernel-level*
//! parallelism (shard workers inside one simulation).

use pier_bench::experiments::{churn, find, horizon};
use pier_bench::lab::DEFAULT_SEED;
use pier_bench::sweep::{run_sweep, Summary, SweepConfig, SweepResult, DEFAULT_BASE_SEED};
use pier_bench::{Outcome, RunCtx, Scale};
use pier_trace::Obs;

/// `run` at `scale` with master seed `DEFAULT_SEED` on `shards` kernel
/// shards: a sweep trial's summary.
fn trial(run: fn(&RunCtx) -> Outcome, scale: Scale, shards: usize) -> Summary {
    run(&RunCtx { seed: Some(DEFAULT_SEED), shards, ..RunCtx::new(scale) }).summary
}

/// Two quick-scale horizon trials on `jobs` threads × `shards` shards.
fn horizon_sweep(jobs: usize, shards: usize) -> SweepResult {
    let cfg =
        SweepConfig { scale: Scale::Quick, trials: 2, jobs, base_seed: DEFAULT_BASE_SEED, shards };
    run_sweep(find("horizon").expect("registered experiment"), &cfg)
}

/// The full Lab + replay path behind `horizon`: one-, two-, and four-shard
/// kernels must reproduce identical summaries, bit for bit — every
/// statistic, including total traffic and the kernel's own event count.
#[test]
fn horizon_trials_are_bit_identical_across_shard_counts() {
    let base = trial(horizon::run, Scale::Quick, 1);
    for shards in [2usize, 4] {
        let sharded = trial(horizon::run, Scale::Quick, shards);
        assert_eq!(base, sharded, "horizon trial diverged between 1 and {shards} kernel shards");
    }
    assert!(
        base.get("events_processed").expect("kernel accounting stat") > 0.0,
        "the replay must actually exercise the kernel"
    );
}

/// The metro-lite rung with the sparse shared QRP plane: interned
/// `Arc<QrpFilter>`s are probed from every shard's last-hop loops, so
/// this pins that filter sharing (and the catalog behind it) stays
/// invisible to the schedule — summaries bit-identical across 1/2/4
/// kernel shards. Lab builds need optimized code, so debug builds skip.
#[test]
fn metro_lite_horizon_is_bit_identical_across_shard_counts() {
    if cfg!(debug_assertions) {
        eprintln!("metro-lite determinism: skipped (needs --release; debug build is too slow)");
        return;
    }
    let summary = |shards: usize| trial(horizon::run, Scale::MetroLite, shards);
    let base = summary(1);
    for shards in [2usize, 4] {
        assert_eq!(
            base,
            summary(shards),
            "metro-lite horizon diverged between 1 and {shards} kernel shards"
        );
    }
    assert!(
        base.get("events_processed").expect("kernel accounting stat") > 0.0,
        "the replay must actually exercise the kernel"
    );
}

/// The churn experiment: four simulated arms plus the churn driver's
/// set_down/set_up injections per trial. Membership churn crosses shard
/// boundaries constantly, so this is the harshest in-repo workload for
/// the window barrier — results must still be bit-identical.
#[test]
fn churn_trials_are_bit_identical_across_shard_counts() {
    let base = trial(churn::run, Scale::Quick, 1);
    for shards in [2usize, 4] {
        let sharded = trial(churn::run, Scale::Quick, shards);
        assert_eq!(base, sharded, "churn trial diverged between 1 and {shards} kernel shards");
    }
    assert_eq!(base.get("norefresh_monotone"), Some(1.0));

    // The same base run pins observability neutrality: with the phase
    // profiler and kernel telemetry live (two shards, so the probe sees
    // lockstep windows), churn's summary is unmoved.
    let obs = Obs::configure(true, 0, false);
    let ctx = RunCtx {
        seed: Some(DEFAULT_SEED),
        shards: 2,
        obs: obs.clone(),
        ..RunCtx::new(Scale::Quick)
    };
    assert_eq!(base, churn::run(&ctx).summary, "churn summary moved under observability");
    assert!(
        obs.kernel.as_ref().is_some_and(|k| !k.shard_stats().is_empty()),
        "churn's simulations must carry the kernel probe"
    );
}

/// Shards × jobs composition: a sweep running trials on parallel worker
/// threads, each trial on a multi-shard kernel, must equal the fully
/// sequential sweep (jobs=1, shards=1) — trials, aggregates, and all.
#[test]
fn sharded_parallel_sweep_matches_sequential_unsharded_sweep() {
    let sequential = horizon_sweep(1, 1);
    let composed = horizon_sweep(2, 2);
    assert_eq!(
        sequential.trials, composed.trials,
        "jobs=2 × shards=2 must reproduce the jobs=1 × shards=1 sweep bit-for-bit"
    );
    for (s, c) in sequential.aggregates.iter().zip(&composed.aggregates) {
        assert_eq!(s, c, "aggregates must agree when every trial agrees");
    }
}

//! Sweep determinism over *real* experiments: per-trial results must be a
//! pure function of `(scale, seed)` — independent of `--jobs`, thread
//! scheduling, and which worker picked the trial up. The sweep runner's
//! whole point is cross-trial statistics; that breaks silently if
//! parallelism perturbs any trial.

use pier_bench::experiments::find;
use pier_bench::sweep::{run_sweep, Summary, SweepConfig, SweepResult, DEFAULT_BASE_SEED};
use pier_bench::{RunCtx, Scale};

/// `trials` quick-scale trials of the registered experiment `name` on
/// `jobs` worker threads.
fn sweep(name: &str, trials: usize, jobs: usize) -> SweepResult {
    let cfg =
        SweepConfig { scale: Scale::Quick, trials, jobs, base_seed: DEFAULT_BASE_SEED, shards: 1 };
    run_sweep(find(name).expect("registered experiment"), &cfg)
}

/// A direct quick-scale run of `name` with master seed `seed`.
fn trial(name: &str, seed: u64) -> Summary {
    let ctx = RunCtx { seed: Some(seed), ..RunCtx::new(Scale::Quick) };
    (find(name).expect("registered experiment").run)(&ctx).summary
}

/// The full simulation path (Lab + replay) behind `figs4to7`/`horizon`:
/// a parallel sweep must reproduce the sequential one bit-for-bit, and
/// both must equal direct trial invocations.
#[test]
fn parallel_lab_sweep_matches_sequential() {
    let parallel = sweep("horizon", 2, 2);
    let sequential = sweep("horizon", 2, 1);
    assert_eq!(
        parallel.trials, sequential.trials,
        "per-trial metrics must be bit-identical regardless of --jobs"
    );
    for t in &parallel.trials {
        assert_eq!(
            t.summary,
            trial("horizon", t.seed),
            "trial {} must equal a direct run with its seed",
            t.trial
        );
    }
    // Distinct seeds really produce distinct simulations.
    let msgs: Vec<u64> = parallel
        .trials
        .iter()
        .map(|t| t.summary.get("total_messages").expect("traffic stat") as u64)
        .collect();
    assert_ne!(msgs[0], msgs[1], "different trial seeds must not produce identical traffic");
}

/// The churn experiment: four simulated arms plus the churn driver per
/// trial — per-trial results must still be a pure function of
/// `(scale, seed)`, bit-identical across `--jobs` and equal to a direct
/// trial invocation (the acceptance criterion's reproducibility half).
#[test]
fn parallel_churn_sweep_matches_sequential() {
    let parallel = sweep("churn", 2, 2);
    let sequential = sweep("churn", 2, 1);
    assert_eq!(
        parallel.trials, sequential.trials,
        "churn trials must be bit-identical regardless of --jobs"
    );
    let t0 = &parallel.trials[0];
    assert_eq!(
        t0.summary,
        trial("churn", t0.seed),
        "a sweep trial must equal a direct run with its seed"
    );
    // The signature statistics exist and traffic varies across seeds.
    for t in &parallel.trials {
        assert_eq!(t.summary.get("norefresh_monotone"), Some(1.0));
    }
    let msgs: Vec<u64> = parallel
        .trials
        .iter()
        .map(|t| t.summary.get("total_messages").expect("traffic stat") as u64)
        .collect();
    assert_ne!(msgs[0], msgs[1], "different trial seeds must differ in traffic");
}

/// The model path (`figs9to12`, no simulator) at a jobs=4 fan-out.
#[test]
fn parallel_model_sweep_matches_sequential_at_jobs_4() {
    let parallel = sweep("figs9to12", 4, 4);
    let sequential = sweep("figs9to12", 4, 1);
    assert_eq!(parallel.trials, sequential.trials);
    assert_eq!(parallel.trials.len(), 4);
    // Aggregates agree too (they are derived from the same trials).
    for (p, s) in parallel.aggregates.iter().zip(&sequential.aggregates) {
        assert_eq!(p, s);
    }
    // Error bars exist: at least one statistic varies across seeds.
    assert!(
        parallel.aggregates.iter().any(|a| a.stderr > 0.0),
        "multi-seed trials should show seed-to-seed variation"
    );
}

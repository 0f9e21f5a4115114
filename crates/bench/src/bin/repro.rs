#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all            # every registered experiment (the default)
//! repro fig4 … fig15   # a single figure
//! repro sec5-posting   # §5 posting-list replay
//! repro sec7-deploy    # §7 deployment (micro costs + 50-node run)
//! repro crawl          # §4.1 crawl snapshot (also part of fig8)
//! repro model-params   # Tables 1 & 2 glossary
//! repro horizon        # per-vantage zero-result rates (horizon effect)
//! repro churn          # recall under churn (§5 soft-state tradeoff)
//! repro sweep <experiment> [--trials N] [--jobs J] [--seed S]
//!                      # N seeded trials across J threads, aggregated
//!                      # (mean/stderr/min/max) into results/sweep_*.json
//! ```
//!
//! Every id resolves through `pier_bench::experiments::REGISTRY`, the one
//! table `repro`, `repro all`, `repro sweep` and the figures bench share.
//! Any argument that is neither a known flag nor the experiment id exits
//! with status 2 and the usage.
//!
//! `--scale quick|sparse|full|metro|metro-lite` selects the workload
//! scale: `metro` is the 1.1M-node single-network run (100k ultrapeers
//! carrying 1M leaves), `metro-lite` the same code path at CI-smoke size,
//! `full` paper magnitudes, `sparse` the large sparse topology where even
//! new-style vantages see only part of the network. `--shards S` runs each
//! simulation on an S-way sharded kernel — outputs are bit-identical for
//! any shard count, only wall-clock time changes, and it composes with
//! sweep `--jobs` (J trial threads × S shard workers each).
//!
//! Each experiment prints one kernel-throughput line: events/s over its
//! replay sections only, excluding network build and warm-up.
//!
//! Observability (all stat-neutral — pinned outputs are bit-identical with
//! these on or off):
//!
//! * `--profile` — wall-clock phase profile of the run: a self-time-sorted
//!   table on stderr plus `results/profile_<exp>_<scale>.json` (including
//!   per-shard kernel window counters); `<exp>` is `all` for `repro all`.
//! * `--trace-queries N` — causally trace a deterministic evenly-spaced
//!   sample of N query injections (the lab experiments, figs4to7 and
//!   horizon, sample queries); events land in
//!   `results/trace_<exp>_<scale>.jsonl`, readable by the `trace_report`
//!   bin.
//! * `--progress` — a ~2 s heartbeat on stderr (sim-time, events/s, ETA).

use pier_bench::cli::{parse_repro, Command, REPRO_USAGE};
use pier_bench::experiments::{Experiment, REGISTRY};
use pier_bench::output::{self, emit};
use pier_bench::sweep::{run_sweep, SweepConfig};
use pier_bench::{rate_line, RunCtx};
use pier_trace::{Obs, Tracer};
use std::sync::Arc;

/// Run one registered experiment and write its CSVs and trace.
fn run_one(experiment: &Experiment, ctx: &RunCtx) {
    // A fresh tracer per experiment: each writes its own trace file, and
    // two labs built from one seed would otherwise share wire GUIDs.
    let obs =
        Obs { tracer: ctx.obs.tracer.as_ref().map(|_| Arc::new(Tracer::new())), ..ctx.obs.clone() };
    let ctx = RunCtx { obs, ..ctx.clone() };
    let out = {
        let _phase = ctx.obs.phase(&format!("exp.{}", experiment.name));
        (experiment.run)(&ctx)
    };
    emit(&out.tables, &experiment.stem());
    println!("{}", rate_line(experiment.name, &out, ctx.shards));
    let Some(tracer) = &ctx.obs.tracer else { return };
    if tracer.event_count() == 0 {
        println!("  (--trace-queries: {} samples no queries; no trace written)", experiment.name);
        return;
    }
    let name = format!("trace_{}_{}.jsonl", experiment.stem(), ctx.scale.name());
    match output::write_results_file(&name, &tracer.to_jsonl()) {
        Ok(path) => println!(
            "  → {} (read with: cargo run -p pier-bench --bin trace_report -- <path>)",
            path.display()
        ),
        Err(e) => eprintln!("  (trace jsonl write failed: {e})"),
    }
}

fn main() {
    let cli = parse_repro(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{REPRO_USAGE}");
        std::process::exit(2);
    });
    let (scale, shards) = (cli.scale, cli.shards);
    let obs = Obs::configure(cli.profile, cli.trace_queries, cli.progress);
    let ctx = RunCtx { scale, seed: None, shards, obs };
    let label = match &cli.command {
        Command::All => "all".to_string(),
        Command::Run(e) => e.stem(),
        Command::Sweep { experiment, .. } => format!("sweep_{}", experiment.stem()),
    };
    println!("repro: running '{label}' at {scale:?} scale, {shards} kernel shard(s)");

    let t0 = std::time::Instant::now();
    match cli.command {
        Command::All => REGISTRY.iter().for_each(|e| run_one(e, &ctx)),
        Command::Run(e) => run_one(e, &ctx),
        Command::Sweep { experiment, trials, jobs, base_seed } => {
            let jobs = jobs
                .or_else(|| std::thread::available_parallelism().ok().map(|p| p.get()))
                .unwrap_or(1);
            println!(
                "sweep: {} × {trials} trials on {jobs} thread(s) × {shards} shard(s), \
base seed {base_seed:#x}",
                experiment.name
            );
            let _phase = ctx.obs.phase(&format!("exp.sweep.{}", experiment.name));
            let cfg = SweepConfig { scale, trials, jobs, base_seed, shards };
            let result = run_sweep(experiment, &cfg);
            for t in output::sweep_tables(&result) {
                t.print();
            }
            match output::write_sweep_json(&result) {
                Ok(path) => println!("  → {}", path.display()),
                Err(e) => eprintln!("  (json write failed: {e})"),
            }
        }
    }
    output::print_profile(&ctx.obs);
    if let Some(json) = output::profile_json(&ctx.obs) {
        match output::write_results_file(&format!("profile_{label}_{}.json", scale.name()), &json) {
            Ok(path) => println!("  → {}", path.display()),
            Err(e) => eprintln!("  (profile json write failed: {e})"),
        }
    }
    // The interned-term gauge: the table is append-only and process-wide,
    // so this is the run's whole-vocabulary footprint (guarded against
    // per-token growth by `pier-workload`'s vocab_growth tests).
    println!(
        "\nrepro: done in {:.1}s ({} interned terms)",
        t0.elapsed().as_secs_f64(),
        pier_vocab::vocab_len()
    );
}

#![forbid(unsafe_code)]
//! # pier-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. Run
//! everything with
//!
//! ```text
//! cargo run -p pier-bench --release --bin repro -- all
//! ```
//!
//! or a single experiment by id (`fig4` … `fig15`, `fig8`, `sec5-posting`,
//! `sec7-deploy`, `model-params`, `crawl`, `horizon`, `churn`). Results
//! print as tables and are written as CSV under `results/`. Pass
//! `--scale full` for paper-magnitude runs (minutes); the default quick
//! scale keeps everything under a few minutes total.
//!
//! For multi-seed statistics (mean ± stderr error bars), every experiment
//! can run as a parallel sweep:
//!
//! ```text
//! cargo run -p pier-bench --release --bin repro -- sweep horizon --trials 4 --jobs 4
//! ```
//!
//! Every experiment is one row of [`experiments::REGISTRY`]: a name, its
//! aliases, and one `run(&RunCtx) -> Outcome` function. `repro`, `repro
//! all` and `repro sweep` all iterate that table. See [`sweep`] for the
//! trial/aggregation machinery and [`output`] for table/CSV/JSON emission.
//!
//! [`floodbench`], [`qrpbench`] and [`membench`] are the fixtures behind
//! the floor tests in `crates/bench/tests/`, which gate the hot paths
//! against the reference implementations they replaced. Performance is
//! measured by the separate `perfbench` package (`perfbench/README.md`).

pub mod cli;
pub mod experiments;
pub mod floodbench;
pub mod lab;
pub mod membench;
pub mod output;
pub mod qrpbench;
pub mod sweep;

pub use lab::Scale;

use output::Table;
use pier_netsim::{EventStats, Sim, SimConfig};
use pier_trace::Obs;
use std::time::Instant;
use sweep::Summary;

/// Everything one experiment run depends on.
#[derive(Clone)]
pub struct RunCtx {
    pub scale: Scale,
    /// `None` runs the experiment with its own single-run seeds (the
    /// numbers `repro` has always printed); `Some(s)` is a sweep trial's
    /// master seed, from which every random choice derives. A sweep reads
    /// only the summary, so an experiment whose tables cost a multiple of
    /// its summary may leave them out of seeded runs.
    pub seed: Option<u64>,
    /// Kernel shards per simulation. Results are bit-identical for any
    /// value; only wall-clock time changes.
    pub shards: usize,
    pub obs: Obs,
}

impl RunCtx {
    /// Single-run seeds, one shard, no instruments.
    pub fn new(scale: Scale) -> RunCtx {
        RunCtx { scale, seed: None, shards: 1, obs: Obs::default() }
    }

    /// A simulator for this run: `cfg` on the run's shard count, with its
    /// kernel probe installed when profiling or a heartbeat was requested.
    pub fn sim<M: Send + 'static>(&self, cfg: SimConfig) -> Sim<M> {
        let mut sim = Sim::new(cfg.shards(self.shards));
        if let Some(probe) = self.obs.probe() {
            sim.set_probe(probe);
        }
        sim
    }
}

/// What one experiment run produces.
pub struct Outcome {
    /// The paper's tables, as `repro` prints them and writes them as CSV.
    pub tables: Vec<Table>,
    /// The structured statistics a sweep aggregates across trials.
    pub summary: Summary,
    /// Kernel accounting summed over the run's simulations (all zero for
    /// the analytic experiments).
    pub events: EventStats,
    /// The replay sections alone: no network build or warm-up.
    pub replay: Replay,
}

impl Outcome {
    /// The outcome of an experiment that runs no simulation.
    pub(crate) fn analytic(tables: Vec<Table>, summary: Summary) -> Outcome {
        Outcome { tables, summary, events: EventStats::default(), replay: Replay::default() }
    }
}

/// Kernel events processed and wall-clock seconds spent in an experiment's
/// replay sections — the denominator of an honest events/s figure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub events: u64,
    pub wall_s: f64,
}

impl std::ops::AddAssign for Replay {
    fn add_assign(&mut self, other: Replay) {
        self.events += other.events;
        self.wall_s += other.wall_s;
    }
}

/// A running replay section: started from the kernel's processed-event
/// count, stopped with the count at its end.
pub(crate) struct Lap {
    t0: Instant,
    events0: u64,
}

impl Lap {
    pub(crate) fn start(events: EventStats) -> Lap {
        Lap { t0: Instant::now(), events0: events.processed }
    }

    pub(crate) fn stop(self, events: EventStats) -> Replay {
        Replay { events: events.processed - self.events0, wall_s: self.t0.elapsed().as_secs_f64() }
    }
}

/// Sum kernel accounting across simulations.
pub(crate) fn add_events(total: &mut EventStats, more: EventStats) {
    total.pending += more.pending;
    total.peak_pending += more.peak_pending;
    total.processed += more.processed;
}

/// The one kernel-throughput line `repro` prints per experiment: events/s
/// over the replay sections only, so network build time does not dilute it.
pub fn rate_line(name: &str, out: &Outcome, shards: usize) -> String {
    if out.events.processed == 0 {
        return format!("  {name}: analytic model, no kernel events");
    }
    let secs = out.replay.wall_s.max(1e-9);
    format!(
        "  {name}: {} kernel events; replay {} events in {secs:.2}s ({:.0} events/s), \
{shards} shard(s), peak {} pending",
        out.events.processed,
        out.replay.events,
        out.replay.events as f64 / secs,
        out.events.peak_pending,
    )
}

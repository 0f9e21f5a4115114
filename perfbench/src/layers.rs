//! Per-layer metrics.
//!
//! Three sources, all read from outside the program:
//! * spans the benchmark opens around its own calls into each layer
//!   (`pier_trace::Profiler` phases named `<layer>.<stage>`), wrapped in the
//!   two unattributed phases `bench.setup` and `bench.run`;
//! * counters the program already keeps: `Sim::metrics()` classes,
//!   `Sim::event_stats()`, `qrp_catalog::stats()`, actor statistics, and the
//!   `KernelProbe` the benchmark installs (`pier_trace::KernelTelemetry`);
//! * micro-timings of single layer calls on fixed or workload-derived
//!   inputs (`crate::micro`).

use crate::micro;
use crate::report::{median, Rep, RepLine};
use pier_netsim::{MetricsSnapshot, Sim, SimDuration};
use pier_trace::{check_traces, Obs};
use std::collections::BTreeMap;

/// Every per-layer metric: name and unit. A layer a workload does not run
/// reads 0 there. Host time spent in a layer that only some workloads run
/// is reported as a share (`%`), so that no time metric is structurally 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.peak_pending", "count"),
    ("netsim.timer_events", "count"),
    ("netsim.run_for_calls", "count"),
    ("netsim.run_for_s", "s"),
    ("netsim.windows", "count"),
    ("netsim.cross_sends", "count"),
    ("netsim.barrier_wait_pct", "%"),
    ("workload.catalog_s", "s"),
    ("workload.query_trace_s", "s"),
    ("build.topology_s", "s"),
    ("build.spawn_s", "s"),
    ("build.warmup_s", "s"),
    ("gnutella.qrp_unique", "count"),
    ("gnutella.qrp_dedup", "x"),
    ("gnutella.query_msgs", "count"),
    ("gnutella.hops_per_query", "msg/query"),
    ("gnutella.dup_ratio", "ratio"),
    ("gnutella.qrp_pass_ratio", "ratio"),
    ("codec.dht_msgs_sized", "count"),
    ("codec.encoded_len_ns", "ns"),
    ("dht.rpc_timeouts", "count"),
    ("dht.timeout_ratio", "ratio"),
    ("dht.lookup_hops.p50", "hops"),
    ("dht.route_store_kb", "KB"),
    ("dht.maintenance_msgs", "count"),
    ("pier.shj_ns_per_tuple", "ns"),
    ("piersearch.publish_pct", "%"),
    ("piersearch.files_published", "count"),
    ("piersearch.soft_refresh_files", "count"),
    ("piersearch.publish_kb_per_file", "KB"),
    ("piersearch.search_timeouts", "count"),
    ("hybrid.fallbacks", "count"),
    ("hybrid.rescue_ratio", "ratio"),
    ("hybrid.qrs_published", "count"),
    ("hybrid.dht_msg_to_plain_node", "count"),
    ("churn.transitions", "count"),
    ("churn.advance_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage_pct", "%"),
    ("trace.sampled_queries", "count"),
    ("trace.malformed", "count"),
    ("sim.first_result_n", "count"),
];

/// How many injected queries a traced repetition follows hop by hop.
const TRACE_QUERIES: usize = 16;

/// Spans must account for at least this share of `setup_s + run_s`.
const MIN_COVERAGE_PCT: f64 = 90.0;

/// The instruments of a traced repetition: phase profiler, kernel
/// telemetry and sampled causal query tracing.
pub fn traced_obs() -> Obs {
    Obs::configure(true, TRACE_QUERIES, false)
}

/// The benchmark's handle on the kernel: counts and times its calls that
/// advance simulated time, and installs the kernel probe for the run phase.
pub struct Kernel<'o> {
    obs: &'o Obs,
    run_for_calls: u64,
}

/// Kernel state when the run phase started.
pub struct Mark {
    processed: u64,
    metrics: MetricsSnapshot,
}

impl<'o> Kernel<'o> {
    pub fn new(obs: &'o Obs) -> Self {
        Kernel { obs, run_for_calls: 0 }
    }

    /// Start the run phase: install the probe and remember where the
    /// counters stood.
    pub fn mark<M: Send + 'static>(&self, sim: &mut Sim<M>) -> Mark {
        if let Some(probe) = self.obs.probe() {
            sim.set_probe(probe);
        }
        Mark { processed: sim.event_stats().processed, metrics: sim.metrics().snapshot() }
    }

    pub fn run_for<M: Send + 'static>(&mut self, sim: &mut Sim<M>, d: SimDuration) {
        let _p = self.obs.phase("netsim.run_for");
        self.run_for_calls += 1;
        sim.run_for(d);
    }

    /// End the run phase: record the kernel counters and return the
    /// run-phase delta of the metric classes.
    pub fn finish<M: Send + 'static>(
        &self,
        sim: &Sim<M>,
        mark: &Mark,
        counts: &mut BTreeMap<&'static str, f64>,
    ) -> MetricsSnapshot {
        let stats = sim.event_stats();
        let delta = sim.metrics().snapshot().diff(&mark.metrics);
        let events = stats.processed - mark.processed;
        counts.insert("netsim.events", events as f64);
        counts.insert("netsim.peak_pending", stats.peak_pending as f64);
        counts.insert("netsim.timer_events", events.saturating_sub(delta.total_messages) as f64);
        counts.insert("netsim.run_for_calls", self.run_for_calls as f64);
        delta
    }
}

/// DHT wire classes: every send of one is serialized once to size it.
const DHT_WIRE: &[&str] = &[
    "dht.req.ping",
    "dht.req.find_node",
    "dht.req.store",
    "dht.req.find_value",
    "dht.resp.pong",
    "dht.resp.nodes",
    "dht.resp.store_ack",
    "dht.resp.values",
    "dht.route",
    "dht.route_store",
    "dht.app_direct",
];

/// Per-layer values derived from the run-phase metric classes.
pub fn protocol_counts(d: &MetricsSnapshot, counts: &mut BTreeMap<&'static str, f64>) {
    let n = |class: &str| d.counter(class).count as f64;
    let kb = |class: &str| d.counter(class).bytes as f64 / 1024.0;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let query_msgs = n("gnutella.query");
    counts.insert("gnutella.query_msgs", query_msgs);
    counts.insert("gnutella.hops_per_query", ratio(query_msgs, n("gnutella.queries_started")));
    counts.insert("gnutella.dup_ratio", ratio(n("gnutella.duplicate_query"), query_msgs));
    counts.insert(
        "gnutella.qrp_pass_ratio",
        ratio(n("gnutella.leaf_matches"), n("gnutella.leaf_forwards")),
    );

    counts.insert("codec.dht_msgs_sized", DHT_WIRE.iter().map(|c| n(c)).sum());
    let requests: f64 = DHT_WIRE.iter().filter(|c| c.starts_with("dht.req.")).map(|c| n(c)).sum();
    counts.insert("dht.rpc_timeouts", n("dht.rpc_timeout"));
    counts.insert("dht.timeout_ratio", ratio(n("dht.rpc_timeout"), requests));
    counts.insert("dht.route_store_kb", kb("dht.route_store"));
    counts.insert(
        "dht.maintenance_msgs",
        ["dht.req.ping", "dht.resp.pong", "dht.req.find_node", "dht.resp.nodes"]
            .iter()
            .map(|c| n(c))
            .sum(),
    );

    let files = n("piersearch.files_published");
    let publish_kb = kb("dht.route_store") + kb("dht.req.store") + kb("dht.resp.store_ack");
    counts.insert("piersearch.files_published", files);
    counts.insert("piersearch.soft_refresh_files", n("piersearch.soft_refresh_files"));
    counts.insert("piersearch.publish_kb_per_file", ratio(publish_kb, files));
    counts.insert("piersearch.search_timeouts", n("piersearch.search_timeout"));
    counts.insert("hybrid.dht_msg_to_plain_node", n("hybrid.dht_msg_to_plain_node"));
}

/// Median DHT routing hops over the simulation's lifetime.
pub fn lookup_hops_p50<M: Send + 'static>(sim: &mut Sim<M>) -> f64 {
    sim.metrics_mut().histogram("dht.route.hops").quantile(0.5)
}

/// The per-layer result of a traced run.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Combine the traced repetitions (medians of their per-layer values)
    /// with the untraced ones (the baseline for `trace.overhead_pct`).
    pub fn finish(plain: &[(u64, RepLine)], traced: &[(u64, RepLine)]) -> Layers {
        let mut values = BTreeMap::new();
        for &(name, _) in PER_LAYER {
            values
                .insert(name, median(&traced.iter().map(|(_, r)| r.get(name)).collect::<Vec<_>>()));
        }
        let wall = |reps: &[(u64, RepLine)]| {
            median(&reps.iter().map(|(_, r)| r.get("setup_s") + r.get("run_s")).collect::<Vec<_>>())
        };
        values.insert("trace.overhead_pct", (wall(traced) / wall(plain) - 1.0) * 100.0);
        Layers { values }
    }

    /// Every per-layer metric, in `PER_LAYER` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(name, unit)| (name, self.values[name], unit)).collect()
    }

    pub fn human_lines(&self) -> Vec<String> {
        self.metrics()
            .into_iter()
            .map(|(name, v, unit)| format!("{name:<32} {v:>16.6} {unit}"))
            .collect()
    }
}

/// One traced repetition's per-layer values: its counters plus what its
/// spans, kernel probe and tracer recorded.
pub fn rep_values(rep: &Rep, problems: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let mut v = rep.counts.clone();
    let phases: BTreeMap<String, pier_trace::PhaseStat> =
        rep.obs.profiler.as_ref().map(|p| p.snapshot().into_iter().collect()).unwrap_or_default();
    let total = |name: &str| phases.get(name).map_or(0.0, |s| s.total_s);
    let wall = rep.setup_s + rep.run_s;
    let pct = |s: f64| 100.0 * s / wall;

    v.insert("workload.catalog_s", total("workload.catalog"));
    v.insert("workload.query_trace_s", total("workload.query_trace"));
    v.insert("build.topology_s", total("build.topology"));
    v.insert("build.spawn_s", total("build.spawn"));
    v.insert("build.warmup_s", total("build.warmup"));
    v.insert("piersearch.publish_pct", pct(total("piersearch.publish")));
    v.insert("churn.advance_pct", pct(total("churn.advance")));

    // Kernel time: every benchmark call that advances simulated time.
    let run_for_s = total("netsim.run_for");
    let kernel_s = run_for_s + total("churn.advance");
    v.insert("netsim.run_for_s", run_for_s);
    let events = v.get("netsim.events").copied().unwrap_or(0.0);
    v.insert("netsim.events_per_s", events / kernel_s.max(1e-9));
    if let Some(kernel) = &rep.obs.kernel {
        let shards = kernel.shard_stats();
        let sum = |f: fn(&pier_trace::ShardWindowStats) -> f64| {
            shards.iter().fold(0.0, |acc, (_, s)| acc + f(s))
        };
        v.insert("netsim.windows", sum(|s| s.windows as f64));
        v.insert("netsim.cross_sends", sum(|s| s.cross_sends as f64));
        let wait = sum(|s| s.barrier_wait_s);
        let budget = kernel_s * rep.shards as f64;
        v.insert("netsim.barrier_wait_pct", if budget > 0.0 { 100.0 * wait / budget } else { 0.0 });
    }

    // Span coverage: the unattributed self time of the two wrappers is what
    // no layer span accounts for.
    let self_s = |name: &str| phases.get(name).map_or(0.0, |s| s.self_s);
    let unattributed = self_s("bench.setup") + self_s("bench.run");
    let wrapped = total("bench.setup") + total("bench.run");
    let coverage = 100.0 * (1.0 - unattributed / wrapped.max(1e-9));
    v.insert("trace.span_coverage_pct", coverage);
    if coverage < MIN_COVERAGE_PCT {
        problems.push(format!(
            "layer spans cover {coverage:.1}% of setup_s + run_s (need {MIN_COVERAGE_PCT}%)"
        ));
    }
    v.insert("codec.encoded_len_ns", micro::encoded_len_ns());

    if let Some(tracer) = &rep.obs.tracer {
        let checks = check_traces(&tracer.metas(), &tracer.sorted_events());
        let malformed = checks.iter().filter(|c| !c.well_formed()).count();
        v.insert("trace.sampled_queries", checks.len() as f64);
        v.insert("trace.malformed", malformed as f64);
        if checks.is_empty() {
            problems.push("the traced run sampled no operation".into());
        }
        if malformed > 0 {
            problems.push(format!("{malformed} of {} sampled traces are malformed", checks.len()));
        }
    }
    v.insert("sim.first_result_n", rep.sim.first_result_s.len() as f64);
    v
}

//! `lab`: the Gnutella measurement lab behind figures 4–7 and `horizon`.
//!
//! 10,000 ultrapeers and 100,000 leaves share 60,000 distinct files; 160
//! queries are injected from each of 16 vantage ultrapeers at 3 queries/s
//! of simulated time, then the network drains for 120 s. The kernel runs
//! on 2 shards. Build layers dominate `setup_s` (`spawn_stores` walks every
//! leaf's home list once per ultrapeer) and per-node kernel work, mostly
//! idle ultrapeer ticks, dominates `run_s`.

use crate::check::{Op, ReplicaOracle, SimOutcome, Status, Verdict};
use crate::layers::{self, Kernel};
use crate::micro;
use crate::report::Rep;
use pier_gnutella::{
    qrp_catalog, spawn_stores, CtxGnutellaNet, FileMeta, FileStore, LeafNode, QueryOrigin,
    ShareCatalog, Terms, Topology, TopologyConfig, UltrapeerNode,
};
use pier_netsim::{derive_seed, NodeId, Sim, SimConfig, SimDuration, SimTime, UniformLatency};
use pier_trace::Obs;
use pier_workload::{Catalog, CatalogConfig, QueryConfig, QueryTrace};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const ULTRAPEERS: usize = 10_000;
const LEAVES: usize = 100_000;
const FILES: usize = 60_000;
const QUERIES: usize = 160;
const VANTAGES: usize = 16;
/// Vantages with the new-style (32-neighbor) LimeWire profile; the rest
/// are old-style (6 neighbors). A fixed mix keeps how far floods reach
/// from depending on which profiles a seed's sampling happens to hit.
const NEW_STYLE_VANTAGES: usize = 8;
/// Queries per second of simulated time (each goes out from every vantage).
const RATE: f64 = 3.0;
const DRAIN: SimDuration = SimDuration::from_secs(120);
/// The default kernel shard count: the only workload on the sharded kernel.
pub const SHARDS: usize = 2;

pub fn rep(seed: u64, shards: usize, obs: &Obs) -> Rep {
    let t0 = Instant::now();
    let setup = obs.phase("bench.setup");
    let topo = {
        let _p = obs.phase("build.topology");
        Topology::generate(&TopologyConfig {
            ultrapeers: ULTRAPEERS,
            leaves: LEAVES,
            old_style_fraction: 0.6,
            leaf_ups: 2,
            seed: derive_seed(seed, 1),
        })
    };
    let catalog = {
        let _p = obs.phase("workload.catalog");
        Catalog::generate(CatalogConfig {
            hosts: LEAVES,
            distinct_files: FILES,
            max_replicas: LEAVES / 10,
            vocab: FILES / 3,
            phrases: FILES / 8,
            seed: derive_seed(crate::CONTENT_SEED, 2),
            ..Default::default()
        })
    };
    let trace = {
        let _p = obs.phase("workload.query_trace");
        QueryTrace::generate(
            &catalog,
            QueryConfig {
                queries: QUERIES,
                seed: derive_seed(crate::CONTENT_SEED, 3),
                ..Default::default()
            },
        )
    };
    let (up_stores, leaf_stores) = {
        let _p = obs.phase("gnutella.stores");
        let shared = Arc::new(ShareCatalog::build(
            catalog.files.iter().enumerate().map(|(i, f)| FileMeta::new(&f.name, 1_000 + i as u64)),
        ));
        let leaf_stores: Vec<FileStore> = catalog
            .host_files
            .iter()
            .map(|files| FileStore::shared(Arc::clone(&shared), files.clone().into_boxed_slice()))
            .collect();
        let up_stores: Vec<FileStore> = (0..ULTRAPEERS).map(|_| FileStore::default()).collect();
        (up_stores, leaf_stores)
    };
    let mut sim = Sim::new(
        SimConfig::with_seed(derive_seed(seed, 4))
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(90),
            ))
            .shards(shards),
    );
    let handles = {
        let _p = obs.phase("build.spawn");
        spawn_stores(&mut sim, &topo, up_stores, leaf_stores)
    };
    let mut kernel = Kernel::new(obs);
    {
        // QRP tables propagate from leaves to their ultrapeers.
        let _p = obs.phase("build.warmup");
        sim.run_for(SimDuration::from_secs(3));
    }
    let vantages = pick_vantages(&topo, &handles.ups);
    let handle = obs.trace_handle();
    if handle.is_active() {
        let _p = obs.phase("trace.attach");
        for &id in &handles.ups {
            sim.actor_mut::<UltrapeerNode>(id).core.set_trace(handle.clone());
        }
        for &id in &handles.leaves {
            sim.actor_mut::<LeafNode>(id).core.set_trace(handle.clone());
        }
    }
    drop(setup);

    let t1 = Instant::now();
    let run = obs.phase("bench.run");
    let start = kernel.mark(&mut sim);
    let sampled = pier_trace::sample_indices(QUERIES * VANTAGES, obs.trace_queries);
    let gap = SimDuration::from_secs_f64(1.0 / RATE);
    let mut issued: Vec<(NodeId, pier_gnutella::Guid, SimTime)> = Vec::new();
    for q in &trace.queries {
        let terms = Terms::from_ids(q.terms.clone());
        {
            let _p = obs.phase("gnutella.start_query");
            for &v in &vantages {
                let at = sim.now();
                let (guid, ttl) = sim.with_actor_ctx::<UltrapeerNode, _>(v, |up, ctx| {
                    let mut net = CtxGnutellaNet { ctx };
                    let guid = up.core.start_query(&mut net, terms.clone(), QueryOrigin::Driver);
                    (guid, up.core.cfg.probe_ttl)
                });
                if let Some(tracer) = &obs.tracer {
                    if sampled.binary_search(&issued.len()).is_ok() {
                        let (root, at_us) = (v.index() as u64, at.as_micros());
                        tracer.register(guid.0, root, at_us, u64::from(ttl), &terms.text());
                    }
                }
                issued.push((v, guid, at));
            }
        }
        kernel.run_for(&mut sim, gap);
    }
    kernel.run_for(&mut sim, DRAIN);
    let records: Vec<_> = {
        let _p = obs.phase("gnutella.collect");
        issued
            .iter()
            .map(|&(v, guid, at)| {
                sim.actor_mut::<UltrapeerNode>(v).core.take_query(guid).map(|r| (r, at))
            })
            .collect()
    };
    drop(run);
    let run_s = t1.elapsed().as_secs_f64();
    let setup_s = (t1 - t0).as_secs_f64();

    // Check every returned replica against the generated ground truth.
    let oracle = ReplicaOracle::new(&catalog);
    let leaf_index: HashMap<NodeId, u32> =
        handles.leaves.iter().enumerate().map(|(j, &id)| (id, j as u32)).collect();
    let truths: Vec<_> = trace.queries.iter().map(|q| oracle.truth(&q.terms)).collect();
    let mut sim_out = SimOutcome::default();
    for (i, rec) in records.iter().enumerate() {
        let truth = &truths[i / VANTAGES];
        let op = match rec {
            None => Op {
                status: Status::Missing,
                goal: truth.instances,
                verdicts: vec![],
                first_result_s: None,
            },
            Some((rec, at)) => {
                let mut seen = HashSet::new();
                let verdicts: Vec<Verdict> = rec
                    .hits
                    .iter()
                    .filter(|h| seen.insert((h.file.name.clone(), h.host)))
                    .map(|h| {
                        oracle.verdict(truth, None, &h.file.name, leaf_index.get(&h.host).copied())
                    })
                    .collect();
                Op {
                    status: if rec.finished { Status::Done } else { Status::Unfinished },
                    goal: truth.instances,
                    verdicts,
                    first_result_s: rec.first_hit_at.map(|t| (t - *at).as_secs_f64()),
                }
            }
        };
        sim_out.tally(op);
    }

    let mut counts = BTreeMap::new();
    let delta = kernel.finish(&sim, &start, &mut counts);
    layers::protocol_counts(&delta, &mut counts);
    let refs: usize =
        handles.ups.iter().map(|&id| sim.actor::<UltrapeerNode>(id).core.qrp_refs()).sum();
    let unique = qrp_catalog::stats().unique;
    counts.insert("gnutella.qrp_unique", unique as f64);
    counts.insert("gnutella.qrp_dedup", refs as f64 / unique.max(1) as f64);
    if obs.profiler.is_some() {
        counts.insert("pier.shj_ns_per_tuple", micro::shj_ns_per_tuple(&catalog, &trace.queries));
    }
    Rep { setup_s, run_s, shards, sim: sim_out.finish(delta.total_bytes), counts, obs: obs.clone() }
}

/// `NEW_STYLE_VANTAGES` new-style and the rest old-style ultrapeers, each
/// set evenly spaced over the ultrapeers of its profile.
fn pick_vantages(topo: &Topology, ups: &[NodeId]) -> Vec<NodeId> {
    let (new, old): (Vec<usize>, Vec<usize>) =
        (0..ups.len()).partition(|&i| topo.up_profiles[i].up_neighbors >= 32);
    let spaced = |set: &[usize], n: usize| -> Vec<NodeId> {
        (0..n).map(|k| ups[set[k * set.len() / n]]).collect()
    };
    let mut v = spaced(&new, NEW_STYLE_VANTAGES);
    v.extend(spaced(&old, VANTAGES - NEW_STYLE_VANTAGES));
    v
}

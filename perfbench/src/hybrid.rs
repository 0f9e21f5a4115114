//! `hybrid`: the paper's §7 system, deployed with `pier_hybrid::deploy`.
//!
//! 600 ultrapeers, 100 of them hybrid (Gnutella plus a DHT overlay among
//! themselves), carry 12,000 leaves sharing 24,000 distinct files. QRS
//! marks results of queries with fewer than 20 results as rare and
//! publishes them into PIERSearch (InvertedCache); a query with no
//! Gnutella result after 30 s falls back to PIERSearch. Round 1 sends 600
//! queries from half the hybrid ultrapeers, which makes QRS publish
//! (writes); round 2 sends the same 600 queries from the other half
//! (reads, rescued by the fallback where Gnutella finds nothing). This is
//! the only workload that runs flood, timeout, DHT lookup, publish and
//! search together. One kernel shard.

use crate::check::{Op, ReplicaOracle, SimOutcome, Status, Verdict};
use crate::layers::{self, Kernel};
use crate::micro;
use crate::report::Rep;
use pier_dht::DhtConfig;
use pier_gnutella::{FileMeta, Terms, Topology, TopologyConfig};
use pier_hybrid::{deploy, HybridConfig, HybridUp, PlainLeaf, PlainUp, RareScheme};
use pier_netsim::{derive_seed, NodeId, Sim, SimConfig, SimDuration, UniformLatency};
use pier_trace::Obs;
use pier_vocab::policy;
use pier_workload::{Catalog, CatalogConfig, QueryConfig, QueryTrace};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

const ULTRAPEERS: usize = 600;
const HYBRID_UPS: usize = 100;
const LEAVES: usize = 12_000;
const FILES: usize = 24_000;
/// New-style (32-neighbor) ultrapeers among each round's 50 hybrid
/// vantages; the other 15 are old-style, the population's 30%.
const NEW_STYLE_PER_ROUND: usize = 35;
const QUERIES: usize = 600;
/// QRS: a query with fewer results than this is rare.
const QRS_THRESHOLD: usize = 20;
const GAP: SimDuration = SimDuration::from_millis(700);
/// Round 1 drains long enough for QRS windows to close and publishing to
/// work through its rate-limited queue; round 2 for every fallback search
/// (30 s timeout + 60 s search deadline) to finish.
const ROUND1_DRAIN: SimDuration = SimDuration::from_secs(300);
const ROUND2_DRAIN: SimDuration = SimDuration::from_secs(150);

pub fn rep(seed: u64, shards: usize, obs: &Obs) -> Rep {
    let t0 = Instant::now();
    let setup = obs.phase("bench.setup");
    let topo = {
        let _p = obs.phase("build.topology");
        hybrid_first(Topology::generate(&TopologyConfig {
            ultrapeers: ULTRAPEERS,
            leaves: LEAVES,
            old_style_fraction: 0.3,
            leaf_ups: 2,
            seed: derive_seed(seed, 1),
        }))
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
    let leaf_files: Vec<Vec<FileMeta>> = {
        let _p = obs.phase("gnutella.stores");
        catalog
            .host_files
            .iter()
            .map(|fs| {
                fs.iter()
                    .map(|&f| FileMeta::new(&catalog.files[f as usize].name, 1_000 + u64::from(f)))
                    .collect()
            })
            .collect()
    };
    let mut sim = Sim::new(
        SimConfig::with_seed(derive_seed(seed, 4))
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(80),
            ))
            .shards(shards),
    );
    let deployment = {
        let _p = obs.phase("build.spawn");
        let cfg = deploy::DeploymentConfig {
            hybrid_ups: HYBRID_UPS,
            hybrid: HybridConfig {
                timeout: SimDuration::from_secs(30),
                publish_interval: SimDuration::from_millis(2_500),
                // QRS-only, as deployed in the paper.
                browse_leaves: false,
                ..Default::default()
            },
            dht: DhtConfig::test(),
        };
        deploy::spawn(&mut sim, &topo, leaf_files, &cfg, |_| RareScheme::qrs(QRS_THRESHOLD))
    };
    let mut kernel = Kernel::new(obs);
    {
        let _p = obs.phase("build.warmup");
        sim.run_for(SimDuration::from_secs(5));
    }
    let handle = obs.trace_handle();
    if handle.is_active() {
        let _p = obs.phase("trace.attach");
        for &id in &deployment.hybrid_ups {
            sim.actor_mut::<HybridUp>(id).set_trace(handle.clone());
        }
        for &id in &deployment.plain_ups {
            sim.actor_mut::<PlainUp>(id).core.set_trace(handle.clone());
        }
        for &id in &deployment.leaves {
            sim.actor_mut::<PlainLeaf>(id).core.set_trace(handle.clone());
        }
    }
    drop(setup);

    let t1 = Instant::now();
    let run = obs.phase("bench.run");
    let start = kernel.mark(&mut sim);
    let (round1, round2) = deployment.hybrid_ups.split_at(HYBRID_UPS / 2);
    let sampled = pier_trace::sample_indices(2 * QUERIES, obs.trace_queries);
    let mut issued: Vec<(NodeId, usize)> = Vec::with_capacity(2 * QUERIES);
    for (vantages, drain) in [(round1, ROUND1_DRAIN), (round2, ROUND2_DRAIN)] {
        for (i, q) in trace.queries.iter().enumerate() {
            let v = vantages[i % vantages.len()];
            let terms = Terms::from_ids(q.terms.clone());
            let idx = {
                let _p = obs.phase("hybrid.start_query");
                sim.with_actor_ctx::<HybridUp, _>(v, |up, ctx| up.start_hybrid_query(ctx, terms))
            };
            if let Some(tracer) = &obs.tracer {
                if sampled.binary_search(&issued.len()).is_ok() {
                    let up = sim.actor::<HybridUp>(v);
                    let at = up.stats[idx].issued_at;
                    let guid =
                        up.gnutella.queries().find(|(_, r)| r.issued_at == at).map(|(g, _)| g);
                    if let Some(guid) = guid {
                        let ttl = u64::from(up.gnutella.cfg.probe_ttl);
                        tracer.register(guid.0, v.index() as u64, at.as_micros(), ttl, &q.text());
                    }
                }
            }
            issued.push((v, idx));
            kernel.run_for(&mut sim, GAP);
        }
        kernel.run_for(&mut sim, drain);
    }
    // Per operation: the hybrid statistics record and the Gnutella hits of
    // the flood it started (the record issued at the same instant).
    let results: Vec<_> = {
        let _p = obs.phase("hybrid.collect");
        issued
            .iter()
            .map(|&(v, idx)| {
                let up = sim.actor::<HybridUp>(v);
                let stats = up.stats.get(idx).cloned();
                let hits = stats.as_ref().and_then(|s| {
                    up.gnutella
                        .queries()
                        .find(|(_, r)| r.issued_at == s.issued_at)
                        .map(|(_, r)| (r.hits.clone(), r.first_hit_at))
                });
                (stats, hits)
            })
            .collect()
    };
    drop(run);
    let run_s = t1.elapsed().as_secs_f64();
    let setup_s = (t1 - t0).as_secs_f64();

    let oracle = ReplicaOracle::new(&catalog);
    let leaf_index: HashMap<NodeId, u32> =
        deployment.leaves.iter().enumerate().map(|(j, &id)| (id, j as u32)).collect();
    let truths: Vec<_> = trace.queries.iter().map(|q| oracle.truth(&q.terms)).collect();
    let mut sim_out = SimOutcome::default();
    for (i, (stats, hits)) in results.iter().enumerate() {
        let q = &trace.queries[i % QUERIES];
        let truth = &truths[i % QUERIES];
        let (Some(stats), Some((hits, gnutella_first))) = (stats, hits) else {
            sim_out.tally(Op {
                status: Status::Missing,
                goal: truth.instances,
                verdicts: vec![],
                first_result_s: None,
            });
            continue;
        };
        let indexable = policy::filter_indexable(&q.terms);
        let mut seen = HashSet::new();
        let mut verdicts: Vec<Verdict> = Vec::new();
        for h in hits {
            if seen.insert((h.file.name.to_string(), h.host)) {
                verdicts.push(oracle.verdict(
                    truth,
                    None,
                    &h.file.name,
                    leaf_index.get(&h.host).copied(),
                ));
            }
        }
        for item in &stats.pier_items {
            if seen.insert((item.filename.clone(), item.host)) {
                let host = leaf_index.get(&item.host).copied();
                verdicts.push(oracle.verdict(truth, Some(&indexable), &item.filename, host));
            }
        }
        let first = [*gnutella_first, stats.pier_first].into_iter().flatten().min();
        sim_out.tally(Op {
            status: if stats.done { Status::Done } else { Status::Unfinished },
            goal: truth.instances,
            verdicts,
            first_result_s: first.map(|t| (t - stats.issued_at).as_secs_f64()),
        });
    }

    let mut counts = BTreeMap::new();
    let delta = kernel.finish(&sim, &start, &mut counts);
    layers::protocol_counts(&delta, &mut counts);
    counts.insert("dht.lookup_hops.p50", layers::lookup_hops_p50(&mut sim));
    let (mut fallbacks, mut rescued, mut published) = (0u64, 0u64, 0u64);
    for &id in &deployment.hybrid_ups {
        let up = sim.actor::<HybridUp>(id);
        published += up.files_published;
        for s in up.stats.iter().filter(|s| s.pier_issued_at.is_some()) {
            fallbacks += 1;
            rescued += u64::from(!s.pier_items.is_empty());
        }
    }
    counts.insert("hybrid.fallbacks", fallbacks as f64);
    counts.insert("hybrid.rescue_ratio", rescued as f64 / fallbacks.max(1) as f64);
    counts.insert("hybrid.qrs_published", published as f64);
    if obs.profiler.is_some() {
        counts.insert("pier.shj_ns_per_tuple", micro::shj_ns_per_tuple(&catalog, &trace.queries));
    }
    Rep { setup_s, run_s, shards, sim: sim_out.finish(delta.total_bytes), counts, obs: obs.clone() }
}

/// Renumber the ultrapeers so that the first `HYBRID_UPS` (the ones
/// `deploy::spawn` upgrades) are two rounds of `NEW_STYLE_PER_ROUND`
/// new-style and the rest old-style ultrapeers, each picked evenly over its
/// profile. A fixed profile mix keeps flood reach from depending on which
/// profiles a seed's topology puts first. The graph itself is unchanged.
fn hybrid_first(topo: Topology) -> Topology {
    let n = topo.ultrapeer_count();
    let (new, old): (Vec<usize>, Vec<usize>) =
        (0..n).partition(|&i| topo.up_profiles[i].up_neighbors >= 32);
    let per_round = HYBRID_UPS / 2;
    let spaced = |set: &[usize], k: usize| -> Vec<usize> {
        (0..k).map(|j| set[j * set.len() / k]).collect()
    };
    let picked_new = spaced(&new, 2 * NEW_STYLE_PER_ROUND);
    let picked_old = spaced(&old, 2 * (per_round - NEW_STYLE_PER_ROUND));
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for round in 0..2 {
        let (a, b) = (NEW_STYLE_PER_ROUND, per_round - NEW_STYLE_PER_ROUND);
        order.extend(&picked_new[round * a..(round + 1) * a]);
        order.extend(&picked_old[round * b..(round + 1) * b]);
    }
    let mut chosen = vec![false; n];
    order.iter().for_each(|&i| chosen[i] = true);
    order.extend((0..n).filter(|&i| !chosen[i]));
    // `order[new] = old`; edges and leaf homes need `old -> new`.
    let mut renumber = vec![0; n];
    for (new_ix, &old_ix) in order.iter().enumerate() {
        renumber[old_ix] = new_ix;
    }
    Topology {
        up_profiles: order.iter().map(|&i| topo.up_profiles[i].clone()).collect(),
        up_edges: topo.up_edges.iter().map(|&(a, b)| (renumber[a], renumber[b])).collect(),
        leaf_homes: topo
            .leaf_homes
            .iter()
            .map(|homes| homes.iter().map(|&u| renumber[u]).collect())
            .collect(),
    }
}

//! `churn`: PIERSearch over a churning DHT, with no Gnutella.
//!
//! 288 PIERSearch nodes form a warm DHT; 16 of them are stable publishers
//! and the other 272 cycle through lognormal sessions (150 s median
//! lifetime, 60 s median downtime) over a 420 s window driven by
//! `ChurnDriver`. The session schedule is fixed content, like the catalog;
//! the seed draws latencies and every protocol choice. Inside the window the publishers first publish 800
//! catalog files (`IndexMode::Inverted`, soft state refreshed every 30 s),
//! then issue two-keyword searches from the catalog's query trace at 2 per
//! simulated second; each runs PIER's symmetric hash join over the
//! keywords' posting lists. After the window an always-up probe node
//! fetches the Item tuple of every fourth file. DHT, codec and PIER dominate here; a
//! flooding change must not move this workload. One kernel shard.

use crate::check::{Op, SimOutcome, Status, Verdict};
use crate::layers::{self, Kernel};
use crate::micro;
use crate::report::Rep;
use pier_churn::{ChurnDriver, ChurnPlan, LifetimeDist, SessionConfig};
use pier_dht::{bootstrap, Contact, DhtApp, DhtConfig, DhtCore, DhtEvent, DhtNet, DhtNode, OpId};
use pier_netsim::{derive_seed, NodeId, Sim, SimConfig, SimDuration, SimTime, UniformLatency};
use pier_qp::{Tuple, Value};
use pier_trace::Obs;
use pier_vocab::policy;
use pier_workload::{Catalog, CatalogConfig, Evaluator, Query, QueryConfig, QueryTrace};
use piersearch::{item_table, IndexMode, ItemRecord, PierSearchApp, PierSearchNode};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

const NODES: usize = 288;
const PUBLISHERS: usize = 16;
const FILES: usize = 800;
const SEARCHES: usize = 600;
const WINDOW: SimDuration = SimDuration::from_secs(420);
const PUBLISH_GAP: SimDuration = SimDuration::from_millis(80);
const SEARCH_GAP: SimDuration = SimDuration::from_millis(500);
const GET_GAP: SimDuration = SimDuration::from_millis(60);
/// The end-of-run reads fetch every `GET_EVERY`-th file.
const GET_EVERY: usize = 4;
const DRAIN: SimDuration = SimDuration::from_secs(45);
const PORT: u16 = 6346;

/// The always-up probe: a plain DHT participant recording when each `get`
/// completed.
#[derive(Default)]
struct Probe {
    done: Vec<(SimTime, OpId, Vec<Vec<u8>>)>,
}

impl DhtApp for Probe {
    fn on_event(&mut self, _dht: &mut DhtCore, net: &mut dyn DhtNet, event: DhtEvent) {
        if let DhtEvent::GetDone { op, values, .. } = event {
            self.done.push((net.now(), op, values));
        }
    }
}

pub fn rep(seed: u64, shards: usize, obs: &Obs) -> Rep {
    let t0 = Instant::now();
    let setup = obs.phase("bench.setup");
    let dht_cfg = DhtConfig {
        k: 8,
        alpha: 3,
        replication: 2,
        rpc_timeout: SimDuration::from_millis(900),
        value_ttl: SimDuration::from_secs(900),
        tick: SimDuration::from_millis(250),
        bucket_refresh: SimDuration::from_secs(30),
        ..DhtConfig::default()
    };
    // Warm routing tables for the overlay plus the probe (the last node).
    let cores: Vec<DhtCore> = {
        let _p = obs.phase("build.topology");
        let contacts: Vec<Contact> =
            (0..=NODES as u32).map(|i| Contact::for_node(NodeId::new(i))).collect();
        contacts
            .iter()
            .map(|&c| {
                let mut core = DhtCore::new(dht_cfg.clone(), c);
                bootstrap::fill_table(core.table_mut(), &contacts, 4);
                core
            })
            .collect()
    };
    let catalog = {
        let _p = obs.phase("workload.catalog");
        Catalog::generate(CatalogConfig {
            hosts: FILES,
            distinct_files: FILES,
            max_replicas: 4,
            vocab: 2 * FILES,
            phrases: FILES,
            seed: derive_seed(crate::CONTENT_SEED, 2),
            ..Default::default()
        })
    };
    let searches: Vec<Query> = {
        let _p = obs.phase("workload.query_trace");
        let trace = QueryTrace::generate(
            &catalog,
            QueryConfig {
                queries: SEARCHES,
                terms_min: 2,
                terms_max: 2,
                popular_bias: 0.0,
                seed: derive_seed(crate::CONTENT_SEED, 3),
                ..Default::default()
            },
        );
        // A query with no indexable term cannot be planned at all; it is
        // not an operation PIERSearch accepts.
        trace
            .queries
            .into_iter()
            .filter(|q| !policy::filter_indexable(&q.terms).is_empty())
            .collect()
    };
    let mut sim: Sim<pier_dht::DhtMsg> = Sim::new(
        SimConfig::with_seed(derive_seed(seed, 4))
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(80),
            ))
            .shards(shards),
    );
    let (ids, probe) = {
        let _p = obs.phase("build.spawn");
        let mut cores = cores;
        let probe_core = cores.pop().expect("the probe's core");
        let ids: Vec<NodeId> = cores
            .into_iter()
            .map(|core| {
                let mut app = PierSearchApp::new(IndexMode::Inverted);
                app.publisher.refresh_interval = Some(SimDuration::from_secs(30));
                sim.add_node(DhtNode::new(core, app, None))
            })
            .collect();
        (ids, sim.add_node(DhtNode::new(probe_core, Probe::default(), None)))
    };
    let mut kernel = Kernel::new(obs);
    {
        let _p = obs.phase("build.warmup");
        sim.run_for(SimDuration::from_secs(5));
    }
    let handle = obs.trace_handle();
    if handle.is_active() {
        let _p = obs.phase("trace.attach");
        for &id in &ids {
            sim.actor_mut::<PierSearchNode>(id).core.set_trace(handle.clone());
        }
    }
    // The membership trace is content, like the catalog: one fixed
    // schedule, so that recall compares across seeds.
    let window_end = sim.now() + WINDOW;
    let mut driver = {
        let _p = obs.phase("churn.plan");
        ChurnDriver::plan(
            &ids[PUBLISHERS..],
            &ChurnPlan {
                session: SessionConfig {
                    lifetime: LifetimeDist::LogNormal { median_s: 150.0, sigma: 1.0 },
                    downtime: LifetimeDist::LogNormal { median_s: 60.0, sigma: 0.75 },
                    stagger_first_session: true,
                },
                start: sim.now(),
                horizon: WINDOW,
                seed: derive_seed(crate::CONTENT_SEED, 5),
            },
        )
    };
    drop(setup);

    let t1 = Instant::now();
    let run = obs.phase("bench.run");
    let start = kernel.mark(&mut sim);
    let mut advance = |sim: &mut Sim<_>, d: SimDuration| {
        let _p = obs.phase("churn.advance");
        let until = sim.now() + d;
        driver.advance(sim, until, &mut ());
    };

    // Writes: every file, from its publisher, while the fabric churns.
    let publisher_of = |i: usize| ids[i % PUBLISHERS];
    let mut published: Vec<bool> = Vec::with_capacity(FILES);
    {
        let _p = obs.phase("piersearch.publish");
        for (i, file) in catalog.files.iter().enumerate() {
            let ok = sim.with_actor_ctx::<PierSearchNode, _>(publisher_of(i), |node, ctx| {
                let mut net = pier_dht::CtxNet { ctx };
                let host = net.ctx.self_id();
                let size = 1_000 + i as u64;
                let app = &mut node.app;
                app.publisher.publish_file(
                    &mut app.pier,
                    &mut node.core,
                    &mut net,
                    &file.name,
                    size,
                    host,
                    PORT,
                )
            });
            published.push(ok.is_some());
            advance(&mut sim, PUBLISH_GAP);
        }
    }
    // Reads: keyword searches from the publishers at a fixed rate.
    let sampled = pier_trace::sample_indices(searches.len(), obs.trace_queries);
    let mut search_ids: Vec<(NodeId, Option<u32>)> = Vec::with_capacity(searches.len());
    for (i, q) in searches.iter().enumerate() {
        let from = publisher_of(i);
        let traced = match &obs.tracer {
            Some(tracer) if sampled.binary_search(&i).is_ok() => {
                let guid = (1u64 << 63) | i as u64;
                Some(tracer.register(
                    guid,
                    from.index() as u64,
                    sim.now().as_micros(),
                    0,
                    &q.text(),
                ))
            }
            _ => None,
        };
        let sid = {
            let _p = obs.phase("piersearch.start_search");
            sim.with_actor_ctx::<PierSearchNode, _>(from, |node, ctx| {
                let mut net = pier_dht::CtxNet { ctx };
                if let Some(t) = traced {
                    node.core.trace_scope(t);
                }
                let app = &mut node.app;
                let sid = app.engine.start_search(
                    &mut app.pier,
                    &mut node.core,
                    &mut net,
                    q.terms.clone(),
                );
                node.core.clear_trace_scope();
                sid
            })
        };
        search_ids.push((from, sid));
        advance(&mut sim, SEARCH_GAP);
    }
    let rest = window_end.since(sim.now());
    advance(&mut sim, rest);
    let transitions = driver.events().len() - driver.remaining();

    // End-of-run reads: the Item tuples of every `GET_EVERY`-th file,
    // fetched through the probe.
    let item = item_table();
    let mut gets: Vec<(usize, OpId, SimTime)> = Vec::with_capacity(FILES / GET_EVERY);
    for i in (0..FILES).step_by(GET_EVERY) {
        let id =
            piersearch::file_id(&catalog.files[i].name, 1_000 + i as u64, publisher_of(i), PORT);
        let key = item.publish_key_for(&Value::Key(id));
        let op = {
            let _p = obs.phase("dht.get");
            sim.with_actor_ctx::<DhtNode<Probe>, _>(probe, |node, ctx| {
                let mut net = pier_dht::CtxNet { ctx };
                node.core.get(&mut net, key)
            })
        };
        gets.push((i, op, sim.now()));
        kernel.run_for(&mut sim, GET_GAP);
    }
    kernel.run_for(&mut sim, DRAIN);
    let (search_states, get_done) = {
        let _p = obs.phase("piersearch.collect");
        let states: Vec<_> = search_ids
            .iter()
            .map(|&(from, sid)| {
                let engine = &sim.actor::<PierSearchNode>(from).app.engine;
                sid.and_then(|s| engine.search(s)).map(|s| {
                    (
                        s.done,
                        s.items.clone(),
                        s.first_result_at.map(|t| (t - s.issued_at).as_secs_f64()),
                    )
                })
            })
            .collect();
        let done: HashMap<OpId, (SimTime, Vec<Vec<u8>>)> = sim
            .actor::<DhtNode<Probe>>(probe)
            .app
            .done
            .iter()
            .map(|(t, op, v)| (*op, (*t, v.clone())))
            .collect();
        (states, done)
    };
    drop(run);
    let run_s = t1.elapsed().as_secs_f64();
    let setup_s = (t1 - t0).as_secs_f64();

    // Ground truth: each file is published once, by its publisher, and a
    // search matches the files carrying every indexable query term.
    let eval = Evaluator::new(&catalog);
    let by_name: HashMap<&str, usize> =
        catalog.files.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect();
    let mut sim_out = SimOutcome::default();
    for ok in &published {
        let status = if *ok { Status::Done } else { Status::Missing };
        sim_out.tally(Op { status, goal: 0, verdicts: vec![], first_result_s: None });
    }
    for (q, state) in searches.iter().zip(&search_states) {
        let truth = eval.eval(&Query { terms: policy::filter_indexable(&q.terms) });
        let goal = truth.files.len() as u64;
        let Some((done, items, first)) = state else {
            sim_out.tally(Op {
                status: Status::Missing,
                goal,
                verdicts: vec![],
                first_result_s: None,
            });
            continue;
        };
        let mut seen = HashSet::new();
        let verdicts = items
            .iter()
            .filter(|it| seen.insert((it.filename.clone(), it.host)))
            .map(|it| match by_name.get(it.filename.as_str()) {
                Some(&f)
                    if it.host == publisher_of(f)
                        && truth.files.binary_search(&(f as u32)).is_ok() =>
                {
                    Verdict::Goal
                }
                _ => Verdict::Invalid,
            })
            .collect();
        let status = if *done { Status::Done } else { Status::Unfinished };
        sim_out.tally(Op { status, goal, verdicts, first_result_s: *first });
    }
    for (i, op, issued) in &gets {
        let Some((at, values)) = get_done.get(op) else {
            sim_out.tally(Op {
                status: Status::Unfinished,
                goal: 1,
                verdicts: vec![],
                first_result_s: None,
            });
            continue;
        };
        let want =
            ItemRecord::new(&catalog.files[*i].name, 1_000 + *i as u64, publisher_of(*i), PORT);
        let distinct: HashSet<&Vec<u8>> = values.iter().collect();
        let verdicts: Vec<Verdict> = distinct
            .into_iter()
            .map(|v| {
                let got = Tuple::decode(v).ok().and_then(|t| ItemRecord::from_tuple(&t));
                if got.as_ref() == Some(&want) {
                    Verdict::Goal
                } else {
                    Verdict::Invalid
                }
            })
            .collect();
        let first = (!verdicts.is_empty()).then(|| (*at - *issued).as_secs_f64());
        sim_out.tally(Op { status: Status::Done, goal: 1, verdicts, first_result_s: first });
    }

    let mut counts = BTreeMap::new();
    let delta = kernel.finish(&sim, &start, &mut counts);
    layers::protocol_counts(&delta, &mut counts);
    counts.insert("dht.lookup_hops.p50", layers::lookup_hops_p50(&mut sim));
    counts.insert("churn.transitions", transitions as f64);
    if obs.profiler.is_some() {
        counts.insert("pier.shj_ns_per_tuple", micro::shj_ns_per_tuple(&catalog, &searches));
    }
    Rep { setup_s, run_s, shards, sim: sim_out.finish(delta.total_bytes), counts, obs: obs.clone() }
}

//! The query-flood hot-path microbenchmark behind the `flood_perf`
//! acceptance test.
//!
//! One "hop" is the per-ultrapeer unit of work a flooded query pays at
//! every relay: duplicate-GUID check, local-share matching, last-hop QRP
//! checks over the leaves, relaying to the other neighbors, and the
//! matching work at each QRP-admitted leaf. The workload is drawn from the
//! sparse-preset catalog/trace (`Scale::Sparse` magnitudes: an old-style
//! 6-neighbor ultrapeer with its 4 single-homed leaves, queries from a
//! calibrated trace). Simulated time advances one second per hop and the
//! maintenance tick runs periodically, so the seen-GUID table stays at its
//! steady-state size exactly as in a live network.
//!
//! Two implementations run the identical hop:
//!
//! * **interned** — the real cores: [`Terms`] payloads (`Arc` clone per
//!   relay), sorted-`TermId`-slice matching, QRP checks on hashes cached
//!   in the payload;
//! * **legacy** — the pre-interning data plane, reconstructed here as the
//!   comparison baseline: `String` payloads cloned per neighbor, a
//!   tokenizer run per hop, per-file `HashSet<String>` matching, Bloom
//!   filters that re-hash term bytes on every check, and per-hit
//!   `FileMeta` clones into the reply — faithfully rebuilding the same
//!   messages the old cores built.

use pier_gnutella::{
    FileMeta, FileStore, GnutellaMsg, GnutellaNet, Guid, LeafConfig, LeafCore, QrpFilter, Terms,
    UltrapeerConfig, UltrapeerCore,
};
use pier_netsim::{split_mix64, stream_rng, MetricClass, NodeId, SimDuration, SimRng, SimTime};
use pier_workload::{Catalog, CatalogConfig, QueryConfig, QueryTrace};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Sparse-preset magnitudes: 2,560 single-homed leaves over 640 ultrapeers
/// (4 leaves each), 85% old-style (6-neighbor) profiles.
const NEIGHBORS: usize = 6;
const LEAVES: usize = 4;
const QUERIES: usize = 512;

/// Run the maintenance sweep (seen-table expiry) every this many hops.
const TICK_EVERY: u64 = 256;

const UP_ID: u32 = 1_000;
const NEIGHBOR_BASE: u32 = 2_000;
const LEAF_BASE: u32 = 3_000;

/// The benchmark workload: sparse-scale leaf shares and trace queries, in
/// both representations.
pub struct FloodWorkload {
    pub leaf_shares: Vec<Vec<FileMeta>>,
    pub queries_terms: Vec<Terms>,
    pub queries_text: Vec<String>,
}

/// Generate the workload from the sparse-preset catalog parameters (the
/// same derivation `Lab::build` applies to `LabConfig::at(Sparse)`).
pub fn sparse_workload() -> FloodWorkload {
    let leaves = 2_560usize;
    let distinct_files = 8_000usize;
    let catalog = Catalog::generate(CatalogConfig {
        hosts: leaves,
        distinct_files,
        max_replicas: leaves / 10,
        vocab: distinct_files / 3,
        phrases: distinct_files / 8,
        seed: 0xF10D ^ 0xCAFE,
        ..Default::default()
    });
    let trace = QueryTrace::generate(
        &catalog,
        QueryConfig { queries: QUERIES, seed: 0xF10D ^ 0xBEEF, ..Default::default() },
    );
    let leaf_shares: Vec<Vec<FileMeta>> = (0..LEAVES)
        .map(|h| {
            catalog.host_files[h]
                .iter()
                .map(|&fi| FileMeta::new(&catalog.files[fi as usize].name, 1_000_000 + fi as u64))
                .collect()
        })
        .collect();
    let queries_terms: Vec<Terms> =
        trace.queries.iter().map(|q| Terms::from_ids(q.terms.clone())).collect();
    let queries_text: Vec<String> = trace.queries.iter().map(|q| q.text()).collect();
    FloodWorkload { leaf_shares, queries_terms, queries_text }
}

/// Median-of-5 ns/op; each round runs on a freshly built fixture (`op`
/// includes the build, amortized over `iters` hops).
fn measure(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        op(iters);
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[2]
}

// ---------------------------------------------------------------------------
// Interned hop: the real cores
// ---------------------------------------------------------------------------

/// A sink network: collects sends and accounts wire sizes exactly like the
/// simulator's `CtxGnutellaNet` shim (one `wire_size()` + `class()` call
/// per message — part of the hot path being measured).
struct SinkNet {
    now: SimTime,
    me: NodeId,
    rng: SimRng,
    sent: Vec<(NodeId, GnutellaMsg)>,
    bytes: u64,
    /// Set when a `LeafForward` was sent, so the driver only pays the
    /// delivery scan on admitted hops (mirroring the simulator, which
    /// routes by destination and never scans).
    forwarded: bool,
}

impl SinkNet {
    fn new(me: u32) -> Self {
        SinkNet {
            now: SimTime::ZERO,
            me: NodeId::new(me),
            rng: stream_rng(7, me as u64),
            sent: Vec::new(),
            bytes: 0,
            forwarded: false,
        }
    }
}

impl GnutellaNet for SinkNet {
    fn now(&self) -> SimTime {
        self.now
    }
    fn self_node(&self) -> NodeId {
        self.me
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn send(&mut self, dst: NodeId, msg: GnutellaMsg) {
        self.bytes += msg.wire_size() as u64;
        let _ = msg.class();
        self.forwarded |= matches!(msg, GnutellaMsg::LeafForward { .. });
        self.sent.push((dst, msg));
    }
    fn count(&mut self, _class: MetricClass, _n: u64) {}
    fn observe(&mut self, _class: MetricClass, _value: f64) {}
}

struct InternedFixture {
    up: UltrapeerCore,
    /// Each leaf with its own network shim, so `Hit::host` is the real
    /// leaf id and the leaves don't share the ultrapeer's RNG stream.
    leaves: Vec<(NodeId, LeafCore, SinkNet)>,
}

fn build_interned(w: &FloodWorkload) -> InternedFixture {
    let mut up = UltrapeerCore::new(UltrapeerConfig::old_style(), FileStore::default());
    up.set_neighbors((0..NEIGHBORS as u32).map(|i| NodeId::new(NEIGHBOR_BASE + i)).collect());
    let mut net = SinkNet::new(UP_ID);
    let mut leaves = Vec::new();
    for (i, share) in w.leaf_shares.iter().enumerate() {
        let leaf_id = NodeId::new(LEAF_BASE + i as u32);
        up.add_leaf(leaf_id);
        let leaf = LeafCore::new(LeafConfig::default(), FileStore::new(share.clone()));
        let mut filter = QrpFilter::with_defaults();
        filter.insert_ids(leaf.store().all_tokens());
        up.on_message(&mut net, leaf_id, GnutellaMsg::QrpUpdate { filter: Box::new(filter) });
        leaves.push((leaf_id, leaf, SinkNet::new(LEAF_BASE + i as u32)));
    }
    InternedFixture { up, leaves }
}

/// ns per hop through the real (interned) cores.
fn bench_interned(w: &FloodWorkload, iters: u64) -> f64 {
    measure(iters, |n| {
        let mut fix = build_interned(w);
        let mut net = SinkNet::new(UP_ID);
        let mut guid = 0x1_0000_0000u64;
        let mut forwards: Vec<(NodeId, GnutellaMsg)> = Vec::new();
        for i in 0..n {
            guid += 1;
            net.now += SimDuration::from_secs(1);
            let q = w.queries_terms[(i % QUERIES as u64) as usize].clone();
            let from = NodeId::new(NEIGHBOR_BASE);
            fix.up.on_message(
                &mut net,
                from,
                GnutellaMsg::Query { guid: Guid(guid), ttl: 2, hops: 1, terms: q },
            );
            // Deliver last-hop forwards to the admitted leaves (rare).
            if net.forwarded {
                net.forwarded = false;
                for (dst, msg) in net.sent.drain(..) {
                    if matches!(msg, GnutellaMsg::LeafForward { .. }) {
                        forwards.push((dst, msg));
                    }
                }
                for (dst, msg) in forwards.drain(..) {
                    let (_, leaf, leaf_net) =
                        fix.leaves.iter_mut().find(|(id, _, _)| *id == dst).expect("known leaf");
                    leaf.on_message(leaf_net, NodeId::new(UP_ID), msg);
                    leaf_net.sent.clear();
                }
            }
            net.sent.clear();
            // Steady-state maintenance: expire old seen-GUID entries.
            if i % TICK_EVERY == 0 {
                fix.up.tick(&mut net);
                net.sent.clear();
            }
        }
        let leaf_bytes: u64 = fix.leaves.iter().map(|(_, _, n)| n.bytes).sum();
        black_box(net.bytes + leaf_bytes);
    })
}

// ---------------------------------------------------------------------------
// Legacy hop: the pre-interning data plane, reconstructed
// ---------------------------------------------------------------------------

/// The old tokenizer (`gnutella::files::tokenize` before interning).
fn legacy_tokenize(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in name.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The messages the old data plane shipped (string payloads, cloned hits).
enum LegacyMsg {
    Query { _guid: u64, _ttl: u8, _hops: u8, terms: String },
    LeafForward { _guid: u64, terms: String },
    LeafHits { _guid: u64, hits: Vec<(FileMeta, NodeId)> },
}

impl LegacyMsg {
    /// The old `wire_size`: walks the string payloads.
    fn wire_size(&self) -> usize {
        match self {
            LegacyMsg::Query { terms, .. } => 23 + 2 + terms.len() + 1,
            LegacyMsg::LeafForward { terms, .. } => 23 + 2 + terms.len() + 1,
            LegacyMsg::LeafHits { hits, .. } => {
                23 + 11 + hits.iter().map(|(f, _)| 8 + f.name.len() + 2).sum::<usize>()
            }
        }
    }
}

/// The old QRP filter: re-hashes term bytes on every insert/contains.
struct LegacyQrp {
    bits: Vec<u64>,
    m: u32,
    k: u32,
}

impl LegacyQrp {
    fn with_defaults() -> Self {
        LegacyQrp { bits: vec![0; 65_536 / 64], m: 65_536, k: 2 }
    }

    fn positions(&self, term: &str) -> impl Iterator<Item = u32> + '_ {
        let mut state = 0xF11E_D00D_u64;
        for b in term.as_bytes() {
            state = state.rotate_left(8) ^ (*b as u64);
            split_mix64(&mut state);
        }
        let h1 = split_mix64(&mut state);
        let h2 = split_mix64(&mut state) | 1;
        let m = self.m as u64;
        (0..self.k).map(move |i| ((h1.wrapping_add(h2.wrapping_mul(i as u64))) % m) as u32)
    }

    fn insert(&mut self, term: &str) {
        let positions: Vec<u32> = self.positions(term).collect();
        for p in positions {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    fn matches_all(&self, terms: &[String]) -> bool {
        !terms.is_empty()
            && terms.iter().all(|t| {
                self.positions(t).all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
            })
    }
}

/// The old `FileStore`: per-file `HashSet<String>` token sets.
struct LegacyStore {
    files: Vec<FileMeta>,
    token_sets: Vec<HashSet<String>>,
}

impl LegacyStore {
    fn new(files: Vec<FileMeta>) -> Self {
        let token_sets =
            files.iter().map(|f| legacy_tokenize(&f.name).into_iter().collect()).collect();
        LegacyStore { files, token_sets }
    }

    fn matching(&self, query: &str) -> Vec<&FileMeta> {
        let terms = legacy_tokenize(query);
        if terms.is_empty() {
            return Vec::new();
        }
        self.files
            .iter()
            .zip(&self.token_sets)
            .filter(|(_, tokens)| terms.iter().all(|t| tokens.contains(t)))
            .map(|(f, _)| f)
            .collect()
    }
}

struct LegacyFixture {
    neighbors: Vec<NodeId>,
    up_store: LegacyStore,
    leaves: Vec<(NodeId, LegacyQrp, LegacyStore)>,
    seen: HashMap<u64, (NodeId, SimTime)>,
}

fn build_legacy(w: &FloodWorkload) -> LegacyFixture {
    let leaves = w
        .leaf_shares
        .iter()
        .enumerate()
        .map(|(i, share)| {
            let store = LegacyStore::new(share.clone());
            let mut qrp = LegacyQrp::with_defaults();
            let mut all: HashSet<String> = HashSet::new();
            for f in &store.files {
                all.extend(legacy_tokenize(&f.name));
            }
            for t in &all {
                qrp.insert(t);
            }
            (NodeId::new(LEAF_BASE + i as u32), qrp, store)
        })
        .collect();
    LegacyFixture {
        neighbors: (0..NEIGHBORS as u32).map(|i| NodeId::new(NEIGHBOR_BASE + i)).collect(),
        up_store: LegacyStore::new(Vec::new()),
        leaves,
        seen: HashMap::new(),
    }
}

/// ns per hop through the reconstructed legacy data plane: the identical
/// duplicate-check / match / QRP / relay / leaf-match sequence, building
/// the same messages the old cores built (string clones and all).
fn bench_legacy(w: &FloodWorkload, iters: u64) -> f64 {
    let seen_ttl = UltrapeerConfig::old_style().seen_ttl;
    measure(iters, |n| {
        let mut fix = build_legacy(w);
        let mut guid = 0x2_0000_0000u64;
        let mut now = SimTime::ZERO;
        let mut bytes = 0u64;
        let mut sent: Vec<(NodeId, LegacyMsg)> = Vec::new();
        for i in 0..n {
            guid += 1;
            now += SimDuration::from_secs(1);
            // The delivered message owns its payload: the old plane
            // materialized a `String` per delivery (`Query { terms }`),
            // where the interned plane clones an `Arc`.
            let incoming = LegacyMsg::Query {
                _guid: guid,
                _ttl: 2,
                _hops: 1,
                terms: w.queries_text[(i % QUERIES as u64) as usize].clone(),
            };
            let LegacyMsg::Query { terms, .. } = &incoming else { unreachable!() };
            let from = NodeId::new(NEIGHBOR_BASE);
            // Duplicate suppression + reverse-path entry.
            if fix.seen.contains_key(&guid) {
                continue;
            }
            fix.seen.insert(guid, (from, now));
            // Local matches against the (empty) ultrapeer share — the old
            // `handle_query` always called `matching`, which tokenized the
            // query string before touching any file.
            let own_hits = fix.up_store.matching(terms);
            debug_assert!(own_hits.is_empty());
            drop(own_hits);
            // Last-hop QRP over the leaves: a second tokenizer run + byte
            // hashing per leaf, exactly as the old core did.
            let term_list = legacy_tokenize(terms);
            for (leaf_id, qrp, store) in &fix.leaves {
                if qrp.matches_all(&term_list) {
                    // LeafForward carries its own String clone...
                    let fwd = LegacyMsg::LeafForward { _guid: guid, terms: terms.clone() };
                    bytes += fwd.wire_size() as u64;
                    sent.push((*leaf_id, fwd));
                    // ...and the leaf tokenizes again, set-matches, and
                    // clones the matching files into its reply.
                    let hits: Vec<(FileMeta, NodeId)> =
                        store.matching(terms).into_iter().map(|f| (f.clone(), *leaf_id)).collect();
                    if !hits.is_empty() {
                        let reply = LegacyMsg::LeafHits { _guid: guid, hits };
                        bytes += reply.wire_size() as u64;
                        sent.push((NodeId::new(UP_ID), reply));
                    }
                }
            }
            // Relay deeper: one String clone per other neighbor.
            for &nb in &fix.neighbors {
                if nb != from {
                    let relay =
                        LegacyMsg::Query { _guid: guid, _ttl: 1, _hops: 2, terms: terms.clone() };
                    bytes += relay.wire_size() as u64;
                    sent.push((nb, relay));
                }
            }
            sent.clear();
            // Steady-state maintenance: expire old seen-GUID entries.
            if i % TICK_EVERY == 0 {
                fix.seen.retain(|_, (_, at)| *at + seen_ttl > now);
            }
        }
        black_box(bytes);
    })
}

/// One measurement round: `(interned ns/hop, legacy ns/hop)`.
pub fn measure_pair(w: &FloodWorkload, iters: u64) -> (f64, f64) {
    (bench_interned(w, iters), bench_legacy(w, iters))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two data planes must do the same protocol work: identical
    /// forwarded-leaf sets, relay fan-out, and leaf hits for every
    /// workload query.
    #[test]
    fn interned_and_legacy_hops_agree() {
        let w = sparse_workload();
        let mut fix = build_interned(&w);
        let legacy = build_legacy(&w);
        let mut net = SinkNet::new(UP_ID);
        for (qi, q) in w.queries_terms.iter().enumerate().take(64) {
            let guid = Guid(0x9_0000 + qi as u64);
            fix.up.on_message(
                &mut net,
                NodeId::new(NEIGHBOR_BASE),
                GnutellaMsg::Query { guid, ttl: 2, hops: 1, terms: q.clone() },
            );
            let mut forwards: Vec<NodeId> = Vec::new();
            let mut relays = 0usize;
            for (dst, msg) in std::mem::take(&mut net.sent) {
                match msg {
                    GnutellaMsg::LeafForward { .. } => forwards.push(dst),
                    GnutellaMsg::Query { .. } => relays += 1,
                    _ => {}
                }
            }
            let term_list = legacy_tokenize(&w.queries_text[qi]);
            let legacy_forwards: Vec<NodeId> = legacy
                .leaves
                .iter()
                .filter(|(_, qrp, _)| qrp.matches_all(&term_list))
                .map(|(id, _, _)| *id)
                .collect();
            assert_eq!(forwards, legacy_forwards, "query {qi}: QRP admission must agree");
            assert_eq!(relays, NEIGHBORS - 1, "query {qi}: relay fan-out");
            // Matching leaves return the same hits.
            for (dst, _, store) in &legacy.leaves {
                if legacy_forwards.contains(dst) {
                    let (_, il, _) = fix.leaves.iter().find(|(id, _, _)| id == dst).expect("leaf");
                    let fast: Vec<&str> =
                        il.store().matching(q.ids()).iter().map(|f| &*f.name).collect();
                    let slow: Vec<&str> =
                        store.matching(&w.queries_text[qi]).iter().map(|f| &*f.name).collect();
                    assert_eq!(fast, slow, "query {qi}: leaf matches must agree");
                }
            }
        }
    }
}

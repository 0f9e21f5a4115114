//! QRP-plane micro-benchmark: last-hop match throughput and bytes/leaf —
//! sparse position lists vs the dense bit tables they replaced.
//!
//! The fixture is a fleet of [`UPS`] ultrapeers each holding
//! [`LEAVES_PER_UP`] leaf filters (shares drawn from a shared vocabulary
//! with heavy replication, like the Zipf catalog produces). Queries rotate
//! across the fleet the way the simulator's event loop does — no single
//! ultrapeer's tables get to stay cache-hot between its queries. That is
//! the regime the metro rung runs in: the dense plane is `8 KiB × fleet`
//! of bit tables (megabytes, past L2), while the sparse plane's summaries
//! and position lists stay cache-resident. Both planes are built from the
//! same term sets, and the benchmark asserts they forward the *same*
//! queries to the *same* leaves before timing anything.
//!
//! `crates/bench/tests/qrp_perf.rs` enforces the match-throughput and
//! bytes/leaf floors.

use pier_gnutella::{QrpFilter, QrpProbe, TermId, Terms};
use pier_netsim::{stream_rng, HeapSize, SimRng};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use std::hint::black_box;
use std::time::Instant;

/// The pre-sparse-plane filter, reconstructed for the baseline: a flat
/// `m/8`-byte bit table, probed per (query, leaf) with the positions
/// recomputed each time — exactly the layout and loop the sparse plane
/// replaced. Kept bench-local so the library carries no dead legacy path.
struct LegacyFilter {
    bits: Vec<u64>,
    m: u32,
    k: u32,
}

impl LegacyFilter {
    fn with_defaults() -> LegacyFilter {
        let m = QrpFilter::DEFAULT_BITS;
        LegacyFilter { bits: vec![0; m.div_ceil(64) as usize], m, k: QrpFilter::DEFAULT_HASHES }
    }

    fn position(&self, (h1, h2): (u64, u64), i: u32) -> u32 {
        (h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.m as u64) as u32
    }

    fn insert_ids(&mut self, ids: &[TermId]) {
        for h in pier_vocab::qrp_hashes_of(ids) {
            for i in 0..self.k {
                let p = self.position(h, i);
                self.bits[(p / 64) as usize] |= 1 << (p % 64);
            }
        }
    }

    fn matches_all(&self, terms: &Terms) -> bool {
        !terms.is_empty()
            && terms.qrp_hashes().iter().all(|&h| {
                (0..self.k).all(|i| {
                    let p = self.position(h, i);
                    self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0
                })
            })
    }

    fn heap_bytes(&self) -> usize {
        self.bits.capacity() * size_of::<u64>()
    }
}

/// Ultrapeers in the benched fleet (queries rotate across them). Sized so
/// the dense plane (`8 KiB × fleet` ≈ 268 MB) spills past any L3 the way
/// the metro rung's 8 GB of per-leaf tables would, while the sparse plane
/// (~25 MB) stays cache-resident.
pub const UPS: usize = 512;
/// Leaf filters per ultrapeer (LimeWire ultrapeers carry 30–75 leaves).
pub const LEAVES_PER_UP: usize = 64;
/// Total leaf filters in the fixture.
pub const LEAVES: usize = UPS * LEAVES_PER_UP;
/// Queries per timing pass, each matched against one ultrapeer's leaves.
pub const QUERIES: usize = 256;
/// Shared vocabulary the shares draw from.
const VOCAB: usize = 4_000;

/// One scale-free measurement of the two planes. The `_sparse` numbers
/// are the current plane (position lists + summary bitmap, one probe per
/// query); the `_dense` numbers are the reconstructed legacy plane (flat
/// bit tables, positions recomputed per pair).
#[derive(Clone, Copy, Debug)]
pub struct QrpReport {
    /// ns for one `matches_all` over one (query, leaf filter) pair.
    pub match_ns_sparse: f64,
    pub match_ns_dense: f64,
    /// Filter heap bytes per leaf on each plane.
    pub bytes_per_leaf_sparse: f64,
    pub bytes_per_leaf_dense: f64,
    /// `dense / sparse` bytes — the memory win.
    pub bytes_reduction: f64,
    /// `dense_ns / sparse_ns` on the match path — ≥ 1 means the sparse
    /// plane matches at least as fast as the dense one.
    pub match_speedup: f64,
    /// Last-hop forwards both planes produced (must agree — checked before
    /// timing).
    pub forwards: u64,
}

/// The term sets and query batch both planes are built from.
struct Workload {
    shares: Vec<Vec<TermId>>,
    queries: Vec<Terms>,
}

fn build_workload(seed: u64) -> Workload {
    let mut rng = stream_rng(seed, 0x9B);
    let vocab: Vec<TermId> =
        (0..VOCAB).map(|i| pier_vocab::intern(&format!("qrpbench_t{i}"))).collect();
    let shares: Vec<Vec<TermId>> = (0..LEAVES)
        .map(|_| {
            // Skewed share sizes: most leaves share a few dozen keywords,
            // a few share hundreds (all far below the promotion point).
            let n = 8 + rng.random_range(0usize..15).pow(2);
            let mut ids: Vec<TermId> =
                (0..n).map(|_| vocab[rng.random_range(0..vocab.len())]).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    let queries: Vec<Terms> = (0..QUERIES)
        .map(|q| {
            let n = rng.random_range(2usize..=3);
            let ids: Vec<TermId> = match q % 4 {
                // A quarter of the batch asks for terms no share holds:
                // the all-miss fast path.
                0 => (0..n)
                    .map(|_| pier_vocab::intern(&format!("qrpbench_absent_{q}_{}", rng.next_u64())))
                    .collect(),
                // Half target an actual share at the probed ultrapeer, so
                // they forward (the hit path: every probe runs to
                // completion).
                1 | 2 => {
                    let up = q % UPS;
                    let share = &shares[up * LEAVES_PER_UP + rng.random_range(0..LEAVES_PER_UP)];
                    (0..n).map(|_| share[rng.random_range(0..share.len())]).collect()
                }
                // The rest draw random vocab terms — present somewhere in
                // the network but rarely co-resident at one leaf.
                _ => (0..n).map(|_| vocab[rng.random_range(0..vocab.len())]).collect(),
            };
            Terms::from_ids(ids)
        })
        .collect();
    Workload { shares, queries }
}

/// One timing sample: ns/op over `iters` ops.
fn sample_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    op(iters);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Min-of-7 ns/op for the two planes, sampled *interleaved* (sparse,
/// legacy, sparse, legacy, …). Minimum, not median: scheduler noise on a
/// shared host only ever *adds* time, so the fastest sample is the best
/// estimate of true cost — and taking it for both planes keeps the
/// ratio honest. Interleaving makes ambient load drift into both
/// planes' sample sets alike.
fn min_ns_pair(
    iters: u64,
    mut sparse_op: impl FnMut(u64),
    mut legacy_op: impl FnMut(u64),
) -> (f64, f64) {
    let (mut s, mut l) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        s = s.min(sample_ns(iters, &mut sparse_op));
        l = l.min(sample_ns(iters, &mut legacy_op));
    }
    (s, l)
}

/// Build the match fixture with *scattered* heap layout: filters are
/// allocated in shuffled order, each behind its own box, so logically
/// adjacent filters are not heap neighbors. This is the layout the live
/// system has — interned `Arc<QrpFilter>`s reached through map nodes, in
/// whatever order churn and republish produced them — and it keeps the
/// bench's sequential `Vec` construction from gifting either plane a
/// prefetch-friendly stride the simulator never sees.
fn scatter_fixture<T>(n: usize, rng: &mut SimRng, mut make: impl FnMut(usize) -> T) -> Vec<Box<T>> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut out: Vec<Option<Box<T>>> = (0..n).map(|_| None).collect();
    for &i in &order {
        out[i] = Some(Box::new(make(i)));
    }
    out.into_iter().map(|b| b.expect("every slot filled")).collect()
}

/// Last-hop pass on the sparse plane, as the fleet now runs it: each query
/// lands at its ultrapeer (rotating across the fleet), which builds one
/// probe and tests its own leaves' filters; returns total forwards.
fn match_pass(filters: &[Box<QrpFilter>], queries: &[Terms]) -> u64 {
    let mut forwards = 0u64;
    for (q, terms) in queries.iter().enumerate() {
        let up = q % UPS;
        let probe = QrpProbe::with_defaults(terms);
        for f in &filters[up * LEAVES_PER_UP..(up + 1) * LEAVES_PER_UP] {
            if f.matches_probe(&probe) {
                forwards += 1;
            }
        }
    }
    forwards
}

/// The same pass on the legacy plane: per-pair `matches_all` against the
/// dense tables, positions recomputed every time (the pre-PR loop).
fn match_pass_legacy(filters: &[Box<LegacyFilter>], queries: &[Terms]) -> u64 {
    let mut forwards = 0u64;
    for (q, terms) in queries.iter().enumerate() {
        let up = q % UPS;
        for f in &filters[up * LEAVES_PER_UP..(up + 1) * LEAVES_PER_UP] {
            if f.matches_all(terms) {
                forwards += 1;
            }
        }
    }
    forwards
}

/// Build the fixture and measure both planes.
pub fn measure(seed: u64) -> QrpReport {
    let w = build_workload(seed);
    let mut layout_rng = stream_rng(seed, 0x9C);
    let sparse = scatter_fixture(LEAVES, &mut layout_rng, |i| {
        let mut f = QrpFilter::with_defaults();
        f.insert_ids(&w.shares[i]);
        f
    });
    let legacy = scatter_fixture(LEAVES, &mut layout_rng, |i| {
        let mut f = LegacyFilter::with_defaults();
        f.insert_ids(&w.shares[i]);
        f
    });
    assert!(sparse.iter().all(|f| f.is_sparse()), "bench shares must stay sparse");

    // Work equivalence before any timing: both planes must forward the
    // same queries to the same leaves (same bits ⇒ same false positives).
    let forwards = match_pass(&sparse, &w.queries);
    assert_eq!(forwards, match_pass_legacy(&legacy, &w.queries), "planes must forward identically");

    let pairs = (QUERIES * LEAVES_PER_UP) as u64;
    let match_rounds = 48u64;
    let (match_ns_sparse, match_ns_dense) = min_ns_pair(
        match_rounds * pairs,
        |iters| {
            for _ in 0..iters / pairs {
                black_box(match_pass(&sparse, &w.queries));
            }
        },
        |iters| {
            for _ in 0..iters / pairs {
                black_box(match_pass_legacy(&legacy, &w.queries));
            }
        },
    );

    let bytes_per_leaf_sparse =
        sparse.iter().map(|f| f.heap_bytes()).sum::<usize>() as f64 / LEAVES as f64;
    let bytes_per_leaf_dense =
        legacy.iter().map(|f| f.heap_bytes()).sum::<usize>() as f64 / LEAVES as f64;

    QrpReport {
        match_ns_sparse,
        match_ns_dense,
        bytes_per_leaf_sparse,
        bytes_per_leaf_dense,
        bytes_reduction: bytes_per_leaf_dense / bytes_per_leaf_sparse.max(1.0),
        match_speedup: match_ns_dense / match_ns_sparse.max(1e-9),
        forwards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planes_agree_and_sparse_is_smaller() {
        let w = build_workload(42);
        let mut rng = stream_rng(42, 0x9C);
        let sparse = scatter_fixture(LEAVES, &mut rng, |i| {
            let mut f = QrpFilter::with_defaults();
            f.insert_ids(&w.shares[i]);
            f
        });
        let legacy = scatter_fixture(LEAVES, &mut rng, |i| {
            let mut f = LegacyFilter::with_defaults();
            f.insert_ids(&w.shares[i]);
            f
        });
        let forwards = match_pass(&sparse, &w.queries);
        assert_eq!(forwards, match_pass_legacy(&legacy, &w.queries));
        assert!(forwards > 0, "some queries must forward");
        let sb: usize = sparse.iter().map(|f| f.heap_bytes()).sum();
        let db: usize = legacy.iter().map(|f| f.heap_bytes()).sum();
        assert!(sb * 10 < db, "sparse plane ({sb} B) must be ≥10× under legacy ({db} B)");
    }
}

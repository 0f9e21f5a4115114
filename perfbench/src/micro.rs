//! Micro-timings of single layer calls, run by traced repetitions only and
//! outside the timed set-up and run phases.

use pier_dht::{Contact, DhtMsg, Key, Request, Response};
use pier_netsim::NodeId;
use pier_qp::ops::SymmetricHashJoin;
use pier_qp::Tuple;
use pier_workload::{Catalog, Evaluator, Query};
use std::hint::black_box;
use std::time::Instant;

/// Batches per timing; the median batch is reported.
const BATCHES: usize = 7;

/// Median over `BATCHES` of the nanoseconds per item that `batch` takes
/// (`batch` returns how many items it processed).
fn ns_per_item(mut batch: impl FnMut() -> usize) -> f64 {
    let mut per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let n = batch();
            t.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[BATCHES / 2]
}

/// A fixed sample of DHT messages, one of each shape the overlay sends
/// most: lookups, stores, contact lists, value replies and routed payloads.
fn dht_sample() -> Vec<DhtMsg> {
    let contact = |i: u32| Contact::for_node(NodeId::new(i));
    let key = |s: &str| Key::hash_str(s);
    let value = |n: usize| (0..n).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>();
    vec![
        DhtMsg::Request { id: 1, from: contact(1), body: Request::Ping },
        DhtMsg::Request { id: 2, from: contact(2), body: Request::FindNode { target: key("a") } },
        DhtMsg::Request { id: 3, from: contact(3), body: Request::FindValue { key: key("b") } },
        DhtMsg::Request {
            id: 4,
            from: contact(4),
            body: Request::Store { key: key("c"), value: value(180), ttl_us: 900_000_000 },
        },
        DhtMsg::Response {
            id: 5,
            from: contact(5),
            body: Response::Nodes { contacts: (10..18).map(contact).collect() },
        },
        DhtMsg::Response {
            id: 6,
            from: contact(6),
            body: Response::Values { values: vec![value(120); 3], closer: vec![] },
        },
        DhtMsg::Route { key: key("d"), payload: value(300), hops: 2, origin: contact(7) },
        DhtMsg::RouteStore {
            key: key("e"),
            value: value(150),
            ttl_us: 900_000_000,
            hops: 1,
            origin: contact(8),
        },
    ]
}

/// Nanoseconds `DhtMsg::encoded_len` takes per message on the fixed
/// sample: every DHT send pays this to learn its wire size.
pub fn encoded_len_ns() -> f64 {
    let sample = dht_sample();
    ns_per_item(|| {
        let mut total = 0usize;
        for _ in 0..2_000 {
            for m in &sample {
                total += black_box(m).encoded_len();
            }
        }
        black_box(total);
        2_000 * sample.len()
    })
}

/// Nanoseconds per tuple of PIER's symmetric hash join, fed the posting
/// lists (`keyword, fileID` tuples) of the workload's own multi-term
/// queries: the left side is the first term's list, the right side the
/// second's, interleaved as they would arrive over the network.
pub fn shj_ns_per_tuple(catalog: &Catalog, queries: &[Query]) -> f64 {
    let eval = Evaluator::new(catalog);
    let list = |t| -> Vec<Tuple> {
        let word = pier_vocab::text(t);
        eval.posting(t)
            .unwrap_or(&[])
            .iter()
            .map(|&f| {
                let file = &catalog.files[f as usize];
                let id =
                    piersearch::file_id(&file.name, 1_000 + u64::from(f), NodeId::new(0), 6346);
                piersearch::inverted_tuple(&word, id)
            })
            .collect()
    };
    let pairs: Vec<(Vec<Tuple>, Vec<Tuple>)> = queries
        .iter()
        .filter(|q| q.terms.len() >= 2 && q.terms[0] != q.terms[1])
        .take(64)
        .map(|q| (list(q.terms[0]), list(q.terms[1])))
        .collect();
    let tuples: usize = pairs.iter().map(|(l, r)| l.len() + r.len()).sum();
    if tuples == 0 {
        return 0.0;
    }
    ns_per_item(|| {
        let mut matched = 0usize;
        for (left, right) in &pairs {
            let mut shj = SymmetricHashJoin::new(1, 1);
            let (mut l, mut r) = (left.iter(), right.iter());
            loop {
                let (a, b) = (l.next(), r.next());
                if a.is_none() && b.is_none() {
                    break;
                }
                if let Some(t) = a {
                    matched += shj.push_left(t.clone()).len();
                }
                if let Some(t) = b {
                    matched += shj.push_right(t.clone()).len();
                }
            }
        }
        black_box(matched);
        tuples
    })
}

//! Acceptance floor for the term-interning refactor: a query-flood relay
//! hop through the interned data plane (`Arc<[TermId]>` payloads, cached
//! QRP hashes, sorted-slice matching) must run at least 2× the throughput
//! of the pre-interning string plane it replaced, at sparse-preset
//! magnitudes.

use pier_bench::floodbench::{measure_pair, sparse_workload};

#[test]
fn interned_flood_hop_at_least_2x_legacy_throughput() {
    let w = sparse_workload();
    // Wall-clock comparisons on shared CI runners are noisy, so one clean
    // win out of three attempts is accepted — in practice the interned hop
    // is far beyond 2×, and a genuine regression fails all three rounds.
    let mut last = (f64::NAN, f64::NAN);
    for _ in 0..3 {
        last = measure_pair(&w, 60_000);
        let (interned_ns, legacy_ns) = last;
        if legacy_ns >= interned_ns * 2.0 {
            return;
        }
    }
    panic!(
        "interned flood hop below the 2x floor in 3/3 rounds: \
         {:.1} ns vs legacy {:.1} ns ({:.2}x)",
        last.0,
        last.1,
        last.1 / last.0
    );
}

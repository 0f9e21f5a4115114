//! The QRP plane at lab scale: building the metro-lite lab, the
//! ultrapeers' interned sparse filters (entries + their one shared
//! catalog copy) must undercut the legacy dense-table-per-entry layout
//! by ≥ 10× (`BENCH_mem.json`'s `qrp_reduction`). This is the knob that
//! unlocks the true metro rung — at 100k ultrapeers the legacy plane is
//! ~16 GB of filter tables alone.
//!
//! Lab builds need optimized code and real RAM, so the test self-skips
//! in debug builds and on low-memory hosts rather than flaking.

use pier_bench::lab::Scale;
use pier_bench::membench::measure;

/// `MemAvailable` from /proc/meminfo, in bytes (`None` off Linux).
fn available_ram() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[test]
fn metro_lite_qrp_plane_shrinks_at_least_10x() {
    if cfg!(debug_assertions) {
        eprintln!("qrp_floor: skipped (needs --release; debug build is too slow)");
        return;
    }
    const NEED: u64 = 2 << 30;
    if let Some(avail) = available_ram() {
        if avail < NEED {
            eprintln!("qrp_floor: skipped ({} MiB available < 2 GiB)", avail >> 20);
            return;
        }
    }

    let r = measure(Scale::MetroLite);
    assert!(
        r.qrp_dedup > 1.0,
        "multihomed leaves must intern identical filters ({} refs, {} unique)",
        r.qrp_refs,
        r.qrp_unique
    );
    assert!(
        r.qrp_reduction >= 10.0,
        "interned sparse plane must be ≥ 10x smaller: {} B entries + {} B catalog vs {} B legacy ({:.1}x)",
        r.up_qrp_bytes,
        r.qrp_catalog_bytes,
        r.legacy_qrp_bytes,
        r.qrp_reduction
    );
}

//! The memory-diet floor: the columnar shared-catalog layout must keep
//! leaf share state at least 3× smaller than the legacy per-leaf owned
//! layout (`MemReport::per_leaf_reduction`).
//!
//! Building even the sparse lab is slow without optimizations and needs
//! real RAM, so the test self-skips in debug builds and on low-memory
//! hosts rather than flaking.

use pier_bench::lab::Scale;
use pier_bench::membench::{available_ram, measure};

#[test]
fn leaf_share_state_shrinks_at_least_3x() {
    if cfg!(debug_assertions) {
        eprintln!("mem_floor: skipped (needs --release; debug build is too slow)");
        return;
    }
    const NEED: u64 = 2 << 30; // sparse lab peaks well under 2 GiB
    if let Some(avail) = available_ram() {
        if avail < NEED {
            eprintln!("mem_floor: skipped ({} MiB available < 2 GiB)", avail >> 20);
            return;
        }
    }

    let r = measure(Scale::Sparse);
    assert!(
        r.per_leaf_reduction >= 3.0,
        "leaf share state must be ≥ 3x smaller per leaf: columnar {} B vs legacy {} B ({:.2}x)",
        r.share_bytes,
        r.legacy_share_bytes,
        r.per_leaf_reduction
    );
    // The one shared catalog copy must not eat the win: even charging it
    // entirely against the diet, the new layout stays strictly smaller.
    assert!(
        r.share_reduction > 1.0,
        "catalog + views ({} B) must undercut legacy ({} B)",
        r.share_bytes + r.catalog_bytes,
        r.legacy_share_bytes
    );
}

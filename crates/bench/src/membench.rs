//! Memory accounting for a built lab: bytes/node by subsystem, plus the
//! before/after comparisons for leaf share state (the shared-catalog diet)
//! and the QRP filter plane (sparse interned filters vs per-leaf dense
//! tables).
//!
//! The `mem_bench` bin drives this per scale and writes `BENCH_mem.json`;
//! `crates/bench/tests/mem_floor.rs` enforces the ≥ 3× share-state floor
//! and `crates/bench/tests/qrp_floor.rs` the ≥ 10× QRP-plane floor.

use crate::lab::{Lab, LabConfig, Scale, DEFAULT_SEED};
use pier_gnutella::{LeafNode, QrpFilter, UltrapeerNode};
use pier_netsim::HeapSize;

/// One scale's memory measurements.
pub struct MemReport {
    pub scale: Scale,
    pub nodes: usize,
    /// (subsystem label, total bytes across all nodes).
    pub by_subsystem: Vec<(&'static str, u64)>,
    pub kernel_bytes: u64,
    pub total_bytes: u64,
    pub bytes_per_node: f64,
    /// The one process-wide catalog copy (metas + names + token arena).
    pub catalog_bytes: u64,
    /// Per-leaf share state under the columnar layout (`Box<[FileId]>`
    /// views + per-leaf QRP token unions), summed across leaves.
    pub share_bytes: u64,
    /// What the same shares cost under the pre-catalog layout (every leaf
    /// owning its `FileMeta`s, names, and token lists).
    pub legacy_share_bytes: u64,
    /// `legacy / (columnar + catalog)` — the whole-process reduction,
    /// counting the one shared catalog copy against the diet. Grows with
    /// replication (more leaves per distinct file amortize the catalog).
    pub share_reduction: f64,
    /// `legacy / columnar` on per-leaf state alone — the bytes/node
    /// reduction on leaf share state (the floor-tested headline).
    pub per_leaf_reduction: f64,
    /// QRP filter references held at ultrapeers (one per published leaf
    /// filter; each is an `Arc` into the process-wide filter catalog).
    pub qrp_refs: u64,
    /// Distinct live filters in the process-wide QRP catalog.
    pub qrp_unique: u64,
    /// Bytes of the one copy of each distinct filter (catalog side).
    pub qrp_catalog_bytes: u64,
    /// Per-entry map bytes at the ultrapeers (the `up.qrp` subsystem).
    pub up_qrp_bytes: u64,
    /// What the same references cost before this plane: one dense 8 KiB
    /// bit table owned per reference, plus the same map entries.
    pub legacy_qrp_bytes: u64,
    /// `refs / unique` — how many ultrapeer entries each distinct filter
    /// serves (the interning win).
    pub qrp_dedup: f64,
    /// `legacy / (entries + catalog)` — the QRP-plane reduction
    /// (floor-tested ≥ 10× at metro-lite).
    pub qrp_reduction: f64,
}

/// Build the lab for `scale` and account its memory. Builds (and drops)
/// the full simulation, so metro-scale calls need metro-scale RAM.
pub fn measure(scale: Scale) -> MemReport {
    let lab = Lab::build(LabConfig::at(scale, DEFAULT_SEED));
    let stats = lab.sim.mem_stats();
    let legacy_share_bytes: u64 = lab
        .handles
        .leaves
        .iter()
        .map(|&id| lab.sim.actor::<LeafNode>(id).core.store().legacy_heap_bytes() as u64)
        .sum();
    let share_bytes = stats.subsystems.get("leaf.share");
    let catalog_bytes = lab.share_catalog.heap_bytes() as u64;
    let share_reduction = legacy_share_bytes as f64 / (share_bytes + catalog_bytes).max(1) as f64;
    let per_leaf_reduction = legacy_share_bytes as f64 / share_bytes.max(1) as f64;

    // The QRP plane. `qrp_catalog::stats()` is process-wide; this lab is
    // the only live one at measurement time, so its live filters are (at
    // least) this lab's. The legacy baseline is what the pre-sparse plane
    // held: one dense `m/8`-byte table owned per ultrapeer leaf entry.
    let qrp_refs: u64 = lab
        .handles
        .ups
        .iter()
        .map(|&id| lab.sim.actor::<UltrapeerNode>(id).core.qrp_refs() as u64)
        .sum();
    let qstats = pier_gnutella::qrp_catalog::stats();
    let up_qrp_bytes = stats.subsystems.get("up.qrp");
    let dense_table = QrpFilter::DEFAULT_BITS as u64 / 8;
    let legacy_qrp_bytes = qrp_refs * dense_table + up_qrp_bytes;
    let qrp_catalog_bytes = qstats.bytes as u64;
    let qrp_dedup = qrp_refs as f64 / (qstats.unique as f64).max(1.0);
    let qrp_reduction = legacy_qrp_bytes as f64 / (up_qrp_bytes + qrp_catalog_bytes).max(1) as f64;

    MemReport {
        scale,
        nodes: stats.nodes,
        by_subsystem: stats.subsystems.iter().collect(),
        kernel_bytes: stats.kernel_bytes,
        total_bytes: stats.total_bytes() + catalog_bytes + qrp_catalog_bytes,
        bytes_per_node: stats.bytes_per_node(),
        catalog_bytes,
        share_bytes,
        legacy_share_bytes,
        share_reduction,
        per_leaf_reduction,
        qrp_refs,
        qrp_unique: qstats.unique as u64,
        qrp_catalog_bytes,
        up_qrp_bytes,
        legacy_qrp_bytes,
        qrp_dedup,
        qrp_reduction,
    }
}

impl MemReport {
    /// Render this report as one JSON object (manual, like the other
    /// bench bins — no serde dependency in the output path).
    pub fn to_json(&self) -> String {
        let mut s = String::from("  {\n");
        s.push_str(&format!("    \"scale\": \"{}\",\n", self.scale.name()));
        s.push_str(&format!("    \"nodes\": {},\n", self.nodes));
        s.push_str(&format!("    \"bytes_per_node\": {:.1},\n", self.bytes_per_node));
        s.push_str(&format!("    \"kernel_bytes\": {},\n", self.kernel_bytes));
        s.push_str(&format!("    \"total_bytes\": {},\n", self.total_bytes));
        s.push_str(&format!("    \"catalog_bytes\": {},\n", self.catalog_bytes));
        s.push_str(&format!("    \"leaf_share_bytes\": {},\n", self.share_bytes));
        s.push_str(&format!("    \"leaf_share_bytes_legacy\": {},\n", self.legacy_share_bytes));
        s.push_str(&format!("    \"leaf_share_reduction\": {:.2},\n", self.share_reduction));
        s.push_str(&format!(
            "    \"leaf_share_reduction_per_leaf\": {:.2},\n",
            self.per_leaf_reduction
        ));
        s.push_str(&format!("    \"qrp_refs\": {},\n", self.qrp_refs));
        s.push_str(&format!("    \"qrp_unique\": {},\n", self.qrp_unique));
        s.push_str(&format!("    \"qrp_catalog_bytes\": {},\n", self.qrp_catalog_bytes));
        s.push_str(&format!("    \"up_qrp_bytes\": {},\n", self.up_qrp_bytes));
        s.push_str(&format!("    \"qrp_bytes_legacy\": {},\n", self.legacy_qrp_bytes));
        s.push_str(&format!("    \"qrp_dedup\": {:.2},\n", self.qrp_dedup));
        s.push_str(&format!("    \"qrp_reduction\": {:.2},\n", self.qrp_reduction));
        s.push_str("    \"by_subsystem\": {\n");
        for (i, (name, bytes)) in self.by_subsystem.iter().enumerate() {
            let comma = if i + 1 == self.by_subsystem.len() { "" } else { "," };
            s.push_str(&format!("      \"{name}\": {bytes}{comma}\n"));
        }
        s.push_str("    }\n  }");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_reports_consistent_totals() {
        let r = measure(Scale::Quick);
        assert_eq!(r.nodes, 120 + 2_400);
        let subsystem_sum: u64 = r.by_subsystem.iter().map(|(_, b)| b).sum();
        assert_eq!(
            r.total_bytes,
            subsystem_sum + r.kernel_bytes + r.catalog_bytes + r.qrp_catalog_bytes
        );
        assert!(r.share_bytes > 0, "leaves hold share views");
        assert!(
            r.legacy_share_bytes > r.share_bytes,
            "legacy layout must cost more than columnar views alone"
        );
        assert!(r.qrp_refs > 0, "QRP propagation ran before measurement");
        assert!(r.qrp_unique > 0);
        assert!(r.qrp_dedup >= 1.0, "each distinct filter serves ≥ 1 entry");
        assert!(
            r.legacy_qrp_bytes > r.up_qrp_bytes,
            "a dense table per entry must cost more than the entries alone"
        );
        assert!(r.to_json().contains("\"scale\": \"quick\""));
        assert!(r.to_json().contains("\"qrp_reduction\""));
    }
}

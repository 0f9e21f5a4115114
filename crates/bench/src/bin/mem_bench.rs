#![forbid(unsafe_code)]
//! `mem_bench` — per-node memory accounting across the scale ladder.
//!
//! Builds the measurement lab at each requested scale, walks every actor's
//! `mem_stats`, and reports bytes/node by subsystem plus the leaf-share
//! before/after (per-leaf owned metas vs. `Box<[FileId]>` views into the
//! shared columnar catalog). Results print as a table and are written to
//! `BENCH_mem.json` at the workspace root (the `kernel_bench` pattern).
//!
//! Run with `cargo run -p pier-bench --release --bin mem_bench`.
//! `--scales quick,sparse,full,metro,metro-lite` selects the rungs
//! (default `quick,sparse`; `metro` builds a 1.1M-node simulation — 100k
//! ultrapeers, 1M leaves — and wants a multi-GB host; `metro-lite` is its
//! CI-sized stand-in).

use pier_bench::cli::Flags;
use pier_bench::lab::Scale;
use pier_bench::membench::measure;
use std::io::Write;

fn parse_scales() -> Result<Vec<Scale>, String> {
    let mut flags = Flags::new(std::env::args().skip(1));
    let scales = flags.value("--scales", "a comma-separated list of scales", |v| {
        v.split(',').map(|s| Scale::parse(s.trim())).collect::<Option<Vec<_>>>()
    })?;
    flags.finish()?;
    Ok(scales.unwrap_or_else(|| vec![Scale::Quick, Scale::Sparse]))
}

fn main() {
    let scales = parse_scales().unwrap_or_else(|e| {
        eprintln!("mem_bench: {e}\nusage: mem_bench [--scales quick,sparse,…]");
        std::process::exit(2);
    });
    let mut reports = Vec::with_capacity(scales.len());
    for scale in scales {
        eprintln!("building {} lab…", scale.name());
        let r = measure(scale);
        println!(
            "\n{} — {} nodes, {:.0} bytes/node (kernel {} KiB, catalog {} KiB)",
            scale.name(),
            r.nodes,
            r.bytes_per_node,
            r.kernel_bytes / 1024,
            r.catalog_bytes / 1024,
        );
        println!("{:<24} {:>14}", "subsystem", "bytes");
        for (name, bytes) in &r.by_subsystem {
            println!("{name:<24} {bytes:>14}");
        }
        println!(
            "leaf share: {} KiB columnar (+{} KiB catalog) vs {} KiB legacy — \
             {:.1}x smaller per leaf, {:.1}x including the catalog",
            r.share_bytes / 1024,
            r.catalog_bytes / 1024,
            r.legacy_share_bytes / 1024,
            r.per_leaf_reduction,
            r.share_reduction,
        );
        println!(
            "qrp plane: {} refs → {} unique filters ({:.1}x dedup); \
             {} KiB entries + {} KiB catalog vs {} KiB legacy dense — {:.1}x smaller",
            r.qrp_refs,
            r.qrp_unique,
            r.qrp_dedup,
            r.up_qrp_bytes / 1024,
            r.qrp_catalog_bytes / 1024,
            r.legacy_qrp_bytes / 1024,
            r.qrp_reduction,
        );
        reports.push(r);
    }

    let path = pier_bench::output::results_dir()
        .parent()
        .map(|r| r.join("BENCH_mem.json"))
        .unwrap_or_else(|| "BENCH_mem.json".into());
    let mut json = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&r.to_json());
        json.push_str(if i + 1 == reports.len() { "\n" } else { ",\n" });
    }
    json.push_str("]\n");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("→ {}", path.display()),
        Err(e) => eprintln!("(json write failed: {e})"),
    }
}

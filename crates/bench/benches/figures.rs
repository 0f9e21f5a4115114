//! `cargo bench --bench figures` regenerates every registered experiment
//! at quick scale (custom harness — these are end-to-end experiments, not
//! microbenchmarks; see `benches/micro.rs` for those). Other scales run
//! through `repro all --scale <name>`.

use pier_bench::experiments::REGISTRY;
use pier_bench::{rate_line, RunCtx, Scale};

fn main() {
    let ctx = RunCtx::new(Scale::Quick);
    println!("figures bench: regenerating every experiment at {:?} scale", ctx.scale);
    let t0 = std::time::Instant::now();
    for experiment in REGISTRY {
        let out = (experiment.run)(&ctx);
        for t in &out.tables {
            t.print();
        }
        println!("{}", rate_line(experiment.name, &out, ctx.shards));
    }
    println!("\nfigures bench: done in {:.1}s", t0.elapsed().as_secs_f64());
}

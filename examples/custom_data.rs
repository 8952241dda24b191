//! Cluster your own `x,y` CSV data, with a capacity-planning preview.
//!
//! ```sh
//! cargo run --release --example custom_data [path/to/points.csv] [eps] [minpts]
//! ```
//!
//! Without arguments, a demonstration CSV is generated first. The example
//! also shows the batching scheme's plan (Equation 1 of the paper) before
//! running, the way a capacity-conscious user would inspect it.

use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan::datasets::io;
use hybrid_dbscan::datasets::spec;
use hybrid_dbscan::gpu_sim::Device;
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let path: PathBuf = match args.next() {
        Some(p) => PathBuf::from(p),
        None => {
            // Produce a demo file from the SW1 generator.
            let mut p = std::env::temp_dir();
            p.push("hybrid_dbscan_demo_points.csv");
            let data = spec::SW1.generate(0.002);
            io::save_csv(&p, &data.points).expect("failed to write demo CSV");
            println!("no input given — wrote a demo dataset to {}", p.display());
            p
        }
    };
    let eps: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let minpts: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let points = io::load_csv(&path).expect("failed to load CSV");
    println!("loaded {} points from {}", points.len(), path.display());

    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());

    let result = hybrid.run(&points, eps, minpts).expect("clustering failed");
    let plan = &result.gpu.plan;
    println!(
        "\nbatch plan (Eq. 1): estimated {} pairs, {} batches of <= {} pairs (alpha = {}){}",
        plan.estimated_total,
        result.gpu.n_batches,
        plan.buffer_items,
        plan.effective_alpha,
        if plan.variable_buffer {
            ", variable buffers"
        } else {
            ", static buffers"
        },
    );
    println!("actual result set: {} pairs", result.gpu.result_pairs);

    println!(
        "\neps = {eps}, minpts = {minpts}: {} clusters, {} noise / {} points",
        result.clustering.num_clusters(),
        result.clustering.noise_count(),
        points.len()
    );
    let sizes = result.clustering.cluster_sizes();
    println!("largest clusters: {:?}", &sizes[..sizes.len().min(10)]);
    println!(
        "time: GPU phase {:.1} ms (modeled) + DBSCAN {:.1} ms (host wall)",
        result.timings.gpu_phase.as_millis(),
        result.timings.dbscan_wall.as_secs_f64() * 1e3
    );
}

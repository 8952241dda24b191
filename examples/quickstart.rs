//! Quickstart: cluster a small synthetic dataset with Hybrid-DBSCAN.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hybrid_dbscan::prelude::*;

fn main() {
    // Three Gaussian blobs plus scattered background noise.
    let mut points = Vec::new();
    let blobs = [(10.0, 10.0), (30.0, 12.0), (20.0, 30.0)];
    let mut state = 42u64;
    let mut next = || {
        // xorshift — deterministic without pulling in rand.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for &(cx, cy) in &blobs {
        for _ in 0..400 {
            let (u, v) = (next(), next());
            let r = (-2.0 * u.max(1e-12).ln()).sqrt();
            let (dx, dy) = (
                r * (std::f64::consts::TAU * v).cos(),
                r * (std::f64::consts::TAU * v).sin(),
            );
            points.push(Point2::new(cx + dx * 0.8, cy + dy * 0.8));
        }
    }
    for _ in 0..200 {
        points.push(Point2::new(next() * 40.0, next() * 40.0));
    }

    // A simulated Tesla K20c — the paper's experimental card.
    let device = Device::k20c();
    println!("device: {}", device.props().name);

    // Algorithm 4: build the neighbor table on the (simulated) GPU, then
    // cluster on the host.
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let result = hybrid.run(&points, 0.8, 5).expect("clustering failed");

    println!(
        "clustered {} points: {} clusters, {} noise points",
        points.len(),
        result.clustering.num_clusters(),
        result.clustering.noise_count()
    );
    println!("cluster sizes: {:?}", result.clustering.cluster_sizes());
    let gpu_ms = result.timings.gpu_phase.as_millis();
    let dbscan_ms = result.timings.dbscan_wall.as_secs_f64() * 1e3;
    println!(
        "timings: GPU phase {gpu_ms:.2} ms (modeled) + DBSCAN {dbscan_ms:.2} ms (host wall) \
         = {:.2} ms",
        gpu_ms + dbscan_ms
    );
    println!(
        "GPU phase: {} batches, {} neighbor pairs, {}",
        result.gpu.n_batches,
        result.gpu.result_pairs,
        result.gpu.kernel_profile.summary()
    );

    // Cross-check against the sequential reference implementation.
    let reference = ReferenceDbscan::new(0.8, 5).run(&points);
    assert_eq!(
        result.clustering.labels(),
        reference.clustering.labels(),
        "hybrid must reproduce the reference labels exactly"
    );
    println!(
        "reference implementation: {:.2} ms ({:.0}% in R-tree search) — identical labels",
        reference.total_time.as_millis(),
        reference.search_fraction() * 100.0
    );
}

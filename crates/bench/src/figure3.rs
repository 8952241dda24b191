//! **Figure 3** (scenario S2) — response time vs ε for Hybrid-DBSCAN and
//! the reference implementation, per dataset.
//!
//! Paper shape: Hybrid beats the reference across the whole sweep (even at
//! small ε / small |D|, which is notable for a GPU method); hybrid time
//! splits roughly evenly between table construction ("GPU time") and
//! DBSCAN; all times grow with ε.

use crate::common::{fmt_secs, DatasetCache, Options, TextTable};
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::reference::ReferenceDbscan;
use hybrid_dbscan_core::scenario;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: String,
    pub eps: f64,
    pub minpts: usize,
    pub ref_secs: f64,
    pub hybrid_total_secs: f64,
    pub hybrid_dbscan_secs: f64,
    pub hybrid_gpu_secs: f64,
    pub clusters_ref: u32,
    pub clusters_hybrid: u32,
}

/// Run the S2 sweep for the selected datasets.
pub fn run(opts: &Options) -> Vec<Row> {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let mut cache = DatasetCache::new(opts.scale);
    // The paper plots SW1, SW4, SDSS1, SDSS3 (SDSS2 omitted as similar).
    let selected = opts.select(&["SW1", "SW4", "SDSS1", "SDSS3"]);
    let mut rows = Vec::new();

    for name in &selected {
        let data = cache.get(name).points.clone();
        for v in scenario::s2_variants(name) {
            let r = ReferenceDbscan::new(v.eps, v.minpts).run(&data);
            let h = hybrid
                .run(&data, v.eps, v.minpts)
                .expect("hybrid run failed");
            assert_eq!(
                h.clustering.labels(),
                r.clustering.labels(),
                "{name} eps={} minpts={}: hybrid != reference",
                v.eps,
                v.minpts
            );
            rows.push(Row {
                dataset: name.clone(),
                eps: v.eps,
                minpts: v.minpts,
                ref_secs: r.total_time.as_secs(),
                // The paper's response time: modeled GPU phase plus
                // measured host DBSCAN wall (two clocks, summed here).
                hybrid_total_secs: h.timings.gpu_phase.as_secs()
                    + h.timings.dbscan_wall.as_secs_f64(),
                hybrid_dbscan_secs: h.timings.dbscan_wall.as_secs_f64(),
                hybrid_gpu_secs: h.timings.gpu_phase.as_secs(),
                clusters_ref: r.clustering.num_clusters(),
                clusters_hybrid: h.clustering.num_clusters(),
            });
            let b = &h.gpu.breakdown;
            eprintln!(
                "# {name} eps={:.2}: ref {} | hybrid {} (gpu {} + dbscan {}), {} clusters [up {} est {} pin {} batches({}) {} = k {} s {} d2h {} ing {}]",
                v.eps,
                fmt_secs(rows.last().unwrap().ref_secs),
                fmt_secs(rows.last().unwrap().hybrid_total_secs),
                fmt_secs(rows.last().unwrap().hybrid_gpu_secs),
                fmt_secs(rows.last().unwrap().hybrid_dbscan_secs),
                rows.last().unwrap().clusters_hybrid,
                fmt_secs(b.upload_time.as_secs()),
                fmt_secs(b.estimation_time.as_secs()),
                fmt_secs(b.pinned_alloc_time.as_secs()),
                h.gpu.n_batches,
                fmt_secs(b.batch_schedule_time.as_secs()),
                fmt_secs(b.kernel_time.as_secs()),
                fmt_secs(b.sort_time.as_secs()),
                fmt_secs(b.d2h_time.as_secs()),
                fmt_secs(b.ingest_time.as_secs()),
            );
        }
    }
    rows
}

/// Print per-dataset series (the four panels of Figure 3).
pub fn print(opts: &Options) {
    println!("== Figure 3 (S2): response time vs eps — reference vs Hybrid-DBSCAN ==");
    println!("Paper shape: hybrid total < reference at every eps; GPU-time and");
    println!("DBSCAN-time curves are roughly equal; hybrid clusterings identical.");
    println!("Hybrid total = modeled GPU phase + measured host DBSCAN wall time.\n");
    let rows = run(opts);
    opts.write_csv(
        "figure3",
        &[
            "dataset",
            "eps",
            "ref_secs",
            "hybrid_total_secs",
            "hybrid_dbscan_secs",
            "hybrid_gpu_secs",
            "clusters",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.eps.to_string(),
                    r.ref_secs.to_string(),
                    r.hybrid_total_secs.to_string(),
                    r.hybrid_dbscan_secs.to_string(),
                    r.hybrid_gpu_secs.to_string(),
                    r.clusters_hybrid.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let mut current = String::new();
    let mut table: Option<TextTable> = None;
    for r in &rows {
        if r.dataset != current {
            if let Some(t) = table.take() {
                t.print();
                println!();
            }
            current = r.dataset.clone();
            println!("--- {} (minpts = 4) ---", current);
            table = Some(TextTable::new(&[
                "eps",
                "Ref",
                "Hybrid total",
                "Hybrid DBSCAN",
                "Hybrid GPU",
                "speedup",
                "clusters",
            ]));
        }
        table.as_mut().unwrap().row(vec![
            format!("{:.2}", r.eps),
            fmt_secs(r.ref_secs),
            fmt_secs(r.hybrid_total_secs),
            fmt_secs(r.hybrid_dbscan_secs),
            fmt_secs(r.hybrid_gpu_secs),
            format!("{:.2}x", r.ref_secs / r.hybrid_total_secs.max(1e-12)),
            r.clusters_hybrid.to_string(),
        ]);
    }
    if let Some(t) = table {
        t.print();
    }
}

//! Criterion benches for the spatial indexes: construction and
//! ε-neighborhood query throughput of grid vs R-tree (bulk and dynamic)
//! vs the packed kd-tree of the tree backend. The grid's construction
//! advantage is the paper's aside that "the grid indexes can be
//! constructed faster than the R-tree".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spatial::{GridIndex, PackedKdTree, Point2, PointN, PointStore, PointsViewN, RTree};

fn bench_construction(c: &mut Criterion) {
    let data = datasets::spec::SDSS1.generate(0.005).points;
    let store = PointStore::from_points(&data);
    let points = PointsViewN::from(store.view());
    let mut group = c.benchmark_group("index-construction");
    group.sample_size(10);

    group.bench_function("grid", |b| b.iter(|| GridIndex::build(&data, 0.3)));
    group.bench_function("rtree-bulk", |b| b.iter(|| RTree::bulk_load(&data)));
    group.bench_function("rtree-insert", |b| {
        b.iter(|| {
            let mut t = RTree::new();
            for (i, p) in data.iter().enumerate() {
                t.insert(i as u32, *p);
            }
            t
        })
    });
    group.bench_function("packed-kdtree", |b| b.iter(|| PackedKdTree::build(points)));
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let data = datasets::spec::SDSS1.generate(0.005).points;
    let eps = 0.3;
    let grid = GridIndex::build(&data, eps);
    let rtree = RTree::bulk_load(&data);
    let store = PointStore::from_points(&data);
    let points = PointsViewN::from(store.view());
    let tree = PackedKdTree::build(points);
    let queries: Vec<Point2> = data.iter().step_by(37).copied().collect();

    let mut group = c.benchmark_group("index-queries");
    group.throughput(criterion::Throughput::Elements(queries.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("grid", queries.len()),
        &queries,
        |b, qs| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in qs {
                    grid.query_visit(&data, q, |_| hits += 1);
                }
                hits
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("rtree", queries.len()),
        &queries,
        |b, qs| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in qs {
                    rtree.query_eps_visit(q, eps, |_, _| hits += 1);
                }
                hits
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("packed-kdtree", queries.len()),
        &queries,
        |b, qs| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in qs {
                    tree.query_eps_visit(points, &PointN::from(*q), eps, |_| hits += 1);
                }
                hits
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_construction, bench_queries);
criterion_main!(benches);

//! Graph loading: text edge-list parsing vs binary `.timg` snapshots.
//!
//! The snapshot loader skips line parsing, label interning, and CSR
//! reconstruction — it is the cold-start path a serving process takes
//! before attaching an RR-set pool, so its constant matters for the
//! ROADMAP's query-engine story.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tim_graph::{gen, io, snapshot, weights};

fn graph_loading(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_load");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let mut g = gen::barabasi_albert(n, 8, 0.1, 1);
        weights::assign_weighted_cascade(&mut g);
        group.throughput(Throughput::Elements(g.m() as u64));

        let mut text = Vec::new();
        io::write_edge_list(&g, &mut text).unwrap();
        let labels: Vec<u64> = (0..g.n() as u64).collect();
        let mut snap = Vec::new();
        snapshot::write_snapshot_v2(&g, &labels, &mut snap).unwrap();

        group.bench_with_input(BenchmarkId::new("text", n), &text, |b, text| {
            b.iter(|| {
                let loaded = io::read_edge_list(text.as_slice(), false).unwrap();
                black_box(loaded.graph.m());
            });
        });
        group.bench_with_input(BenchmarkId::new("snapshot", n), &snap, |b, snap| {
            b.iter(|| {
                let loaded = snapshot::read_snapshot(snap.as_slice()).unwrap();
                black_box(loaded.graph.m());
            });
        });
    }
    group.finish();
}

fn checksum(c: &mut Criterion) {
    let mut g = gen::barabasi_albert(50_000, 8, 0.1, 2);
    weights::assign_weighted_cascade(&mut g);
    let mut group = c.benchmark_group("graph_checksum");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.m() as u64));
    group.bench_function("fnv1a", |b| {
        b.iter(|| black_box(snapshot::graph_checksum(&g)));
    });
    group.finish();
}

criterion_group!(benches, graph_loading, checksum);
criterion_main!(benches);

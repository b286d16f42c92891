//! Greedy max-coverage ablation: lazy-heap vs
//! bucket-queue selection over a realistic RR-set collection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tim_bench::{prepare, Model};
use tim_core::parallel::generate_rr_sets;
use tim_coverage::{greedy_max_cover, greedy_max_cover_bucket, SetCollection};
use tim_diffusion::IndependentCascade;
use tim_eval::Dataset;

fn build_collection() -> SetCollection {
    let g = prepare(Dataset::NetHept, Some(0.2), Model::Ic);
    let (c, _) = generate_rr_sets(&g, &IndependentCascade, 50_000, 3, 1);
    c
}

fn max_cover(c: &mut Criterion) {
    let collection = build_collection();
    let mut group = c.benchmark_group("max_cover_50k_sets");
    group.sample_size(10);
    for k in [1usize, 10, 50] {
        group.bench_with_input(BenchmarkId::new("lazy_heap", k), &k, |b, &k| {
            b.iter_batched(
                || collection.clone(),
                |mut col| black_box(greedy_max_cover(&mut col, k).covered),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("bucket_queue", k), &k, |b, &k| {
            b.iter_batched(
                || collection.clone(),
                |mut col| black_box(greedy_max_cover_bucket(&mut col, k).covered),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = max_cover
}
criterion_main!(benches);

//! RR-set generation throughput — the primitive whose cost is `EPT` and
//! which dominates every phase of TIM (θ · EPT, Equation 6).
//!
//! Ablations:
//! - IC vs LT sampling (the §7.2 observation: IC consumes one random draw
//!   per in-edge, LT one per node, so LT wins on edge-heavy graphs);
//! - serial vs sharded-parallel bulk generation (our §8-future-work
//!   extension; on a single-core machine the parallel path measures the
//!   sharding overhead). Bulk generation is the node-selection stream,
//!   which draws uniform-probability IC nodes by geometric jumps, so it
//!   costs less than `EPT` per set; `rr_single` keeps one coin per edge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tim_bench::{prepare, Model};
use tim_core::parallel::generate_rr_sets;
use tim_diffusion::{IndependentCascade, LinearThreshold, RrSampler};
use tim_eval::Dataset;
use tim_rng::Rng;

fn single_set_sampling(c: &mut Criterion) {
    let g_ic = prepare(Dataset::NetHept, Some(0.2), Model::Ic);
    let g_lt = prepare(Dataset::NetHept, Some(0.2), Model::Lt);
    let mut group = c.benchmark_group("rr_single");
    group.throughput(Throughput::Elements(1));

    group.bench_function("ic", |b| {
        let mut sampler = RrSampler::new(IndependentCascade);
        let mut rng = Rng::seed_from_u64(1);
        let mut buf = Vec::new();
        b.iter(|| {
            let (root, stats) = sampler.sample_random(&g_ic, &mut rng, &mut buf);
            black_box((root, stats.width));
        });
    });
    group.bench_function("lt", |b| {
        let mut sampler = RrSampler::new(LinearThreshold);
        let mut rng = Rng::seed_from_u64(1);
        let mut buf = Vec::new();
        b.iter(|| {
            let (root, stats) = sampler.sample_random(&g_lt, &mut rng, &mut buf);
            black_box((root, stats.width));
        });
    });
    group.finish();
}

fn bulk_generation(c: &mut Criterion) {
    let g = prepare(Dataset::NetHept, Some(0.2), Model::Ic);
    let mut group = c.benchmark_group("rr_bulk_10k");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads={threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let (c, stats) = generate_rr_sets(&g, &IndependentCascade, 10_000, 7, threads);
                    black_box((c.len(), stats.total_width));
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = single_set_sampling, bulk_generation
}
criterion_main!(benches);

//! Criterion wrappers over the paper's figures at small sizes: one group
//! per figure family, comparing BOAT against the RainForest baselines on
//! identical on-disk datasets. The experiment *binaries* regenerate the
//! full tables; these benches give statistically robust relative timings
//! for regression tracking.

use boat_bench::run::paper_limits;
use boat_bench::{materialize_cached, rf_budgets};
use boat_core::{Boat, BoatConfig};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_rainforest::{RainForest, RfConfig, RfVariant};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const N: u64 = 20_000;

fn fit_benches(c: &mut Criterion) {
    for (fig, func) in [
        ("fig4_f1", LabelFunction::F1),
        ("fig5_f6", LabelFunction::F6),
        ("fig6_f7", LabelFunction::F7),
    ] {
        let gen = GeneratorConfig::new(func).with_seed(5);
        let data = materialize_cached(&gen, N, &format!("crit-{fig}")).unwrap();
        let limits = paper_limits(N);
        let mut group = c.benchmark_group(fig);
        group.sample_size(10);

        group.bench_function("boat", |b| {
            let mut config = BoatConfig::scaled_for(N).with_seed(7);
            config.limits = limits;
            config.in_memory_threshold = limits.stop_family_size.unwrap();
            let algo = Boat::new(config);
            b.iter(|| black_box(algo.fit(&data).unwrap()))
        });
        let (hybrid_budget, vertical_budget) = rf_budgets(N, 0);
        group.bench_function("rf_hybrid", |b| {
            let rf = RainForest::new(
                RfVariant::Hybrid,
                RfConfig {
                    avc_budget_entries: hybrid_budget,
                    in_memory_threshold: limits.stop_family_size.unwrap(),
                    limits,
                },
            );
            b.iter(|| black_box(rf.fit(&data).unwrap()))
        });
        group.bench_function("rf_vertical", |b| {
            let rf = RainForest::new(
                RfVariant::Vertical,
                RfConfig {
                    avc_budget_entries: vertical_budget,
                    in_memory_threshold: limits.stop_family_size.unwrap(),
                    limits,
                },
            );
            b.iter(|| black_box(rf.fit(&data).unwrap()))
        });
        group.finish();
    }
}

fn noise_bench(c: &mut Criterion) {
    // Figures 7-9 in miniature: BOAT at 2% vs 10% noise — times should be
    // close (the paper's finding).
    let limits = paper_limits(N);
    let mut group = c.benchmark_group("fig7_9_noise");
    group.sample_size(10);
    for pct in [2u64, 10] {
        let gen = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(6)
            .with_noise(pct as f64 / 100.0);
        let data = materialize_cached(&gen, N, &format!("crit-noise-{pct}")).unwrap();
        group.bench_function(format!("boat_noise_{pct}pct"), |b| {
            let mut config = BoatConfig::scaled_for(N).with_seed(8);
            config.limits = limits;
            config.in_memory_threshold = limits.stop_family_size.unwrap();
            let algo = Boat::new(config);
            b.iter(|| black_box(algo.fit(&data).unwrap()))
        });
    }
    group.finish();
}

fn dynamic_bench(c: &mut Criterion) {
    // Figure 13 in miniature: absorbing a chunk (stream + maintain) vs a
    // full rebuild at the same cumulative size.
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(9);
    let schema = gen.schema();
    let base = boat_data::MemoryDataset::new(schema.clone(), gen.generate_vec(N as usize));
    let chunk_gen = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(10)
        .with_noise(0.10);
    let chunk = boat_data::MemoryDataset::new(schema.clone(), chunk_gen.generate_vec(5_000));

    let limits = paper_limits(N + 5_000);
    let mut config = BoatConfig::scaled_for(N + 5_000).with_seed(11);
    config.limits = limits;
    config.in_memory_threshold = limits.stop_family_size.unwrap();
    let algo = Boat::new(config);

    let mut group = c.benchmark_group("fig13_dynamic");
    group.sample_size(10);
    group.bench_function("incremental_chunk", |b| {
        b.iter_batched(
            || algo.fit_model(&base).unwrap().0,
            |mut model| {
                model.insert(&chunk).unwrap();
                model.maintain().unwrap();
                black_box(model.tree().unwrap().n_nodes())
            },
            criterion::BatchSize::PerIteration,
        )
    });
    group.bench_function("full_rebuild", |b| {
        let mut all = base.records().to_vec();
        all.extend(chunk.records().iter().cloned());
        let cumulative = boat_data::MemoryDataset::new(schema.clone(), all);
        b.iter(|| black_box(algo.fit(&cumulative).unwrap()))
    });
    group.finish();
}

criterion_group!(figures, fit_benches, noise_bench, dynamic_bench);
criterion_main!(figures);

//! Microbenchmarks for the substrate hot paths: record codec, impurity
//! sweeps, the corner lower bound, bootstrap resampling + tree building,
//! and reservoir sampling.

use boat_core::verify::corner_lower_bound;
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_tree::split::{best_numeric_split, best_numeric_split_from_pairs};
use boat_tree::{Gini, GrowthLimits, ImpuritySelector, NumAvc, TdTreeBuilder};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(1);
    let schema = gen.schema();
    let records = gen.generate_vec(1_000);
    let encoded: Vec<Vec<u8>> = records
        .iter()
        .map(|r| boat_data::codec::encode(&schema, r).unwrap())
        .collect();

    c.bench_function("codec/encode_1k", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            for r in &records {
                buf.clear();
                boat_data::codec::encode_into(&schema, black_box(r), &mut buf).unwrap();
            }
        })
    });
    let layout = boat_data::codec::RowLayout::new(&schema);
    c.bench_function("codec/decode_1k", |b| {
        b.iter(|| {
            for bytes in &encoded {
                black_box(layout.decode(black_box(bytes)).unwrap());
            }
        })
    });
}

fn bench_split_selection(c: &mut Criterion) {
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(2);
    let records = gen.generate_vec(10_000);
    let mut totals = [0u64; 2];
    for r in &records {
        totals[r.label() as usize] += 1;
    }
    // Attribute 0 = salary (high cardinality numeric).
    let mut avc = NumAvc::new(2);
    for r in &records {
        avc.add(r.num(0), r.label());
    }
    c.bench_function("split/numeric_avc_sweep_10k", |b| {
        b.iter(|| black_box(best_numeric_split(0, &avc, &totals, &Gini)))
    });
    let pairs: Vec<(f64, u16)> = records.iter().map(|r| (r.num(0), r.label())).collect();
    c.bench_function("split/numeric_sorted_pairs_10k", |b| {
        b.iter_batched(
            || pairs.clone(),
            |mut p| black_box(best_numeric_split_from_pairs(0, &mut p, &totals, &Gini)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_corner_bound(c: &mut Criterion) {
    c.bench_function("verify/corner_bound_k2", |b| {
        b.iter(|| {
            black_box(corner_lower_bound(
                &Gini,
                black_box(&[1_000, 4_000]),
                black_box(&[6_000, 4_500]),
                black_box(&[10_000, 10_000]),
            ))
        })
    });
    c.bench_function("verify/corner_bound_k6", |b| {
        let lo = [100u64; 6];
        let hi = [900u64; 6];
        let totals = [1_000u64; 6];
        b.iter(|| black_box(corner_lower_bound(&Gini, &lo, &hi, &totals)))
    });
}

fn bench_bootstrap_tree(c: &mut Criterion) {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(3);
    let schema = gen.schema();
    let sample = gen.generate_vec(5_000);
    let selector = ImpuritySelector::new(Gini);
    let limits = GrowthLimits {
        stop_family_size: Some(400),
        ..GrowthLimits::default()
    };
    c.bench_function("bootstrap/tdtree_5k_sample", |b| {
        b.iter(|| black_box(TdTreeBuilder::new(&selector, limits).fit(&schema, &sample)))
    });
}

fn bench_reservoir(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(4);
    let data = boat_data::MemoryDataset::new(gen.schema(), gen.generate_vec(50_000));
    c.bench_function("sample/reservoir_5k_of_50k", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            black_box(boat_data::sample::reservoir_sample(&data, 5_000, &mut rng).unwrap())
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_codec, bench_split_selection, bench_corner_bound, bench_bootstrap_tree,
        bench_reservoir
);
criterion_main!(micro);

//! Ablations over BOAT's design choices (DESIGN.md §2.4):
//!
//! * bootstrap repetitions `b` (paper uses 20),
//! * discretization strategy (equi-depth vs the paper's adaptive scheme),
//! * bootstrap agreement rule (paper's unanimity vs this implementation's
//!   majority + mode clustering),
//! * sample size.
//!
//! Each variant fits the same on-disk dataset; the interesting outputs are
//! both the wall time (here) and the failure/rebuild behaviour (printed by
//! the `scalability` binary's failure column when run with the same knobs).

use boat_bench::materialize_cached;
use boat_bench::run::paper_limits;
use boat_core::config::AgreementRule;
use boat_core::{Boat, BoatConfig, DiscretizeStrategy};
use boat_datagen::{GeneratorConfig, LabelFunction};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const N: u64 = 20_000;

fn base_config() -> BoatConfig {
    let limits = paper_limits(N);
    let mut config = BoatConfig::scaled_for(N).with_seed(21);
    config.limits = limits;
    config.in_memory_threshold = limits.stop_family_size.unwrap();
    config
}

fn data() -> boat_data::FileDataset {
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(20);
    materialize_cached(&gen, N, "crit-ablation-f6").unwrap()
}

fn ablate_bootstrap_reps(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("ablation/bootstrap_reps");
    group.sample_size(10);
    for reps in [5usize, 20, 40] {
        group.bench_function(format!("b{reps}"), |b| {
            let mut config = base_config();
            config.bootstrap_reps = reps;
            let algo = Boat::new(config);
            b.iter(|| black_box(algo.fit(&data).unwrap()))
        });
    }
    group.finish();
}

fn ablate_discretization(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("ablation/discretization");
    group.sample_size(10);
    let strategies: [(&str, DiscretizeStrategy); 3] = [
        (
            "equidepth_32",
            DiscretizeStrategy::EquiDepth { buckets: 32 },
        ),
        (
            "equidepth_256",
            DiscretizeStrategy::EquiDepth { buckets: 256 },
        ),
        ("adaptive", DiscretizeStrategy::default()),
    ];
    for (name, strategy) in strategies {
        group.bench_function(name, |b| {
            let mut config = base_config();
            config.discretize = strategy;
            let algo = Boat::new(config);
            b.iter(|| black_box(algo.fit(&data).unwrap()))
        });
    }
    group.finish();
}

fn ablate_agreement(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("ablation/agreement");
    group.sample_size(10);
    let rules: [(&str, AgreementRule); 3] = [
        ("unanimous_paper", AgreementRule::Unanimous),
        ("majority_60", AgreementRule::Majority { quorum: 0.6 }),
        ("majority_90", AgreementRule::Majority { quorum: 0.9 }),
    ];
    for (name, rule) in rules {
        group.bench_function(name, |b| {
            let mut config = base_config();
            config.agreement = rule;
            let algo = Boat::new(config);
            b.iter(|| black_box(algo.fit(&data).unwrap()))
        });
    }
    group.finish();
}

fn ablate_sample_size(c: &mut Criterion) {
    let data = data();
    let mut group = c.benchmark_group("ablation/sample_size");
    group.sample_size(10);
    for sample in [1_000usize, 2_000, 4_000] {
        group.bench_function(format!("s{sample}"), |b| {
            let mut config = base_config();
            config.sample_size = sample;
            config.bootstrap_sample_size = (sample / 2).max(250);
            let algo = Boat::new(config);
            b.iter(|| black_box(algo.fit(&data).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    ablation,
    ablate_bootstrap_reps,
    ablate_discretization,
    ablate_agreement,
    ablate_sample_size
);
criterion_main!(ablation);

//! Differential oracle for the sampling phase: the columnar engine and its
//! confidence-gated subsampled split search.
//!
//! Both must be *invisible*. With `split_subsample` off, at its
//! on-by-default setting and at aggressive settings, the coarse trees out
//! of the sampling phase are byte-identical to [`reference_coarse_tree`]
//! (materialized bootstrap resamples grown by the reference builder), and
//! the serialized final models out of the full pipeline (sampling +
//! cleanup + verification) are byte-identical to [`reference_tree`] at
//! `cleanup_threads` 1 and 4 alike, with identical deterministic run
//! statistics. Property tests draw random schema shapes, record tables and
//! seeds; fixed cases pin the adversarial datagen grid (heavy ties,
//! high-cardinality categoricals, skewed class priors, wide schemas) that
//! the sample_phase bench also runs. A failure prints the first diverging
//! artifact.

use boat_core::coarse::{build_coarse_tree, reference_coarse_tree};
use boat_core::{reference_tree, Boat, BoatConfig, BoatFit};
use boat_data::{Attribute, Field, MemoryDataset, Record, Schema};
use boat_obs::Registry;
use boat_tree::{Gini, ImpuritySelector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Attribute shape: `None` = numeric, `Some(card)` = categorical.
type AttrSpec = Option<u32>;

fn arb_attrs() -> impl Strategy<Value = Vec<AttrSpec>> {
    prop::collection::vec(prop_oneof![Just(None), (2u32..6).prop_map(Some)], 1..5)
}

/// How generated records draw their numeric values.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Half a fine-grained band (near-unique values, where the gate
    /// actually prunes), half a coarse tied grid (where snapping and
    /// fallbacks dominate).
    Mixed,
    /// Only a coarse grid (multiples of 0.5, including a negative band):
    /// duplicate values, ties and interval boundaries everywhere.
    Grid,
}

fn arb_values() -> impl Strategy<Value = Values> {
    prop_oneof![Just(Values::Mixed), Just(Values::Grid)]
}

fn make_schema(attrs: &[AttrSpec], n_classes: usize) -> Arc<Schema> {
    let attrs: Vec<Attribute> = attrs
        .iter()
        .enumerate()
        .map(|(i, spec)| match spec {
            None => Attribute::numeric(format!("x{i}")),
            Some(card) => Attribute::categorical(format!("c{i}"), *card),
        })
        .collect();
    Arc::new(Schema::new(attrs, n_classes as u16).expect("valid schema"))
}

/// Random records whose labels follow the first attribute when possible,
/// with noise, so the trees are non-trivial without being pure
/// noise-fitting.
fn make_records(
    attrs: &[AttrSpec],
    n: usize,
    n_classes: usize,
    seed: u64,
    values: Values,
) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let threshold = match values {
        Values::Mixed => 5.0,
        Values::Grid => 7.5,
    };
    (0..n)
        .map(|_| {
            let fields: Vec<Field> = attrs
                .iter()
                .map(|spec| match spec {
                    None => Field::Num(match values {
                        Values::Mixed => {
                            if rng.random_range(0..2u32) == 0 {
                                rng.random_range(0..100_000u32) as f64 * 1e-3
                            } else {
                                rng.random_range(0..12u32) as f64 * 0.5
                            }
                        }
                        Values::Grid => (rng.random_range(0..60i32) - 10) as f64 * 0.5,
                    }),
                    Some(card) => Field::Cat(rng.random_range(0..*card)),
                })
                .collect();
            let noisy = rng.random_range(0..5u32) == 0;
            let label = if noisy {
                rng.random_range(0..n_classes as u32) as u16
            } else {
                match &fields[0] {
                    Field::Num(v) => u16::from(*v >= threshold) % n_classes as u16,
                    Field::Cat(c) => (*c % n_classes as u32) as u16,
                }
            };
            Record::new(fields, label)
        })
        .collect()
}

/// Small config that still exercises the full pipeline: the dataset is
/// larger than both `sample_size` (real reservoir sampling) and
/// `in_memory_threshold` (real cleanup scan + verification).
fn small_config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 200,
        bootstrap_reps: 6,
        bootstrap_sample_size: 100,
        in_memory_threshold: 120,
        spill_budget: 16,
        cleanup_chunk_size: 128,
        seed,
        ..BoatConfig::default()
    }
}

/// The gate settings the coarse-tree oracle sweeps: the shipped default, an
/// aggressive tiny-node setting (gates almost every node), and a coarse
/// fraction.
const GATE_SETTINGS: [(f64, usize); 3] = [(1.0 / 16.0, 256), (1.0 / 16.0, 8), (0.25, 16)];

/// The run statistics that are a pure function of (config, data) and must
/// not move with the gate setting or the cleanup thread count.
fn deterministic_stats(fit: &BoatFit) -> [(&'static str, u64); 6] {
    let s = &fit.stats;
    [
        ("scans_over_input", s.scans_over_input),
        ("coarse_nodes", s.coarse_nodes),
        ("verified_nodes", s.verified_nodes),
        ("failed_nodes", s.failed_nodes),
        ("parked_tuples", s.parked_tuples),
        ("spilled_tuples", s.spilled_tuples),
    ]
}

/// Fit `records` under every `(threads, config)` run and check each model
/// is byte-identical to the reference tree and each run's deterministic
/// statistics equal the first run's. Returns the first diverging run.
fn check_full_pipeline(
    schema: &Arc<Schema>,
    records: &[Record],
    runs: &[(&str, BoatConfig)],
) -> Result<(), String> {
    let source = || MemoryDataset::new(schema.clone(), records.to_vec());
    let reference = reference_tree(&source(), Gini, runs[0].1.limits).expect("reference fit");
    let mut first: Option<[(&str, u64); 6]> = None;
    for (label, config) in runs {
        for threads in [1usize, 4] {
            let fit = Boat::new(config.clone().with_cleanup_threads(threads))
                .fit(&source())
                .expect("boat fit");
            if fit.tree.to_bytes() != reference.to_bytes() {
                return Err(format!(
                    "{label}, threads={threads}: model diverges\nboat:\n{}\nreference:\n{}",
                    fit.tree.render(schema),
                    reference.render(schema),
                ));
            }
            let stats = deterministic_stats(&fit);
            match &first {
                None => first = Some(stats),
                Some(want) if *want != stats => {
                    return Err(format!(
                        "{label}, threads={threads}: run statistics {stats:?} != {want:?}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(44))]

    /// Sampling phase in isolation: gate-off and gated coarse trees are
    /// byte-identical to the reference coarse tree.
    #[test]
    fn coarse_trees_are_byte_identical(
        attrs in arb_attrs(),
        values in arb_values(),
        n_classes in 2usize..4,
        n in 250usize..600,
        data_seed in 0u64..1_000_000,
        boat_seed in 0u64..1_000_000,
    ) {
        let schema = make_schema(&attrs, n_classes);
        let sample = make_records(&attrs, n, n_classes, data_seed, values);
        let selector = ImpuritySelector::new(Gini);
        let full_size = (n as u64) * 8;
        let config = small_config(boat_seed);
        let rng = || StdRng::seed_from_u64(boat_seed ^ 0x0B0A7);
        let reference =
            reference_coarse_tree(&schema, &sample, &selector, &config, full_size, &mut rng());
        let coarse_of = |config: BoatConfig| {
            build_coarse_tree(
                &schema,
                &sample,
                &selector,
                &config,
                full_size,
                &mut rng(),
                &Registry::new(),
            )
        };
        let ungated = coarse_of(config.clone().with_split_subsample(0.0));
        prop_assert_eq!(&ungated, &reference, "gate-off columnar vs reference diverge");
        // "Byte-identical" in the serialized sense too: the rendered form
        // carries every split constant at full float precision.
        prop_assert_eq!(
            format!("{ungated:?}").into_bytes(),
            format!("{reference:?}").into_bytes()
        );
        for (fraction, min_node) in GATE_SETTINGS {
            let gated = coarse_of(
                config
                    .clone()
                    .with_split_subsample(fraction)
                    .with_split_subsample_min_node(min_node),
            );
            prop_assert_eq!(&gated, &reference, "gated trees diverge at fraction={} min_node={}",
                fraction, min_node);
            prop_assert_eq!(
                format!("{gated:?}").into_bytes(),
                format!("{reference:?}").into_bytes()
            );
        }
    }

    /// Full pipeline: the gate-off, default and aggressively gated models
    /// equal the reference tree byte for byte at 1 and 4 cleanup threads,
    /// with identical deterministic run statistics.
    #[test]
    fn full_pipeline_models_are_byte_identical(
        attrs in arb_attrs(),
        values in arb_values(),
        n_classes in 2usize..4,
        n in 450usize..900,
        data_seed in 0u64..1_000_000,
        boat_seed in 0u64..1_000_000,
    ) {
        let schema = make_schema(&attrs, n_classes);
        let records = make_records(&attrs, n, n_classes, data_seed, values);
        let config = small_config(boat_seed);
        let runs = [
            ("gate off", config.clone().with_split_subsample(0.0)),
            ("default gate", config.clone()),
            ("gated", config.with_split_subsample_min_node(16)),
        ];
        if let Err(msg) = check_full_pipeline(&schema, &records, &runs) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Non-property regression pin: one fixed, fully-specified case that fails
/// loudly (outside the proptest harness) if the pipeline drifts from the
/// reference at any gate setting or thread count.
#[test]
fn fixed_case_agrees_across_gates_and_threads() {
    let attrs: Vec<AttrSpec> = vec![None, Some(4), None, Some(3)];
    let schema = make_schema(&attrs, 3);
    let records = make_records(&attrs, 700, 3, 7_001, Values::Grid);
    let config = small_config(9_001);
    let runs = [
        ("default gate", config.clone()),
        ("gate off", config.with_split_subsample(0.0)),
    ];
    check_full_pipeline(&schema, &records, &runs).unwrap();
}

/// The adversarial datagen grid, pinned as fixed cases: every scenario must
/// produce coarse trees identical to the reference gate-off and gate-on,
/// and the wide-schema scenario must actually take the gated path (non-zero
/// subsample counters), so the grid cannot silently stop exercising the
/// gate.
#[test]
fn adversarial_grid_is_exact_across_engines() {
    use boat_datagen::adversarial;

    let scenarios: Vec<(&str, (Schema, Vec<Record>))> = vec![
        ("heavy_ties", adversarial::heavy_ties(1_500, 31)),
        ("high_cardinality", adversarial::high_cardinality(1_500, 32)),
        ("skewed_priors", adversarial::skewed_priors(1_500, 33)),
        ("wide_schema", adversarial::wide_schema(1_200, 12, 34)),
    ];
    for (name, (schema, records)) in scenarios {
        let schema = Arc::new(schema);
        let selector = ImpuritySelector::new(Gini);
        let config = BoatConfig {
            sample_size: records.len(),
            bootstrap_reps: 4,
            bootstrap_sample_size: records.len() / 2,
            in_memory_threshold: 200,
            seed: 11_000,
            ..BoatConfig::default()
        };
        let full_size = records.len() as u64 * 4;
        let rng = || StdRng::seed_from_u64(0xAD5A);
        let coarse_of = |cfg: BoatConfig, metrics: &Registry| {
            build_coarse_tree(
                &schema,
                &records,
                &selector,
                &cfg,
                full_size,
                &mut rng(),
                metrics,
            )
        };
        let reference =
            reference_coarse_tree(&schema, &records, &selector, &config, full_size, &mut rng());
        let ungated = coarse_of(config.clone().with_split_subsample(0.0), &Registry::new());
        let gated_metrics = Registry::new();
        let gated = coarse_of(
            config.clone().with_split_subsample_min_node(64),
            &gated_metrics,
        );
        assert_eq!(
            ungated, reference,
            "{name}: gate-off columnar diverges from the reference"
        );
        assert_eq!(
            gated, reference,
            "{name}: gated columnar diverges from the reference"
        );
        assert_eq!(
            format!("{gated:?}").into_bytes(),
            format!("{reference:?}").into_bytes(),
            "{name}: rendered coarse trees differ"
        );
        let snap = gated_metrics.snapshot();
        let counter = |key: &str| snap.counter(key);
        let touched =
            counter("boat.sample.subsample.swept") + counter("boat.sample.subsample.fallbacks");
        assert!(
            touched > 0,
            "{name}: the gate never engaged — the scenario no longer tests it"
        );
        if name == "wide_schema" {
            assert!(
                counter("boat.sample.subsample.pruned") > 0,
                "wide_schema: expected actual gap pruning"
            );
        }
        if name == "heavy_ties" {
            assert!(
                counter("boat.sample.subsample.fallbacks") > 0,
                "heavy_ties: expected snap-budget fallbacks"
            );
        }
    }
}

/// Full-pipeline pin on one adversarial scenario (the gate's winning
/// shape): gate-off and gated models equal the reference byte for byte at
/// 1 and 4 cleanup threads.
#[test]
fn wide_schema_full_pipeline_models_agree() {
    use boat_datagen::adversarial;

    let (schema, records) = adversarial::wide_schema(2_000, 10, 77);
    let schema = Arc::new(schema);
    let config = BoatConfig {
        sample_size: 400,
        bootstrap_reps: 5,
        bootstrap_sample_size: 200,
        in_memory_threshold: 300,
        spill_budget: 16,
        cleanup_chunk_size: 256,
        seed: 12_345,
        ..BoatConfig::default()
    };
    let runs = [
        ("gate off", config.clone().with_split_subsample(0.0)),
        ("gated", config.with_split_subsample_min_node(64)),
    ];
    check_full_pipeline(&schema, &records, &runs).unwrap();
}

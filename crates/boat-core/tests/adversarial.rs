//! Adversarial and degenerate-input coverage: extreme configurations,
//! degenerate datasets, and I/O failure propagation. Exactness (or a clean
//! error) must hold in every corner.

use boat_core::{reference_tree, Boat, BoatConfig};
use boat_data::dataset::{RecordScan, RecordSource};
use boat_data::{Attribute, DataError, Field, IoStats, MemoryDataset, Record, Result, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_tree::{Gini, GrowthLimits};
use std::sync::Arc;

fn tiny_config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 300,
        bootstrap_reps: 6,
        bootstrap_sample_size: 150,
        in_memory_threshold: 50,
        spill_budget: 8,
        seed,
        ..BoatConfig::default()
    }
}

#[test]
fn single_record_dataset() {
    let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
    let ds = MemoryDataset::new(schema, vec![Record::new(vec![Field::Num(1.0)], 1)]);
    let fit = Boat::new(tiny_config(1)).fit(&ds).unwrap();
    assert_eq!(fit.tree.n_nodes(), 1);
    assert_eq!(fit.tree.node(fit.tree.root()).majority_label(), 1);
}

#[test]
fn empty_dataset() {
    let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
    let ds = MemoryDataset::new(schema, vec![]);
    let fit = Boat::new(tiny_config(2)).fit(&ds).unwrap();
    assert_eq!(fit.tree.n_nodes(), 1);
    assert_eq!(fit.tree.node(fit.tree.root()).n_records(), 0);
}

#[test]
fn all_records_identical_but_labels_differ() {
    // No attribute separates anything: the reference tree is a single leaf
    // (no valid split), and BOAT must agree.
    let schema = Schema::shared(
        vec![Attribute::numeric("x"), Attribute::categorical("c", 3)],
        2,
    )
    .unwrap();
    let records: Vec<Record> = (0..2_000)
        .map(|i| Record::new(vec![Field::Num(7.0), Field::Cat(1)], (i % 2) as u16))
        .collect();
    let ds = MemoryDataset::new(schema, records);
    let fit = Boat::new(tiny_config(3)).fit(&ds).unwrap();
    let reference = reference_tree(&ds, Gini, GrowthLimits::default()).unwrap();
    assert_eq!(fit.tree, reference);
    assert_eq!(fit.tree.n_nodes(), 1);
}

#[test]
fn minimum_bootstrap_repetitions() {
    let mut cfg = tiny_config(4);
    cfg.bootstrap_reps = 2;
    let source = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(4)
        .source(3_000);
    let fit = Boat::new(cfg.clone()).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn max_depth_one() {
    let mut cfg = tiny_config(5);
    cfg.limits = GrowthLimits {
        max_depth: Some(1),
        ..GrowthLimits::default()
    };
    let source = GeneratorConfig::new(LabelFunction::F6)
        .with_seed(5)
        .source(4_000);
    let fit = Boat::new(cfg.clone()).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
    assert!(fit.tree.max_depth() <= 1);
}

#[test]
fn extreme_confidence_trim() {
    // Trim just under the validation cap: intervals collapse towards the
    // bootstrap median; exactness must survive the extra failures.
    let mut cfg = tiny_config(6);
    cfg.confidence_trim = 0.49;
    let source = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(6)
        .source(4_000);
    let fit = Boat::new(cfg.clone()).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn zero_recursion_budget() {
    let mut cfg = tiny_config(7);
    cfg.max_recursion = 0; // every oversized completion goes in-memory
    let source = GeneratorConfig::new(LabelFunction::F7)
        .with_seed(7)
        .source(5_000);
    let fit = Boat::new(cfg.clone()).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
    assert_eq!(fit.stats.recursive_builds, 0);
}

#[test]
fn every_failed_node_counts_under_one_reason() {
    // Untrimmed intervals on F7 still fail verification at some nodes.
    let mut cfg = tiny_config(7);
    cfg.confidence_trim = 0.0;
    let source = GeneratorConfig::new(LabelFunction::F7)
        .with_seed(7)
        .source(5_000);
    let fit = Boat::new(cfg.clone()).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
    let m = &fit.stats.metrics;
    let failed = m.counter("boat.verify.fail");
    assert!(failed > 0, "F7 must fail some node");
    let by_reason: u64 = ["mismatch", "categorical", "boundary", "interior"]
        .iter()
        .map(|reason| m.counter(&format!("boat.verify.fail.{reason}")))
        .sum();
    assert_eq!(by_reason, failed, "failure reasons must add up");
}

#[test]
fn sample_larger_than_dataset() {
    let mut cfg = tiny_config(8);
    cfg.sample_size = 100_000; // the whole dataset becomes the sample
    cfg.in_memory_threshold = 10; // …but the fast path must not trigger
    let source = GeneratorConfig::new(LabelFunction::F2)
        .with_seed(8)
        .source(3_000);
    let fit = Boat::new(cfg.clone()).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn model_on_tiny_base_then_large_inserts() {
    // The model must grow from a 100-record base to 30x its size through
    // promotions, staying exact throughout.
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(9);
    let schema = gen.schema();
    let all = gen.generate_vec(3_100);
    let algo = Boat::new(tiny_config(9));
    let (mut model, _) = algo
        .fit_model(&MemoryDataset::new(schema.clone(), all[..100].to_vec()))
        .unwrap();
    for chunk in all[100..].chunks(1_000) {
        model
            .insert(&MemoryDataset::new(schema.clone(), chunk.to_vec()))
            .unwrap();
        model.check_invariants();
    }
    let reference = reference_tree(
        &MemoryDataset::new(schema, all),
        Gini,
        GrowthLimits::default(),
    )
    .unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
}

#[test]
fn delete_everything_then_reinsert() {
    let gen = GeneratorConfig::new(LabelFunction::F3).with_seed(10);
    let schema = gen.schema();
    let records = gen.generate_vec(2_000);
    let ds = MemoryDataset::new(schema.clone(), records.clone());
    let algo = Boat::new(tiny_config(10));
    let (mut model, _) = algo.fit_model(&ds).unwrap();
    model.delete(&ds).unwrap();
    model.check_invariants();
    {
        let tree = model.tree().unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.node(tree.root()).n_records(), 0);
    }
    model.check_invariants();
    model.insert(&ds).unwrap();
    model.check_invariants();
    let reference = reference_tree(&ds, Gini, GrowthLimits::default()).unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
}

/// Malformed records (wrong arity, wrong field type, category code or label
/// out of range) must fail the update with `DataError::Schema` before any
/// counter moves. Records ahead of the bad one stay applied, and the model
/// stays exact over exactly the applied records.
#[test]
fn malformed_update_records_are_rejected_before_any_counter_moves() {
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(13);
    let schema = gen.schema();
    let all = gen.generate_vec(2_400);
    let (base, extra) = all.split_at(2_000);
    let mut net = base.to_vec();
    let algo = Boat::new(tiny_config(13));
    let (mut model, _) = algo
        .fit_model(&MemoryDataset::new(schema.clone(), net.clone()))
        .unwrap();
    let with_field = |r: &Record, a: usize, f: Field| {
        let mut fields = r.fields().to_vec();
        fields[a] = f;
        Record::new(fields, r.label())
    };
    let malformed = [
        extra[0].clone().with_label(5),
        Record::new(vec![Field::Num(1.0)], 0),
        with_field(&extra[0], 3, Field::Cat(5)),
        with_field(&extra[0], 0, Field::Cat(0)),
    ];
    for (i, bad) in malformed.iter().enumerate() {
        // Insert: two good records, then the bad one.
        let good = &extra[2 * i..2 * i + 2];
        let mut chunk = good.to_vec();
        chunk.push(bad.clone());
        let err = model
            .insert(&MemoryDataset::new(schema.clone(), chunk))
            .unwrap_err();
        assert!(matches!(err, DataError::Schema(_)), "insert {i}: {err:?}");
        net.extend_from_slice(good);
        model.check_invariants();
        // Delete: one present record, then the bad one.
        let victim = net.remove(i);
        let err = model
            .delete(&MemoryDataset::new(
                schema.clone(),
                vec![victim, bad.clone()],
            ))
            .unwrap_err();
        assert!(matches!(err, DataError::Schema(_)), "delete {i}: {err:?}");
        model.check_invariants();
    }
    let reference = reference_tree(
        &MemoryDataset::new(schema.clone(), net),
        Gini,
        GrowthLimits::default(),
    )
    .unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
}

// ---------------------------------------------------------------------------
// I/O failure propagation
// ---------------------------------------------------------------------------

/// A source that fails mid-scan after `ok_records`.
struct FailingSource {
    schema: Arc<Schema>,
    ok_records: u64,
    claimed_len: u64,
    stats: IoStats,
}

impl RecordSource for FailingSource {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        self.stats.record_scan();
        let ok = self.ok_records;
        let total = self.claimed_len;
        Ok(Box::new((0..total).map(move |i| {
            if i < ok {
                Ok(Record::new(vec![Field::Num(i as f64)], (i % 2) as u16))
            } else {
                Err(boat_data::DataError::Io(std::io::Error::other("disk died")))
            }
        })))
    }

    fn len(&self) -> u64 {
        self.claimed_len
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[test]
fn mid_scan_io_error_is_propagated_not_panicked() {
    let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
    let source = FailingSource {
        schema,
        ok_records: 500,
        claimed_len: 2_000,
        stats: IoStats::new(),
    };
    let err = Boat::new(tiny_config(11)).fit(&source).unwrap_err();
    assert!(err.to_string().contains("disk died"), "{err}");
}

#[test]
fn model_update_io_error_is_propagated() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(12);
    let base = MemoryDataset::new(gen.schema(), gen.generate_vec(1_000));
    let algo = Boat::new(tiny_config(12));
    let (mut model, _) = algo.fit_model(&base).unwrap();
    // A failing chunk: same schema as the generator's 9-attribute layout is
    // needed, so build the failing source on that schema with conforming
    // records up to the failure point.
    struct FailingChunk {
        schema: Arc<Schema>,
        template: Record,
        stats: IoStats,
    }
    impl RecordSource for FailingChunk {
        fn schema(&self) -> &Arc<Schema> {
            &self.schema
        }
        fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
            self.stats.record_scan();
            let template = self.template.clone();
            Ok(Box::new((0..10u32).map(move |i| {
                if i < 5 {
                    Ok(template.clone())
                } else {
                    Err(boat_data::DataError::Io(std::io::Error::other(
                        "chunk truncated",
                    )))
                }
            })))
        }
        fn len(&self) -> u64 {
            10
        }
        fn stats(&self) -> &IoStats {
            &self.stats
        }
    }
    let chunk = FailingChunk {
        schema: gen.schema(),
        template: gen.generate_vec(1)[0].clone(),
        stats: IoStats::new(),
    };
    let err = model.insert(&chunk).unwrap_err();
    assert!(err.to_string().contains("chunk truncated"), "{err}");
    model.check_invariants();
}

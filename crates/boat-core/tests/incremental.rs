//! Paper §4: incremental maintenance. After any sequence of insert/delete
//! chunks, the maintained tree must be *identical* to a full rebuild on the
//! net training data — including under distribution drift, where only the
//! affected subtree is rebuilt.

use boat_core::{reference_tree, Boat, BoatConfig};
use boat_data::dataset::RecordSource;
use boat_data::{MemoryDataset, Record};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_tree::{Gini, GrowthLimits};

fn config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 1_200,
        bootstrap_reps: 10,
        bootstrap_sample_size: 500,
        in_memory_threshold: 400,
        spill_budget: 64,
        seed,
        ..BoatConfig::default()
    }
}

fn mem(schema: &std::sync::Arc<boat_data::Schema>, records: Vec<Record>) -> MemoryDataset {
    MemoryDataset::new(schema.clone(), records)
}

/// Insert chunks one at a time; after each, the model tree must equal the
/// reference tree over the accumulated records.
#[test]
fn insertions_match_rebuild() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(21);
    let schema = gen.schema();
    let all = gen.generate_vec(9_000);
    let base = mem(&schema, all[..5_000].to_vec());
    let algo = Boat::new(config(2100));
    let (mut model, _) = algo.fit_model(&base).unwrap();

    let mut upto = 5_000;
    for chunk_end in [7_000, 9_000] {
        let chunk = mem(&schema, all[upto..chunk_end].to_vec());
        let report = model.insert(&chunk).unwrap();
        model.check_invariants();
        assert_eq!(report.inserted, (chunk_end - upto) as u64);
        upto = chunk_end;
        let net = mem(&schema, all[..upto].to_vec());
        let reference = reference_tree(&net, Gini, GrowthLimits::default()).unwrap();
        assert_eq!(
            model.tree().unwrap(),
            &reference,
            "after inserting up to {upto}: maintained tree != rebuild"
        );
        model.check_invariants();
    }
}

#[test]
fn deletions_match_rebuild() {
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(22);
    let schema = gen.schema();
    let all = gen.generate_vec(8_000);
    let base = mem(&schema, all.clone());
    let algo = Boat::new(config(2200));
    let (mut model, _) = algo.fit_model(&base).unwrap();

    // Delete the *most recent* chunk (the paper's expiry scenario).
    let expired = mem(&schema, all[6_000..].to_vec());
    let report = model.delete(&expired).unwrap();
    model.check_invariants();
    assert_eq!(report.deleted, 2_000);
    let net = mem(&schema, all[..6_000].to_vec());
    let reference = reference_tree(&net, Gini, GrowthLimits::default()).unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
}

#[test]
fn interleaved_inserts_and_deletes_match_rebuild() {
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(23);
    let schema = gen.schema();
    let all = gen.generate_vec(10_000);
    let algo = Boat::new(config(2300));
    let base = mem(&schema, all[..4_000].to_vec());
    let (mut model, _) = algo.fit_model(&base).unwrap();

    // +[4000,7000), -[1000,2000), +[7000,10000), -[5000,6000)
    model
        .insert(&mem(&schema, all[4_000..7_000].to_vec()))
        .unwrap();
    model.check_invariants();
    model
        .delete(&mem(&schema, all[1_000..2_000].to_vec()))
        .unwrap();
    model.check_invariants();
    model
        .insert(&mem(&schema, all[7_000..10_000].to_vec()))
        .unwrap();
    model.check_invariants();
    model
        .delete(&mem(&schema, all[5_000..6_000].to_vec()))
        .unwrap();
    model.check_invariants();

    let mut net: Vec<Record> = Vec::new();
    net.extend_from_slice(&all[..1_000]);
    net.extend_from_slice(&all[2_000..5_000]);
    net.extend_from_slice(&all[6_000..10_000]);
    let reference = reference_tree(&mem(&schema, net), Gini, GrowthLimits::default()).unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
}

#[test]
fn same_distribution_updates_do_not_rescan_base() {
    // The paper's key cost claim: updates from the same distribution only
    // scan the chunk. We verify via scan accounting on the base dataset.
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(24);
    let schema = gen.schema();
    let all = gen.generate_vec(8_000);
    let base = mem(&schema, all[..6_000].to_vec());
    let algo = Boat::new(config(2400));
    let (mut model, _) = algo.fit_model(&base).unwrap();
    let scans_after_build = base.stats().snapshot().scans;

    let chunk = mem(&schema, all[6_000..].to_vec());
    model.insert(&chunk).unwrap();
    model.check_invariants();
    model.maintain().unwrap();
    assert_eq!(
        base.stats().snapshot().scans,
        scans_after_build,
        "incremental insert + maintenance must not rescan the base dataset"
    );
    assert_eq!(
        chunk.stats().snapshot().scans,
        1,
        "exactly one scan over the chunk"
    );
}

#[test]
fn drift_chunk_still_yields_exact_tree() {
    // Figure 14's scenario: new chunks follow a distribution that differs
    // in part of the attribute space. Verification must fail exactly where
    // the drift bites, subtrees get rebuilt, and the tree stays exact.
    let base_gen = GeneratorConfig::new(LabelFunction::F1).with_seed(25);
    let drift_gen = GeneratorConfig::new(LabelFunction::F1Drift).with_seed(26);
    let schema = base_gen.schema();
    let base_records = base_gen.generate_vec(6_000);
    let drift_records = drift_gen.generate_vec(4_000);

    let algo = Boat::new(config(2500));
    let (mut model, _) = algo.fit_model(&mem(&schema, base_records.clone())).unwrap();
    model.insert(&mem(&schema, drift_records.clone())).unwrap();
    model.check_invariants();

    let report = model.maintain().unwrap();
    let mut net = base_records;
    net.extend(drift_records);
    let reference = reference_tree(&mem(&schema, net), Gini, GrowthLimits::default()).unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
    let _ = report; // drift may or may not surface as Failed at this scale
}

#[test]
fn insert_then_delete_roundtrips_to_original_tree() {
    let gen = GeneratorConfig::new(LabelFunction::F7).with_seed(27);
    let schema = gen.schema();
    let all = gen.generate_vec(7_000);
    let base = mem(&schema, all[..5_000].to_vec());
    let algo = Boat::new(config(2600));
    let (mut model, _) = algo.fit_model(&base).unwrap();
    let original = model.tree().unwrap().clone();
    model.check_invariants();

    let chunk = mem(&schema, all[5_000..].to_vec());
    model.insert(&chunk).unwrap();
    model.check_invariants();
    model.delete(&chunk).unwrap();
    model.check_invariants();
    assert_eq!(
        model.tree().unwrap(),
        &original,
        "insert followed by delete must round-trip"
    );
    model.check_invariants();
}

#[test]
fn deleting_a_missing_record_errors() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(28);
    let schema = gen.schema();
    let base = mem(&schema, gen.generate_vec(3_000));
    let algo = Boat::new(config(2700));
    let (mut model, _) = algo.fit_model(&base).unwrap();

    let foreign = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(999)
        .generate_vec(1);
    let result = model.delete(&mem(&schema, foreign));
    model.check_invariants();
    assert!(
        result.is_err(),
        "deleting a record that was never inserted must fail"
    );
}

/// Regression: deleting a never-inserted record used to subtract from
/// per-class counters unconditionally, underflowing `u64`s (caught by
/// `-C overflow-checks`, silent corruption in release). The delete path
/// must reject the record *before* any counter is touched, leaving the
/// model fully usable.
#[test]
fn failed_delete_leaves_model_usable() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(31);
    let schema = gen.schema();
    let all = gen.generate_vec(6_000);
    let base = mem(&schema, all[..5_000].to_vec());
    let algo = Boat::new(config(3100));
    let (mut model, _) = algo.fit_model(&base).unwrap();
    let before = model.tree().unwrap().clone();
    model.check_invariants();

    // A foreign record: same schema, different generator stream.
    let foreign = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(4_242)
        .generate_vec(3);
    let err = model.delete(&mem(&schema, foreign)).unwrap_err();
    model.check_invariants();
    assert!(
        matches!(err, boat_data::DataError::Invalid(_)),
        "absent delete must surface as DataError::Invalid, got {err:?}"
    );

    // The failed delete must be a pure no-op: tree unchanged, and further
    // maintenance still produces exact trees.
    assert_eq!(
        model.tree().unwrap(),
        &before,
        "failed delete must not mutate"
    );
    model.check_invariants();
    model.insert(&mem(&schema, all[5_000..].to_vec())).unwrap();
    model.check_invariants();
    let reference = reference_tree(&mem(&schema, all), Gini, GrowthLimits::default()).unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
}

/// Same regression at the bucket level: a record whose class exists at the
/// node but whose numeric value lands in a bucket that never saw that
/// class must also be rejected (the old code underflowed the bucket cell).
#[test]
fn failed_delete_of_unseen_value_is_rejected() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(32);
    let schema = gen.schema();
    let all = gen.generate_vec(5_000);
    let base = mem(&schema, all.clone());
    let algo = Boat::new(config(3200));
    let (mut model, _) = algo.fit_model(&base).unwrap();
    let before = model.tree().unwrap().clone();
    model.check_invariants();

    // Take a real record but nudge its numeric attributes far outside the
    // observed range — the class totals still match, the cells don't.
    let fields: Vec<boat_data::Field> = (0..schema.attributes().len())
        .map(|a| match all[0].field(a) {
            boat_data::Field::Num(v) => boat_data::Field::Num(v + 1e9),
            other => other,
        })
        .collect();
    let phantom = Record::new(fields, all[0].label());
    let result = model.delete(&mem(&schema, vec![phantom]));
    model.check_invariants();
    assert!(
        result.is_err(),
        "unseen-value delete must fail, not underflow"
    );
    assert_eq!(model.tree().unwrap(), &before);
    model.check_invariants();
}

/// Round-trip identity must also hold when the cleanup scan ran sharded
/// (the parked sets / frontier buffers the updates stream into were merged
/// from per-shard state).
#[test]
fn roundtrip_under_parallel_cleanup() {
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(33);
    let schema = gen.schema();
    let all = gen.generate_vec(7_000);
    let base = mem(&schema, all[..5_000].to_vec());
    let mut cfg = config(3300);
    cfg.cleanup_threads = 4;
    let algo = Boat::new(cfg);
    let (mut model, _) = algo.fit_model(&base).unwrap();
    let original = model.tree().unwrap().clone();
    model.check_invariants();

    let chunk = mem(&schema, all[5_000..].to_vec());
    model.insert(&chunk).unwrap();
    model.check_invariants();
    let reference = reference_tree(&mem(&schema, all.clone()), Gini, GrowthLimits::default());
    assert_eq!(model.tree().unwrap(), &reference.unwrap());
    model.check_invariants();
    model.delete(&chunk).unwrap();
    model.check_invariants();
    assert_eq!(
        model.tree().unwrap(),
        &original,
        "insert(C); delete(C) must round-trip under sharded cleanup"
    );
    model.check_invariants();

    // And an absent delete still errors cleanly on the merged state.
    let foreign = GeneratorConfig::new(LabelFunction::F6)
        .with_seed(5_555)
        .generate_vec(1);
    assert!(model.delete(&mem(&schema, foreign)).is_err());
    model.check_invariants();
    assert_eq!(model.tree().unwrap(), &original);
    model.check_invariants();
}

/// Regression: `MaintainReport::regrown_subtrees` only counted the jobs of
/// promotion round 0. It must equal the number of completion jobs actually
/// *executed* across every round — pinned here against the
/// `boat.jobs.executed` counter delta over the same maintenance pass.
#[test]
fn regrown_subtrees_counts_every_promotion_round() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(34);
    let schema = gen.schema();
    let all = gen.generate_vec(12_000);
    let base = mem(&schema, all[..4_000].to_vec());
    let algo = Boat::new(config(3400));
    let (mut model, _) = algo.fit_model(&base).unwrap();
    let _ = model.tree().unwrap();
    model.check_invariants();

    // Triple the data: frontier families outgrow in_memory_threshold=400,
    // forcing promotions — which splice subtrees and trigger follow-up
    // rounds whose jobs the old accounting dropped.
    model.insert(&mem(&schema, all[4_000..].to_vec())).unwrap();
    model.check_invariants();
    let before = model.metrics().snapshot();
    let report = model.maintain().unwrap();
    let executed = model
        .metrics()
        .snapshot()
        .since(&before)
        .counter("boat.jobs.executed");
    assert!(
        executed > 0,
        "growth must execute at least one completion job"
    );
    assert_eq!(
        report.regrown_subtrees, executed,
        "regrown_subtrees must count executed jobs across all rounds"
    );
    let reference = reference_tree(&mem(&schema, all), Gini, GrowthLimits::default()).unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    model.check_invariants();
}

/// Regression: an empty (or cleanly failed) chunk used to invalidate the
/// materialized tree, forcing a full needless verification pass on the
/// next `tree()`. Pinned via the `boat.incremental.maintain_runs` counter.
#[test]
fn empty_chunk_does_not_invalidate_tree() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(35);
    let schema = gen.schema();
    let base = mem(&schema, gen.generate_vec(4_000));
    let algo = Boat::new(config(3500));
    let (mut model, _) = algo.fit_model(&base).unwrap();
    let _ = model.tree().unwrap(); // materialize

    let before = model.metrics().snapshot();
    let report = model.insert(&mem(&schema, Vec::new())).unwrap();
    model.check_invariants();
    assert_eq!(report.inserted, 0);
    model.delete(&mem(&schema, Vec::new())).unwrap();
    model.check_invariants();
    // An absent delete that fails validation on its first record is a
    // guaranteed no-op too.
    let foreign = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(6_060)
        .generate_vec(1);
    let _ = model.delete(&mem(&schema, foreign)).unwrap_err();
    model.check_invariants();

    let _ = model.tree().unwrap();
    model.check_invariants();
    let delta = model.metrics().snapshot().since(&before);
    assert_eq!(
        delta.counter("boat.incremental.maintain_runs"),
        0,
        "no-op chunks must not schedule maintenance"
    );
    assert_eq!(delta.counter("boat.incremental.update_chunks"), 3);
}

#[test]
fn update_with_mismatched_schema_errors() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(29);
    let base = mem(&gen.schema(), gen.generate_vec(2_000));
    let algo = Boat::new(config(2800));
    let (mut model, _) = algo.fit_model(&base).unwrap();

    let other = GeneratorConfig::new(LabelFunction::F1).with_extra_attrs(1);
    let chunk = MemoryDataset::new(other.schema(), other.generate_vec(10));
    assert!(model.insert(&chunk).is_err());
    model.check_invariants();
}

#[test]
fn many_small_chunks_match_one_big_chunk() {
    // Figure 15's question: does chunk granularity change the result? It
    // must not (and the harness shows it barely changes the cost).
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(30);
    let schema = gen.schema();
    let all = gen.generate_vec(9_000);
    let algo = Boat::new(config(2900));

    let (mut small_chunks, _) = algo
        .fit_model(&mem(&schema, all[..3_000].to_vec()))
        .unwrap();
    for start in (3_000..9_000).step_by(1_000) {
        small_chunks
            .insert(&mem(&schema, all[start..start + 1_000].to_vec()))
            .unwrap();
        small_chunks.check_invariants();
    }

    let (mut one_chunk, _) = algo
        .fit_model(&mem(&schema, all[..3_000].to_vec()))
        .unwrap();
    one_chunk
        .insert(&mem(&schema, all[3_000..].to_vec()))
        .unwrap();
    one_chunk.check_invariants();

    assert_eq!(small_chunks.tree().unwrap(), one_chunk.tree().unwrap());
    small_chunks.check_invariants();
    one_chunk.check_invariants();
    let reference = reference_tree(&mem(&schema, all), Gini, GrowthLimits::default()).unwrap();
    assert_eq!(small_chunks.tree().unwrap(), &reference);
    small_chunks.check_invariants();
}

/// Batched-deletion regression (the `remove_many` fix): deleting a chunk
/// rewrites each touched spill buffer **once**, not once per deleted
/// record, so the `data.spill.*` write counters must shrink dramatically
/// versus issuing the same deletions one record at a time — while both
/// paths leave byte-identical maintained trees.
#[test]
fn batch_delete_shrinks_spill_write_traffic() {
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(31);
    let schema = gen.schema();
    let all = gen.generate_vec(6_000);
    // Tight spill budget so parked sets and families genuinely hit disk.
    let cfg = BoatConfig {
        spill_budget: 8,
        ..config(3100)
    };
    let victims = &all[4_500..];

    let deletion_io = |chunks: Vec<Vec<Record>>| {
        let registry = boat_obs::Registry::new();
        let algo = Boat::new(cfg.clone()).with_metrics(registry.clone());
        let (mut model, _) = algo.fit_model(&mem(&schema, all.clone())).unwrap();
        let before = registry.snapshot();
        for chunk in chunks {
            model.delete(&mem(&schema, chunk)).unwrap();
        }
        let delta = registry.snapshot().since(&before);
        // Checked after the delta is taken, so it counts only the
        // deletions' spill traffic.
        model.check_invariants();
        let tree = model.tree().unwrap().clone();
        model.check_invariants();
        (
            delta.counter("data.spill.records_written"),
            delta.counter("data.spill.bytes_written"),
            tree,
        )
    };

    // One record per chunk: every deletion pays its own buffer rewrite —
    // the old O(D·n) spill traffic.
    let (serial_records, serial_bytes, serial_tree) =
        deletion_io(victims.iter().map(|r| vec![r.clone()]).collect());
    // One chunk: every touched buffer is rewritten once.
    let (batch_records, batch_bytes, batch_tree) = deletion_io(vec![victims.to_vec()]);

    assert_eq!(serial_tree, batch_tree, "delete batching changed the tree");
    let reference = reference_tree(
        &mem(&schema, all[..4_500].to_vec()),
        Gini,
        GrowthLimits::default(),
    )
    .unwrap();
    assert_eq!(batch_tree, reference);
    assert!(
        batch_records * 4 <= serial_records && batch_bytes * 4 <= serial_bytes,
        "batched deletes must shrink spill writes by at least 4x: \
         batch wrote {batch_records} records / {batch_bytes} bytes, \
         per-record wrote {serial_records} records / {serial_bytes} bytes"
    );
}

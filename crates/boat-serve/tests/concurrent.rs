//! Maintain-while-serving: the serving invariant under real concurrency.
//!
//! While `BoatModel::maintain` runs on one thread and publishes through a
//! [`ModelHandle`], reader threads must only ever observe the
//! **pre-maintenance** or the **post-maintenance** compiled tree — never a
//! torn mix — and the post-swap tree must equal a fresh single-threaded
//! rebuild on the net training data.

use boat_core::{reference_tree, Boat, BoatConfig};
use boat_data::{MemoryDataset, Record, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_serve::{
    compile, publish_on_maintain, ModelHandle, RecordBlock, ServeConfig, ServeEngine,
};
use boat_tree::{Gini, GrowthLimits};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 1_000,
        bootstrap_reps: 8,
        bootstrap_sample_size: 400,
        in_memory_threshold: 300,
        spill_budget: 32,
        seed,
        ..BoatConfig::default()
    }
}

fn mem(schema: &Arc<Schema>, records: Vec<Record>) -> MemoryDataset {
    MemoryDataset::new(schema.clone(), records)
}

/// Predict every probe against one snapshot; the resulting vector is the
/// snapshot's "fingerprint" for torn-state detection.
fn fingerprint(tree: &boat_serve::CompiledTree, schema: &Schema, probes: &[Record]) -> Vec<u16> {
    tree.predict_batch(&RecordBlock::from_records(schema, probes))
}

/// Readers hammering `snapshot_with_epoch` while maintenance publishes:
/// every `(epoch, fingerprint)` pair a reader observes must be exactly
/// the pre- or the post-maintenance pair — epochs and predictions must
/// never cross.
#[test]
fn readers_observe_only_pre_or_post_maintenance_trees() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(91);
    let schema = gen.schema();
    let all = gen.generate_vec(8_000);
    let probes = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(92)
        .generate_vec(512);

    let algo = Boat::new(config(9100));
    let (mut model, _) = algo
        .fit_model(&mem(&schema, all[..5_000].to_vec()))
        .unwrap();
    let handle = ModelHandle::new(compile(&boat_tree::Tree::leaf(vec![1, 0])));
    let epoch0 = publish_on_maintain(&mut model, &handle).unwrap();
    // publish_on_maintain publishes the initial tree on top of the
    // placeholder, so readers start at epoch 1.
    assert_eq!(epoch0, 1);

    let pre = fingerprint(&handle.snapshot(), &schema, &probes);

    // Stream the update in *before* starting readers (absorption mutates
    // the model single-threadedly); maintenance — the phase the paper
    // overlaps with serving — runs while readers spin.
    model.insert(&mem(&schema, all[5_000..].to_vec())).unwrap();

    // Every reader has started before maintenance does, and each takes at
    // least one snapshot, even when maintain finishes before the reader is
    // scheduled again.
    let stop = Arc::new(AtomicBool::new(false));
    let readers = 4;
    let started = Barrier::new(readers + 1);
    let mut observations: Vec<Vec<(u64, Vec<u16>)>> = Vec::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for _ in 0..readers {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let (schema, probes, started) = (&schema, &probes, &started);
            joins.push(s.spawn(move || {
                let mut seen = Vec::new();
                started.wait();
                loop {
                    let (snap, epoch) = handle.snapshot_with_epoch();
                    seen.push((epoch, fingerprint(&snap, schema, probes)));
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                seen
            }));
        }
        started.wait();
        model.maintain().unwrap();
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            observations.push(j.join().unwrap());
        }
    });

    assert_eq!(handle.epoch(), 2, "maintain must have published once");
    let post = fingerprint(&handle.snapshot(), &schema, &probes);
    let mut n_obs = 0usize;
    for (epoch, fp) in observations.into_iter().flatten() {
        n_obs += 1;
        match epoch {
            1 => assert_eq!(fp, pre, "epoch-1 reader saw non-pre predictions"),
            2 => assert_eq!(fp, post, "epoch-2 reader saw non-post predictions"),
            e => panic!("reader observed impossible epoch {e}"),
        }
    }
    assert!(n_obs > 0, "readers never observed a snapshot");
}

/// The post-swap snapshot equals a fresh single-threaded rebuild on the
/// net data, bit-for-bit (compiled tables compared byte-wise).
#[test]
fn post_swap_snapshot_equals_fresh_rebuild() {
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(93);
    let schema = gen.schema();
    let all = gen.generate_vec(7_000);

    let algo = Boat::new(config(9300));
    let (mut model, _) = algo
        .fit_model(&mem(&schema, all[..4_000].to_vec()))
        .unwrap();
    let handle = ModelHandle::new(compile(&boat_tree::Tree::leaf(vec![1, 0])));
    publish_on_maintain(&mut model, &handle).unwrap();

    model.insert(&mem(&schema, all[4_000..].to_vec())).unwrap();
    model.delete(&mem(&schema, all[..1_500].to_vec())).unwrap();
    model.maintain().unwrap();

    let rebuilt = reference_tree(
        &mem(&schema, all[1_500..].to_vec()),
        Gini,
        GrowthLimits::default(),
    )
    .unwrap();
    assert_eq!(
        handle.snapshot().table_bytes(),
        compile(&rebuilt).table_bytes(),
        "published snapshot diverges from a fresh rebuild"
    );
}

/// End-to-end through the [`ServeEngine`]: score batches from several
/// producer threads while maintenance swaps the model underneath. Every
/// returned batch must match the pre- or the post-maintenance tree *in
/// its entirety*, as identified by the epoch the worker scored under.
#[test]
fn serve_engine_batches_are_never_torn_across_a_swap() {
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(94);
    let schema = gen.schema();
    let all = gen.generate_vec(8_000);

    let algo = Boat::new(config(9400));
    let (mut model, _) = algo
        .fit_model(&mem(&schema, all[..5_000].to_vec()))
        .unwrap();
    let handle = ModelHandle::new(compile(&boat_tree::Tree::leaf(vec![1, 0])));
    publish_on_maintain(&mut model, &handle).unwrap();

    let probes = GeneratorConfig::new(LabelFunction::F2)
        .with_seed(95)
        .generate_vec(2_048);
    let pre_tree = handle.snapshot();

    model.insert(&mem(&schema, all[5_000..].to_vec())).unwrap();

    let engine = ServeEngine::start(
        handle.clone(),
        schema.clone(),
        ServeConfig {
            workers: 3,
            queue_depth: 8,
        },
    );

    // Producers submit micro-batches while the maintainer publishes.
    let mut results: Vec<(Vec<Record>, Vec<u16>, u64)> = Vec::new();
    std::thread::scope(|s| {
        let maintainer = s.spawn(|| {
            model.maintain().unwrap();
            model
        });
        for round in 0..40 {
            let batch: Vec<Record> = probes[(round * 32) % 1024..][..64].to_vec();
            let ticket = engine.submit(batch.clone()).unwrap();
            let (preds, epoch) = ticket.wait_with_epoch();
            results.push((batch, preds, epoch));
        }
        maintainer.join().unwrap()
    });
    engine.shutdown();

    assert_eq!(handle.epoch(), 2);
    let post_tree = handle.snapshot();
    for (batch, preds, epoch) in results {
        let expect_tree = match epoch {
            1 => &pre_tree,
            2 => &post_tree,
            e => panic!("batch scored under impossible epoch {e}"),
        };
        let expected = fingerprint(expect_tree, &schema, &batch);
        assert_eq!(preds, expected, "batch scored under epoch {epoch} is torn");
    }
}

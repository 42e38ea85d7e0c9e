//! Release-only speed floors for the serving and provenance paths.
//!
//! ```sh
//! cargo test --release -p boat-serve --test floors
//! ```
//!
//! Each floor compares two paths over the **same inputs with identical
//! outputs** (asserted before any timing is compared), so a floor trips
//! only on a real slowdown of one path against the other:
//!
//! * batched compiled scoring ≥ 1.0× interpreted `Tree::predict`;
//! * the one-worker [`ServeEngine`] ≥ 1.0× interpreted;
//! * one-worker engine p99 latency (`serve.latency_ns`) ≤ 250 ms — trips
//!   only on a pathological stall such as a lost wakeup;
//! * the steady-state incremental recommit (cheapest of the maintain
//!   epochs) ≤ 2.0× the tree compile it rides on;
//! * standalone `verify_prediction` ≥ 20,000 proofs/s.
//!
//! The bounds are conservative for shared multi-tenant runners. Timings
//! are meaningless in a debug build, so every test here is ignored there.
//! The exactness oracles for the same paths run in every build:
//! `differential`, `sharded_differential`, `serve_concurrency`,
//! `provenance` and `provenance_stream`.

use boat_core::{Boat, BoatConfig};
use boat_data::{MemoryDataset, Record, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_obs::Registry;
use boat_proof::{verify_prediction, PredictionProof, ProofValue};
use boat_serve::{
    compile, publish_on_maintain, record_values, tree_commit, tree_commit_reusing, BatchScratch,
    ModelHandle, RecordBlock, ServeConfig, ServeEngine,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Held by every floor so two timed sections never share the CPU.
static TIMED: Mutex<()> = Mutex::new(());

/// Best-of-`reps` wall time of `inner` back-to-back runs of `f`
/// (returning `f`'s last result), reported per inner run.
fn best_of<T>(reps: u64, inner: u64, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            result = Some(f());
        }
        best = best.min(t.elapsed() / inner as u32);
    }
    (best, result.expect("reps >= 1"))
}

fn rps(n: usize, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64().max(1e-9)
}

/// A BOAT model over `4 * probes` F1 rows with 8 % label noise, grown to
/// purity so the tree has serving-realistic depth.
fn noisy_f1_model(probes: usize, seed: u64) -> (Arc<Schema>, boat_core::BoatModel) {
    let gen = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(seed)
        .with_noise(0.08);
    let train = 4 * probes;
    let data = MemoryDataset::new(gen.schema(), gen.generate_vec(train));
    let config = BoatConfig {
        limits: boat_tree::GrowthLimits::default(),
        ..BoatConfig::scaled_for(train as u64).with_seed(seed ^ 0x5E7)
    };
    let (model, _) = Boat::new(config).fit_model(&data).unwrap();
    (gen.schema(), model)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing floors are release-only")]
fn serve_floors() {
    let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
    let (n, batch, engine_batch, seed) = (8_000usize, 4_000usize, 2_000usize, 424_242u64);
    let (reps, inner, engine_inner) = (3, 16, 8);
    let (schema, mut model) = noisy_f1_model(n, seed);
    let metrics = Registry::new();
    let handle =
        ModelHandle::with_metrics(compile(&boat_tree::Tree::leaf(vec![1, 0])), metrics.clone());
    publish_on_maintain(&mut model, &handle).unwrap();
    let tree = model.tree().unwrap().clone();
    let compiled = handle.snapshot();
    let probes: Arc<Vec<Record>> = Arc::new(
        GeneratorConfig::new(LabelFunction::F1)
            .with_seed(seed + 1)
            .generate_vec(n),
    );

    let (t_interp, interp) = best_of(reps, inner, || {
        probes.iter().map(|r| tree.predict(r)).collect::<Vec<u16>>()
    });
    let mut scratch = BatchScratch::default();
    let mut labels = Vec::new();
    let (t_batched, batched) = best_of(reps, inner, || {
        let mut preds = Vec::with_capacity(n);
        for chunk in probes.chunks(batch) {
            let block = RecordBlock::from_records(&schema, chunk);
            compiled.predict_batch_into(&block, &mut scratch, &mut labels);
            preds.extend_from_slice(&labels);
        }
        preds
    });
    let engine = ServeEngine::start(
        handle.clone(),
        schema.clone(),
        ServeConfig {
            workers: 1,
            queue_depth: 64,
        },
    );
    let (t_engine, served) = best_of(reps, engine_inner, || {
        let tickets: Vec<_> = (0..n)
            .step_by(engine_batch)
            .map(|start| {
                let end = (start + engine_batch).min(n);
                engine
                    .submit_shared(Arc::clone(&probes), start..end)
                    .unwrap()
            })
            .collect();
        tickets
            .into_iter()
            .flat_map(|t| t.wait())
            .collect::<Vec<u16>>()
    });
    engine.shutdown();
    assert_eq!(
        interp, batched,
        "compiled batched diverges from interpreted"
    );
    assert_eq!(
        interp, served,
        "one-worker engine diverges from interpreted"
    );

    let speedup_batched = rps(n, t_batched) / rps(n, t_interp);
    let speedup_engine = rps(n, t_engine) / rps(n, t_interp);
    let p99_ns = metrics
        .snapshot()
        .histogram("serve.latency_ns")
        .expect("engine records serve.latency_ns")
        .quantile(0.99)
        .unwrap_or(0);
    println!(
        "{} nodes: batched {speedup_batched:.2}x, engine {speedup_engine:.2}x vs interpreted, \
         engine p99 {p99_ns} ns",
        tree.n_nodes()
    );
    assert!(
        speedup_batched >= 1.0,
        "batched compiled speedup {speedup_batched:.2}x is below the 1.0x floor"
    );
    assert!(
        speedup_engine >= 1.0,
        "one-worker engine speedup {speedup_engine:.2}x is below the 1.0x floor"
    );
    assert!(
        p99_ns <= 250_000_000,
        "one-worker engine p99 latency {p99_ns} ns is above the 250 ms ceiling"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing floors are release-only")]
fn provenance_floors() {
    let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
    let (n, commit_epochs, delta_n, seed) = (4_000usize, 4u64, 32usize, 434_343u64);
    let (reps, inner) = (3, 8);
    let (schema, mut model) = noisy_f1_model(n, seed);
    let mut prev_commit = tree_commit(&compile(model.tree().unwrap())).unwrap();

    // Commitment cost over real maintain epochs: each inserts a small
    // delta, maintains, and times the incremental recommit against the
    // compile of the regrown tree. The floor is the cheapest epoch — the
    // steady state, where the recommit mostly block-copies hashes.
    let mut floor = f64::INFINITY;
    let mut last = None;
    for e in 0..commit_epochs {
        let delta = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(seed + 7 + e * 131)
            .with_noise(0.08)
            .generate_vec(delta_n);
        model
            .insert(&MemoryDataset::new(schema.clone(), delta))
            .unwrap();
        model.maintain().unwrap();
        let tree = model.tree().unwrap().clone();
        let (t_compile, compiled) = best_of(reps, inner, || compile(&tree));
        let (t_incr, incr) = best_of(reps, inner, || {
            tree_commit_reusing(&compiled, &prev_commit).unwrap()
        });
        assert_eq!(incr.root(), tree_commit(&compiled).unwrap().root());
        floor = floor.min(t_incr.as_secs_f64() / t_compile.as_secs_f64().max(1e-12));
        prev_commit = incr;
        last = Some(compiled);
    }
    let compiled = last.expect("at least one epoch");

    // Standalone verification throughput over fresh probes.
    let probes = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(seed + 1)
        .generate_vec(n);
    let proved: Vec<(u16, PredictionProof)> = probes
        .iter()
        .map(|r| prev_commit.prove(&record_values(r)).unwrap())
        .collect();
    for ((label, _), record) in proved.iter().zip(&probes) {
        assert_eq!(*label, compiled.predict(record), "prover diverged");
    }
    let values: Vec<Vec<ProofValue>> = probes.iter().map(record_values).collect();
    let root = prev_commit.root();
    let (t_verify, ok) = best_of(reps, inner, || {
        values
            .iter()
            .zip(&proved)
            .all(|(v, (label, p))| verify_prediction(&root, v, *label, p).is_ok())
    });
    assert!(ok, "every untampered proof must verify");
    let verify_rps = rps(n, t_verify);
    println!(
        "{} nodes: steady-state recommit {floor:.3}x of compile, verify {verify_rps:.0}/s",
        compiled.n_nodes()
    );
    assert!(
        floor <= 2.0,
        "steady-state incremental recommit is {floor:.3}x of compile (cheapest of \
         {commit_epochs} maintain epochs), above the 2.0x ceiling"
    );
    assert!(
        verify_rps >= 20_000.0,
        "proof verification at {verify_rps:.0}/s is below the 20,000/s floor"
    );
}

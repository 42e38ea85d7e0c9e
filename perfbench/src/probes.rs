//! Per-layer probes every traced run takes on its own workload's input and
//! tree: one timed call into each layer, repeated and reported as a median.

use crate::report::Outcome;
use crate::stats::median;
use boat_core::coarse::build_coarse_tree;
use boat_core::BoatConfig;
use boat_data::sample::reservoir_sample;
use boat_data::{DataError, Record, RecordSource};
use boat_serve::{compile, record_values, tree_commit, CompiledTree, ModelHandle, RecordBlock};
use boat_tree::{
    grow_weighted_gated, ColumnarSample, Gini, ImpuritySelector, SubsampleRuntime, SubsampleStats,
    Tree,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Records in the in-memory sample the tree and coarse probes build on.
const SAMPLE: usize = 40_000;
/// Records each proof is generated and checked for.
const PROOF_RECORDS: usize = 1_000;

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Per-call time in microseconds: the median over `groups` groups of
/// `inner` back-to-back calls, so calls shorter than the clock's
/// resolution still time reliably.
fn time_us<T>(groups: usize, inner: usize, mut f: impl FnMut() -> T) -> f64 {
    let inner = inner.max(1);
    let times: Vec<f64> = (0..groups.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e6 / inner as f64
        })
        .collect();
    median(&times)
}

/// Probe boat-data, boat-tree, boat-core, boat-serve and boat-proof on
/// `input` (the workload's training input) and `tree` (its current tree).
pub fn layer_probes(
    out: &mut Outcome,
    input: &dyn RecordSource,
    tree: &Tree,
    config: &BoatConfig,
) -> Result<(), DataError> {
    let schema = input.schema().clone();

    // boat-data: one full sequential scan.
    let mut scanned = 0u64;
    let scan_ms = {
        let mut times = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            scanned = 0;
            for r in input.scan()? {
                black_box(r?);
                scanned += 1;
            }
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        median(&times)
    };
    out.fail_unless(scanned == input.len(), || {
        format!("scan read {scanned} of {} records", input.len())
    });
    out.set("data.scan_ms", scan_ms);

    // boat-tree and boat-core on an in-memory sample of the input.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sample = reservoir_sample(input, SAMPLE, &mut rng)?;
    let selector = ImpuritySelector::new(Gini);
    let gate_stats = SubsampleStats::default();
    let gate = config.subsample_params().map(|params| SubsampleRuntime {
        params,
        seed: config.seed,
        stats: &gate_stats,
    });
    let ones = vec![1u32; sample.len()];
    out.set(
        "tree.columnar_build_ms",
        time_ms(3, || {
            let cs = ColumnarSample::from_records(&schema, &sample);
            grow_weighted_gated(&cs, &ones, &selector, config.limits, gate.as_ref())
        }),
    );
    out.set("tree.nodes", tree.n_nodes() as f64);
    out.set(
        "core.coarse_ms",
        time_ms(3, || {
            let mut rng = StdRng::seed_from_u64(config.seed);
            build_coarse_tree(
                &schema,
                &sample,
                &selector,
                config,
                input.len(),
                &mut rng,
                &boat_obs::Registry::new(),
            )
        }),
    );

    // boat-serve: compile, publish, transpose and score.
    out.set("serve.compile_ms", time_ms(5, || compile(tree)));
    let compiled = compile(tree);
    out.set("serve.tree_nodes", compiled.n_nodes() as f64);
    out.set(
        "serve.compiled_kb",
        compiled.table_size_bytes() as f64 / 1024.0,
    );
    let handle = ModelHandle::new(compiled.clone());
    let publish_us: Vec<f64> = (0..20)
        .map(|_| {
            let next = compiled.clone();
            let t = Instant::now();
            handle.publish(next);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("serve.publish_us", median(&publish_us));
    for (n, transpose, score, inner) in [
        (64, "serve.transpose_us_64", "serve.score_us_64", 2_000),
        (4_000, "serve.transpose_us_4000", "serve.score_us_4000", 50),
    ] {
        let records = &sample[..n.min(sample.len())];
        out.set(
            transpose,
            time_us(5, inner, || RecordBlock::from_records(&schema, records)),
        );
        let block = RecordBlock::from_records(&schema, records);
        out.set(score, time_us(5, inner, || compiled.predict_batch(&block)));
        check_labels(out, &compiled, tree, &block, records);
    }

    // boat-proof: commit, prove, verify.
    out.set("proof.commit_ms", time_ms(3, || tree_commit(&compiled)));
    let commit = tree_commit(&compiled).map_err(|e| DataError::Invalid(e.to_string()))?;
    let root = commit.root();
    let records = &sample[..PROOF_RECORDS.min(sample.len())];
    let values: Vec<_> = records.iter().map(record_values).collect();
    let t = Instant::now();
    let proofs: Vec<_> = values.iter().map(|v| commit.prove(v)).collect();
    out.set(
        "proof.prove_us",
        t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64,
    );
    let t = Instant::now();
    let verdicts: Vec<bool> = values
        .iter()
        .zip(&proofs)
        .map(|(v, p)| match p {
            Ok((label, proof)) => boat_proof::verify_prediction(&root, v, *label, proof).is_ok(),
            Err(_) => false,
        })
        .collect();
    out.set(
        "proof.verify_us",
        t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64,
    );
    let bytes: usize = proofs.iter().flatten().map(|(_, p)| p.wire_len()).sum();
    out.set("proof.bytes", bytes as f64 / records.len().max(1) as f64);
    for ((record, verdict), proof) in records.iter().zip(verdicts).zip(&proofs) {
        let label_ok = proof
            .as_ref()
            .is_ok_and(|(l, _)| *l == tree.predict(record));
        out.attempt(verdict && label_ok, || {
            "probe proof failed to verify".into()
        });
    }
    Ok(())
}

/// Count one check: batched scoring agrees with `Tree::predict`.
fn check_labels(
    out: &mut Outcome,
    compiled: &CompiledTree,
    tree: &Tree,
    block: &RecordBlock,
    records: &[Record],
) {
    let labels = compiled.predict_batch(block);
    let ok = labels.len() == records.len()
        && labels
            .iter()
            .zip(records)
            .all(|(l, r)| *l == tree.predict(r));
    out.attempt(ok, || "batched scoring disagrees with Tree::predict".into());
}

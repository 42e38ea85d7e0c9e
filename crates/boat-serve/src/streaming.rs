//! Serve-side wiring for the streaming write path.
//!
//! [`spawn_streaming`] closes the loop that `publish_on_maintain` opened:
//! the [`StreamingBoat`] daemon owns the model, every trigger-driven
//! maintain republishes through the model's publish hook, and the
//! returned daemon carries the [`ModelHandle`] as its publication token —
//! [`StreamingBoat::handle`] *is* the handle scorer threads (and a
//! [`crate::ServeEngine`]) read from, so the serve engine and the daemon
//! share one publication path and epochs advance automatically with the
//! stream.

use crate::handle::{publish_on_maintain, ModelHandle};
use crate::provenance::{tree_commit, tree_commit_reusing, LedgerSink, ProvenanceLedger};
use boat_core::stream::{StreamConfig, StreamingBoat};
use boat_core::BoatModel;
use boat_data::audit::AuditLog;
use boat_data::Result;
use boat_obs::latency_bounds_ns;
use boat_tree::Impurity;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Spawn the streaming daemon over `model`, publishing every maintained
/// tree to a fresh [`ModelHandle`] (registered in the model's metrics
/// registry). The model's current tree is compiled and published before
/// the daemon starts, so readers never observe an empty handle; each
/// subsequent maintain that materializes a fresh exact tree bumps the
/// epoch.
///
/// Access the handle via [`StreamingBoat::handle`] — clone it into scorer
/// threads or hand it to a [`crate::ServeEngine`].
pub fn spawn_streaming<I: Impurity + Clone + Send + 'static>(
    mut model: BoatModel<I>,
    config: StreamConfig,
) -> Result<StreamingBoat<I, ModelHandle>> {
    let metrics = model.metrics().clone();
    let handle = {
        // Compile the current tree under the model's registry so
        // serve.compile spans and serve.epoch land beside boat.stream.*.
        let span = metrics.span("serve.compile");
        let compiled = crate::compile(model.tree()?);
        span.finish();
        ModelHandle::with_metrics(compiled, metrics)
    };
    publish_on_maintain(&mut model, &handle)?;
    StreamingBoat::spawn_with_publication(model, config, handle)
}

/// Provenance knobs for [`spawn_streaming_committed`].
#[derive(Debug, Clone, Default)]
pub struct ProvenanceConfig {
    /// Where to persist the epoch chain's audit log
    /// ([`boat_data::audit`]); `None` keeps the chain in memory only.
    pub audit_path: Option<PathBuf>,
}

/// [`spawn_streaming`] with authenticated provenance: every published
/// snapshot carries its Merkle commitment, every absorbed WAL operation
/// feeds the pending delta digest, and every maintain seals a chained
/// epoch fingerprint into the returned [`ProvenanceLedger`] (and, if
/// configured, a durable audit log).
///
/// Alignment invariant: the [`ModelHandle`] publication epoch and the
/// ledger's chain epoch advance in lockstep — the initial tree is
/// published *with its commit* as epoch 0 / chain genesis, and each
/// maintain publishes epoch `N` then seals chain epoch `N` over the same
/// Merkle root. A prediction served at handle epoch `N` therefore
/// verifies against `ledger.entries()[N].model_root`.
///
/// Per-epoch cost is recorded under `boat.proof.*`: `commit_ns` (the
/// incremental recommit), `commits`, and `nodes_reused` (subtree hashes
/// block-copied from the previous epoch's commit).
pub fn spawn_streaming_committed<I: Impurity + Clone + Send + 'static>(
    mut model: BoatModel<I>,
    mut config: StreamConfig,
    provenance: ProvenanceConfig,
) -> Result<(StreamingBoat<I, ModelHandle>, ProvenanceLedger)> {
    let metrics = model.metrics().clone();
    let handle = {
        let span = metrics.span("serve.compile");
        let compiled = crate::compile(model.tree()?);
        span.finish();
        let t0 = Instant::now();
        let commit = tree_commit(&compiled).map_err(|e| {
            boat_data::DataError::Invalid(format!("initial tree commit failed: {e}"))
        })?;
        metrics
            .histogram_with("boat.proof.commit_ns", &latency_bounds_ns())
            .record(t0.elapsed().as_nanos() as u64);
        metrics.counter("boat.proof.commits").inc();
        ModelHandle::with_metrics_committed(compiled, Arc::new(commit), metrics.clone())
    };
    let audit = provenance.audit_path.map(AuditLog::create).transpose()?;
    let root = handle.commitment().expect("published with a commit");
    let ledger = ProvenanceLedger::genesis(root, audit)?;

    // The publish hook replaces publish_on_maintain's: compile, recommit
    // incrementally against the previous epoch's commit, publish tree +
    // commit as one record, then seal the chain epoch over the new root.
    // All on the daemon thread, inside `BoatModel::maintain`.
    let hook_handle = handle.clone();
    let hook_ledger = ledger.clone();
    model.set_publish_hook(move |tree| {
        let metrics = hook_handle.metrics().clone();
        let span = metrics.span("serve.compile");
        let compiled = crate::compile(tree);
        span.finish();
        let t0 = Instant::now();
        let commit = match hook_handle.commit() {
            Some(prev) => tree_commit_reusing(&compiled, &prev),
            None => tree_commit(&compiled),
        };
        match commit {
            Ok(commit) => {
                metrics
                    .histogram_with("boat.proof.commit_ns", &latency_bounds_ns())
                    .record(t0.elapsed().as_nanos() as u64);
                metrics.counter("boat.proof.commits").inc();
                metrics
                    .counter("boat.proof.nodes_reused")
                    .add(commit.reused_nodes() as u64);
                let root = commit.root();
                hook_handle.publish_committed(compiled, Arc::new(commit));
                hook_ledger.seal(root);
            }
            Err(_) => {
                // Committing a well-formed compiled tree cannot fail; if
                // it ever does, keep serving (uncommitted) and count it.
                metrics.counter("boat.proof.commit_errors").inc();
                hook_handle.publish(compiled);
            }
        }
    });
    config.provenance = Some(Box::new(LedgerSink::new(ledger.clone())));
    let streaming = StreamingBoat::spawn_with_publication(model, config, handle)?;
    Ok((streaming, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_core::{Boat, BoatConfig};
    use boat_data::{Attribute, Field, MemoryDataset, Record, Schema};

    fn dataset(n: usize) -> MemoryDataset {
        let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
        let records = (0..n)
            .map(|i| {
                let x = i as f64;
                Record::new(vec![Field::Num(x)], u16::from(x >= n as f64 / 2.0))
            })
            .collect();
        MemoryDataset::new(schema, records)
    }

    #[test]
    fn epochs_advance_with_the_stream() {
        let base = dataset(1_500);
        let config = BoatConfig {
            seed: 7,
            sample_size: 1_200,
            bootstrap_reps: 10,
            bootstrap_sample_size: 500,
            in_memory_threshold: 400,
            ..BoatConfig::default()
        };
        let algo = Boat::new(config);
        let (model, _) = algo.fit_model(&base).unwrap();
        let streaming = spawn_streaming(
            model,
            StreamConfig {
                staleness: boat_core::StalenessBound {
                    max_records: 64,
                    max_age: None,
                },
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let handle = streaming.handle().clone();
        // Epoch 0 is the handle's initial tree; publish_on_maintain
        // republishes the same tree as epoch 1 when installing the hook.
        let start_epoch = handle.epoch();
        assert!(start_epoch >= 1, "current tree published before spawn");
        let mut reader = handle.reader();
        let (_, e0) = reader.current();
        assert_eq!(e0, start_epoch);
        // Stream enough records to trip the record-count trigger.
        for batch in 0..4 {
            let records = (0..64)
                .map(|i| Record::new(vec![Field::Num((2_000 + batch * 64 + i) as f64)], 1))
                .collect();
            streaming.insert(records).unwrap();
        }
        let report = streaming.quiesce().unwrap();
        assert!(report.stats.maintains >= 1);
        assert_eq!(report.stats.bound_violations, 0);
        assert!(
            handle.epoch() > start_epoch,
            "maintains must republish through the shared handle"
        );
        // The published snapshot is the daemon's exact tree.
        let (model, _) = streaming.finish().unwrap();
        let mut model = model;
        let tree = model.tree().unwrap();
        let published = handle.snapshot();
        assert_eq!(
            published.table_bytes(),
            crate::compile(tree).table_bytes(),
            "served snapshot must be the compiled exact tree"
        );
    }
}

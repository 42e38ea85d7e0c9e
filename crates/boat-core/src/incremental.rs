//! Incremental maintenance in a dynamic environment (paper §4).
//!
//! [`BoatModel`] retains everything the cleanup phase collected — per-node
//! coarse criteria, category/bucket counts, the parked sets `S_n`, and the
//! frontier family buffers — so that a new chunk of training data can be
//! *streamed down the tree exactly as if it were part of the original
//! cleanup scan*: an insert or a delete routes its chunk with the fit's
//! cleanup routers (`WorkTree::route_batch`), on `cleanup_threads` routers
//! in chunks of `cleanup_chunk_size`, so there is one tuple walk for fits
//! and updates alike. The routed counts and rows are held until the whole
//! chunk has routed, then applied at once: an insert adds them, and a
//! delete, once the model's counts cover the chunk's at every node and each
//! buffer holds the chunk's rows there, subtracts the counts and removes
//! the rows. So an update is all or nothing: a malformed record, a failed
//! read, or a record absent or deleted more often than it is held changes
//! nothing. The verification pass (and any subtree maintenance it
//! triggers) runs lazily, when the tree is next requested, so a burst of
//! chunks pays for verification once. The resulting tree is guaranteed to
//! be identical to a complete re-build on the modified training database.
//!
//! Cost model (matching the paper's §4 discussion): if the chunks come
//! from the same underlying distribution, every coarse criterion keeps
//! verifying and maintenance touches only counters, parked buffers and the
//! frontier subtrees the chunks' tuples actually reach — the original
//! training database is **never rescanned**. If the distribution changed
//! somewhere, verification fails exactly at the affected subtree, and only
//! that subtree is rebuilt (from records the model itself retained).
//! Every regrown family — a failed node's or a frontier leaf's, however
//! large it has become — is grown in memory, so the maintained region is
//! the coarse tree of the initial fit.

use crate::boat::{Boat, BoatFit};
use crate::config::BoatConfig;
use crate::stats::BoatRunStats;
use crate::work::{Resolution, WorkTree};
use boat_data::dataset::RecordSource;
use boat_data::{DataError, Result};
use boat_tree::{Gini, Impurity, Tree};
use std::time::{Duration, Instant};

/// What happened while absorbing one chunk (streaming only; verification
/// happens at the next [`BoatModel::tree`] / [`BoatModel::maintain`]).
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Records inserted.
    pub inserted: u64,
    /// Records deleted.
    pub deleted: u64,
    /// Wall time of streaming the chunk down the tree.
    pub time: Duration,
}

/// What the (lazy) maintenance pass did.
#[derive(Debug, Clone, Default)]
pub struct MaintainReport {
    /// Coarse nodes whose criterion failed verification (their subtrees
    /// were rebuilt).
    pub failed_nodes: u64,
    /// Completion jobs executed: subtrees grown or regrown in memory. A
    /// job whose grown subtree is provably unchanged is reused, not counted.
    pub regrown_subtrees: u64,
    /// Wall time of verification + completion.
    pub time: Duration,
}

/// Observer invoked with every freshly materialized exact tree (see
/// [`BoatModel::set_publish_hook`]).
type PublishHook = Box<dyn Fn(&Tree) + Send>;

/// A maintained BOAT model: per-node state that absorbs insert/delete
/// chunks, plus the (lazily materialized) current exact tree.
pub struct BoatModel<I: Impurity + Clone = Gini> {
    algo: Boat<I>,
    work: WorkTree,
    tree: Option<Tree>,
    /// Observer invoked with every freshly materialized exact tree (see
    /// [`BoatModel::set_publish_hook`]). Not cloned with the model.
    publish_hook: Option<PublishHook>,
}

impl<I: Impurity + Clone> Boat<I> {
    /// Build a maintainable model (paper §4). Compared to [`Boat::fit`],
    /// frontier nodes additionally retain their family records, so updates
    /// never need to rescan the original training database.
    pub fn fit_model(&self, source: &dyn RecordSource) -> Result<(BoatModel<I>, BoatRunStats)>
    where
        I: Clone,
    {
        self.config().validate().map_err(DataError::Invalid)?;
        let metrics_before = self.metrics().snapshot();
        let input_before = source.metrics().snapshot();
        self.metrics().counter("boat.fit.runs").inc();
        let (work, mut stats) = self.fit_work(source, true)?;
        let tree = work.extract_tree();
        self.finish_stats(&mut stats, source, &input_before, &metrics_before);
        Ok((
            BoatModel {
                algo: self.clone(),
                work,
                tree: Some(tree),
                publish_hook: None,
            },
            stats,
        ))
    }
}

impl<I: Impurity + Clone> BoatModel<I> {
    /// The current decision tree — always identical to a full rebuild on
    /// the net training data. Runs any pending maintenance first.
    pub fn tree(&mut self) -> Result<&Tree> {
        self.maintain()?;
        Ok(self.tree.as_ref().expect("maintain materializes the tree"))
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &BoatConfig {
        self.algo.config()
    }

    /// The schema of the training data this model maintains.
    pub fn schema(&self) -> &std::sync::Arc<boat_data::Schema> {
        &self.work.schema
    }

    /// Incorporate a chunk of new training records (one scan over the
    /// chunk; verification is deferred to the next [`BoatModel::tree`]).
    /// All or nothing: a malformed record or a failed read is an error
    /// that leaves the model as it was.
    pub fn insert(&mut self, chunk: &dyn RecordSource) -> Result<UpdateReport> {
        self.update(chunk, false)
    }

    /// Remove a chunk of training records (one scan over the chunk). All or
    /// nothing: if a record is absent, or listed more often than the model
    /// holds it, the call is [`DataError::Invalid`] and leaves the model as
    /// it was, as does a malformed record or a failed read.
    pub fn delete(&mut self, chunk: &dyn RecordSource) -> Result<UpdateReport> {
        self.update(chunk, true)
    }

    fn update(&mut self, chunk: &dyn RecordSource, delete: bool) -> Result<UpdateReport> {
        if **chunk.schema() != *self.work.schema {
            return Err(DataError::Schema("update chunk schema mismatch".into()));
        }
        let metrics = self.algo.metrics().clone();
        let _span = metrics.span("boat.incremental.update");
        metrics.counter("boat.incremental.update_chunks").inc();
        let t0 = Instant::now();
        // The whole chunk routes, and a delete is checked, before anything
        // changes, so every failure up to `apply` leaves the model as it was.
        let config = self.algo.config();
        let batch = self.work.route_batch(
            chunk,
            config.effective_cleanup_threads(),
            config.cleanup_chunk_size,
        )?;
        if delete {
            self.work.check_delete(&batch)?;
        }
        let n = batch.len();
        // An empty chunk leaves the tree current: invalidating it anyway
        // would force a needless verification pass on the next `tree()`.
        if n > 0 {
            self.tree = None; // maintenance pending
        }
        self.work.apply(batch, delete)?;
        let (inserted, deleted) = if delete { (0, n) } else { (n, 0) };
        metrics.counter("boat.incremental.inserts").add(inserted);
        metrics.counter("boat.incremental.deletes").add(deleted);
        Ok(UpdateReport {
            inserted,
            deleted,
            time: t0.elapsed(),
        })
    }

    /// Run pending maintenance now: one verification pass, then the
    /// in-memory regrowth of every subtree it left to complete.
    /// Idempotent; a no-op when the tree is already current.
    pub fn maintain(&mut self) -> Result<MaintainReport> {
        let mut report = MaintainReport::default();
        if self.tree.is_some() {
            return Ok(report);
        }
        let metrics = self.algo.metrics().clone();
        let span = metrics.span("boat.incremental.maintain");
        metrics.counter("boat.incremental.maintain_runs").inc();
        let t0 = Instant::now();
        let imp = self.algo.impurity().clone();
        let limits = self.config().limits;
        let mut stats = BoatRunStats::default();
        // The phase spans of a fit: one verification pass, then the jobs.
        let verify_span = metrics.span("boat.phase.verify");
        let jobs = self.work.finalize(&imp, limits)?;
        verify_span.finish();
        let rebuild_span = metrics.span("boat.phase.rebuild");
        self.algo
            .execute_jobs(&mut self.work, jobs, None, &mut stats)?;
        rebuild_span.finish();
        // Jobs *executed*: reusable jobs (grown subtree provably unchanged)
        // are skipped, so this can be below the number of jobs.
        report.regrown_subtrees = stats.jobs_executed;
        report.failed_nodes = self
            .work
            .nodes
            .iter()
            .filter(|n| matches!(n.resolution, Resolution::Failed { .. }))
            .count() as u64;
        self.tree = Some(self.work.extract_tree());
        if let (Some(hook), Some(tree)) = (self.publish_hook.as_ref(), self.tree.as_ref()) {
            let publish_span = metrics.span("boat.incremental.publish");
            hook(tree);
            publish_span.finish();
            metrics.counter("boat.incremental.published").inc();
        }
        report.time = t0.elapsed();
        span.finish();
        Ok(report)
    }

    /// Register an observer that is handed every freshly materialized
    /// exact tree, immediately after a maintenance pass rebuilds it and
    /// before [`BoatModel::maintain`] returns. Downstream consumers (the
    /// `boat-serve` snapshot layer) use this to compile and atomically
    /// publish the post-maintenance tree the instant it exists; because
    /// the hook runs *after* the tree is fully materialized, observers
    /// only ever see complete, exact trees — never intermediate
    /// verification state. Replaces any previously installed hook. The
    /// hook is **not** invoked for a tree that is already current
    /// (maintain short-circuits), nor retroactively for the initial
    /// [`Boat::fit_model`] tree — publish that one yourself.
    pub fn set_publish_hook(&mut self, hook: impl Fn(&Tree) + Send + 'static) {
        self.publish_hook = Some(Box::new(hook));
    }

    /// Remove the publish hook installed by [`BoatModel::set_publish_hook`].
    pub fn clear_publish_hook(&mut self) {
        self.publish_hook = None;
    }

    /// The observability registry this model records into (shared with the
    /// [`Boat`] instance that built it).
    pub fn metrics(&self) -> &boat_obs::Registry {
        self.algo.metrics()
    }

    /// Assert the count-conservation identities of the maintained state;
    /// panics on a violation. A test hook: integration suites run it after
    /// every mutation.
    #[doc(hidden)]
    pub fn check_invariants(&mut self) {
        self.work.check_invariants();
    }

    /// Total records currently parked in confidence-interval buffers.
    pub fn parked_tuples(&self) -> u64 {
        self.work.parked_total()
    }
}

/// Convenience wrapper: run a full rebuild with the same algorithm on a
/// source (used by the dynamic-environment benches for the "repeated
/// re-build" baseline).
pub fn rebuild<I: Impurity + Clone>(algo: &Boat<I>, source: &dyn RecordSource) -> Result<BoatFit> {
    algo.fit(source)
}

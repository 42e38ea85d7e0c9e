//! BOAT orchestration (paper §3.5): sampling scan → bootstrap → cleanup
//! scan → verification → completion.
//!
//! In the typical case the whole tree is built in **two** sequential scans
//! of the training database: one to draw the sample, one to clean up. A
//! third scan happens only when a completion job's records were not
//! retained: a frontier whose sample was pure but whose full family is
//! not, or a failed subtree over a frontier that kept no family.
//!
//! From the cleanup scan to the grown subtree a tuple stays a fixed-width
//! encoded row: parked sets, retained families, carried sets and the
//! collection scan's buffers hold rows, and the columnar builder transposes
//! them without decoding a record. Completion grows one job at a time: its
//! family is gathered, transposed, grown and dropped before the next, so
//! its peak memory is the largest family, not the sum of them. The paper
//! (§3.5) recurses into BOAT for families too large for memory; that is not
//! done here (DESIGN §3.5, R6).

use crate::coarse::{build_coarse_tree_columnar, columnar_sample};
use crate::config::BoatConfig;
use crate::stats::BoatRunStats;
use crate::work::{limits_for_subtree, Job, Resolution, WorkTree};
use boat_data::codec::{EncodedRow, RowLayout};
use boat_data::dataset::RecordSource;
use boat_data::sample::{reservoir_rows, SAMPLE_CHUNK_ROWS};
use boat_data::spill::SpillBuffer;
use boat_data::{DataError, IoSnapshot, Result, Schema};
use boat_obs::{Registry, Snapshot};
use boat_tree::{
    ColumnarSample, Gini, GrowthLimits, Impurity, ImpuritySelector, TdTreeBuilder, Tree,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Result of a BOAT construction run.
#[derive(Debug, Clone)]
pub struct BoatFit {
    /// The exact decision tree — identical to what the in-memory reference
    /// builder produces on the full training database.
    pub tree: Tree,
    /// Run statistics (scan counts, failures, phase timings).
    pub stats: BoatRunStats,
}

/// The BOAT algorithm, parameterized by a concave impurity function.
#[derive(Debug, Clone)]
pub struct Boat<I: Impurity + Clone = Gini> {
    config: BoatConfig,
    impurity: I,
    /// Observability registry: every phase span, verification verdict,
    /// cleanup-shard timer and I/O counter of this instance's runs records
    /// here. Fresh (private) per instance so parallel fits never share
    /// counters. Swap in [`boat_obs::Registry::global`] via
    /// [`Boat::with_metrics`] for one flat process-wide namespace.
    metrics: Registry,
}

impl Boat<Gini> {
    /// BOAT with the Gini index (CART's split selection).
    pub fn new(config: BoatConfig) -> Self {
        Boat {
            config,
            impurity: Gini,
            metrics: Registry::new(),
        }
    }
}

impl<I: Impurity + Clone> Boat<I> {
    /// BOAT with an arbitrary concave impurity function.
    pub fn with_impurity(config: BoatConfig, impurity: I) -> Self {
        Boat {
            config,
            impurity,
            metrics: Registry::new(),
        }
    }

    /// Use `metrics` as this instance's observability registry (e.g.
    /// `boat_obs::Registry::global().clone()` to share one process-wide
    /// namespace with other components).
    pub fn with_metrics(mut self, metrics: Registry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &BoatConfig {
        &self.config
    }

    /// The impurity function in use.
    pub fn impurity(&self) -> &I {
        &self.impurity
    }

    /// The observability registry this instance records into.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Grow an in-memory family (§3.5's in-memory switch), given as the
    /// encoded rows of `schema` back to back, with the columnar engine —
    /// bit-identical to the reference builder on the decoded records, per
    /// the engine's determinism contract (`boat_tree::columnar`). A row
    /// that fails [`RowLayout::check`] is [`DataError::Corrupt`].
    fn inmem_tree(&self, schema: &Schema, rows: &[u8], limits: GrowthLimits) -> Result<Tree> {
        let selector = ImpuritySelector::new(self.impurity.clone());
        self.metrics.counter("boat.sample.inmem_columnar").inc();
        let layout = RowLayout::new(schema);
        let mut cs = ColumnarSample::transpose(schema, layout.rows(rows)?);
        cs.presort();
        let weights = vec![1u32; cs.n_rows()];
        let stats = crate::coarse::subsample_stats(&self.metrics);
        let rt = crate::coarse::subsample_runtime(&self.config, &stats);
        let tree = boat_tree::grow_weighted_gated(&cs, &weights, &selector, limits, rt.as_ref());
        Ok(tree)
    }

    /// Build the exact decision tree for `source`.
    pub fn fit(&self, source: &dyn RecordSource) -> Result<BoatFit> {
        self.config.validate().map_err(DataError::Invalid)?;
        let metrics_before = self.metrics.snapshot();
        let input_before = source.metrics().snapshot();
        self.metrics.counter("boat.fit.runs").inc();
        // In-memory switch at top level: families that fit in memory are
        // always cheaper to build directly (§3.5).
        if source.len() <= self.config.in_memory_threshold {
            let t0 = Instant::now();
            let span = self.metrics.span("boat.phase.inmem_build");
            let width = source.schema().record_width();
            let mut rows = Vec::new();
            for chunk in source.scan_chunks(self.config.cleanup_chunk_size)? {
                let chunk = chunk?;
                chunk.check_width(width)?;
                rows.extend_from_slice(&chunk.bytes);
            }
            let tree = self.inmem_tree(source.schema(), &rows, self.config.limits)?;
            span.finish();
            self.metrics.counter("boat.fit.inmem_builds").inc();
            let mut stats = BoatRunStats {
                sample_records: (rows.len() / width) as u64,
                inmem_builds: 1,
                postprocess_time: t0.elapsed(),
                ..Default::default()
            };
            self.finish_stats(&mut stats, source, &input_before, &metrics_before);
            return Ok(BoatFit { tree, stats });
        }
        let (work, mut stats) = self.fit_work(source, false)?;
        let tree = work.extract_tree();
        self.finish_stats(&mut stats, source, &input_before, &metrics_before);
        Ok(BoatFit { tree, stats })
    }

    /// Close a top-level run's statistics. The source counts its own
    /// reads: the run's delta of them is folded into this instance's
    /// registry, so `data.input.*` sits next to `data.spill.*` in the
    /// metrics delta, and `io`, `scans_over_input` and `spill_io` are read
    /// from the deltas.
    pub(crate) fn finish_stats(
        &self,
        stats: &mut BoatRunStats,
        source: &dyn RecordSource,
        input_before: &Snapshot,
        metrics_before: &Snapshot,
    ) {
        let input = source.metrics().snapshot().since(input_before);
        self.metrics.add_counters(&input);
        stats.io = IoSnapshot::input(&input);
        stats.scans_over_input = stats.io.scans;
        stats.metrics = self.metrics.snapshot().since(metrics_before);
        stats.spill_io = IoSnapshot::spill(&stats.metrics);
    }

    /// Run the full BOAT pipeline, returning the finalized working tree
    /// (with all completion jobs executed) and statistics.
    pub(crate) fn fit_work(
        &self,
        source: &dyn RecordSource,
        retain_all_families: bool,
    ) -> Result<(WorkTree, BoatRunStats)> {
        let mut stats = BoatRunStats::default();
        let schema = source.schema().clone();
        let selector = ImpuritySelector::new(self.impurity.clone());
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // ---- sampling phase (scan 1 + bootstrap) ----
        let t0 = Instant::now();
        let sample_span = self.metrics.span("boat.phase.sample");
        let sample = reservoir_rows(source, self.config.sample_size, SAMPLE_CHUNK_ROWS, &mut rng)?;
        sample_span.finish();
        stats.sample_records = sample.len() as u64;
        // The encoded sample is transposed and presorted once: the
        // bootstrap trees grow on it, and `prepare` reads every node's
        // statistics from it.
        let bootstrap_span = self.metrics.span("boat.phase.bootstrap");
        let cs = columnar_sample(&schema, sample.rows(), &self.metrics);
        drop(sample);
        let coarse = build_coarse_tree_columnar(
            &cs,
            &selector,
            &self.config,
            source.len(),
            &mut rng,
            &self.metrics,
        );
        bootstrap_span.finish();
        let coarse = coarse?;
        stats.coarse_nodes = coarse.len() as u64;
        let prepare_span = self.metrics.span("boat.phase.prepare");
        let mut work = WorkTree::prepare(
            &coarse,
            schema,
            &cs,
            &self.impurity,
            &self.config,
            source.len(),
            retain_all_families,
            self.metrics.clone(),
        );
        drop(cs);
        prepare_span.finish();
        stats.sampling_time = t0.elapsed();

        // ---- cleanup phase (scan 2) ----
        // One sequential pass over the source either way; with more than
        // one worker the routing work fans out over chunks and is reduced
        // by an exact merge, so the resulting state (and hence the final
        // tree) is bit-identical at every thread count.
        let t1 = Instant::now();
        let cleanup_span = self.metrics.span("boat.phase.cleanup");
        work.parallel_cleanup(
            source,
            self.config.effective_cleanup_threads(),
            self.config.cleanup_chunk_size,
        )?;
        cleanup_span.finish();
        stats.parked_tuples = work.parked_total();
        stats.cleanup_time = t1.elapsed();

        // ---- verification + completion ----
        let t2 = Instant::now();
        let verify_span = self.metrics.span("boat.phase.verify");
        let jobs = work.finalize(&self.impurity, self.config.limits)?;
        verify_span.finish();
        let rebuild_span = self.metrics.span("boat.phase.rebuild");
        self.execute_jobs(&mut work, jobs, Some(source), &mut stats)?;
        rebuild_span.finish();
        for node in &work.nodes {
            match node.resolution {
                Resolution::Split { .. } => stats.verified_nodes += 1,
                Resolution::Failed { .. } => stats.failed_nodes += 1,
                _ => {}
            }
        }
        stats.spilled_tuples = work.spilled_total();
        stats.postprocess_time = t2.elapsed();
        self.metrics
            .gauge("boat.work.nodes")
            .set(work.nodes.len() as u64);
        self.metrics
            .gauge("boat.work.parked_tuples")
            .set(stats.parked_tuples);
        self.metrics
            .gauge("boat.work.spilled_tuples")
            .set(stats.spilled_tuples);
        Ok((work, stats))
    }

    /// Execute completion jobs. Jobs whose grown subtree is provably
    /// unchanged are skipped. The families the cleanup scan did not retain
    /// are gathered by one collection scan over `source`; then each job in
    /// turn has its family collected as encoded rows, grown in memory and
    /// dropped before the next job starts.
    pub(crate) fn execute_jobs(
        &self,
        work: &mut WorkTree,
        jobs: Vec<Job>,
        source: Option<&dyn RecordSource>,
        stats: &mut BoatRunStats,
    ) -> Result<()> {
        let jobs: Vec<Job> = jobs
            .into_iter()
            .filter(|job| {
                let reusable = work.nodes[job.idx].grown.is_some()
                    && work.nodes[job.idx].grown_carried_fp == Some(job.carried_fp)
                    && !subtree_dirty(work, job.idx);
                if reusable {
                    self.metrics.counter("boat.jobs.reused").inc();
                }
                !reusable
            })
            .collect();
        let unretained: Vec<usize> = jobs
            .iter()
            .map(|job| job.idx)
            .filter(|&idx| !work.retains_family(idx))
            .collect();
        let mut scanned = if unretained.is_empty() {
            Vec::new()
        } else {
            let source = source.ok_or_else(|| {
                DataError::Invalid("completion requires a scan but no source is available".into())
            })?;
            self.collection_scan(work, &unretained, source)?
        };

        for job in jobs {
            // The verdict counted the whole family, so its rows fit exactly.
            let family = work.nodes[job.idx]
                .resolution
                .counts()
                .map_or(0, |c| c.iter().sum::<u64>());
            let mut rows = Vec::with_capacity(family as usize * work.layout.width());
            match scanned.get_mut(job.idx).and_then(Option::take) {
                // The collection scan routes by *final* splits, so the
                // buffer already holds the ancestor-parked tuples that
                // `carried` would add.
                Some(mut buf) => buf.append_rows(&mut rows)?,
                None => {
                    work.collect_subtree(job.idx, &mut rows)?;
                    rows.extend_from_slice(&job.carried);
                }
            }
            stats.jobs_executed += 1;
            self.metrics.counter("boat.jobs.executed").inc();
            let limits = limits_for_subtree(self.config.limits, work.nodes[job.idx].depth);
            stats.inmem_builds += 1;
            self.metrics.counter("boat.fit.inmem_builds").inc();
            let tree = self.inmem_tree(&work.schema, &rows, limits)?;
            drop(rows);
            debug_assert_eq!(
                work.nodes[job.idx]
                    .resolution
                    .counts()
                    .map(|c| c.iter().sum::<u64>()),
                Some(tree.node(tree.root()).n_records()),
                "grown subtree must cover exactly the node family"
            );
            let node = &mut work.nodes[job.idx];
            node.grown = Some(tree);
            node.grown_carried_fp = Some(job.carried_fp);
            clear_subtree_dirty(work, job.idx);
        }
        Ok(())
    }

    /// One collection scan over `source` for the jobs at nodes `unretained`,
    /// whose families the cleanup scan did not keep. Every row is checked,
    /// routed by the final splits, and copied into the buffer of the job it
    /// lands in. Returns the buffers indexed by node.
    fn collection_scan(
        &self,
        work: &WorkTree,
        unretained: &[usize],
        source: &dyn RecordSource,
    ) -> Result<Vec<Option<SpillBuffer>>> {
        let mut buffers: Vec<Option<SpillBuffer>> = (0..work.nodes.len()).map(|_| None).collect();
        for &idx in unretained {
            buffers[idx] = Some(SpillBuffer::new_in(
                work.schema.clone(),
                self.config.spill_budget,
                &self.metrics,
                self.config.spill_dir.clone(),
            ));
        }
        self.metrics.counter("boat.jobs.collection_scans").inc();
        let layout = &work.layout;
        for chunk in source.scan_chunks(self.config.cleanup_chunk_size)? {
            let chunk = chunk?;
            chunk.check_width(layout.width())?;
            for bytes in chunk.rows() {
                let row = EncodedRow::new(layout, bytes)?;
                if let Some(buf) = work.route_to_job(&row).and_then(|i| buffers[i].as_mut()) {
                    buf.push_row(bytes)?;
                }
            }
        }
        Ok(buffers)
    }
}

/// Whether any node in the subtree of `idx` absorbed records since its
/// grown subtree was produced.
pub(crate) fn subtree_dirty(work: &WorkTree, idx: usize) -> bool {
    let mut stack = vec![idx];
    while let Some(i) = stack.pop() {
        if work.nodes[i].state.dirty {
            return true;
        }
        if work.nodes[i].crit.is_some() {
            stack.push(work.nodes[i].left.expect("internal"));
            stack.push(work.nodes[i].right.expect("internal"));
        }
    }
    false
}

pub(crate) fn clear_subtree_dirty(work: &mut WorkTree, idx: usize) {
    let mut stack = vec![idx];
    while let Some(i) = stack.pop() {
        work.nodes[i].state.dirty = false;
        if work.nodes[i].crit.is_some() {
            stack.push(work.nodes[i].left.expect("internal"));
            stack.push(work.nodes[i].right.expect("internal"));
        }
    }
}

/// Convenience: the in-memory reference tree for `source` under the same
/// limits — the object BOAT's output is guaranteed to equal. One scan.
pub fn reference_tree<I: Impurity + Clone>(
    source: &dyn RecordSource,
    impurity: I,
    limits: GrowthLimits,
) -> Result<Tree> {
    let records = source.collect_records()?;
    let selector = ImpuritySelector::new(impurity);
    Ok(TdTreeBuilder::new(&selector, limits).fit(source.schema(), &records))
}

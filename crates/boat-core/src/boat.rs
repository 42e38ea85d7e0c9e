//! BOAT orchestration (paper §3.5): sampling scan → bootstrap → cleanup
//! scan → verification → completion.
//!
//! In the typical case the whole tree is built in **two** sequential scans
//! of the training database: one to draw the sample, one to clean up. A
//! third scan happens only when a completion job's records were not
//! retained: a frontier whose sample was pure but whose full family is
//! not, or a failed subtree over a frontier that kept no family. Huge
//! unfinished partitions recurse into BOAT itself; small ones finish with
//! the in-memory builder, exactly as §3.5 prescribes.

use crate::coarse::{build_coarse_tree_columnar, columnar_sample};
use crate::config::BoatConfig;
use crate::stats::BoatRunStats;
use crate::work::{limits_for_subtree, Job, Resolution, WorkTree};
use boat_data::dataset::RecordSource;
use boat_data::sample::reservoir_sample;
use boat_data::spill::SpillBuffer;
use boat_data::{DataError, FileDatasetWriter, IoSnapshot, IoStats, Record, Result};
use boat_obs::Registry;
use boat_tree::{Gini, GrowthLimits, Impurity, ImpuritySelector, TdTreeBuilder, Tree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static REBUILD_COUNTER: AtomicU64 = AtomicU64::new(0);

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
    /// counters; recursive sub-runs share their parent's registry. Swap in
    /// [`boat_obs::Registry::global`] via [`Boat::with_metrics`] for one
    /// flat process-wide namespace.
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

    /// Grow an in-memory family (§3.5's in-memory switch) with the columnar
    /// engine — bit-identical to the reference builder on `records`, per
    /// the engine's determinism contract (`boat_tree::columnar`).
    fn inmem_tree(
        &self,
        schema: &boat_data::Schema,
        records: &[Record],
        limits: GrowthLimits,
    ) -> Tree {
        let selector = ImpuritySelector::new(self.impurity.clone());
        self.metrics.counter("boat.sample.inmem_columnar").inc();
        let cs = boat_tree::ColumnarSample::from_records(schema, records);
        let weights = vec![1u32; records.len()];
        let stats = boat_tree::SubsampleStats::default();
        let rt = crate::coarse::subsample_runtime(&self.config, &stats);
        let tree = boat_tree::grow_weighted_gated(&cs, &weights, &selector, limits, rt.as_ref());
        crate::coarse::record_subsample_stats(&stats, &self.metrics);
        tree
    }

    /// Build the exact decision tree for `source`.
    pub fn fit(&self, source: &dyn RecordSource) -> Result<BoatFit> {
        self.config.validate().map_err(DataError::Invalid)?;
        let metrics_before = self.metrics.snapshot();
        let io_before = source.stats().snapshot();
        self.metrics.counter("boat.fit.runs").inc();
        // In-memory switch at top level: families that fit in memory are
        // always cheaper to build directly (§3.5).
        if source.len() <= self.config.in_memory_threshold {
            let t0 = Instant::now();
            let span = self.metrics.span("boat.phase.inmem_build");
            let records = source.collect_records()?;
            let tree = self.inmem_tree(source.schema(), &records, self.config.limits);
            span.finish();
            self.metrics.counter("boat.fit.input_scans").inc();
            self.metrics.counter("boat.fit.inmem_builds").inc();
            let mut stats = BoatRunStats {
                scans_over_input: 1,
                sample_records: records.len() as u64,
                inmem_builds: 1,
                postprocess_time: t0.elapsed(),
                ..Default::default()
            };
            stats.io = source.stats().snapshot() - io_before;
            mirror_io(&self.metrics, "data.input", stats.io);
            stats.metrics = self.metrics.snapshot().since(&metrics_before);
            return Ok(BoatFit { tree, stats });
        }
        let (work, mut stats) = self.fit_work(source, self.config.max_recursion, false)?;
        let tree = work.extract_tree();
        stats.io = source.stats().snapshot() - io_before;
        mirror_io(&self.metrics, "data.input", stats.io);
        stats.metrics = self.metrics.snapshot().since(&metrics_before);
        Ok(BoatFit { tree, stats })
    }

    /// Run the full BOAT pipeline, returning the finalized working tree
    /// (with all completion jobs executed) and statistics.
    pub(crate) fn fit_work(
        &self,
        source: &dyn RecordSource,
        recursion_left: u32,
        retain_all_families: bool,
    ) -> Result<(WorkTree, BoatRunStats)> {
        let mut stats = BoatRunStats::default();
        let schema = source.schema().clone();
        let selector = ImpuritySelector::new(self.impurity.clone());
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // ---- sampling phase (scan 1 + bootstrap) ----
        let t0 = Instant::now();
        let sample_span = self.metrics.span("boat.phase.sample");
        let sample = reservoir_sample(source, self.config.sample_size, &mut rng)?;
        sample_span.finish();
        stats.scans_over_input += 1;
        self.metrics.counter("boat.fit.input_scans").inc();
        stats.sample_records = sample.len() as u64;
        // The sample is transposed and presorted once: the bootstrap trees
        // grow on it, and `prepare` reads every node's statistics from it.
        let bootstrap_span = self.metrics.span("boat.phase.bootstrap");
        let cs = columnar_sample(&schema, &sample, &self.metrics);
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
            // Temporary files (parked sets, families, rebuild partitions)
            // are accounted separately from the input source, so callers
            // can tell scans-over-D apart from local spill traffic. The
            // handle shares its counters with the registry (`data.spill.*`),
            // so spill traffic shows in metric snapshots as it happens.
            IoStats::registered(&self.metrics, "data.spill"),
            self.metrics.clone(),
        );
        drop(cs);
        prepare_span.finish();
        // The spill handle shares registry counters across runs and
        // sub-runs, so this run's spill traffic is a delta, not an absolute.
        let spill_io_before = work.spill_stats.snapshot();
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
        stats.scans_over_input += 1;
        self.metrics.counter("boat.fit.input_scans").inc();
        stats.parked_tuples = work.parked_total();
        stats.cleanup_time = t1.elapsed();

        // ---- verification + completion ----
        // Promotions splice fresh maintained subtrees in; their nodes then
        // need a verification pass with the ancestor-parked tuples routed
        // down, so iterate to a fixed point (bounded: the final round runs
        // without promotion, so static growth always completes it).
        let t2 = Instant::now();
        for round in 0..4u32 {
            let verify_span = self.metrics.span("boat.phase.verify");
            let jobs = work.finalize(&self.impurity, self.config.limits)?;
            verify_span.finish();
            let promote = retain_all_families && round < 3;
            let rebuild_span = self.metrics.span("boat.phase.rebuild");
            let promoted = self.execute_jobs(
                &mut work,
                jobs,
                Some(source),
                recursion_left,
                source.len(),
                promote,
                &mut stats,
            )?;
            rebuild_span.finish();
            if !promoted {
                break;
            }
        }
        for node in &work.nodes {
            match node.resolution {
                Resolution::Split { .. } => stats.verified_nodes += 1,
                Resolution::Failed { .. } => stats.failed_nodes += 1,
                _ => {}
            }
        }
        stats.spilled_tuples = work.spilled_total();
        stats.spill_io = work.spill_stats.snapshot() - spill_io_before;
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

    /// Execute completion jobs: gather each job's records (from retained
    /// buffers, or one collection scan over `source`), then grow the
    /// subtree in memory or via recursive BOAT.
    #[allow(clippy::too_many_arguments)] // internal plumbing shared by fit and the model
    pub(crate) fn execute_jobs(
        &self,
        work: &mut WorkTree,
        jobs: Vec<Job>,
        source: Option<&dyn RecordSource>,
        recursion_left: u32,
        input_len: u64,
        promote: bool,
        stats: &mut BoatRunStats,
    ) -> Result<bool> {
        let mut promoted_any = false;
        // Reuse grown subtrees that are provably unchanged.
        let mut pending: Vec<(Job, Option<Vec<Record>>)> = Vec::new();
        for job in jobs {
            let reusable = work.nodes[job.idx].grown.is_some()
                && work.nodes[job.idx].grown_carried_fp == Some(job.carried_fp)
                && !subtree_dirty(work, job.idx);
            if reusable {
                self.metrics.counter("boat.jobs.reused").inc();
                continue;
            }
            let collected = work.collect_subtree(job.idx)?;
            pending.push((job, collected));
        }

        // Collection scan for jobs whose records were not retained.
        if pending.iter().any(|(_, c)| c.is_none()) {
            let source = source.ok_or_else(|| {
                DataError::Invalid("completion requires a scan but no source is available".into())
            })?;
            let mut buffers: Vec<(usize, SpillBuffer)> = pending
                .iter()
                .filter(|(_, c)| c.is_none())
                .map(|(j, _)| {
                    (
                        j.idx,
                        SpillBuffer::new_in(
                            work.schema.clone(),
                            self.config.spill_budget,
                            work.spill_stats.clone(),
                            self.config.spill_dir.clone(),
                        ),
                    )
                })
                .collect();
            stats.scans_over_input += 1;
            self.metrics.counter("boat.fit.input_scans").inc();
            self.metrics.counter("boat.jobs.collection_scans").inc();
            for r in source.scan()? {
                let r = r?;
                if let Some(target) = work.route_to_job(&r) {
                    if let Some((_, buf)) = buffers.iter_mut().find(|(i, _)| *i == target) {
                        buf.push(&r)?;
                    }
                }
            }
            for (job, slot) in pending.iter_mut() {
                if slot.is_none() {
                    let (_, buf) = buffers
                        .iter_mut()
                        .find(|(i, _)| *i == job.idx)
                        .expect("buffer created for unretained job");
                    *slot = Some(buf.to_vec()?);
                    // The collection scan routes by *final* splits, so the
                    // buffer already contains the ancestor-parked tuples
                    // that `carried` would re-add: drop them.
                    job.carried.clear();
                }
            }
        }

        for (job, records) in pending {
            stats.jobs_executed += 1;
            self.metrics.counter("boat.jobs.executed").inc();
            let mut records = records.expect("records gathered above");
            // Maintained models *promote* oversized subtrees into spliced
            // BOAT state (so future updates stream through them) instead
            // of growing a static tree that would be re-grown on every
            // touch. The sub-run covers only the subtree's *stored*
            // records — ancestor-parked (`carried`) tuples stay parked at
            // the ancestors, preserving the parking invariant; the caller
            // re-runs the verification pass afterwards so the spliced
            // nodes get resolved with the carried tuples routed in.
            // Whole-input families are exempt (a sub-run over the same
            // data would hit the identical unresolved root and loop); they
            // fall through to the damped grow path.
            let family = records.len() + job.carried.len();
            let whole_input = family as u64 * 10 >= input_len.saturating_mul(9);
            // Positions whose promoted state keeps failing verification are
            // fit to noise; maintaining them is wasted work, so after two
            // promotions they fall back to cheap static regrowth.
            let noise_prone = work.nodes[job.idx].promotions >= 2;
            if promote
                && recursion_left > 0
                && !whole_input
                && !noise_prone
                && family as u64 > self.config.in_memory_threshold
            {
                let promotions = work.nodes[job.idx].promotions + 1;
                self.metrics.counter("boat.jobs.promoted").inc();
                let sub_work = self.promote_records(work, job.idx, records, stats)?;
                work.splice(job.idx, sub_work);
                work.nodes[job.idx].promotions = promotions;
                promoted_any = true;
                continue;
            }
            records.extend(job.carried.iter().cloned());
            let tree =
                self.grow_records(work, job.idx, records, recursion_left, input_len, stats)?;
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
        Ok(promoted_any)
    }

    /// Promote an oversized frontier/failed family into a fully maintained
    /// sub-worktree via *exact construction* from the family records (no
    /// bootstrap; every criterion computed from the full family, so the
    /// next verification pass confirms it trivially).
    fn promote_records(
        &self,
        work: &WorkTree,
        idx: usize,
        records: Vec<Record>,
        stats: &mut BoatRunStats,
    ) -> Result<WorkTree> {
        let depth = work.nodes[idx].depth;
        let sub_limits = limits_for_subtree(self.config.limits, depth);
        stats.recursive_builds += 1;
        self.metrics.counter("boat.fit.recursive_builds").inc();
        crate::work::build_exact_work(
            work.schema.clone(),
            records,
            &self.impurity,
            &self.config,
            sub_limits,
            work.spill_stats.clone(),
            work.metrics.clone(),
        )
    }

    /// Grow a completion subtree from its family records: in memory when it
    /// fits (or recursion is exhausted), else recursive BOAT over a
    /// temporary partition file (§3.5).
    fn grow_records(
        &self,
        work: &WorkTree,
        idx: usize,
        records: Vec<Record>,
        recursion_left: u32,
        input_len: u64,
        stats: &mut BoatRunStats,
    ) -> Result<Tree> {
        let depth = work.nodes[idx].depth;
        let sub_limits = limits_for_subtree(self.config.limits, depth);
        if records.len() as u64 <= self.config.in_memory_threshold || recursion_left == 0 {
            stats.inmem_builds += 1;
            self.metrics.counter("boat.fit.inmem_builds").inc();
            return Ok(self.inmem_tree(&work.schema, &records, sub_limits));
        }
        // Recursion damping: if this partition is (nearly) the whole input,
        // the optimistic phase already saw this data and failed — grant one
        // retry with a doubled sample, then fall back to the in-memory
        // builder instead of looping on an intrinsically unstable node
        // (the paper's Figure 12 observes growth simply stops there).
        let whole_input = records.len() as u64 * 10 >= input_len.saturating_mul(9);
        let sub_recursion = if whole_input { 0 } else { recursion_left - 1 };
        let sub_sample = if whole_input {
            self.config.sample_size.saturating_mul(2)
        } else {
            self.config.sample_size
        };
        stats.recursive_builds += 1;
        self.metrics.counter("boat.fit.recursive_builds").inc();
        // The global counter only keeps temp-file names unique. The
        // sub-run's seed must NOT depend on it: run statistics are part of
        // the library's contract (the parallel-exactness oracle compares
        // them across thread counts), so they must be a pure function of
        // (config, data) — independent of how many rebuilds *other* fits in
        // this process have performed. Derive the seed from the rebuild's
        // own position and family instead.
        let id = REBUILD_COUNTER.fetch_add(1, Ordering::Relaxed);
        let sub_seed = self.config.seed
            ^ (0xD1CE << 16)
            ^ ((idx as u64) << 40)
            ^ ((depth as u64) << 32)
            ^ records.len() as u64;
        // Rebuild partitions are temp files like the spill buffers, so they
        // honor the same `spill_dir` override (and the same stale-file
        // sweep prefix).
        let dir = self
            .config
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let path = dir.join(format!("boat-rebuild-{}-{id}.boat", std::process::id()));
        let sub = Boat {
            config: BoatConfig {
                limits: sub_limits,
                seed: sub_seed,
                sample_size: sub_sample,
                ..self.config.clone()
            },
            impurity: self.impurity.clone(),
            // Sub-runs record into the parent's registry, so a fit's
            // metrics snapshot covers its whole recursive pipeline.
            metrics: self.metrics.clone(),
        };
        // Every step that can fail after the file exists runs inside the
        // closure, so the partition file is removed on every path.
        let result = (|| -> Result<Tree> {
            let mut writer =
                FileDatasetWriter::create(&path, work.schema.clone(), work.spill_stats.clone())?;
            for r in &records {
                writer.append(r)?;
            }
            drop(records);
            let partition = writer.finish()?;
            let (w, sub_stats) = sub.fit_work(&partition, sub_recursion, false)?;
            stats.absorb(&sub_stats);
            Ok(w.extract_tree())
        })();
        let _ = std::fs::remove_file(&path);
        result
    }
}

/// Mirror an [`IoSnapshot`] delta into registry counters under `prefix`
/// (`{prefix}.scans`, `{prefix}.bytes_read`, …).
///
/// Input-source I/O is counted by the *caller's* detached [`IoStats`]
/// handle, not ours; public entry points mirror the per-run delta into the
/// registry once, so `data.input.*` counters line up with `data.spill.*`
/// in the same snapshot without double-counting recursive partition scans
/// (sub-partitions are temp files, accounted as spill traffic).
pub(crate) fn mirror_io(metrics: &Registry, prefix: &str, d: IoSnapshot) {
    metrics.counter(&format!("{prefix}.scans")).add(d.scans);
    metrics
        .counter(&format!("{prefix}.records_read"))
        .add(d.records_read);
    metrics
        .counter(&format!("{prefix}.bytes_read"))
        .add(d.bytes_read);
    metrics
        .counter(&format!("{prefix}.records_written"))
        .add(d.records_written);
    metrics
        .counter(&format!("{prefix}.bytes_written"))
        .add(d.bytes_written);
    metrics
        .counter(&format!("{prefix}.spill_events"))
        .add(d.spill_events);
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

#[cfg(test)]
mod tests {
    use super::*;
    use boat_data::{Attribute, Field, Schema};

    #[test]
    fn grow_records_removes_its_partition_file_when_writing_fails() {
        let dir = std::env::temp_dir().join(format!("boat-rebuild-leak-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = BoatConfig {
            in_memory_threshold: 4,
            spill_dir: Some(dir.clone()),
            ..BoatConfig::default()
        };
        let boat = Boat::new(config.clone());
        let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
        let work = crate::work::build_exact_work(
            schema,
            Vec::new(),
            &Gini,
            &config,
            GrowthLimits::default(),
            IoStats::new(),
            Registry::new(),
        )
        .unwrap();
        // More records than the in-memory threshold, so the family goes to
        // a partition file; the last one has the wrong arity, so encoding
        // it fails halfway through the write.
        let mut records: Vec<Record> = (0..8)
            .map(|i| Record::new(vec![Field::Num(i as f64)], (i % 2) as u16))
            .collect();
        records.push(Record::new(vec![Field::Num(1.0), Field::Num(2.0)], 0));
        let mut stats = BoatRunStats::default();
        let result = boat.grow_records(&work, 0, records, 1, 100, &mut stats);
        assert!(matches!(result, Err(DataError::Schema(_))), "{result:?}");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("boat-rebuild-"))
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(left.is_empty(), "partition files left behind: {left:?}");
    }
}

//! RainForest baselines \[GRG98\]: RF-Hybrid and RF-Vertical.
//!
//! The BOAT paper's performance comparison is against the RainForest family
//! of scalable decision-tree algorithms, which it describes as the previous
//! state of the art. RainForest's insight: split selection needs only the
//! **AVC-group** of a node (per-attribute value/class-label counts), so a
//! scalable algorithm can grow the tree level by level, building the
//! frontier's AVC-groups in sequential scans under a memory budget:
//!
//! * **RF-Hybrid** (fastest, most memory): per level, build the AVC-groups
//!   of as many frontier nodes as fit the budget per scan. When the whole
//!   frontier fits, that is *one scan per level*. (\[GRG98\]'s partition-file
//!   phase is approximated by batched frontier scans — a substitution that
//!   only helps the baseline; see DESIGN.md §4.)
//! * **RF-Vertical** (slowest, least memory): per level, small
//!   (categorical) AVC-sets are built in one scan, and each numeric
//!   attribute's AVC-sets get their own pass — modelling the vertical
//!   temporary projections of \[GRG98\].
//! * **RF-Write**: the family's base algorithm — two passes per node over
//!   its own partition file (AVC build, then children partitioning),
//!   minimal memory, data rewritten once per level.
//!
//! All variants produce **exactly** the same tree as the in-memory reference
//! builder (and therefore as BOAT): split selection runs through the shared
//! `boat-tree` machinery over identical counts.

#![warn(missing_docs)]

use boat_data::dataset::RecordSource;
use boat_data::{AttrType, IoSnapshot, Record, Result};
use boat_obs::Registry;
use boat_tree::grow::SplitSelector;
use boat_tree::{
    AvcGroup, CatAvc, Gini, GrowthLimits, Impurity, ImpuritySelector, NodeId, NumAvc, SplitEval,
    TdTreeBuilder, Tree,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which RainForest variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfVariant {
    /// One scan per level while the frontier's AVC-groups fit the budget;
    /// batched scans otherwise.
    Hybrid,
    /// One scan per level for categorical attributes plus one scan per
    /// numeric attribute (vertical passes), each batched under the budget.
    Vertical,
    /// The family's base algorithm \[GRG98\]: per node, one scan of the
    /// node's *partition* to build its AVC-group and a second scan to
    /// write the two children partitions to temporary files; recurse.
    /// Minimal memory (one AVC-group at a time) at the cost of rewriting
    /// the data once per level.
    Write,
}

/// RainForest configuration.
#[derive(Debug, Clone)]
pub struct RfConfig {
    /// Memory budget in AVC *entries* (value × class cells) per scan.
    /// The paper's experiments give RF-Hybrid 3 M entries and RF-Vertical
    /// 1.8 M.
    pub avc_budget_entries: usize,
    /// Families at or below this size finish with the in-memory builder
    /// (the same switch the paper applies to all algorithms).
    pub in_memory_threshold: u64,
    /// Stopping rules (identical to the other algorithms').
    pub limits: GrowthLimits,
}

impl Default for RfConfig {
    fn default() -> Self {
        RfConfig {
            avc_budget_entries: 3_000_000,
            in_memory_threshold: 10_000,
            limits: GrowthLimits::default(),
        }
    }
}

/// Statistics of one RainForest run.
#[derive(Debug, Clone, Default)]
pub struct RfRunStats {
    /// Sequential scans over the training database, read from the input's
    /// `data.input.scans` delta (`io.scans`). The headline contrast with
    /// BOAT: at least one per tree level.
    pub scans_over_input: u64,
    /// Tree levels grown by the level-synchronous phase.
    pub levels: u64,
    /// Frontier batches processed (more batches = tighter memory).
    pub batches: u64,
    /// Subtrees finished with the in-memory switch.
    pub inmem_builds: u64,
    /// Wall time.
    pub time: Duration,
    /// I/O over the input training database during this fit.
    pub io: IoSnapshot,
    /// I/O over temporary partition files (RF-Write only), which count
    /// into one registry per fit.
    pub temp_io: IoSnapshot,
}

impl std::fmt::Display for RfRunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scans={} levels={} batches={} inmem={} time={:?}",
            self.scans_over_input, self.levels, self.batches, self.inmem_builds, self.time
        )
    }
}

/// Result of a RainForest run.
#[derive(Debug, Clone)]
pub struct RfFit {
    /// The exact decision tree (identical to the reference builder's).
    pub tree: Tree,
    /// Run statistics.
    pub stats: RfRunStats,
}

/// A frontier node awaiting split selection.
struct FrontierNode {
    id: NodeId,
    depth: u32,
    n: u64,
    /// Upper bound on AVC entries per attribute, inherited from the parent's
    /// actual distinct-value counts (root: family size).
    attr_entry_bounds: Vec<usize>,
}

/// The RainForest algorithm.
#[derive(Debug, Clone)]
pub struct RainForest<I: Impurity + Clone = Gini> {
    variant: RfVariant,
    config: RfConfig,
    impurity: I,
}

impl RainForest<Gini> {
    /// RF with the Gini index.
    pub fn new(variant: RfVariant, config: RfConfig) -> Self {
        RainForest {
            variant,
            config,
            impurity: Gini,
        }
    }
}

impl<I: Impurity + Clone> RainForest<I> {
    /// RF with an arbitrary concave impurity.
    pub fn with_impurity(variant: RfVariant, config: RfConfig, impurity: I) -> Self {
        RainForest {
            variant,
            config,
            impurity,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RfConfig {
        &self.config
    }

    /// Build the exact decision tree for `source`.
    pub fn fit(&self, source: &dyn RecordSource) -> Result<RfFit> {
        let input_before = source.metrics().snapshot();
        let mut fit = match self.variant {
            RfVariant::Write => self.fit_write(source),
            _ => self.fit_level_synchronous(source),
        }?;
        let input = source.metrics().snapshot().since(&input_before);
        fit.stats.io = IoSnapshot::input(&input);
        fit.stats.scans_over_input = fit.stats.io.scans;
        Ok(fit)
    }

    /// RF-Write driver: depth-first over explicit partition files.
    fn fit_write(&self, source: &dyn RecordSource) -> Result<RfFit> {
        use boat_data::{FileDataset, FileDatasetWriter};
        static PART_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

        let t0 = Instant::now();
        let mut stats = RfRunStats::default();
        let schema = source.schema().clone();
        let k = schema.n_classes();
        let selector = ImpuritySelector::new(self.impurity.clone());

        // Root class counts.
        let mut root_counts = vec![0u64; k];
        for r in source.scan()? {
            root_counts[r?.label() as usize] += 1;
        }
        let mut tree = Tree::leaf(root_counts);

        enum Partition<'a> {
            Input(&'a dyn RecordSource),
            Temp(FileDataset),
        }
        impl Partition<'_> {
            fn scan(&self) -> Result<Box<dyn boat_data::dataset::RecordScan + '_>> {
                match self {
                    Partition::Input(s) => s.scan(),
                    Partition::Temp(f) => f.scan(),
                }
            }
        }

        let temp_metrics = Registry::new();
        let fresh_part = |schema: &std::sync::Arc<boat_data::Schema>| -> Result<FileDatasetWriter> {
            let id = PART_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("rf-write-{}-{id}.boat", std::process::id()));
            FileDatasetWriter::create_with_metrics(path, schema.clone(), temp_metrics.clone())
        };

        let root = tree.root();
        let mut queue: Vec<(Partition, NodeId, u32)> = vec![(Partition::Input(source), root, 0)];
        while let Some((partition, node_id, depth)) = queue.pop() {
            let counts = tree.node(node_id).class_counts.clone();
            let n: u64 = counts.iter().sum();
            if self.config.limits.must_stop(&counts, depth) {
                if let Partition::Temp(f) = &partition {
                    let _ = std::fs::remove_file(f.path());
                }
                continue;
            }
            // In-memory switch.
            if n <= self.config.in_memory_threshold {
                let mut records = Vec::with_capacity(n as usize);
                for r in partition.scan()? {
                    records.push(r?);
                }
                let sub_limits = GrowthLimits {
                    max_depth: self
                        .config
                        .limits
                        .max_depth
                        .map(|d| d.saturating_sub(depth)),
                    ..self.config.limits
                };
                let sub = TdTreeBuilder::new(&selector, sub_limits).fit(&schema, &records);
                tree.replace_subtree(node_id, &sub);
                stats.inmem_builds += 1;
                if let Partition::Temp(f) = &partition {
                    let _ = std::fs::remove_file(f.path());
                }
                continue;
            }
            stats.levels = stats.levels.max(depth as u64 + 1);
            stats.batches += 1;
            // Pass 1: AVC-group of this node.
            let mut group = AvcGroup::new(&schema);
            for r in partition.scan()? {
                group.add_record(&r?);
            }
            let Some(eval) = selector.select(&schema, &group) else {
                if let Partition::Temp(f) = &partition {
                    let _ = std::fs::remove_file(f.path());
                }
                continue;
            };
            // Pass 2: partition into children files.
            let mut left_writer = fresh_part(&schema)?;
            let mut right_writer = fresh_part(&schema)?;
            for r in partition.scan()? {
                let r = r?;
                if eval.split.goes_left(&r) {
                    left_writer.append(&r)?;
                } else {
                    right_writer.append(&r)?;
                }
            }
            let (l, rgt) = tree.split_node(
                node_id,
                eval.split,
                eval.left_counts.clone(),
                eval.right_counts.clone(),
            );
            if let Partition::Temp(f) = &partition {
                let _ = std::fs::remove_file(f.path());
            }
            queue.push((Partition::Temp(left_writer.finish()?), l, depth + 1));
            queue.push((Partition::Temp(right_writer.finish()?), rgt, depth + 1));
        }

        tree.compact();
        stats.time = t0.elapsed();
        stats.temp_io = IoSnapshot::input(&temp_metrics.snapshot());
        Ok(RfFit { tree, stats })
    }

    /// RF-Hybrid / RF-Vertical driver: level-synchronous scans of the
    /// input.
    fn fit_level_synchronous(&self, source: &dyn RecordSource) -> Result<RfFit> {
        let t0 = Instant::now();
        let mut stats = RfRunStats::default();
        let schema = source.schema().clone();
        let k = schema.n_classes();
        let selector = ImpuritySelector::new(self.impurity.clone());

        // Scan 0: root class counts (cheap; RainForest needs them to set up
        // the root AVC anyway — folded into the first AVC scan in [GRG98],
        // counted separately here for clarity).
        let mut root_counts = vec![0u64; k];
        for r in source.scan()? {
            root_counts[r?.label() as usize] += 1;
        }
        let n_root: u64 = root_counts.iter().sum();
        let mut tree = Tree::leaf(root_counts);

        let root_bounds: Vec<usize> = schema
            .attributes()
            .iter()
            .map(|a| match a.ty() {
                AttrType::Numeric => (n_root as usize).saturating_mul(k),
                AttrType::Categorical { cardinality } => cardinality as usize * k,
            })
            .collect();
        let mut frontier = vec![FrontierNode {
            id: tree.root(),
            depth: 0,
            n: n_root,
            attr_entry_bounds: root_bounds,
        }];

        while !frontier.is_empty() {
            // Drop nodes the stopping rules freeze.
            frontier.retain(|f| {
                !self
                    .config
                    .limits
                    .must_stop(&tree.node(f.id).class_counts, f.depth)
            });
            if frontier.is_empty() {
                break;
            }

            // In-memory switch: once every remaining frontier family fits,
            // collect them all in one scan and finish in memory.
            if frontier
                .iter()
                .all(|f| f.n <= self.config.in_memory_threshold)
            {
                let mut families: HashMap<NodeId, Vec<Record>> =
                    frontier.iter().map(|f| (f.id, Vec::new())).collect();
                for r in source.scan()? {
                    let r = r?;
                    let leaf = tree.leaf_for(&r);
                    if let Some(v) = families.get_mut(&leaf) {
                        v.push(r);
                    }
                }
                for f in &frontier {
                    let records = families.remove(&f.id).expect("family collected");
                    let sub_limits = GrowthLimits {
                        max_depth: self
                            .config
                            .limits
                            .max_depth
                            .map(|d| d.saturating_sub(f.depth)),
                        ..self.config.limits
                    };
                    let sub = TdTreeBuilder::new(&selector, sub_limits).fit(&schema, &records);
                    tree.replace_subtree(f.id, &sub);
                    stats.inmem_builds += 1;
                }
                frontier.clear();
                break;
            }

            stats.levels += 1;
            let evals = match self.variant {
                RfVariant::Hybrid => self.level_hybrid(source, &tree, &frontier, &mut stats)?,
                RfVariant::Vertical => self.level_vertical(source, &tree, &frontier, &mut stats)?,
                RfVariant::Write => unreachable!("RF-Write uses its own driver"),
            };

            // Apply the chosen splits and form the next frontier.
            let mut next = Vec::new();
            for (f, eval) in frontier.iter().zip(evals) {
                let Some((eval, actual_entries)) = eval else {
                    continue; // no valid split: stays a leaf
                };
                let (l, r) = tree.split_node(
                    f.id,
                    eval.split,
                    eval.left_counts.clone(),
                    eval.right_counts.clone(),
                );
                let child_bounds = |n: u64| -> Vec<usize> {
                    actual_entries
                        .iter()
                        .map(|&e| e.min((n as usize).saturating_mul(k)))
                        .collect()
                };
                let ln: u64 = eval.left_counts.iter().sum();
                let rn: u64 = eval.right_counts.iter().sum();
                next.push(FrontierNode {
                    id: l,
                    depth: f.depth + 1,
                    n: ln,
                    attr_entry_bounds: child_bounds(ln),
                });
                next.push(FrontierNode {
                    id: r,
                    depth: f.depth + 1,
                    n: rn,
                    attr_entry_bounds: child_bounds(rn),
                });
            }
            frontier = next;
        }

        tree.compact();
        stats.time = t0.elapsed();
        Ok(RfFit { tree, stats })
    }

    /// RF-Hybrid level: batch frontier nodes under the budget, one scan per
    /// batch building full AVC-groups.
    #[allow(clippy::type_complexity)]
    fn level_hybrid(
        &self,
        source: &dyn RecordSource,
        tree: &Tree,
        frontier: &[FrontierNode],
        stats: &mut RfRunStats,
    ) -> Result<Vec<Option<(SplitEval, Vec<usize>)>>> {
        let schema = source.schema();
        let selector = ImpuritySelector::new(self.impurity.clone());
        let mut out: Vec<Option<(SplitEval, Vec<usize>)>> =
            (0..frontier.len()).map(|_| None).collect();
        let mut i = 0;
        while i < frontier.len() {
            // Greedy batch under the entry budget (always at least one node,
            // as [GRG98] requires memory for a single AVC-group).
            let mut used: usize = frontier[i].attr_entry_bounds.iter().sum();
            let mut j = i + 1;
            while j < frontier.len() {
                let est: usize = frontier[j].attr_entry_bounds.iter().sum();
                if used + est > self.config.avc_budget_entries {
                    break;
                }
                used += est;
                j += 1;
            }
            stats.batches += 1;

            let mut groups: HashMap<NodeId, (usize, AvcGroup)> = (i..j)
                .map(|bi| (frontier[bi].id, (bi, AvcGroup::new(schema))))
                .collect();
            for r in source.scan()? {
                let r = r?;
                let leaf = tree.leaf_for(&r);
                if let Some((_, g)) = groups.get_mut(&leaf) {
                    g.add_record(&r);
                }
            }

            for (_, (bi, group)) in groups {
                let actual: Vec<usize> = (0..group.n_attrs())
                    .map(|a| group.attr(a).n_entries())
                    .collect();
                out[bi] = selector.select(schema, &group).map(|e| (e, actual));
            }
            i = j;
        }
        Ok(out)
    }

    /// RF-Vertical level: one scan for all categorical AVC-sets, then one
    /// (budget-batched) scan per numeric attribute.
    #[allow(clippy::type_complexity)]
    fn level_vertical(
        &self,
        source: &dyn RecordSource,
        tree: &Tree,
        frontier: &[FrontierNode],
        stats: &mut RfRunStats,
    ) -> Result<Vec<Option<(SplitEval, Vec<usize>)>>> {
        let schema = source.schema();
        let k = schema.n_classes();
        let imp: &dyn Impurity = &self.impurity;
        // Best candidate per frontier node, folded attribute by attribute
        // with the same deterministic order as `best_split`.
        let mut best: Vec<Option<SplitEval>> = (0..frontier.len()).map(|_| None).collect();
        let mut actual_entries: Vec<Vec<usize>> = (0..frontier.len())
            .map(|_| vec![0usize; schema.n_attributes()])
            .collect();
        let node_pos: HashMap<NodeId, usize> = frontier
            .iter()
            .enumerate()
            .map(|(i, f)| (f.id, i))
            .collect();

        fn fold(best: &mut [Option<SplitEval>], pos: usize, cand: Option<SplitEval>) {
            if let Some(c) = cand {
                let better = best[pos]
                    .as_ref()
                    .is_none_or(|b| boat_tree::cmp_splits(&c, b) == std::cmp::Ordering::Less);
                if better {
                    best[pos] = Some(c);
                }
            }
        }

        // Pass 1: all categorical attributes at once (their AVC-sets are
        // domain-bounded and small).
        let cat_attrs: Vec<usize> = schema.categorical_attrs().collect();
        if !cat_attrs.is_empty() {
            let mut sets: Vec<Vec<CatAvc>> = frontier
                .iter()
                .map(|_| {
                    cat_attrs
                        .iter()
                        .map(|&a| {
                            let AttrType::Categorical { cardinality } = schema.attribute(a).ty()
                            else {
                                unreachable!("cat_attrs holds categorical attributes")
                            };
                            CatAvc::new(cardinality, k)
                        })
                        .collect()
                })
                .collect();
            for r in source.scan()? {
                let r = r?;
                let leaf = tree.leaf_for(&r);
                if let Some(&pos) = node_pos.get(&leaf) {
                    for (si, &a) in cat_attrs.iter().enumerate() {
                        sets[pos][si].add(r.cat(a), r.label());
                    }
                }
            }
            stats.batches += 1;
            for (pos, node_sets) in sets.into_iter().enumerate() {
                for (si, avc) in node_sets.into_iter().enumerate() {
                    let a = cat_attrs[si];
                    actual_entries[pos][a] = avc.n_entries();
                    fold(
                        &mut best,
                        pos,
                        boat_tree::split::best_categorical_split(a, &avc, imp),
                    );
                }
            }
        }

        // Pass 2+: one pass per numeric attribute, batched under the budget.
        for a in schema.numeric_attrs() {
            let mut i = 0;
            while i < frontier.len() {
                let mut used = frontier[i].attr_entry_bounds[a];
                let mut j = i + 1;
                while j < frontier.len() {
                    let est = frontier[j].attr_entry_bounds[a];
                    if used + est > self.config.avc_budget_entries {
                        break;
                    }
                    used += est;
                    j += 1;
                }
                stats.batches += 1;

                let mut sets: HashMap<NodeId, (usize, NumAvc, Vec<u64>)> = (i..j)
                    .map(|bi| (frontier[bi].id, (bi, NumAvc::new(k), vec![0u64; k])))
                    .collect();
                for r in source.scan()? {
                    let r = r?;
                    let leaf = tree.leaf_for(&r);
                    if let Some((_, avc, totals)) = sets.get_mut(&leaf) {
                        avc.add(r.num(a), r.label());
                        totals[r.label() as usize] += 1;
                    }
                }
                for (_, (pos, avc, totals)) in sets {
                    actual_entries[pos][a] = avc.n_entries();
                    fold(
                        &mut best,
                        pos,
                        boat_tree::split::best_numeric_split(a, &avc, &totals, imp),
                    );
                }
                i = j;
            }
        }

        Ok(best
            .into_iter()
            .zip(actual_entries)
            .map(|(b, e)| b.map(|eval| (eval, e)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_datagen::{GeneratorConfig, LabelFunction};

    fn reference(source: &dyn RecordSource, limits: GrowthLimits) -> Tree {
        let records = source.collect_records().unwrap();
        let selector = ImpuritySelector::new(Gini);
        TdTreeBuilder::new(&selector, limits).fit(source.schema(), &records)
    }

    fn config(threshold: u64) -> RfConfig {
        RfConfig {
            avc_budget_entries: 100_000,
            in_memory_threshold: threshold,
            limits: GrowthLimits::default(),
        }
    }

    #[test]
    fn hybrid_matches_reference_on_f1() {
        let source = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(31)
            .source(5_000);
        let fit = RainForest::new(RfVariant::Hybrid, config(300))
            .fit(&source)
            .unwrap();
        assert_eq!(fit.tree, reference(&source, GrowthLimits::default()));
        assert!(fit.stats.levels >= 1);
    }

    #[test]
    fn vertical_matches_reference_on_f1() {
        let source = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(31)
            .source(5_000);
        let fit = RainForest::new(RfVariant::Vertical, config(300))
            .fit(&source)
            .unwrap();
        assert_eq!(fit.tree, reference(&source, GrowthLimits::default()));
    }

    #[test]
    fn variants_agree_on_all_paper_functions() {
        for f in [LabelFunction::F1, LabelFunction::F6, LabelFunction::F7] {
            let source = GeneratorConfig::new(f).with_seed(32).source(4_000);
            let h = RainForest::new(RfVariant::Hybrid, config(200))
                .fit(&source)
                .unwrap();
            let v = RainForest::new(RfVariant::Vertical, config(200))
                .fit(&source)
                .unwrap();
            let r = reference(&source, GrowthLimits::default());
            assert_eq!(h.tree, r, "{f:?} hybrid");
            assert_eq!(v.tree, r, "{f:?} vertical");
        }
    }

    #[test]
    fn vertical_scans_more_than_hybrid() {
        let source = GeneratorConfig::new(LabelFunction::F6)
            .with_seed(33)
            .source(5_000);
        let h = RainForest::new(RfVariant::Hybrid, config(100))
            .fit(&source)
            .unwrap();
        let v = RainForest::new(RfVariant::Vertical, config(100))
            .fit(&source)
            .unwrap();
        assert!(
            v.stats.scans_over_input > h.stats.scans_over_input,
            "vertical {} vs hybrid {}",
            v.stats.scans_over_input,
            h.stats.scans_over_input
        );
    }

    #[test]
    fn tight_budget_forces_more_batches_same_tree() {
        let source = GeneratorConfig::new(LabelFunction::F2)
            .with_seed(34)
            .source(4_000);
        let mut small = config(200);
        small.avc_budget_entries = 8_000; // roughly one node's numeric AVC
        let mut large = config(200);
        large.avc_budget_entries = 10_000_000;
        let s = RainForest::new(RfVariant::Hybrid, small)
            .fit(&source)
            .unwrap();
        let l = RainForest::new(RfVariant::Hybrid, large)
            .fit(&source)
            .unwrap();
        assert_eq!(s.tree, l.tree);
        assert!(s.stats.batches > l.stats.batches);
        assert!(s.stats.scans_over_input > l.stats.scans_over_input);
    }

    #[test]
    fn one_scan_per_level_when_budget_ample() {
        let source = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(35)
            .source(5_000);
        let mut cfg = config(200);
        cfg.avc_budget_entries = 100_000_000;
        let fit = RainForest::new(RfVariant::Hybrid, cfg)
            .fit(&source)
            .unwrap();
        // scans = 1 (root counts) + one per level + one if the in-memory
        // switch fired.
        let switch = u64::from(fit.stats.inmem_builds > 0);
        assert_eq!(fit.stats.scans_over_input, 1 + fit.stats.levels + switch);
        assert_eq!(
            fit.stats.batches, fit.stats.levels,
            "ample budget = one batch per level"
        );
    }

    #[test]
    fn paper_mode_stop_threshold_respected() {
        let limits = GrowthLimits {
            stop_family_size: Some(800),
            ..GrowthLimits::default()
        };
        let source = GeneratorConfig::new(LabelFunction::F7)
            .with_seed(36)
            .source(6_000);
        let mut cfg = config(400);
        cfg.limits = limits;
        let fit = RainForest::new(RfVariant::Hybrid, cfg)
            .fit(&source)
            .unwrap();
        assert_eq!(fit.tree, reference(&source, limits));
        // Internal nodes must all exceed the stop threshold.
        for id in fit.tree.preorder_ids() {
            let node = fit.tree.node(id);
            if !node.is_leaf() {
                assert!(node.n_records() > 800);
            }
        }
    }

    #[test]
    fn pure_data_is_one_root_scan() {
        let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(37);
        let schema = gen.schema();
        let records: Vec<Record> = gen
            .generate_vec(1_000)
            .into_iter()
            .map(|r| r.with_label(0))
            .collect();
        let source = boat_data::MemoryDataset::new(schema, records);
        let fit = RainForest::new(RfVariant::Hybrid, config(100))
            .fit(&source)
            .unwrap();
        assert_eq!(fit.tree.n_nodes(), 1);
        assert_eq!(fit.stats.scans_over_input, 1);
    }

    /// Held by every test that fits `RfVariant::Write`, so one test's
    /// partition files never show up in another's temp-dir count.
    static WRITE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn write_lock() -> std::sync::MutexGuard<'static, ()> {
        WRITE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn write_variant_matches_reference() {
        let _serial = write_lock();
        let source = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(41)
            .source(5_000);
        let fit = RainForest::new(RfVariant::Write, config(300))
            .fit(&source)
            .unwrap();
        assert_eq!(fit.tree, reference(&source, GrowthLimits::default()));
        // RF-Write reads the input only for the root's AVC + partition
        // passes; deeper levels hit temporary files.
        assert!(
            fit.stats.scans_over_input <= 3,
            "scans: {}",
            fit.stats.scans_over_input
        );
        assert!(
            fit.stats.temp_io.records_written > 0,
            "must write partitions"
        );
    }

    #[test]
    fn write_variant_cleans_up_partitions() {
        let _serial = write_lock();
        // Only this process's partition files: other test binaries may be
        // writing their own into the shared temp dir.
        let prefix = format!("rf-write-{}-", std::process::id());
        let count = || {
            std::fs::read_dir(std::env::temp_dir())
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with(&prefix)
                })
                .count()
        };
        let before = count();
        let source = GeneratorConfig::new(LabelFunction::F6)
            .with_seed(42)
            .source(4_000);
        RainForest::new(RfVariant::Write, config(200))
            .fit(&source)
            .unwrap();
        let after = count();
        assert_eq!(after, before, "partition files must be deleted");
    }

    #[test]
    fn all_three_variants_agree() {
        let _serial = write_lock();
        let source = GeneratorConfig::new(LabelFunction::F7)
            .with_seed(43)
            .source(4_000);
        let w = RainForest::new(RfVariant::Write, config(200))
            .fit(&source)
            .unwrap();
        let h = RainForest::new(RfVariant::Hybrid, config(200))
            .fit(&source)
            .unwrap();
        let v = RainForest::new(RfVariant::Vertical, config(200))
            .fit(&source)
            .unwrap();
        assert_eq!(w.tree, h.tree);
        assert_eq!(w.tree, v.tree);
    }

    /// `stats.io` covers one fit, not the source's lifetime: a second fit
    /// over the same source reports exactly the first fit's I/O, and every
    /// counted input scan is one scan of the source.
    #[test]
    fn io_counts_one_fit_per_variant() {
        let _serial = write_lock();
        let source = GeneratorConfig::new(LabelFunction::F6)
            .with_seed(44)
            .source(4_000);
        for variant in [RfVariant::Write, RfVariant::Hybrid, RfVariant::Vertical] {
            let rf = RainForest::new(variant, config(200));
            let first = rf.fit(&source).unwrap();
            let second = rf.fit(&source).unwrap();
            assert_eq!(second.stats.io, first.stats.io, "{variant:?}");
            assert_eq!(
                first.stats.io.scans, first.stats.scans_over_input,
                "{variant:?}"
            );
        }
    }

    #[test]
    fn with_entropy_matches_entropy_reference() {
        use boat_tree::Entropy;
        let source = GeneratorConfig::new(LabelFunction::F3)
            .with_seed(38)
            .source(3_000);
        let fit = RainForest::with_impurity(RfVariant::Hybrid, config(150), Entropy)
            .fit(&source)
            .unwrap();
        let records = source.collect_records().unwrap();
        let selector = ImpuritySelector::new(Entropy);
        let reference =
            TdTreeBuilder::new(&selector, GrowthLimits::default()).fit(source.schema(), &records);
        assert_eq!(fit.tree, reference);
    }
}

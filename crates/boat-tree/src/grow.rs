//! Greedy top-down tree induction (the paper's Figure 1 schema).
//!
//! `TDTree` applies a split-selection method `CL` to a partition, partitions
//! the data by the chosen criterion, and recurses. This in-memory builder is
//! the **reference implementation**: BOAT's correctness guarantee is that it
//! produces exactly the tree this builder produces on the full training
//! database — and the integration tests assert precisely that.
//!
//! The builder is also a component of the scalable algorithms themselves:
//! BOAT runs it on the bootstrap samples (sampling phase) and on node
//! families that fit in memory (the in-memory switch of §3.5).

use crate::avc::AvcGroup;
use crate::impurity::Impurity;
use crate::model::Tree;
use crate::split::{best_split, SplitEval};
use boat_data::{Record, Schema};
use std::fmt::Debug;

/// A split-selection method (`CL` in the paper's Figure 1), abstracted so
/// non-impurity methods (e.g. QUEST-style selectors) can plug into the same
/// induction schema.
pub trait SplitSelector: Debug + Send + Sync {
    /// Choose the best split for a node given its AVC-group, or `None` if no
    /// valid split exists.
    fn select(&self, schema: &Schema, group: &AvcGroup) -> Option<SplitEval>;

    /// Choose the best split directly from a node's records. The default
    /// builds an AVC-group and delegates to [`SplitSelector::select`];
    /// implementations may override with something faster, provided the
    /// result is identical.
    fn select_records(&self, schema: &Schema, records: &[&Record]) -> Option<SplitEval> {
        let group = AvcGroup::from_records(schema, records.iter().copied());
        self.select(schema, &group)
    }

    /// Choose the best split for one node of the columnar weighted engine
    /// (see [`crate::columnar`]): `node` holds the member rows (row-id order
    /// plus each numeric attribute's presorted order), `weights` the
    /// bootstrap multiplicities, and `totals` the node's weighted per-class
    /// counts. Implementations must return exactly what
    /// [`SplitSelector::select_records`] would on the materialized multiset.
    ///
    /// The default *is* that contract: it materializes the node's multiset
    /// from the columns (row-id order, each row repeated by its weight) and
    /// calls [`SplitSelector::select_records`]. Selectors override it only
    /// to skip the materialization.
    fn select_columnar(
        &self,
        sample: &crate::columnar::ColumnarSample,
        node: &crate::columnar::NodeRows,
        weights: &[u32],
        totals: &[u64],
    ) -> Option<SplitEval> {
        let _ = totals;
        let records: Vec<Record> = node.rows.iter().map(|&row| sample.record(row)).collect();
        let multiset: Vec<&Record> = node
            .rows
            .iter()
            .zip(&records)
            .flat_map(|(&row, record)| std::iter::repeat_n(record, weights[row as usize] as usize))
            .collect();
        self.select_records(sample.schema(), &multiset)
    }

    /// [`SplitSelector::select_columnar`] plus the node's engine context
    /// (preorder index, depth, optional subsample gate — see
    /// [`crate::subsample`]). The contract is unchanged: the returned split
    /// must be exactly what `select_records` would return on the
    /// materialized multiset, whatever the context says. The default
    /// ignores the context, so selectors without a gated path (e.g. QUEST)
    /// keep their exact behavior.
    fn select_columnar_ctx(
        &self,
        sample: &crate::columnar::ColumnarSample,
        node: &crate::columnar::NodeRows,
        weights: &[u32],
        totals: &[u64],
        ctx: &crate::subsample::ColumnarCtx<'_>,
    ) -> Option<SplitEval> {
        let _ = ctx;
        self.select_columnar(sample, node, weights, totals)
    }
}

/// The impurity-based selector used by CART/C4.5-style methods (paper
/// §2.2): minimize a concave impurity over all candidate splits.
#[derive(Debug, Clone, Copy)]
pub struct ImpuritySelector<I: Impurity> {
    /// The concave impurity function to minimize.
    pub impurity: I,
}

impl<I: Impurity> ImpuritySelector<I> {
    /// Wrap an impurity function.
    pub fn new(impurity: I) -> Self {
        ImpuritySelector { impurity }
    }
}

impl<I: Impurity> SplitSelector for ImpuritySelector<I> {
    fn select(&self, schema: &Schema, group: &AvcGroup) -> Option<SplitEval> {
        best_split(schema, group, &self.impurity)
    }

    fn select_records(&self, schema: &Schema, records: &[&Record]) -> Option<SplitEval> {
        // Sort-based numeric sweeps instead of tree-map AVC-sets: identical
        // output (shared sweep + impurity code over identical counts),
        // several times faster — this is the bootstrap phase's hot path.
        use crate::avc::CatAvc;
        use crate::split::{best_categorical_split, best_numeric_split_from_pairs};
        use boat_data::AttrType;
        let k = schema.n_classes();
        let mut totals = vec![0u64; k];
        for r in records {
            totals[r.label() as usize] += 1;
        }
        let mut best: Option<SplitEval> = None;
        let mut pairs: Vec<(f64, u16)> = Vec::with_capacity(records.len());
        for (a, attr) in schema.attributes().iter().enumerate() {
            let cand = match attr.ty() {
                AttrType::Numeric => {
                    pairs.clear();
                    pairs.extend(records.iter().map(|r| (r.num(a), r.label())));
                    best_numeric_split_from_pairs(a, &mut pairs, &totals, &self.impurity)
                }
                AttrType::Categorical { cardinality } => {
                    let mut avc = CatAvc::new(cardinality, k);
                    for r in records {
                        avc.add(r.cat(a), r.label());
                    }
                    best_categorical_split(a, &avc, &self.impurity)
                }
            };
            if let Some(c) = cand {
                let better = best
                    .as_ref()
                    .is_none_or(|b| crate::split::cmp_splits(&c, b) == std::cmp::Ordering::Less);
                if better {
                    best = Some(c);
                }
            }
        }
        best
    }

    fn select_columnar(
        &self,
        sample: &crate::columnar::ColumnarSample,
        node: &crate::columnar::NodeRows,
        weights: &[u32],
        totals: &[u64],
    ) -> Option<SplitEval> {
        self.select_columnar_ctx(
            sample,
            node,
            weights,
            totals,
            &crate::subsample::ColumnarCtx::ungated(),
        )
    }

    fn select_columnar_ctx(
        &self,
        sample: &crate::columnar::ColumnarSample,
        node: &crate::columnar::NodeRows,
        weights: &[u32],
        totals: &[u64],
        ctx: &crate::subsample::ColumnarCtx<'_>,
    ) -> Option<SplitEval> {
        // The columnar twin of `select_records`: same per-attribute loop,
        // same shared sweep/impurity/tie-break code over the same counts.
        // Numeric attributes skip the per-node sort entirely — the node's
        // presorted row list yields the distinct values in `total_cmp`
        // order, grouped into runs by bit pattern exactly like
        // `best_numeric_split_from_pairs`, with weight-multiplied class
        // counts (u64 sums are order-insensitive, so counts are identical).
        //
        // When the context carries a subsample gate and the node is large
        // enough, numeric attributes first try the confidence-gated search
        // ([`crate::subsample::gated_numeric_split`]) — exact boundary
        // scores + Lemma 3.1 corner bounds pruning whole windows — which
        // returns the identical overall winner while evaluating far fewer
        // points, or declines and the full sweep below runs unchanged.
        use crate::avc::CatAvc;
        use crate::split::{best_categorical_split, cmp_splits, sweep_numeric};
        use crate::subsample::{gated_numeric_split, GateOutcome};
        use boat_data::AttrType;
        let schema = sample.schema();
        let k = schema.n_classes();
        let mut best: Option<SplitEval> = None;
        let mut values: Vec<f64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new(); // flat, k per distinct value
        let gate = ctx
            .gate
            .filter(|rt| rt.params.enabled() && node.len() >= rt.params.min_node);
        for (a, attr) in schema.attributes().iter().enumerate() {
            let cand = match attr.ty() {
                AttrType::Numeric => {
                    let col = sample.num_column(a);
                    let list = node.sorted[a]
                        .as_deref()
                        .expect("numeric attribute must carry a presorted node list");
                    let gated = gate.and_then(|rt| {
                        match gated_numeric_split(
                            a,
                            col,
                            list,
                            sample.labels(),
                            weights,
                            totals,
                            &self.impurity,
                            rt,
                            ctx.node_index,
                            ctx.depth,
                            best.as_ref(),
                        ) {
                            GateOutcome::Gated(c) => Some(c),
                            GateOutcome::Fallback => None,
                        }
                    });
                    if let Some(c) = gated {
                        c
                    } else {
                        values.clear();
                        counts.clear();
                        for &row in list {
                            let v = col[row as usize];
                            let new_run = values
                                .last()
                                .is_none_or(|&last| last.to_bits() != v.to_bits());
                            if new_run {
                                values.push(v);
                                counts.extend(std::iter::repeat_n(0, k));
                            }
                            let base = counts.len() - k;
                            counts[base + sample.label(row) as usize] +=
                                weights[row as usize] as u64;
                        }
                        sweep_numeric(
                            a,
                            values
                                .iter()
                                .enumerate()
                                .map(|(i, &v)| (v, &counts[i * k..(i + 1) * k])),
                            None,
                            None,
                            totals,
                            &self.impurity,
                        )
                    }
                }
                AttrType::Categorical { cardinality } => {
                    let col = sample.cat_column(a);
                    let mut avc = CatAvc::new(cardinality, k);
                    for &row in &node.rows {
                        avc.add_weighted(
                            col[row as usize],
                            sample.label(row),
                            weights[row as usize] as u64,
                        );
                    }
                    best_categorical_split(a, &avc, &self.impurity)
                }
            };
            if let Some(c) = cand {
                let better = best
                    .as_ref()
                    .is_none_or(|b| cmp_splits(&c, b) == std::cmp::Ordering::Less);
                if better {
                    best = Some(c);
                }
            }
        }
        best
    }
}

/// Stopping rules shared by every construction algorithm. Identical limits
/// are a precondition for identical trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthLimits {
    /// Do not split nodes with fewer than this many records (default 2).
    pub min_split: u64,
    /// Do not split nodes at this depth (root = 0); `None` = unlimited.
    pub max_depth: Option<u32>,
    /// Make any node with at most this many records a leaf. The paper's
    /// experiments stop growth at families of 1.5 M tuples ("any smart
    /// implementation would switch to main-memory construction"); the bench
    /// harness sets this to the scaled equivalent for *all* algorithms.
    pub stop_family_size: Option<u64>,
}

impl Default for GrowthLimits {
    fn default() -> Self {
        GrowthLimits {
            min_split: 2,
            max_depth: None,
            stop_family_size: None,
        }
    }
}

impl GrowthLimits {
    /// Whether a node with the given class counts and depth must stay a
    /// leaf.
    pub fn must_stop(&self, class_counts: &[u64], depth: u32) -> bool {
        let n: u64 = class_counts.iter().sum();
        if n < self.min_split {
            return true;
        }
        if class_counts.iter().filter(|&&c| c > 0).count() <= 1 {
            return true; // pure (or empty)
        }
        if self.max_depth.is_some_and(|d| depth >= d) {
            return true;
        }
        if self.stop_family_size.is_some_and(|t| n <= t) {
            return true;
        }
        false
    }
}

/// The greedy top-down in-memory builder (Figure 1 of the paper).
#[derive(Debug, Clone)]
pub struct TdTreeBuilder<'a, S: SplitSelector + ?Sized> {
    selector: &'a S,
    limits: GrowthLimits,
}

impl<'a, S: SplitSelector + ?Sized> TdTreeBuilder<'a, S> {
    /// Create a builder from a split-selection method and stopping rules.
    pub fn new(selector: &'a S, limits: GrowthLimits) -> Self {
        TdTreeBuilder { selector, limits }
    }

    /// The stopping rules in use.
    pub fn limits(&self) -> GrowthLimits {
        self.limits
    }

    /// Build the decision tree for `records`.
    pub fn fit(&self, schema: &Schema, records: &[Record]) -> Tree {
        let mut counts = vec![0u64; schema.n_classes()];
        for r in records {
            counts[r.label() as usize] += 1;
        }
        let mut tree = Tree::leaf(counts);
        let root = tree.root();
        let indices: Vec<u32> = (0..records.len() as u32).collect();
        self.grow(&mut tree, root, schema, records, indices, 0);
        tree
    }

    fn grow(
        &self,
        tree: &mut Tree,
        node: crate::model::NodeId,
        schema: &Schema,
        records: &[Record],
        indices: Vec<u32>,
        depth: u32,
    ) {
        if self.limits.must_stop(&tree.node(node).class_counts, depth) {
            return;
        }
        let refs: Vec<&Record> = indices.iter().map(|&i| &records[i as usize]).collect();
        let Some(eval) = self.selector.select_records(schema, &refs) else {
            return;
        };
        drop(refs);
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        for &i in &indices {
            if eval.split.goes_left(&records[i as usize]) {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        debug_assert_eq!(left_idx.len() as u64, eval.left_counts.iter().sum::<u64>());
        debug_assert_eq!(
            right_idx.len() as u64,
            eval.right_counts.iter().sum::<u64>()
        );
        drop(indices);
        let (left, right) = tree.split_node(node, eval.split, eval.left_counts, eval.right_counts);
        self.grow(tree, left, schema, records, left_idx, depth + 1);
        self.grow(tree, right, schema, records, right_idx, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catset::CatSet;
    use crate::impurity::Gini;
    use crate::model::Predicate;
    use boat_data::{Attribute, Field};

    fn selector() -> ImpuritySelector<Gini> {
        ImpuritySelector::new(Gini)
    }

    fn num_schema() -> Schema {
        Schema::new(vec![Attribute::numeric("x")], 2).unwrap()
    }

    fn rec1(x: f64, label: u16) -> Record {
        Record::new(vec![Field::Num(x)], label)
    }

    #[test]
    fn single_threshold_concept_yields_one_split() {
        let schema = num_schema();
        let records: Vec<Record> = (0..100)
            .map(|i| rec1(i as f64, u16::from(i >= 40)))
            .collect();
        let sel = selector();
        let tree = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(tree.n_nodes(), 3);
        let split = tree.node(tree.root()).split().unwrap();
        assert_eq!(split.predicate, Predicate::NumLe(39.0));
        assert_eq!(tree.predict(&rec1(10.0, 0)), 0);
        assert_eq!(tree.predict(&rec1(70.0, 0)), 1);
    }

    #[test]
    fn interval_concept_yields_two_levels() {
        // class 0 iff x in [25, 75): needs two splits.
        let schema = num_schema();
        let records: Vec<Record> = (0..100)
            .map(|i| rec1(i as f64, u16::from(!(25..75).contains(&i))))
            .collect();
        let sel = selector();
        let tree = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(tree.n_leaves(), 3);
        assert_eq!(tree.max_depth(), 2);
        for (x, want) in [(10.0, 1), (50.0, 0), (90.0, 1)] {
            assert_eq!(tree.predict(&rec1(x, 0)), want, "x={x}");
        }
    }

    #[test]
    fn pure_data_stays_a_leaf() {
        let schema = num_schema();
        let records: Vec<Record> = (0..10).map(|i| rec1(i as f64, 1)).collect();
        let sel = selector();
        let tree = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.node(tree.root()).majority_label(), 1);
    }

    #[test]
    fn max_depth_caps_growth() {
        let schema = num_schema();
        let records: Vec<Record> = (0..64).map(|i| rec1(i as f64, (i % 2) as u16)).collect();
        let sel = selector();
        let limits = GrowthLimits {
            max_depth: Some(2),
            ..GrowthLimits::default()
        };
        let tree = TdTreeBuilder::new(&sel, limits).fit(&schema, &records);
        assert!(tree.max_depth() <= 2);
    }

    #[test]
    fn stop_family_size_freezes_small_nodes() {
        let schema = num_schema();
        let records: Vec<Record> = (0..100)
            .map(|i| rec1(i as f64, u16::from(i >= 40)))
            .collect();
        let sel = selector();
        let limits = GrowthLimits {
            stop_family_size: Some(200),
            ..GrowthLimits::default()
        };
        let tree = TdTreeBuilder::new(&sel, limits).fit(&schema, &records);
        assert_eq!(
            tree.n_nodes(),
            1,
            "whole family under the threshold stays a leaf"
        );
    }

    #[test]
    fn min_split_respected() {
        let schema = num_schema();
        // Two records of different classes: splittable with min_split=2,
        // a leaf with min_split=3.
        let records = vec![rec1(1.0, 0), rec1(2.0, 1)];
        let sel = selector();
        let t2 = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(t2.n_nodes(), 3);
        let limits = GrowthLimits {
            min_split: 3,
            ..GrowthLimits::default()
        };
        let t3 = TdTreeBuilder::new(&sel, limits).fit(&schema, &records);
        assert_eq!(t3.n_nodes(), 1);
    }

    #[test]
    fn mixed_schema_split_on_categorical() {
        let schema = Schema::new(
            vec![Attribute::numeric("noise"), Attribute::categorical("c", 3)],
            2,
        )
        .unwrap();
        let records: Vec<Record> = (0..30)
            .map(|i| {
                let c = (i % 3) as u32;
                let label = u16::from(c == 1);
                Record::new(vec![Field::Num((i % 7) as f64), Field::Cat(c)], label)
            })
            .collect();
        let sel = selector();
        let tree = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        let split = tree.node(tree.root()).split().unwrap();
        assert_eq!(split.attr, 1);
        let Predicate::CatIn(set) = split.predicate else {
            panic!("categorical split")
        };
        // {1} vs {0,2}: canonical is {1} (mask 0b010 < 0b101).
        assert_eq!(set, CatSet::from_iter([1]));
        assert_eq!(tree.n_nodes(), 3);
    }

    #[test]
    fn xor_structure_needs_zero_gain_first_split() {
        // Classic 2-attribute XOR: no single split reduces impurity, but the
        // greedy schema still splits (both children then separate cleanly).
        let schema =
            Schema::new(vec![Attribute::numeric("a"), Attribute::numeric("b")], 2).unwrap();
        let mut records = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..5 {
                    records.push(Record::new(
                        vec![Field::Num(a as f64), Field::Num(b as f64)],
                        (a ^ b) as u16,
                    ));
                }
            }
        }
        let sel = selector();
        let tree = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(tree.n_leaves(), 4);
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let want = ((a as i32) ^ (b as i32)) as u16;
            let r = Record::new(vec![Field::Num(a), Field::Num(b)], 0);
            assert_eq!(tree.predict(&r), want);
        }
    }

    #[test]
    fn determinism_across_record_order() {
        // The tree must not depend on input order (AVC counts are
        // order-insensitive and the tie order is total).
        let schema = num_schema();
        let mut records: Vec<Record> = (0..60)
            .map(|i| rec1((i % 13) as f64, u16::from(i % 13 >= 6)))
            .collect();
        let sel = selector();
        let t1 = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        records.reverse();
        let t2 = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(t1, t2);
    }

    #[test]
    fn empty_input_is_a_single_leaf() {
        let schema = num_schema();
        let sel = selector();
        let tree = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &[]);
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.node(tree.root()).n_records(), 0);
    }
}

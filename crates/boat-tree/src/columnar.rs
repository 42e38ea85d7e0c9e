//! Columnar sample-phase engine (SLIQ/SPRINT-style presorted attribute
//! lists + weighted bootstrap).
//!
//! BOAT's sampling phase grows `b` bootstrap trees over resamples of the
//! in-memory sample `D'`. The row-oriented reference path clones the drawn
//! records per resample and re-sorts `(value, label)` pairs per node per
//! numeric attribute. This module replaces both costs while producing
//! **bit-identical trees**:
//!
//! * [`ColumnarSample`] transposes `D'` *once* into per-attribute dense
//!   columns (`Vec<f64>` / `Vec<u32>`, plus `Vec<u16>` labels) and computes,
//!   once per numeric attribute, a presorted row-id index ordered by
//!   [`f64::total_cmp`] with ties broken by row id.
//! * A bootstrap resample becomes a *multiplicity vector* (`Vec<u32>`,
//!   weights) over sample rows — zero record clones.
//! * [`grow_weighted`] grows a [`Tree`] over `(columns, weights)`: a node's
//!   per-attribute sorted order is derived by *filtering* its parent's
//!   sorted order with a node-membership bitmap (stable, O(node) per node,
//!   no re-sort — the rank-preserving partition), and the numeric sweep
//!   runs over the dense sorted column with weight-multiplied class counts
//!   through the **identical** shared [`sweep_numeric`]/impurity code the
//!   reference builder uses.
//!
//! ### Determinism contract
//!
//! For any multiplicity vector `w` and the materialized multiset `M(w)`
//! (row `r` repeated `w[r]` times), `grow_weighted(cs, w, sel, limits)`
//! equals `TdTreeBuilder::new(sel, limits).fit(schema, M(w))` node for
//! node, bit for bit: class counts are the same `u64` sums in a different
//! order (addition is commutative), distinct-value grouping uses the same
//! bit-pattern runs over the same `total_cmp` order, and split evaluation,
//! tie-breaking and midpoints go through the same shared code. The
//! differential oracle (`boat-core/tests/subsample_exactness.rs`) asserts
//! this end to end.
//!
//! [`sweep_numeric`]: crate::split::sweep_numeric

use crate::avc::fold_zero;
use crate::grow::{GrowthLimits, SplitSelector};
use crate::model::{NodeId, Predicate, Split, Tree};
use boat_data::{AttrType, Field, Fields, Record, Schema};

/// One transposed attribute column of the sample.
#[derive(Debug, Clone)]
pub enum Column {
    /// Dense numeric values, one per sample row.
    Num(Vec<f64>),
    /// Dense category codes, one per sample row.
    Cat(Vec<u32>),
}

/// The in-memory sample `D'` in columnar form: dense per-attribute columns,
/// dense labels, and (after [`ColumnarSample::presort`]) one presorted
/// row-id index per numeric attribute.
#[derive(Debug, Clone)]
pub struct ColumnarSample {
    schema: Schema,
    n_rows: usize,
    columns: Vec<Column>,
    labels: Vec<u16>,
    /// Per attribute: row ids ordered ascending by `total_cmp` on the
    /// column value, ties broken by row id. `None` for categorical
    /// attributes (and for numeric attributes before [`presort`]).
    ///
    /// [`presort`]: ColumnarSample::presort
    sorted: Vec<Option<Vec<u32>>>,
}

impl ColumnarSample {
    /// Transpose `rows` into dense columns, in one pass over the rows. The
    /// rows are read through [`Fields`], so decoded records and encoded
    /// rows take the same path. Numeric values are stored through
    /// [`fold_zero`], so the two zeros are one value to every sweep. Does **not** build the presorted indices —
    /// call [`ColumnarSample::presort`] (the split lets callers time the two
    /// steps separately).
    pub fn transpose<F: Fields>(schema: &Schema, rows: impl ExactSizeIterator<Item = F>) -> Self {
        let n = rows.len();
        let mut columns: Vec<Column> = schema
            .attributes()
            .iter()
            .map(|attr| match attr.ty() {
                AttrType::Numeric => Column::Num(Vec::with_capacity(n)),
                AttrType::Categorical { .. } => Column::Cat(Vec::with_capacity(n)),
            })
            .collect();
        let mut labels = Vec::with_capacity(n);
        for row in rows {
            for (a, col) in columns.iter_mut().enumerate() {
                match col {
                    Column::Num(v) => v.push(fold_zero(row.num(a))),
                    Column::Cat(v) => v.push(row.cat(a)),
                }
            }
            labels.push(row.label());
        }
        ColumnarSample {
            schema: schema.clone(),
            n_rows: labels.len(),
            columns,
            labels,
            sorted: vec![None; schema.n_attributes()],
        }
    }

    /// Build the presorted row-id index of every numeric attribute:
    /// ascending by `total_cmp`, ties broken by row id (a deterministic
    /// total order, so the index is a pure function of the column).
    /// Idempotent.
    pub fn presort(&mut self) {
        for (a, col) in self.columns.iter().enumerate() {
            if self.sorted[a].is_some() {
                continue;
            }
            if let Column::Num(values) = col {
                let mut idx: Vec<u32> = (0..self.n_rows as u32).collect();
                idx.sort_unstable_by(|&x, &y| {
                    values[x as usize]
                        .total_cmp(&values[y as usize])
                        .then_with(|| x.cmp(&y))
                });
                self.sorted[a] = Some(idx);
            }
        }
    }

    /// Transpose + presort in one call.
    pub fn from_records(schema: &Schema, records: &[Record]) -> Self {
        let mut cs = Self::transpose(schema, records.iter());
        cs.presort();
        cs
    }

    /// The sample's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of sample rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The label column.
    pub fn labels(&self) -> &[u16] {
        &self.labels
    }

    /// The label of one row.
    #[inline]
    pub fn label(&self, row: u32) -> u16 {
        self.labels[row as usize]
    }

    /// The dense numeric column of attribute `attr`. Panics if categorical.
    #[inline]
    pub fn num_column(&self, attr: usize) -> &[f64] {
        match &self.columns[attr] {
            Column::Num(v) => v,
            Column::Cat(_) => panic!("attribute {attr} is categorical"),
        }
    }

    /// The dense categorical column of attribute `attr`. Panics if numeric.
    #[inline]
    pub fn cat_column(&self, attr: usize) -> &[u32] {
        match &self.columns[attr] {
            Column::Cat(v) => v,
            Column::Num(_) => panic!("attribute {attr} is numeric"),
        }
    }

    /// The presorted row-id index of numeric attribute `attr`, if built.
    pub fn presorted(&self, attr: usize) -> Option<&[u32]> {
        self.sorted[attr].as_deref()
    }

    /// Rebuild sample row `row` as a row-oriented [`Record`] (the inverse of
    /// [`ColumnarSample::transpose`]).
    pub(crate) fn record(&self, row: u32) -> Record {
        let r = row as usize;
        let fields: Vec<Field> = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Num(v) => Field::Num(v[r]),
                Column::Cat(v) => Field::Cat(v[r]),
            })
            .collect();
        Record::new(fields, self.labels[r])
    }

    /// Whether `row` routes left under `split` (same predicate semantics as
    /// [`Split::goes_left`] on the row's record).
    #[inline]
    pub fn goes_left(&self, split: &Split, row: u32) -> bool {
        match &split.predicate {
            Predicate::NumLe(x) => self.num_column(split.attr)[row as usize] <= *x,
            Predicate::CatIn(set) => set.contains(self.cat_column(split.attr)[row as usize]),
        }
    }
}

/// A node's view of the sample during columnar growth.
#[derive(Debug, Clone)]
pub struct NodeRows {
    /// The node's member rows in ascending row-id order (drives categorical
    /// accumulation and the partition).
    pub rows: Vec<u32>,
    /// Per attribute: the node's member rows in the attribute's presorted
    /// order (numeric attributes only; `None` for categorical).
    pub sorted: Vec<Option<Vec<u32>>>,
}

impl NodeRows {
    /// The root view: every row with non-zero weight, in row-id order plus
    /// each numeric attribute's presorted order (both derived by filtering,
    /// so the rank order is inherited from the global presort).
    pub fn root(cs: &ColumnarSample, weights: &[u32]) -> Self {
        assert_eq!(weights.len(), cs.n_rows(), "one weight per sample row");
        let rows: Vec<u32> = (0..cs.n_rows() as u32)
            .filter(|&r| weights[r as usize] > 0)
            .collect();
        let sorted = (0..cs.schema.n_attributes())
            .map(|a| {
                cs.presorted(a).map(|idx| {
                    idx.iter()
                        .copied()
                        .filter(|&r| weights[r as usize] > 0)
                        .collect()
                })
            })
            .collect();
        NodeRows { rows, sorted }
    }

    /// Number of member rows (not weighted).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the node has no member rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rank-preserving partition: split every list into (left, right) by
    /// the membership bitmap `in_left` (indexed by row id), preserving
    /// relative order — the children's sorted lists stay sorted without
    /// re-sorting (stable filter, O(node) total).
    pub fn partition(&self, in_left: &[bool]) -> (NodeRows, NodeRows) {
        let split_list = |list: &[u32]| {
            let mut l = Vec::new();
            let mut r = Vec::new();
            for &row in list {
                if in_left[row as usize] {
                    l.push(row);
                } else {
                    r.push(row);
                }
            }
            (l, r)
        };
        let (rows_l, rows_r) = split_list(&self.rows);
        let mut sorted_l = Vec::with_capacity(self.sorted.len());
        let mut sorted_r = Vec::with_capacity(self.sorted.len());
        for slot in &self.sorted {
            match slot {
                Some(list) => {
                    let (l, r) = split_list(list);
                    sorted_l.push(Some(l));
                    sorted_r.push(Some(r));
                }
                None => {
                    sorted_l.push(None);
                    sorted_r.push(None);
                }
            }
        }
        (
            NodeRows {
                rows: rows_l,
                sorted: sorted_l,
            },
            NodeRows {
                rows: rows_r,
                sorted: sorted_r,
            },
        )
    }
}

/// Grow the decision tree for the weighted sample `(cs, weights)` —
/// bit-identical to [`crate::TdTreeBuilder::fit`] on the materialized
/// multiset (row `r` repeated `weights[r]` times), per the module-level
/// determinism contract.
///
/// Any selector works: one without a columnar override selects through the
/// default [`SplitSelector::select_columnar`], which materializes each
/// node's multiset. `cs` must be presorted.
pub fn grow_weighted<S: SplitSelector + ?Sized>(
    cs: &ColumnarSample,
    weights: &[u32],
    selector: &S,
    limits: GrowthLimits,
) -> Tree {
    grow_weighted_gated(cs, weights, selector, limits, None)
}

/// [`grow_weighted`] with an optional subsample gate (see
/// [`crate::subsample`]): every node's split selection goes through
/// [`SplitSelector::select_columnar_ctx`] with a stable preorder node index
/// and depth, so gated selectors can derive per-node seeds. The gate never
/// changes the output tree — only how many split points are evaluated —
/// so this carries the exact same determinism contract as
/// [`grow_weighted`] (which is this function with `gate = None`).
pub fn grow_weighted_gated<S: SplitSelector + ?Sized>(
    cs: &ColumnarSample,
    weights: &[u32],
    selector: &S,
    limits: GrowthLimits,
    gate: Option<&crate::subsample::SubsampleRuntime<'_>>,
) -> Tree {
    let k = cs.schema.n_classes();
    let mut counts = vec![0u64; k];
    for (r, &w) in weights.iter().enumerate() {
        counts[cs.labels[r] as usize] += w as u64;
    }
    let mut tree = Tree::leaf(counts);
    let root = tree.root();
    let rows = NodeRows::root(cs, weights);
    let mut in_left = vec![false; cs.n_rows()];
    let mut next_node = 0u64;
    grow(
        cs,
        weights,
        selector,
        limits,
        &mut tree,
        root,
        rows,
        0,
        &mut in_left,
        &mut next_node,
        gate,
    );
    tree
}

#[allow(clippy::too_many_arguments)] // internal recursion mirrors TdTreeBuilder::grow
fn grow<S: SplitSelector + ?Sized>(
    cs: &ColumnarSample,
    weights: &[u32],
    selector: &S,
    limits: GrowthLimits,
    tree: &mut Tree,
    node: NodeId,
    rows: NodeRows,
    depth: u32,
    in_left: &mut [bool],
    next_node: &mut u64,
    gate: Option<&crate::subsample::SubsampleRuntime<'_>>,
) {
    let node_index = *next_node;
    *next_node += 1;
    if limits.must_stop(&tree.node(node).class_counts, depth) {
        return;
    }
    let totals = tree.node(node).class_counts.clone();
    let ctx = crate::subsample::ColumnarCtx {
        node_index,
        depth,
        gate,
    };
    let Some(eval) = selector.select_columnar_ctx(cs, &rows, weights, &totals, &ctx) else {
        return;
    };
    for &row in &rows.rows {
        in_left[row as usize] = cs.goes_left(&eval.split, row);
    }
    let (left_rows, right_rows) = rows.partition(in_left);
    for &row in &left_rows.rows {
        in_left[row as usize] = false; // restore the scratch bitmap
    }
    drop(rows);
    debug_assert_eq!(
        left_rows
            .rows
            .iter()
            .map(|&r| weights[r as usize] as u64)
            .sum::<u64>(),
        eval.left_counts.iter().sum::<u64>(),
        "weighted left family must match the evaluated split"
    );
    debug_assert_eq!(
        right_rows
            .rows
            .iter()
            .map(|&r| weights[r as usize] as u64)
            .sum::<u64>(),
        eval.right_counts.iter().sum::<u64>(),
        "weighted right family must match the evaluated split"
    );
    let (left, right) = tree.split_node(node, eval.split, eval.left_counts, eval.right_counts);
    grow(
        cs,
        weights,
        selector,
        limits,
        tree,
        left,
        left_rows,
        depth + 1,
        in_left,
        next_node,
        gate,
    );
    grow(
        cs,
        weights,
        selector,
        limits,
        tree,
        right,
        right_rows,
        depth + 1,
        in_left,
        next_node,
        gate,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grow::{ImpuritySelector, TdTreeBuilder};
    use crate::impurity::Gini;
    use boat_data::{Attribute, Field};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn selector() -> ImpuritySelector<Gini> {
        ImpuritySelector::new(Gini)
    }

    fn mixed_schema() -> Schema {
        Schema::new(
            vec![
                Attribute::numeric("x"),
                Attribute::categorical("c", 5),
                Attribute::numeric("y"),
            ],
            3,
        )
        .unwrap()
    }

    fn random_records(schema: &Schema, n: usize, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let fields: Vec<Field> = schema
                    .attributes()
                    .iter()
                    .map(|a| match a.ty() {
                        // A coarse value grid makes duplicate values (and
                        // hence grouping/tie paths) common.
                        AttrType::Numeric => Field::Num(rng.random_range(0..25u32) as f64 * 0.5),
                        AttrType::Categorical { cardinality } => {
                            Field::Cat(rng.random_range(0..cardinality))
                        }
                    })
                    .collect();
                let label = rng.random_range(0..schema.n_classes() as u32) as u16;
                Record::new(fields, label)
            })
            .collect()
    }

    /// Materialize the multiset a weight vector denotes, in row order.
    fn materialize(records: &[Record], weights: &[u32]) -> Vec<Record> {
        let mut out = Vec::new();
        for (r, &w) in weights.iter().enumerate() {
            for _ in 0..w {
                out.push(records[r].clone());
            }
        }
        out
    }

    #[test]
    fn presorted_index_orders_by_total_cmp_with_rowid_ties() {
        let schema = Schema::new(vec![Attribute::numeric("x")], 2).unwrap();
        let vals = [3.0, 1.0, 3.0, -0.0, 0.0, 1.0];
        let records: Vec<Record> = vals
            .iter()
            .map(|&v| Record::new(vec![Field::Num(v)], 0))
            .collect();
        let cs = ColumnarSample::from_records(&schema, &records);
        // total_cmp: -0.0 < 0.0; equal values tie-break by row id.
        assert_eq!(cs.presorted(0).unwrap(), &[3, 4, 1, 5, 0, 2]);
    }

    #[test]
    fn unit_weights_match_reference_builder() {
        let schema = mixed_schema();
        let records = random_records(&schema, 300, 11);
        let sel = selector();
        let reference = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        let cs = ColumnarSample::from_records(&schema, &records);
        let weights = vec![1u32; records.len()];
        let columnar = grow_weighted(&cs, &weights, &sel, GrowthLimits::default());
        assert_eq!(columnar, reference);
    }

    #[test]
    fn bootstrap_weights_match_reference_on_materialized_resample() {
        // The impurity selector's columnar override and QUEST's default
        // (materializing) `select_columnar` must both equal the reference
        // builder on the materialized multiset.
        let selectors: [&dyn SplitSelector; 2] = [&selector(), &crate::quest::QuestSelector];
        let schema = mixed_schema();
        let records = random_records(&schema, 200, 23);
        let cs = ColumnarSample::from_records(&schema, &records);
        for sel in selectors {
            for seed in 0..5u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let weights =
                    boat_data::sample::bootstrap_multiplicities(records.len(), 150, &mut rng);
                let expanded = materialize(&records, &weights);
                let reference =
                    TdTreeBuilder::new(sel, GrowthLimits::default()).fit(&schema, &expanded);
                let columnar = grow_weighted(&cs, &weights, sel, GrowthLimits::default());
                assert_eq!(columnar, reference, "{sel:?} seed {seed}");
            }
        }
    }

    #[test]
    fn record_inverts_transpose() {
        let schema = mixed_schema();
        let records = random_records(&schema, 50, 5);
        let cs = ColumnarSample::transpose(&schema, records.iter());
        for (row, record) in records.iter().enumerate() {
            assert_eq!(&cs.record(row as u32), record);
        }
    }

    #[test]
    fn encoded_rows_transpose_like_records() {
        use boat_data::codec::{encode_into, EncodedRow, RowLayout};
        let schema = mixed_schema();
        let records = random_records(&schema, 50, 6);
        let layout = RowLayout::new(&schema);
        let mut bytes = Vec::new();
        for r in &records {
            encode_into(&schema, r, &mut bytes).unwrap();
        }
        let rows = bytes
            .chunks_exact(layout.width())
            .map(|bytes| EncodedRow::new(&layout, bytes).unwrap());
        let encoded = ColumnarSample::transpose(&schema, rows);
        let decoded = ColumnarSample::transpose(&schema, records.iter());
        assert_eq!(encoded.n_rows(), records.len());
        for row in 0..records.len() as u32 {
            assert_eq!(encoded.record(row), decoded.record(row));
        }
    }

    #[test]
    fn limits_respected_identically() {
        let schema = mixed_schema();
        let records = random_records(&schema, 250, 7);
        let sel = selector();
        let cs = ColumnarSample::from_records(&schema, &records);
        let weights = vec![1u32; records.len()];
        for limits in [
            GrowthLimits {
                max_depth: Some(2),
                ..GrowthLimits::default()
            },
            GrowthLimits {
                min_split: 40,
                ..GrowthLimits::default()
            },
            GrowthLimits {
                stop_family_size: Some(60),
                ..GrowthLimits::default()
            },
        ] {
            let reference = TdTreeBuilder::new(&sel, limits).fit(&schema, &records);
            let columnar = grow_weighted(&cs, &weights, &sel, limits);
            assert_eq!(columnar, reference, "{limits:?}");
        }
    }

    #[test]
    fn all_equal_column_yields_no_split_on_it() {
        // Attribute 0 is constant; attribute 1 separates. The constant
        // column exercises the single-distinct-value sweep path (no valid
        // candidate) in both engines.
        let schema =
            Schema::new(vec![Attribute::numeric("k"), Attribute::numeric("x")], 2).unwrap();
        let records: Vec<Record> = (0..40)
            .map(|i| {
                Record::new(
                    vec![Field::Num(7.25), Field::Num(i as f64)],
                    u16::from(i >= 20),
                )
            })
            .collect();
        let sel = selector();
        let cs = ColumnarSample::from_records(&schema, &records);
        let weights = vec![1u32; records.len()];
        let tree = grow_weighted(&cs, &weights, &sel, GrowthLimits::default());
        let reference = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(tree, reference);
        assert_eq!(tree.node(tree.root()).split().unwrap().attr, 1);
        // Fully constant data: a single leaf.
        let constant: Vec<Record> = (0..10)
            .map(|i| Record::new(vec![Field::Num(1.0), Field::Num(1.0)], (i % 2) as u16))
            .collect();
        let cs2 = ColumnarSample::from_records(&schema, &constant);
        let t2 = grow_weighted(&cs2, &[1; 10], &sel, GrowthLimits::default());
        assert_eq!(t2.n_nodes(), 1);
    }

    #[test]
    fn rank_preserving_partition_keeps_child_lists_sorted() {
        // NaN-free ties: many duplicate values, so children inherit runs of
        // equal values whose internal order must stay by row id.
        let schema =
            Schema::new(vec![Attribute::numeric("x"), Attribute::numeric("y")], 2).unwrap();
        let records: Vec<Record> = (0..60)
            .map(|i| {
                Record::new(
                    vec![Field::Num((i % 4) as f64), Field::Num((i % 3) as f64)],
                    (i % 2) as u16,
                )
            })
            .collect();
        let cs = ColumnarSample::from_records(&schema, &records);
        let weights = vec![1u32; records.len()];
        let rows = NodeRows::root(&cs, &weights);
        let mut in_left = vec![false; cs.n_rows()];
        let split = Split {
            attr: 0,
            predicate: Predicate::NumLe(1.0),
        };
        for &row in &rows.rows {
            in_left[row as usize] = cs.goes_left(&split, row);
        }
        let (l, r) = rows.partition(&in_left);
        assert_eq!(l.len() + r.len(), 60);
        for node in [&l, &r] {
            for a in [0usize, 1] {
                let list = node.sorted[a].as_ref().unwrap();
                let col = cs.num_column(a);
                for w in list.windows(2) {
                    let (i, j) = (w[0], w[1]);
                    let ord = col[i as usize]
                        .total_cmp(&col[j as usize])
                        .then_with(|| i.cmp(&j));
                    assert_eq!(
                        ord,
                        std::cmp::Ordering::Less,
                        "child list must stay strictly ordered by (value, row id)"
                    );
                }
            }
        }
        // And membership is the predicate, order-preserved.
        assert!(l
            .rows
            .iter()
            .all(|&row| cs.num_column(0)[row as usize] <= 1.0));
        assert!(r
            .rows
            .iter()
            .all(|&row| cs.num_column(0)[row as usize] > 1.0));
        assert!(l.rows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn signed_zero_values_match_reference() {
        // -0.0 and 0.0 are one value to both engines (`fold_zero`), so the
        // sweep walks through them identically.
        let schema = Schema::new(vec![Attribute::numeric("x")], 2).unwrap();
        let records: Vec<Record> = [(-1.0, 0u16), (-0.0, 1), (0.0, 1), (1.0, 1)]
            .iter()
            .map(|&(v, l)| Record::new(vec![Field::Num(v)], l))
            .collect();
        let sel = selector();
        let cs = ColumnarSample::from_records(&schema, &records);
        let tree = grow_weighted(&cs, &[1; 4], &sel, GrowthLimits::default());
        let reference = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(tree, reference);
        assert_eq!(
            tree.node(tree.root()).split().unwrap().predicate,
            Predicate::NumLe(-1.0)
        );
    }

    #[test]
    fn signed_zeros_with_different_labels_are_one_value() {
        // `x` tells the classes apart only by the sign of zero, which no
        // `X <= x` predicate can; `y` separates them. Both builders must
        // split on `y`, and every node's counts must be the rows that
        // reach it.
        let schema =
            Schema::new(vec![Attribute::numeric("x"), Attribute::numeric("y")], 2).unwrap();
        let records: Vec<Record> = (0..400)
            .map(|i| {
                let label = (i % 2) as u16;
                let x = if label == 0 { -0.0 } else { 0.0 };
                let y = f64::from(label) * 1000.0 + f64::from(i);
                Record::new(vec![Field::Num(x), Field::Num(y)], label)
            })
            .collect();
        let sel = selector();
        let cs = ColumnarSample::from_records(&schema, &records);
        let tree = grow_weighted(&cs, &[1; 400], &sel, GrowthLimits::default());
        let reference = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &records);
        assert_eq!(tree, reference);
        assert_eq!(tree.node(tree.root()).split().unwrap().attr, 1);
        for r in &records {
            assert_eq!(tree.predict(r), r.label(), "{r}");
        }
    }

    #[test]
    fn zero_weight_rows_are_invisible() {
        let schema = mixed_schema();
        let records = random_records(&schema, 120, 31);
        let sel = selector();
        let cs = ColumnarSample::from_records(&schema, &records);
        // Weight 0 for every odd row == fitting the even-row subset.
        let weights: Vec<u32> = (0..records.len()).map(|r| (r % 2 == 0) as u32).collect();
        let subset: Vec<Record> = records.iter().step_by(2).cloned().collect();
        let reference = TdTreeBuilder::new(&sel, GrowthLimits::default()).fit(&schema, &subset);
        let columnar = grow_weighted(&cs, &weights, &sel, GrowthLimits::default());
        assert_eq!(columnar, reference);
    }

    #[test]
    fn empty_weights_grow_a_single_leaf() {
        let schema = mixed_schema();
        let records = random_records(&schema, 10, 3);
        let sel = selector();
        let cs = ColumnarSample::from_records(&schema, &records);
        let tree = grow_weighted(&cs, &[0; 10], &sel, GrowthLimits::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.node(tree.root()).n_records(), 0);
    }
}

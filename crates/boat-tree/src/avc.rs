//! AVC-sets and AVC-groups \[GRG98\].
//!
//! The RainForest framework observed that split selection never needs the
//! tuples themselves — only, per predictor attribute, the count of tuples
//! for each (attribute value, class label) pair: the **AVC-set** of the
//! attribute at a node. The collection of all attributes' AVC-sets at a node
//! is its **AVC-group**. BOAT's categorical verification uses the same
//! structure, and the in-memory builder evaluates splits through it too, so
//! every algorithm derives splits from *identical counts* — which is what
//! makes their outputs bit-identical.

use crate::catset::CatSet;
use boat_data::{AttrType, Record, Schema};
use std::collections::BTreeMap;

/// The value a numeric field is counted under: `-0.0` folds into `0.0`.
///
/// The split predicate `X <= x` compares with IEEE `<=`, which cannot tell
/// the two zeros apart, so a sweep that counted them as two values could
/// pick a split point between them that routes both zeros left. Every
/// value grouping of every builder (AVC-sets, the sort-based sweep, the
/// columnar sample and BOAT's value runs) folds through this function, so
/// the zeros are one value with one stored bit pattern, and a split point
/// at zero is always `0.0`.
#[inline]
pub fn fold_zero(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// A totally-ordered wrapper for finite `f64` attribute values
/// (via `f64::total_cmp`).
///
/// Equality is defined to match [`f64::total_cmp`] exactly (two values are
/// equal iff their bit patterns are, so `-0.0 != 0.0` and NaN payloads are
/// distinguished). A derived `PartialEq` would use IEEE `==`, which calls
/// `-0.0 == 0.0` *equal* while `cmp` orders them `Less` — an `Eq`/`Ord`
/// consistency violation that breaks the `BTreeMap` contract.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// AVC-set of a categorical attribute: per-(category, class) counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CatAvc {
    cardinality: u32,
    n_classes: usize,
    counts: Vec<u64>, // cardinality × n_classes, row-major by category
}

impl CatAvc {
    /// An empty AVC-set for an attribute with `cardinality` categories.
    pub fn new(cardinality: u32, n_classes: usize) -> Self {
        CatAvc {
            cardinality,
            n_classes,
            counts: vec![0; cardinality as usize * n_classes],
        }
    }

    /// Count one tuple with category `cat` and class `label`.
    #[inline]
    pub fn add(&mut self, cat: u32, label: u16) {
        self.counts[cat as usize * self.n_classes + label as usize] += 1;
    }

    /// Count `weight` tuples with category `cat` and class `label` at once.
    /// The columnar sample engine accumulates bootstrap multiplicities this
    /// way instead of cloning records; `add_weighted(c, l, 1)` ≡ `add(c, l)`.
    #[inline]
    pub fn add_weighted(&mut self, cat: u32, label: u16, weight: u64) {
        self.counts[cat as usize * self.n_classes + label as usize] += weight;
    }

    /// The per-class counts of one category.
    #[inline]
    pub fn counts_for(&self, cat: u32) -> &[u64] {
        let base = cat as usize * self.n_classes;
        &self.counts[base..base + self.n_classes]
    }

    /// Number of categories in the domain.
    pub fn cardinality(&self) -> u32 {
        self.cardinality
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Categories with at least one tuple.
    pub fn observed(&self) -> CatSet {
        CatSet::from_iter(
            (0..self.cardinality).filter(|&c| self.counts_for(c).iter().any(|&x| x > 0)),
        )
    }

    /// Number of (value, class) cells with the domain's full cardinality —
    /// the RainForest memory-accounting unit.
    pub fn n_entries(&self) -> usize {
        self.counts.len()
    }

    /// An empty AVC-set with the same shape (cardinality, class count) as
    /// `self`. Shard accumulators in the parallel cleanup scan start from
    /// this and are later combined with [`CatAvc::merge_from`].
    pub fn zeroed_like(&self) -> Self {
        CatAvc::new(self.cardinality, self.n_classes)
    }

    /// Add every cell of `other` into `self`.
    ///
    /// Counts are `u64` sums, so merging is exactly associative and
    /// commutative: any merge order over a set of shards produces
    /// bit-identical counts to a single sequential accumulation.
    pub fn merge_from(&mut self, other: &CatAvc) {
        debug_assert_eq!(self.cardinality, other.cardinality, "CatAvc shape mismatch");
        debug_assert_eq!(self.n_classes, other.n_classes, "CatAvc shape mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Whether every cell of `self` is at least the same cell of `other`,
    /// which has the same shape: whether [`CatAvc::subtract`] of `other`
    /// leaves every cell non-negative.
    pub fn covers(&self, other: &CatAvc) -> bool {
        self.counts.iter().zip(&other.counts).all(|(a, b)| a >= b)
    }

    /// Subtract every cell of `other`, which `self` [covers](CatAvc::covers):
    /// the inverse of [`CatAvc::merge_from`] (incremental deletions).
    pub fn subtract(&mut self, other: &CatAvc) {
        debug_assert!(self.covers(other), "CatAvc::subtract below zero");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a -= b;
        }
    }
}

/// AVC-set of a numeric attribute: per-(distinct value, class) counts, value
/// ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct NumAvc {
    n_classes: usize,
    map: BTreeMap<OrdF64, Vec<u64>>,
}

impl NumAvc {
    /// An empty numeric AVC-set.
    pub fn new(n_classes: usize) -> Self {
        NumAvc {
            n_classes,
            map: BTreeMap::new(),
        }
    }

    /// Count one tuple with value `v` and class `label`. The two zeros
    /// count as one value ([`fold_zero`]).
    pub fn add(&mut self, v: f64, label: u16) {
        self.map
            .entry(OrdF64(fold_zero(v)))
            .or_insert_with(|| vec![0; self.n_classes])[label as usize] += 1;
    }

    /// Distinct values in ascending order with their per-class counts.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[u64])> {
        self.map.iter().map(|(k, v)| (k.0, v.as_slice()))
    }

    /// Materialize into parallel flat buffers — ascending distinct values
    /// plus row-major per-class counts (`n_classes` per value) — in a
    /// *single* pass over the tree map. Use this instead of collecting
    /// `(value, counts.to_vec())` pairs and re-collecting into buffers,
    /// which copies every count vector twice.
    pub fn materialized(&self) -> (Vec<f64>, Vec<u64>) {
        let mut values = Vec::with_capacity(self.map.len());
        let mut counts = Vec::with_capacity(self.map.len() * self.n_classes);
        for (k, c) in &self.map {
            values.push(k.0);
            counts.extend_from_slice(c);
        }
        (values, counts)
    }

    /// Consume the AVC-set into `(value, per-class counts)` entries in
    /// ascending value order, *moving* each count vector out of the map
    /// instead of cloning it (drain-instead-of-clone for call sites that
    /// own the set and only need its entries once).
    pub fn into_entries(self) -> impl Iterator<Item = (f64, Vec<u64>)> {
        self.map.into_iter().map(|(k, v)| (k.0, v))
    }

    /// Number of distinct values.
    pub fn n_distinct(&self) -> usize {
        self.map.len()
    }

    /// Number of (value, class) cells — the RainForest memory-accounting
    /// unit.
    pub fn n_entries(&self) -> usize {
        self.map.len() * self.n_classes
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// One attribute's AVC-set.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrAvc {
    /// Numeric attribute.
    Num(NumAvc),
    /// Categorical attribute.
    Cat(CatAvc),
}

impl AttrAvc {
    /// Memory-accounting cells.
    pub fn n_entries(&self) -> usize {
        match self {
            AttrAvc::Num(a) => a.n_entries(),
            AttrAvc::Cat(a) => a.n_entries(),
        }
    }
}

/// The AVC-group of a node: one AVC-set per predictor attribute plus the
/// node's class totals.
#[derive(Debug, Clone, PartialEq)]
pub struct AvcGroup {
    attrs: Vec<AttrAvc>,
    class_totals: Vec<u64>,
}

impl AvcGroup {
    /// An empty AVC-group for `schema`.
    pub fn new(schema: &Schema) -> Self {
        let attrs = schema
            .attributes()
            .iter()
            .map(|a| match a.ty() {
                AttrType::Numeric => AttrAvc::Num(NumAvc::new(schema.n_classes())),
                AttrType::Categorical { cardinality } => {
                    AttrAvc::Cat(CatAvc::new(cardinality, schema.n_classes()))
                }
            })
            .collect();
        AvcGroup {
            attrs,
            class_totals: vec![0; schema.n_classes()],
        }
    }

    /// Build from a set of records.
    pub fn from_records<'a>(
        schema: &Schema,
        records: impl IntoIterator<Item = &'a Record>,
    ) -> Self {
        let mut g = AvcGroup::new(schema);
        for r in records {
            g.add_record(r);
        }
        g
    }

    /// Count one record into every attribute's AVC-set.
    pub fn add_record(&mut self, r: &Record) {
        self.class_totals[r.label() as usize] += 1;
        for (i, avc) in self.attrs.iter_mut().enumerate() {
            match avc {
                AttrAvc::Num(a) => a.add(r.num(i), r.label()),
                AttrAvc::Cat(a) => a.add(r.cat(i), r.label()),
            }
        }
    }

    /// Per-class totals of the counted records (the paper's `N^i`).
    pub fn class_totals(&self) -> &[u64] {
        &self.class_totals
    }

    /// Total records counted (`|F_n|`).
    pub fn n_records(&self) -> u64 {
        self.class_totals.iter().sum()
    }

    /// The AVC-set of attribute `attr`.
    pub fn attr(&self, attr: usize) -> &AttrAvc {
        &self.attrs[attr]
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Total memory-accounting cells across all AVC-sets (the RainForest
    /// "AVC-group size" an algorithm must budget for).
    pub fn n_entries(&self) -> usize {
        self.attrs.iter().map(|a| a.n_entries()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_data::{Attribute, Field};

    fn schema() -> Schema {
        Schema::new(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 3)],
            2,
        )
        .unwrap()
    }

    fn rec(x: f64, c: u32, label: u16) -> Record {
        Record::new(vec![Field::Num(x), Field::Cat(c)], label)
    }

    #[test]
    fn group_counts_records() {
        let s = schema();
        let rs = vec![
            rec(1.0, 0, 0),
            rec(1.0, 1, 1),
            rec(2.0, 0, 1),
            rec(3.0, 2, 0),
        ];
        let g = AvcGroup::from_records(&s, &rs);
        assert_eq!(g.class_totals(), &[2, 2]);
        assert_eq!(g.n_records(), 4);
        let AttrAvc::Num(num) = g.attr(0) else {
            panic!("attr 0 numeric")
        };
        // Single-pass materialization into the final flat buffers (no
        // intermediate per-value Vec clones).
        let (values, counts) = num.materialized();
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
        assert_eq!(counts, vec![1, 1, 0, 1, 1, 0]);
        let AttrAvc::Cat(cat) = g.attr(1) else {
            panic!("attr 1 categorical")
        };
        assert_eq!(cat.counts_for(0), &[1, 1]);
        assert_eq!(cat.counts_for(1), &[0, 1]);
        assert_eq!(cat.counts_for(2), &[1, 0]);
        assert_eq!(cat.observed(), CatSet::from_iter([0, 1, 2]));
    }

    #[test]
    fn num_avc_iterates_in_value_order() {
        let mut a = NumAvc::new(2);
        for v in [3.0, -1.0, 2.5, -1.0] {
            a.add(v, 0);
        }
        let vals: Vec<f64> = a.iter().map(|(v, _)| v).collect();
        assert_eq!(vals, vec![-1.0, 2.5, 3.0]);
        assert_eq!(a.n_distinct(), 3);
    }

    #[test]
    fn entry_accounting() {
        let s = schema();
        let rs = vec![rec(1.0, 0, 0), rec(2.0, 1, 1)];
        let g = AvcGroup::from_records(&s, &rs);
        // numeric: 2 distinct × 2 classes; categorical: 3 cats × 2 classes.
        assert_eq!(g.n_entries(), 4 + 6);
    }

    #[test]
    fn cat_avc_observed_skips_empty_categories() {
        let mut a = CatAvc::new(4, 2);
        a.add(1, 0);
        a.add(3, 1);
        assert_eq!(a.observed(), CatSet::from_iter([1, 3]));
        let mut one = CatAvc::new(4, 2);
        one.add(3, 1);
        a.subtract(&one);
        assert_eq!(a.observed(), CatSet::from_iter([1]));
    }

    #[test]
    fn subtract_undoes_merge_from_where_covered() {
        let mut a = CatAvc::new(3, 2);
        a.add(0, 0);
        a.add(2, 1);
        let before = a.clone();
        let mut b = CatAvc::new(3, 2);
        b.add(2, 1);
        b.add(2, 1);
        assert!(!a.covers(&b), "one (2, 1) tuple cannot cover two");
        a.merge_from(&b);
        assert!(a.covers(&b));
        a.subtract(&b);
        assert_eq!(a, before);
        assert!(a.covers(&CatAvc::new(3, 2)));
    }

    #[test]
    fn ordf64_total_order_handles_negatives() {
        let mut v = [OrdF64(1.0), OrdF64(-2.0), OrdF64(0.0), OrdF64(-0.0)];
        v.sort();
        assert_eq!(v.map(|o| o.0), [-2.0, -0.0, 0.0, 1.0]);
    }

    #[test]
    fn ordf64_eq_is_consistent_with_total_cmp() {
        use std::cmp::Ordering;
        // Signed zeros: total_cmp says Less, so PartialEq must say unequal
        // (a derived PartialEq would use IEEE ==, claiming equality).
        let (nz, pz) = (OrdF64(-0.0), OrdF64(0.0));
        assert_eq!(nz.cmp(&pz), Ordering::Less);
        assert_ne!(nz, pz);
        assert_eq!(nz, nz);
        assert_eq!(pz, pz);
        // NaN payloads: equal bits compare Equal (and eq), distinct
        // payloads compare unequal, both consistently with total_cmp.
        let qnan = OrdF64(f64::from_bits(0x7ff8_0000_0000_0000));
        let payload = OrdF64(f64::from_bits(0x7ff8_0000_0000_0001));
        assert_eq!(qnan, qnan);
        assert_eq!(qnan.cmp(&qnan), Ordering::Equal);
        assert_ne!(qnan, payload);
        assert_eq!(qnan.cmp(&payload), Ordering::Less);
        // The blanket invariant: eq ⟺ cmp == Equal on a value sweep.
        let vals = [-1.5, -0.0, 0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    OrdF64(a) == OrdF64(b),
                    OrdF64(a).cmp(&OrdF64(b)) == Ordering::Equal,
                    "eq/cmp inconsistent for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn materialized_matches_iter_in_one_pass() {
        let mut a = NumAvc::new(3);
        for (v, l) in [(2.0, 0), (1.0, 2), (2.0, 1), (-3.0, 0), (2.0, 0)] {
            a.add(v, l);
        }
        let (values, counts) = a.materialized();
        assert_eq!(values, vec![-3.0, 1.0, 2.0]);
        assert_eq!(counts.len(), values.len() * 3);
        let flat_from_iter: Vec<u64> = a.iter().flat_map(|(_, c)| c.to_vec()).collect();
        assert_eq!(counts, flat_from_iter);
    }

    #[test]
    fn into_entries_moves_counts_in_order() {
        let mut a = NumAvc::new(2);
        for (v, l) in [(5.0, 1), (4.0, 0), (5.0, 1)] {
            a.add(v, l);
        }
        let entries: Vec<(f64, Vec<u64>)> = a.into_entries().collect();
        assert_eq!(entries, vec![(4.0, vec![1, 0]), (5.0, vec![0, 2])]);
    }

    #[test]
    fn cat_avc_add_weighted_matches_repeated_add() {
        let mut w = CatAvc::new(3, 2);
        let mut r = CatAvc::new(3, 2);
        for (c, l, n) in [(0u32, 0u16, 4u64), (2, 1, 7), (0, 1, 1)] {
            w.add_weighted(c, l, n);
            for _ in 0..n {
                r.add(c, l);
            }
        }
        assert_eq!(w, r);
    }
}

//! Discretizations and bucket counts for the lower-bound checks (§3.4).
//!
//! During the cleanup scan, BOAT cannot afford full AVC-sets for every
//! numeric attribute at every node (that would be RainForest). Instead it
//! keeps, per (node, numeric attribute), class counts over a small number of
//! *buckets* whose boundaries were chosen from the in-memory sample. The
//! cumulative counts at bucket boundaries are exactly the paper's *stamp
//! points*, and Lemma 3.1 lower-bounds the impurity of every candidate
//! split inside a bucket from the two boundary stamp points.
//!
//! Bucket layout matters only for the *false-alarm rate* (a too-coarse
//! bucket yields a uselessly low bound and forces an unnecessary rebuild),
//! never for correctness.

use crate::config::DiscretizeStrategy;
use crate::verify::corner_lower_bound;
use boat_tree::{fold_zero, Impurity};
use std::hint::select_unpredictable;
use std::sync::Arc;

/// Values [`BucketSet::add_column`] searches for in lockstep.
const LANES: usize = 8;

/// Class counts over a fixed discretization of one numeric attribute.
///
/// `boundaries = [b_1 < … < b_m]` induce `m + 1` buckets
/// `(-∞, b_1], (b_1, b_2], …, (b_m, +∞)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSet {
    /// The boundaries, shared with every zeroed copy of the set: the
    /// cleanup routers count into such copies, one per router and scan.
    grid: Arc<Grid>,
    counts: Vec<u64>, // (boundaries.len() + 1) × n_classes, row-major
    // Exact per-class counts of tuples whose value equals a boundary value.
    // Boundary values concentrate mass (they are chosen from observed
    // sample values), and knowing their exact stamp points turns the
    // corner bound from vacuous to tight on integer-like attributes.
    at_boundary: Vec<u64>, // boundaries.len() × n_classes
    n_classes: usize,
}

/// The boundaries of a [`BucketSet`] and the guide its searches start from.
#[derive(Debug, PartialEq)]
struct Grid {
    boundaries: Vec<f64>,
    guide: Guide,
}

impl BucketSet {
    /// Create a bucket set; `boundaries` is sorted and deduplicated.
    pub fn new(mut boundaries: Vec<f64>, n_classes: usize) -> Self {
        boundaries.retain(|b| b.is_finite());
        boundaries.sort_by(f64::total_cmp);
        boundaries.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let n_buckets = boundaries.len() + 1;
        let n_bounds = boundaries.len();
        BucketSet {
            grid: Arc::new(Grid {
                guide: Guide::new(&boundaries),
                boundaries,
            }),
            counts: vec![0; n_buckets * n_classes],
            at_boundary: vec![0; n_bounds * n_classes],
            n_classes,
        }
    }

    /// Number of buckets (`boundaries + 1`).
    pub fn n_buckets(&self) -> usize {
        self.grid.boundaries.len() + 1
    }

    /// The boundary values.
    pub fn boundaries(&self) -> &[f64] {
        &self.grid.boundaries
    }

    /// Index of the bucket holding `v`.
    #[inline]
    pub fn bucket_of(&self, v: f64) -> usize {
        self.grid.boundaries.partition_point(|&b| b < v)
    }

    /// Count one tuple.
    #[inline]
    pub fn add(&mut self, v: f64, label: u16) {
        let b = self.bucket_of(v);
        self.counts[b * self.n_classes + label as usize] += 1;
        if b < self.grid.boundaries.len() && self.grid.boundaries[b] == v {
            self.at_boundary[b * self.n_classes + label as usize] += 1;
        }
    }

    /// Count `values[i]` with `labels[i]` for every `i`, leaving exactly the
    /// counts a loop of [`BucketSet::add`] leaves. This is the cleanup
    /// scan's kernel, which counts one attribute's column of a node's rows
    /// at a time.
    ///
    /// The bucket searches of `LANES` (8) values run in lockstep, each from
    /// its value's cell of the boundaries' `Guide`, and every step of each
    /// is a select, not a branch: the comparisons of values against
    /// boundaries are unpredictable, and the lanes' loads overlap. A boundary
    /// hit adds one to the exact count and a miss adds zero, so no branch
    /// decides that either.
    pub fn add_column(&mut self, values: &[f64], labels: &[u16]) {
        assert_eq!(values.len(), labels.len(), "one label per value");
        let (k, n) = (self.n_classes, self.grid.boundaries.len());
        if n == 0 {
            for &label in labels {
                self.counts[label as usize] += 1;
            }
            return;
        }
        let (boundaries, guide) = (&self.grid.boundaries[..], &self.grid.guide);
        let counts = &mut self.counts[..];
        let at_boundary = &mut self.at_boundary[..];
        let mut count = |buckets: [usize; LANES], values: &[f64], labels: &[u16]| {
            for ((b, &v), &label) in buckets.into_iter().zip(values).zip(labels) {
                let label = label as usize;
                counts[b * k + label] += 1;
                // Past the last boundary `b == n`, and boundary `n - 1` lies
                // below `v`, so the probe misses as it should.
                let j = b.min(n - 1);
                at_boundary[j * k + label] += u64::from(boundaries[j] == v);
            }
        };
        let mut value_lanes = values.chunks_exact(LANES);
        let mut label_lanes = labels.chunks_exact(LANES);
        for (vs, ls) in (&mut value_lanes).zip(&mut label_lanes) {
            let vs: &[f64; LANES] = vs.try_into().expect("LANES values");
            count(lower_bounds(boundaries, guide, vs), vs, ls);
        }
        let (vs, ls) = (value_lanes.remainder(), label_lanes.remainder());
        if !vs.is_empty() {
            let mut padded = [f64::NAN; LANES];
            padded[..vs.len()].copy_from_slice(vs);
            count(lower_bounds(boundaries, guide, &padded), vs, ls);
        }
    }

    /// An empty bucket set with the same boundaries and class count as
    /// `self`, sharing them rather than copying. Shard accumulators in the
    /// cleanup routers start from this and are later combined with
    /// [`BucketSet::merge_from`].
    pub fn zeroed_like(&self) -> Self {
        BucketSet {
            grid: Arc::clone(&self.grid),
            counts: vec![0; self.counts.len()],
            at_boundary: vec![0; self.at_boundary.len()],
            n_classes: self.n_classes,
        }
    }

    /// Add every cell of `other` (bucket counts and exact boundary counts)
    /// into `self`. Both sets must share identical boundaries.
    ///
    /// Counts are `u64` sums, so merging is exactly associative and
    /// commutative: any merge order over a set of shards produces
    /// bit-identical counts to a single sequential accumulation.
    pub fn merge_from(&mut self, other: &BucketSet) {
        debug_assert_eq!(self.n_classes, other.n_classes, "BucketSet shape mismatch");
        debug_assert!(
            Arc::ptr_eq(&self.grid, &other.grid) || self.grid == other.grid,
            "BucketSet boundary mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.at_boundary.iter_mut().zip(&other.at_boundary) {
            *a += b;
        }
    }

    /// Whether every cell of `self` (bucket counts and exact boundary
    /// counts) is at least the same cell of `other`, which shares its
    /// boundaries: whether [`BucketSet::subtract`] of `other` leaves every
    /// cell non-negative.
    pub fn covers(&self, other: &BucketSet) -> bool {
        let at_least = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(a, b)| a >= b);
        at_least(&self.counts, &other.counts) && at_least(&self.at_boundary, &other.at_boundary)
    }

    /// Subtract every cell of `other`, which `self` [covers](BucketSet::covers):
    /// the inverse of [`BucketSet::merge_from`] (incremental deletions).
    pub fn subtract(&mut self, other: &BucketSet) {
        debug_assert!(self.covers(other), "BucketSet::subtract below zero");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a -= b;
        }
        for (a, b) in self.at_boundary.iter_mut().zip(&other.at_boundary) {
            *a -= b;
        }
    }

    /// Per-class counts of bucket `b`.
    pub fn bucket_counts(&self, b: usize) -> &[u64] {
        &self.counts[b * self.n_classes..(b + 1) * self.n_classes]
    }

    /// Per-class totals over all buckets.
    pub fn totals(&self) -> Vec<u64> {
        let mut t = vec![0u64; self.n_classes];
        for b in 0..self.n_buckets() {
            for (ti, ci) in t.iter_mut().zip(self.bucket_counts(b)) {
                *ti += ci;
            }
        }
        t
    }

    /// Stamp points: cumulative per-class counts *after* each bucket.
    /// `stamps()[j]` is the stamp point of boundary `b_{j+1}` (for the last
    /// bucket it equals the totals). The implicit stamp before bucket 0 is
    /// the zero vector.
    pub fn stamps(&self) -> Vec<Vec<u64>> {
        let mut out = Vec::with_capacity(self.n_buckets());
        let mut cum = vec![0u64; self.n_classes];
        for b in 0..self.n_buckets() {
            for (c, x) in cum.iter_mut().zip(self.bucket_counts(b)) {
                *c += x;
            }
            out.push(cum.clone());
        }
        out
    }

    /// Exact per-class counts of tuples whose value equals boundary `j`.
    pub fn boundary_counts(&self, j: usize) -> &[u64] {
        &self.at_boundary[j * self.n_classes..(j + 1) * self.n_classes]
    }

    /// The two verification parts for bucket `b` (paper §3.4, refined):
    ///
    /// * `exact_upper` — the **exact** stamp point of the candidate "split
    ///   at this bucket's upper boundary value" (cumulative counts through
    ///   the bucket). `None` for the last bucket (no upper boundary).
    /// * `interior_bound` — Lemma 3.1 corner lower bound for candidates
    ///   *strictly below* the upper boundary (the boundary value's own mass
    ///   excluded, which is what keeps the bound tight when mass
    ///   concentrates on boundary values). `None` when the interior is
    ///   provably empty.
    pub fn bucket_bound_parts(
        &self,
        b: usize,
        totals: &[u64],
        imp: &dyn Impurity,
    ) -> (Option<Vec<u64>>, Option<f64>) {
        self.bucket_bound_parts_with(&self.stamps(), b, totals, imp)
    }

    /// [`BucketSet::bucket_bound_parts`] with the cumulative stamp points
    /// precomputed once by the caller — the verification pass checks every
    /// bucket of an attribute, and recomputing stamps per bucket would be
    /// quadratic in the bucket count.
    pub fn bucket_bound_parts_with(
        &self,
        stamps: &[Vec<u64>],
        b: usize,
        totals: &[u64],
        imp: &dyn Impurity,
    ) -> (Option<Vec<u64>>, Option<f64>) {
        let lo = if b == 0 {
            vec![0u64; self.n_classes]
        } else {
            stamps[b - 1].clone()
        };
        let mut hi = stamps[b].clone();
        let exact_upper = (b < self.grid.boundaries.len()).then(|| hi.clone());
        if b < self.grid.boundaries.len() {
            for (h, x) in hi.iter_mut().zip(self.boundary_counts(b)) {
                *h -= x;
            }
        }
        let interior = (hi != lo).then(|| corner_lower_bound(imp, &lo, &hi, totals));
        (exact_upper, interior)
    }

    /// Lemma 3.1 lower bound on the impurity of any split whose point lies
    /// in bucket `b`, given the node totals `N^i` (the coarse combined
    /// form: minimum over the exact-boundary candidate and the interior
    /// bound).
    pub fn bucket_bound(&self, b: usize, totals: &[u64], imp: &dyn Impurity) -> f64 {
        let (exact_upper, interior) = self.bucket_bound_parts(b, totals, imp);
        let mut bound = interior.unwrap_or(f64::INFINITY);
        if let Some(stamp) = exact_upper {
            let right: Vec<u64> = totals.iter().zip(&stamp).map(|(t, s)| t - s).collect();
            bound = bound.min(boat_tree::split_impurity(imp, &stamp, &right));
        }
        if bound == f64::INFINITY {
            // Bucket with no interior and no upper boundary: no candidates.
            bound = f64::MAX;
        }
        bound
    }
}

/// Where the searches of [`BucketSet::add_column`] start. The range from
/// the first to the last boundary is cut into equal cells, two per
/// boundary, and each cell records how many boundaries lie in the cells
/// before it. [`Guide::cell`] is a monotone function of the value, and
/// boundaries and values go through the same arithmetic, so a value in
/// cell `c` lies above every boundary of an earlier cell and below every
/// boundary of a later one: its bucket is `first[c]` plus at most the
/// boundaries of cell `c`. A search then takes `log2(widest)` steps, not
/// `log2(len)`. Clustered boundaries fill one cell and make the search no
/// shorter, but never wrong.
#[derive(Debug, Clone, PartialEq)]
struct Guide {
    origin: f64,
    /// Cells per unit of value; zero when the boundaries hold one value or
    /// their range overflows, which puts every value in cell 0.
    scale: f64,
    /// Per cell, the number of boundaries in the cells before it.
    first: Vec<u32>,
    /// The most boundaries in one cell, at least 1.
    widest: usize,
}

impl Guide {
    fn new(boundaries: &[f64]) -> Self {
        let cells = 2 * boundaries.len().max(1);
        let (origin, scale) = match (boundaries.first(), boundaries.last()) {
            (Some(&lo), Some(&hi)) => (lo, cells as f64 / (hi - lo)),
            _ => (0.0, 0.0),
        };
        let mut guide = Guide {
            origin,
            scale: if scale.is_finite() { scale } else { 0.0 },
            first: vec![0; cells],
            widest: 1,
        };
        let mut per_cell = vec![0usize; cells];
        for &b in boundaries {
            per_cell[guide.cell(b)] += 1;
        }
        let mut before = 0usize;
        for (first, &here) in guide.first.iter_mut().zip(&per_cell) {
            *first = u32::try_from(before).expect("fewer than 2^32 boundaries");
            before += here;
            guide.widest = guide.widest.max(here);
        }
        guide
    }

    /// The cell of `v`: below the origin, NaN and (with a zero scale) the
    /// infinities all go to cell 0, and the cast saturates into the last.
    #[inline]
    fn cell(&self, v: f64) -> usize {
        (((v - self.origin) * self.scale) as usize).min(self.first.len() - 1)
    }
}

/// `boundaries.partition_point(|&b| b < v)` for each of `values`, with the
/// searches in lockstep. `boundaries` is not empty and `guide` is built
/// from it. Each search keeps its answer in `lo[j] ..= lo[j] + size`, with
/// `lo[j] + size <= len`: it starts at its value's guide cell, moved down
/// so that `widest` boundaries follow it. The halving steps depend only on
/// `widest`, so all lanes take the same steps and each moves `lo[j]` by a
/// select.
#[inline]
fn lower_bounds(boundaries: &[f64], guide: &Guide, values: &[f64; LANES]) -> [usize; LANES] {
    let n = boundaries.len();
    assert!(
        (1..=n).contains(&guide.widest),
        "the guide of a non-empty boundary list"
    );
    let mut lo = values.map(|v| (guide.first[guide.cell(v)] as usize).min(n - guide.widest));
    let mut size = guide.widest;
    while size > 1 {
        let half = size / 2;
        for (lo, &v) in lo.iter_mut().zip(values) {
            let mid = *lo + half;
            // SAFETY: `mid < lo + size <= boundaries.len()`: `size` starts
            // at `widest` with `lo <= len - widest`, and each step either keeps
            // `lo` or moves it up by `half` while `size` shrinks by `half`.
            let b = unsafe { *boundaries.get_unchecked(mid) };
            *lo = select_unpredictable(b < v, mid, *lo);
        }
        size -= half;
    }
    for (lo, &v) in lo.iter_mut().zip(values) {
        // SAFETY: the loop ends with `size == 1`, so `lo < lo + 1 <= len`.
        let b = unsafe { *boundaries.get_unchecked(*lo) };
        *lo += usize::from(b < v);
    }
    lo
}

/// One numeric attribute's values over a node's family, as runs: the
/// distinct values in ascending [`f64::total_cmp`] order, one run per bit
/// pattern after [`fold_zero`] (so `-0.0` and `0.0` are one run), each with its per-class
/// counts. This is the AVC-set of the attribute in two flat buffers, filled
/// by one pass over an already sorted list or by sorting `(value, label)`
/// pairs; one instance is reused across attributes and nodes.
#[derive(Debug)]
pub struct ValueRuns {
    n_classes: usize,
    values: Vec<f64>,
    counts: Vec<u64>, // n_classes per value, row-major
}

impl ValueRuns {
    /// Empty runs over `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        ValueRuns {
            n_classes,
            values: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Replace the runs with those of `sorted`, whose values must ascend in
    /// [`f64::total_cmp`] order.
    pub fn fill_sorted(&mut self, sorted: impl IntoIterator<Item = (f64, u16)>) {
        self.values.clear();
        self.counts.clear();
        let k = self.n_classes;
        for (v, label) in sorted {
            let v = fold_zero(v);
            let new_run = self
                .values
                .last()
                .is_none_or(|&last| last.to_bits() != v.to_bits());
            if new_run {
                debug_assert!(
                    self.values
                        .last()
                        .is_none_or(|&last| last.total_cmp(&v).is_lt()),
                    "ValueRuns::fill_sorted values must ascend in total_cmp order"
                );
                self.values.push(v);
                self.counts.extend(std::iter::repeat_n(0, k));
            }
            let base = self.counts.len() - k;
            self.counts[base + label as usize] += 1;
        }
    }

    /// Replace the runs with those of `pairs`, sorting them in place first.
    pub fn fill_from_pairs(&mut self, pairs: &mut [(f64, u16)]) {
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        self.fill_sorted(pairs.iter().copied());
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Distinct values in ascending order with their per-class counts.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[u64])> {
        self.values
            .iter()
            .zip(self.counts.chunks_exact(self.n_classes))
            .map(|(&v, c)| (v, c))
    }
}

#[cfg(test)]
impl ValueRuns {
    /// The runs of a tree-map AVC-set, copied entry by entry: the row-form
    /// reference the `prepare` oracle compares against.
    pub(crate) fn from_avc(avc: &boat_tree::NumAvc, n_classes: usize) -> Self {
        let (values, counts) = avc.materialized();
        ValueRuns {
            n_classes,
            values,
            counts,
        }
    }
}

/// Build bucket boundaries for one numeric attribute at one node, from the
/// attribute's runs over the node's *sample* family.
///
/// * `est_min` — estimated minimum impurity at the node (from the sample);
///   the adaptive strategy places fine buckets where candidate splits come
///   within `slack` of it (the paper's §3.4 scheme: tight bounds exactly
///   where false alarms would otherwise fire).
/// * `must_include` — boundary values that have to be present (BOAT passes
///   the confidence-interval edges of the splitting attribute).
pub fn build_boundaries(
    sample_runs: &ValueRuns,
    sample_totals: &[u64],
    imp: &dyn Impurity,
    est_min: f64,
    strategy: DiscretizeStrategy,
    must_include: &[f64],
) -> Vec<f64> {
    let mut boundaries = match strategy {
        DiscretizeStrategy::EquiDepth { buckets } => equi_depth(sample_runs, buckets),
        DiscretizeStrategy::Adaptive { max_buckets, slack } => {
            let base = equi_depth(sample_runs, max_buckets.max(1));
            // Competitive sample values get their own boundaries, far
            // beyond the base budget: with per-boundary exact counts, a
            // per-value bucket yields an (almost) exact check, which is
            // the only thing that prevents false alarms in wide, flat
            // impurity valleys (Function 7's loan attribute — where the
            // whole axis competes within ~1e-3, so effectively every
            // sample value in the shelf needs its own boundary). The paper
            // capped the total bucket count for 1999-era memory; a modern
            // machine affords ~64x the base budget for the hot region
            // (~10^4 boundaries ≈ 400 KiB per node-attribute).
            let hot = hot_values(
                sample_runs,
                sample_totals,
                imp,
                est_min * (1.0 + slack) + 1e-12,
                max_buckets * 64,
            );
            let mut all = base;
            all.extend(hot);
            all
        }
    };
    boundaries.extend_from_slice(must_include);
    boundaries.retain(|b| b.is_finite());
    boundaries.sort_by(f64::total_cmp);
    boundaries.dedup_by(|a, b| a.to_bits() == b.to_bits());
    boundaries
}

/// Equi-depth boundaries: split the (weighted) sample values into `buckets`
/// roughly equal-mass runs.
fn equi_depth(runs: &ValueRuns, buckets: usize) -> Vec<f64> {
    if runs.is_empty() || buckets == 0 {
        return Vec::new();
    }
    let total: u64 = runs.counts.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let per = (total as f64 / buckets as f64).max(1.0);
    let mut out = Vec::new();
    let mut cum = 0u64;
    let mut next_target = per;
    for (v, counts) in runs.iter() {
        cum += counts.iter().sum::<u64>();
        if cum as f64 >= next_target {
            out.push(v);
            while cum as f64 >= next_target {
                next_target += per;
            }
        }
    }
    // Keep the boundary at the maximum sample value: without it, the last
    // bucket's only candidate is the (invalid) split at the maximum, yet
    // its interior bound would still be checked — a guaranteed false alarm
    // on integer-valued attributes. With it, the max value's mass is
    // tracked exactly and the residual bucket beyond it is near-empty.
    out
}

/// Sample values whose own split impurity is within the threshold of the
/// node minimum — each becomes its own boundary (plus its predecessor), so
/// the dangerous region gets near-exact bounds. Capped at `cap` values,
/// keeping the most competitive.
fn hot_values(
    runs: &ValueRuns,
    totals: &[u64],
    imp: &dyn Impurity,
    threshold: f64,
    cap: usize,
) -> Vec<f64> {
    let n: u64 = totals.iter().sum();
    let mut cum = vec![0u64; totals.len()];
    let mut right = vec![0u64; totals.len()];
    let mut scored: Vec<(f64, f64, Option<f64>)> = Vec::new(); // (imp, v, prev)
    let mut prev: Option<f64> = None;
    for (v, counts) in runs.iter() {
        for (c, x) in cum.iter_mut().zip(counts) {
            *c += x;
        }
        let left_n: u64 = cum.iter().sum();
        if left_n > 0 && left_n < n {
            for (r, (t, c)) in right.iter_mut().zip(totals.iter().zip(&cum)) {
                *r = t - c;
            }
            let val = boat_tree::split_impurity(imp, &cum, &right);
            if val <= threshold {
                scored.push((val, v, prev));
            }
        }
        prev = Some(v);
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    scored.truncate(cap);
    let mut out = Vec::with_capacity(scored.len() * 2);
    for (_, v, p) in scored {
        out.push(v);
        if let Some(p) = p {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_tree::Gini;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn runs_from(pairs: &[(f64, u16)]) -> (ValueRuns, Vec<u64>) {
        let mut runs = ValueRuns::new(2);
        let mut totals = vec![0u64; 2];
        for &(_, l) in pairs {
            totals[l as usize] += 1;
        }
        runs.fill_from_pairs(&mut pairs.to_vec());
        (runs, totals)
    }

    #[test]
    fn runs_group_by_value_in_total_cmp_order_with_one_zero() {
        let mut pairs = vec![(0.0, 0u16), (-0.0, 1), (1.0, 0), (-0.0, 0), (-2.5, 1)];
        let mut runs = ValueRuns::new(2);
        runs.fill_from_pairs(&mut pairs);
        let got: Vec<(u64, Vec<u64>)> = runs
            .iter()
            .map(|(v, c)| (v.to_bits(), c.to_vec()))
            .collect();
        let want: Vec<(u64, Vec<u64>)> = [(-2.5, [0, 1]), (0.0, [2, 1]), (1.0, [1, 0])]
            .iter()
            .map(|(v, c): &(f64, [u64; 2])| (v.to_bits(), c.to_vec()))
            .collect();
        assert_eq!(got, want);
        runs.fill_sorted(std::iter::empty());
        assert!(runs.is_empty());
    }

    #[test]
    fn bucket_of_uses_half_open_intervals() {
        let b = BucketSet::new(vec![10.0, 20.0], 2);
        assert_eq!(b.n_buckets(), 3);
        assert_eq!(b.bucket_of(5.0), 0);
        assert_eq!(b.bucket_of(10.0), 0); // (-inf, 10]
        assert_eq!(b.bucket_of(10.5), 1);
        assert_eq!(b.bucket_of(20.0), 1); // (10, 20]
        assert_eq!(b.bucket_of(25.0), 2);
    }

    #[test]
    fn subtract_undoes_merge_from_where_covered() {
        let mut b = BucketSet::new(vec![0.0], 2);
        for (v, label) in [(-1.0, 0), (1.0, 1), (0.0, 1), (-0.5, 1)] {
            b.add(v, label);
        }
        let before = b.clone();
        let mut delta = b.zeroed_like();
        delta.add(1.0, 1);
        delta.add(0.0, 1);
        assert!(b.covers(&delta));
        b.merge_from(&delta);
        assert_eq!(b.bucket_counts(1), &[0, 2]);
        b.subtract(&delta);
        assert_eq!(b, before);
        // Bucket 0 holds two class-1 tuples, one of them on the boundary.
        let mut two_zeros = b.zeroed_like();
        two_zeros.add(0.0, 1);
        two_zeros.add(-0.0, 1);
        assert_eq!(two_zeros.bucket_counts(0)[1], b.bucket_counts(0)[1]);
        assert!(!b.covers(&two_zeros), "one boundary tuple cannot cover two");
        let mut three = b.zeroed_like();
        for _ in 0..3 {
            three.add(-0.5, 1);
        }
        assert!(!b.covers(&three));
    }

    /// Count `pairs` into copies of `proto`: one `add` at a time, and with
    /// one `add_column`.
    fn by_add_and_by_column(proto: &BucketSet, pairs: &[(f64, u16)]) -> (BucketSet, BucketSet) {
        let mut by_add = proto.clone();
        for &(v, label) in pairs {
            by_add.add(v, label);
        }
        let (values, labels): (Vec<f64>, Vec<u16>) = pairs.iter().copied().unzip();
        let mut by_column = proto.clone();
        by_column.add_column(&values, &labels);
        (by_add, by_column)
    }

    #[test]
    fn add_column_counts_as_add_does() {
        // Both zeros are boundaries; the column fills two full lane groups
        // and a ragged rest.
        let proto = BucketSet::new(vec![-0.0, 0.0, 10.0, 20.0, 30.0], 3);
        let values = [
            5.0,
            10.0,
            10.5,
            20.0,
            30.0,
            31.0,
            -1.0,
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            30.0,
            10.0,
            9.999,
            20.000001,
            0.5,
            10.0,
            30.0,
        ];
        let pairs: Vec<(f64, u16)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i % 3) as u16))
            .collect();
        let (by_add, by_column) = by_add_and_by_column(&proto, &pairs);
        assert_eq!(by_column, by_add);
        // Both zeros, NaN and -inf fall in bucket 0, and the zeros equal
        // its boundary, -0.0.
        assert_eq!(by_column.bucket_counts(0), &[2, 1, 2]);
        assert_eq!(by_column.boundary_counts(0), &[0, 1, 1]);
        assert_eq!(by_column.bucket_counts(2), &[1, 3, 2]);
        assert_eq!(by_column.boundary_counts(2), &[0, 2, 1]);
        let (by_add, by_column) = by_add_and_by_column(&BucketSet::new(Vec::new(), 3), &pairs);
        assert_eq!(by_column, by_add);
    }

    /// Values that sit on edges of the search: zeros of both signs, the
    /// subnormals next to zero, the smallest normals, the finite extremes,
    /// the infinities and NaN.
    const EDGES: [f64; 11] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// `len` boundary candidates of one of five shapes: wide uniform,
    /// integers, subnormals around zero, a tight cluster with far outliers
    /// (which fills one guide cell), and edge values mixed with uniform ones.
    fn boundary_candidates(rng: &mut StdRng, len: usize, shape: u8) -> Vec<f64> {
        (0..len)
            .map(|_| match shape {
                0 => rng.random_range(-1e6..1e6),
                1 => rng.random_range(-300i64..300) as f64,
                2 => {
                    f64::from_bits(rng.random_range(0u64..40))
                        * if rng.random() { 1.0 } else { -1.0 }
                }
                3 if rng.random_bool(0.9) => 1.0 + rng.random::<f64>() * 1e-9,
                3 => rng.random_range(-1e300..1e300),
                _ if rng.random_bool(0.2) => EDGES[rng.random_range(0..EDGES.len())],
                _ => rng.random_range(-1e3..1e3),
            })
            .collect()
    }

    /// One column value: a boundary, a neighbour of one, an edge value or a
    /// uniform draw over the boundaries' range.
    fn column_value(rng: &mut StdRng, boundaries: &[f64]) -> f64 {
        let near = |rng: &mut StdRng| boundaries[rng.random_range(0..boundaries.len())];
        match rng.random_range(0..5u8) {
            0 | 1 if !boundaries.is_empty() => near(rng),
            2 if !boundaries.is_empty() => {
                let b = near(rng);
                if rng.random() {
                    b.next_up()
                } else {
                    b.next_down()
                }
            }
            3 => EDGES[rng.random_range(0..EDGES.len())],
            _ => match (boundaries.first(), boundaries.last()) {
                (Some(&lo), Some(&hi)) if lo < hi && (hi - lo).is_finite() => {
                    rng.random_range(lo..hi)
                }
                _ => rng.random_range(-1e6..1e6),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The kernel oracle: `add_column` leaves the bucket counts and the
        /// exact boundary counts that looping `add` leaves, over 0, 1, 2,
        /// 256 and 16 Ki boundary candidates, columns from empty to two
        /// full lane groups and one more value, and then a column of every
        /// boundary value exactly, counted into the same sets.
        #[test]
        fn add_column_leaves_the_counts_of_add(
            candidates in prop_oneof![Just(0usize), Just(1), Just(2), Just(256), Just(16_384)],
            shape in 0u8..5,
            column in 0usize..=2 * LANES + 1,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let proto = BucketSet::new(boundary_candidates(&mut rng, candidates, shape), 3);
            let bounds = proto.boundaries();
            let drawn: Vec<(f64, u16)> = (0..column)
                .map(|_| (column_value(&mut rng, bounds), rng.random_range(0..3u16)))
                .collect();
            let every: Vec<(f64, u16)> = bounds
                .iter()
                .enumerate()
                .map(|(i, &b)| (b, (i % 3) as u16))
                .collect();
            let (mut by_add, mut by_column) = by_add_and_by_column(&proto, &drawn);
            prop_assert_eq!(&by_column, &by_add);
            for &(v, label) in &every {
                by_add.add(v, label);
            }
            let (values, labels): (Vec<f64>, Vec<u16>) = every.iter().copied().unzip();
            by_column.add_column(&values, &labels);
            prop_assert_eq!(&by_column, &by_add);
        }
    }

    #[test]
    fn stamps_are_cumulative() {
        let mut b = BucketSet::new(vec![10.0, 20.0], 2);
        for (v, l) in [(5.0, 0), (10.0, 0), (15.0, 1), (25.0, 0), (25.0, 1)] {
            b.add(v, l);
        }
        assert_eq!(b.stamps(), vec![vec![2, 0], vec![2, 1], vec![3, 2]]);
    }

    #[test]
    fn boundaries_are_sorted_and_deduped() {
        let b = BucketSet::new(vec![3.0, 1.0, 3.0, 2.0, f64::INFINITY], 2);
        assert_eq!(b.boundaries(), &[1.0, 2.0, 3.0]);
    }

    /// The bucket bound must never exceed the true minimum impurity over
    /// split points falling inside that bucket.
    #[test]
    fn bucket_bound_is_a_true_lower_bound() {
        let pairs: Vec<(f64, u16)> = (0..100).map(|i| (i as f64, u16::from(i % 7 < 3))).collect();
        let (runs, totals) = runs_from(&pairs);
        let mut bset = BucketSet::new(vec![20.0, 55.0, 80.0], 2);
        for &(v, l) in &pairs {
            bset.add(v, l);
        }
        // True minimum per bucket via exhaustive sweep.
        let mut cum = vec![0u64; 2];
        let mut true_min = vec![f64::INFINITY; bset.n_buckets()];
        for (v, counts) in runs.iter() {
            for (c, x) in cum.iter_mut().zip(counts) {
                *c += x;
            }
            let left_n: u64 = cum.iter().sum();
            if left_n == 0 || left_n == 100 {
                continue;
            }
            let right: Vec<u64> = totals.iter().zip(&cum).map(|(t, c)| t - c).collect();
            let val = boat_tree::split_impurity(&Gini, &cum, &right);
            let b = bset.bucket_of(v);
            true_min[b] = true_min[b].min(val);
        }
        for (b, &tmin) in true_min.iter().enumerate() {
            let bound = bset.bucket_bound(b, &totals, &Gini);
            assert!(
                bound <= tmin + 1e-12,
                "bucket {b}: bound {bound} exceeds true min {tmin}"
            );
        }
    }

    #[test]
    fn equi_depth_boundaries_track_mass() {
        let pairs: Vec<(f64, u16)> = (0..1000).map(|i| (i as f64, 0u16)).collect();
        let (runs, totals) = runs_from(&pairs);
        let bounds = build_boundaries(
            &runs,
            &totals,
            &Gini,
            0.0,
            DiscretizeStrategy::EquiDepth { buckets: 10 },
            &[],
        );
        assert!(
            bounds.len() >= 9 && bounds.len() <= 11,
            "got {} bounds",
            bounds.len()
        );
        // Roughly every 100 values.
        assert!(
            (bounds[0] - 99.0).abs() <= 5.0,
            "first boundary {}",
            bounds[0]
        );
    }

    #[test]
    fn adaptive_isolates_the_minimum_region() {
        // Clean threshold concept at 500: the impurity minimum sits there.
        let pairs: Vec<(f64, u16)> = (0..1000).map(|i| (i as f64, u16::from(i >= 500))).collect();
        let (runs, totals) = runs_from(&pairs);
        let strategy = DiscretizeStrategy::Adaptive {
            max_buckets: 16,
            slack: 0.10,
        };
        let bounds = build_boundaries(&runs, &totals, &Gini, 0.0, strategy, &[]);
        // The competitive region around 499 must have fine boundaries:
        // 499 itself (the exact minimum) must be a boundary.
        assert!(
            bounds.contains(&499.0),
            "boundaries {bounds:?} must isolate the minimum at 499"
        );
    }

    #[test]
    fn must_include_values_are_present() {
        let pairs: Vec<(f64, u16)> = (0..100).map(|i| (i as f64, (i % 2) as u16)).collect();
        let (runs, totals) = runs_from(&pairs);
        let bounds = build_boundaries(
            &runs,
            &totals,
            &Gini,
            0.3,
            DiscretizeStrategy::default(),
            &[17.5, 42.0],
        );
        assert!(bounds.contains(&17.5));
        assert!(bounds.contains(&42.0));
    }

    #[test]
    fn empty_sample_yields_no_boundaries() {
        let runs = ValueRuns::new(2);
        let bounds = build_boundaries(
            &runs,
            &[0, 0],
            &Gini,
            0.0,
            DiscretizeStrategy::default(),
            &[],
        );
        assert!(bounds.is_empty());
    }
}

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
use boat_tree::Impurity;

/// Class counts over a fixed discretization of one numeric attribute.
///
/// `boundaries = [b_1 < … < b_m]` induce `m + 1` buckets
/// `(-∞, b_1], (b_1, b_2], …, (b_m, +∞)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSet {
    boundaries: Vec<f64>,
    counts: Vec<u64>, // (boundaries.len() + 1) × n_classes, row-major
    // Exact per-class counts of tuples whose value equals a boundary value.
    // Boundary values concentrate mass (they are chosen from observed
    // sample values), and knowing their exact stamp points turns the
    // corner bound from vacuous to tight on integer-like attributes.
    at_boundary: Vec<u64>, // boundaries.len() × n_classes
    n_classes: usize,
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
            boundaries,
            counts: vec![0; n_buckets * n_classes],
            at_boundary: vec![0; n_bounds * n_classes],
            n_classes,
        }
    }

    /// Number of buckets (`boundaries + 1`).
    pub fn n_buckets(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The boundary values.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Index of the bucket holding `v`.
    #[inline]
    pub fn bucket_of(&self, v: f64) -> usize {
        self.boundaries.partition_point(|&b| b < v)
    }

    /// Count one tuple.
    #[inline]
    pub fn add(&mut self, v: f64, label: u16) {
        let b = self.bucket_of(v);
        self.counts[b * self.n_classes + label as usize] += 1;
        if b < self.boundaries.len() && self.boundaries[b] == v {
            self.at_boundary[b * self.n_classes + label as usize] += 1;
        }
    }

    /// Whether [`BucketSet::sub`] of `(v, label)` can proceed without
    /// underflowing a cell: the bucket count, and the exact boundary count
    /// when `v` sits on a boundary, must both be positive. Incremental
    /// deletions check this along the whole routing path *before* mutating
    /// anything (`NodeCounts::check_sub`).
    #[inline]
    pub fn can_sub(&self, v: f64, label: u16) -> bool {
        let b = self.bucket_of(v);
        if self.counts[b * self.n_classes + label as usize] == 0 {
            return false;
        }
        if b < self.boundaries.len()
            && self.boundaries[b] == v
            && self.at_boundary[b * self.n_classes + label as usize] == 0
        {
            return false;
        }
        true
    }

    /// Remove one previously-counted tuple.
    #[inline]
    pub fn sub(&mut self, v: f64, label: u16) {
        let b = self.bucket_of(v);
        let cell = &mut self.counts[b * self.n_classes + label as usize];
        debug_assert!(*cell > 0, "BucketSet::sub below zero");
        *cell -= 1;
        if b < self.boundaries.len() && self.boundaries[b] == v {
            let cell = &mut self.at_boundary[b * self.n_classes + label as usize];
            debug_assert!(*cell > 0, "BucketSet::sub boundary count below zero");
            *cell -= 1;
        }
    }

    /// An empty bucket set with the same boundaries and class count as
    /// `self`. Shard accumulators in the parallel cleanup scan start from
    /// this and are later combined with [`BucketSet::merge_from`].
    pub fn zeroed_like(&self) -> Self {
        BucketSet {
            boundaries: self.boundaries.clone(),
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
            self.boundaries.len() == other.boundaries.len()
                && self
                    .boundaries
                    .iter()
                    .zip(&other.boundaries)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "BucketSet boundary mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.at_boundary.iter_mut().zip(&other.at_boundary) {
            *a += b;
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
        let exact_upper = (b < self.boundaries.len()).then(|| hi.clone());
        if b < self.boundaries.len() {
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

/// One numeric attribute's values over a node's family, as runs: the
/// distinct values in ascending [`f64::total_cmp`] order, one run per bit
/// pattern (so `-0.0` and `0.0` are separate runs), each with its per-class
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
    fn runs_group_by_bit_pattern_in_total_cmp_order() {
        let mut pairs = vec![(0.0, 0u16), (-0.0, 1), (1.0, 0), (-0.0, 0), (-2.5, 1)];
        let mut runs = ValueRuns::new(2);
        runs.fill_from_pairs(&mut pairs);
        let got: Vec<(u64, Vec<u64>)> = runs
            .iter()
            .map(|(v, c)| (v.to_bits(), c.to_vec()))
            .collect();
        let want: Vec<(u64, Vec<u64>)> =
            [(-2.5, [0, 1]), (-0.0, [1, 1]), (0.0, [1, 0]), (1.0, [1, 0])]
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
    fn add_sub_roundtrip() {
        let mut b = BucketSet::new(vec![0.0], 2);
        b.add(-1.0, 0);
        b.add(1.0, 1);
        b.add(1.0, 1);
        assert_eq!(b.bucket_counts(0), &[1, 0]);
        assert_eq!(b.bucket_counts(1), &[0, 2]);
        b.sub(1.0, 1);
        assert_eq!(b.bucket_counts(1), &[0, 1]);
        assert_eq!(b.totals(), vec![1, 1]);
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

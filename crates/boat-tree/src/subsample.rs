//! Confidence-gated subsampled split search for the columnar sample phase.
//!
//! The columnar engine (see [`crate::columnar`]) already evaluates split
//! points *faster* than the row builder; this module makes it evaluate
//! *fewer* of them while keeping the selected [`SplitEval`] byte-identical
//! to the full exact sweep. The device is the same one BOAT's cleanup-phase
//! verification uses (paper Lemma 3.1), applied one level earlier, inside
//! the bootstrap builds themselves:
//!
//! 1. **Sub-sample.** Pick `⌈fraction · m⌉` *boundary* positions in the
//!    node's presorted attribute list — a deterministic quantile sketch of
//!    the node's value distribution, stride-spaced with a per-node seeded
//!    offset so no fixed stratum is systematically favored. Each raw pick
//!    is snapped forward to the nearest distinct-value run boundary, so
//!    every boundary is itself a legal split candidate.
//! 2. **Score with certainty, not estimates.** The weighted prefix class
//!    counts at the boundaries are computed *exactly* in one lean counting
//!    pass (labels and weights only — no value loads). Every candidate
//!    strictly between two boundaries has a left-count vector confined to
//!    the axis-aligned box spanned by the two prefix vectors (class counts
//!    are monotone along the sorted order, and node rows all carry weight
//!    ≥ 1). Concavity puts the minimum of the weighted split impurity over
//!    that box at one of its `2^k` corners ([`corner_lower_bound`]) — a
//!    hard lower bound, not a statistical interval.
//! 3. **Prune what cannot win.** A gap whose corner bound is strictly
//!    worse than the best exactly-evaluated candidate so far (a boundary
//!    candidate or an earlier attribute's winner) cannot contain the
//!    overall winner under [`cmp_splits`]; equal bounds prune only when
//!    the reference comes from a smaller attribute index (which wins the
//!    tie anyway). Everything else **falls back to the exact sweep** over
//!    just the surviving windows, seeded with the boundary prefix counts —
//!    the same [`sweep_numeric`] reuse BOAT's in-interval cleanup search
//!    relies on.
//!
//! Because candidates are only ever discarded when an exactly-computed
//! bound proves they lose (ties included), and every surviving candidate
//! is evaluated by the shared sweep over identical integer counts, the
//! returned split is bit-for-bit the one the ungated engine returns — the
//! differential oracles (`boat-core/tests/subsample_exactness.rs`) assert
//! this on every input. The knobs ([`SubsampleParams`]) are therefore pure
//! performance tuning, exactly like the engine choice itself.
//!
//! [`cmp_splits`]: crate::split::cmp_splits
//! [`sweep_numeric`]: crate::split::sweep_numeric
//! [`SplitEval`]: crate::split::SplitEval

use crate::impurity::{split_impurity, Impurity};
use crate::model::{Predicate, Split};
use crate::split::{cmp_splits, sweep_numeric, SplitEval};
use boat_obs::Counter;
use std::cmp::Ordering;

/// Never gate with fewer boundary picks than this — too few boxes make the
/// bounds vacuous and the counting pass pure overhead.
const MIN_PICKS: usize = 8;

/// Corner enumeration is `2^k`; past this many classes the gate falls back
/// to the exact sweep rather than pay exponential bound evaluations.
const MAX_GATE_CLASSES: usize = 8;

/// Lemma 3.1: lower bound for the weighted split impurity of any candidate
/// whose left-count vector lies in the hyper-rectangle
/// `[stamp_lo, stamp_hi]` (componentwise), at a node with class `totals`.
///
/// Evaluates the impurity at all `2^k` corners and returns the minimum —
/// valid because the weighted split impurity is concave in the left-count
/// vector (see [`crate::impurity`]), and a concave function over a box
/// attains its minimum at a vertex. Shared by the subsampled split search
/// here and BOAT's cleanup-phase verification (`boat-core`). Panics if
/// `k > 20` (exponential in the class count by construction).
pub fn corner_lower_bound(
    imp: &dyn Impurity,
    stamp_lo: &[u64],
    stamp_hi: &[u64],
    totals: &[u64],
) -> f64 {
    let k = totals.len();
    assert!(
        k <= 20,
        "corner bound is exponential in class count; got k={k}"
    );
    debug_assert_eq!(stamp_lo.len(), k);
    debug_assert_eq!(stamp_hi.len(), k);
    debug_assert!(stamp_lo.iter().zip(stamp_hi).all(|(l, h)| l <= h));
    debug_assert!(stamp_hi.iter().zip(totals).all(|(h, t)| h <= t));

    let mut best = f64::INFINITY;
    let mut left = vec![0u64; k];
    let mut right = vec![0u64; k];
    for mask in 0u32..(1u32 << k) {
        for i in 0..k {
            left[i] = if mask & (1 << i) != 0 {
                stamp_hi[i]
            } else {
                stamp_lo[i]
            };
            right[i] = totals[i] - left[i];
        }
        let v = split_impurity(imp, &left, &right);
        if v < best {
            best = v;
        }
    }
    best
}

/// SplitMix64 finalizer: the deterministic hash behind per-node pick
/// offsets. Any offset is *correct* (the gate's output never depends on
/// it); seeding only decorrelates which strata get picked across nodes,
/// repetitions and attributes.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Tuning knobs of the gated search (mirrors `BoatConfig::split_subsample`
/// in `boat-core`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsampleParams {
    /// Fraction of a node's rows picked as sub-sample boundaries. `0`
    /// disables the gate entirely.
    pub fraction: f64,
    /// Nodes with fewer member rows than this skip the gate and run the
    /// exact sweep directly (small nodes are cheap; the counting pass
    /// would be pure overhead).
    pub min_node: usize,
}

impl Default for SubsampleParams {
    fn default() -> Self {
        SubsampleParams {
            fraction: 1.0 / 16.0,
            min_node: 256,
        }
    }
}

impl SubsampleParams {
    /// Whether the gate is enabled at all.
    pub fn enabled(&self) -> bool {
        self.fraction > 0.0
    }
}

/// Counters of the gated search, shared across the parallel bootstrap
/// builds (the counts are diagnostics, never inputs to the search itself).
/// `Default` makes private counters; `boat-core` takes them from its
/// registry, as the `boat.sample.subsample.*` counters.
#[derive(Debug, Default)]
pub struct SubsampleStats {
    /// Sub-sample boundary candidates scored exactly.
    pub swept: Counter,
    /// Inter-boundary gaps pruned by the corner bound.
    pub pruned: Counter,
    /// Gate entries that fell back to the full exact sweep (too few
    /// distinct boundaries, heavy ties, too many classes).
    pub fallbacks: Counter,
    /// Distinct points evaluated by the exact sweeps over surviving
    /// windows.
    pub exact_points: Counter,
}

/// Everything one tree build needs to run the gate: the knobs, a seed
/// (already mixed with the bootstrap repetition index by the caller), and
/// the shared counters.
#[derive(Debug, Clone, Copy)]
pub struct SubsampleRuntime<'s> {
    /// Tuning knobs.
    pub params: SubsampleParams,
    /// Per-build seed; combined with node index, depth and attribute for
    /// the pick offset.
    pub seed: u64,
    /// Shared counters.
    pub stats: &'s SubsampleStats,
}

impl<'s> SubsampleRuntime<'s> {
    /// Runtime for one build of a multi-build run (e.g. bootstrap
    /// repetition `rep`): same knobs and counters, decorrelated seed.
    pub fn for_rep(&self, rep: u64) -> SubsampleRuntime<'s> {
        SubsampleRuntime {
            params: self.params,
            seed: splitmix64(self.seed ^ splitmix64(rep.wrapping_add(0x5EED))),
            stats: self.stats,
        }
    }
}

/// Per-node context the columnar engine hands to
/// [`SplitSelector::select_columnar_ctx`]: a stable node identity for seed
/// derivation plus the (optional) gate runtime.
///
/// [`SplitSelector::select_columnar_ctx`]: crate::grow::SplitSelector::select_columnar_ctx
#[derive(Debug, Clone, Copy)]
pub struct ColumnarCtx<'a> {
    /// Preorder index of the node within its tree build (root = 0).
    pub node_index: u64,
    /// Node depth (root = 0).
    pub depth: u32,
    /// The gate runtime, or `None` for the ungated exact engine.
    pub gate: Option<&'a SubsampleRuntime<'a>>,
}

impl ColumnarCtx<'static> {
    /// The ungated context (what plain `select_columnar` uses).
    pub fn ungated() -> Self {
        ColumnarCtx {
            node_index: 0,
            depth: 0,
            gate: None,
        }
    }
}

/// What the gate decided for one numeric attribute.
pub enum GateOutcome {
    /// The gated search ran; this is the attribute's surviving best (it
    /// may be `None`, or worse than `best_so_far` — only the *overall*
    /// winner is guaranteed identical to the ungated engine's).
    Gated(Option<SplitEval>),
    /// The gate declined (degenerate column, heavy ties, too many
    /// classes): the caller must run the full exact sweep.
    Fallback,
}

/// One snapped boundary of the sub-sample: `pos` rows form the prefix, the
/// last of them carrying `value` (a run end, hence a legal candidate).
struct Boundary {
    pos: usize,
    value: f64,
}

/// The confidence-gated subsampled split search over one numeric attribute
/// of one node. See the module docs for the algorithm and the exactness
/// argument.
///
/// * `col` — the attribute's dense column; `list` — the node's member rows
///   in the attribute's presorted order; `labels`/`weights` — per sample
///   row; `totals` — the node's weighted class counts.
/// * `best_so_far` — the best candidate of the attributes already swept
///   (smaller indices), used to prune gaps that lose cross-attribute ties.
///
/// Returns [`GateOutcome::Fallback`] (and counts it) whenever subsampling
/// cannot pay for itself; never returns a wrong winner.
#[allow(clippy::too_many_arguments)] // mirrors the selector's per-attribute sweep context
pub fn gated_numeric_split(
    attr: usize,
    col: &[f64],
    list: &[u32],
    labels: &[u16],
    weights: &[u32],
    totals: &[u64],
    imp: &dyn Impurity,
    rt: &SubsampleRuntime<'_>,
    node_index: u64,
    depth: u32,
    best_so_far: Option<&SplitEval>,
) -> GateOutcome {
    let m = list.len();
    let k = totals.len();
    let fallback = || {
        rt.stats.fallbacks.inc();
        GateOutcome::Fallback
    };
    if k > MAX_GATE_CLASSES {
        return fallback();
    }
    let picks = (m as f64 * rt.params.fraction).ceil().max(MIN_PICKS as f64) as usize;
    if picks.saturating_mul(4) >= m {
        // The sub-sample would not be a sub-sample: the exact sweep is at
        // most a constant factor away, so skip the bound machinery.
        return fallback();
    }
    let stride = m / picks; // >= 4 by the check above

    // --- 1. Pick raw positions and snap each forward to a run boundary.
    let mix = splitmix64(
        rt.seed ^ splitmix64(node_index) ^ splitmix64(((depth as u64) << 32) | attr as u64),
    );
    let offset = (mix % stride as u64) as usize;
    let mut boundaries: Vec<Boundary> = Vec::with_capacity(picks + 1);
    let mut snap_budget = m / 2; // heavy ties blow this; fall back then
    let mut raw = offset.max(1); // a boundary needs a non-empty prefix
    while raw < m {
        // Snap forward: the smallest e >= raw with a bit-pattern change
        // between positions e-1 and e (so "prefix of e rows" is a union of
        // complete runs and col[list[e-1]] is a candidate value).
        let mut e = raw;
        let mut prev_bits = col[list[e - 1] as usize].to_bits();
        loop {
            if e >= m {
                break;
            }
            let bits = col[list[e] as usize].to_bits();
            if bits != prev_bits {
                break;
            }
            prev_bits = bits;
            e += 1;
            if snap_budget == 0 {
                return fallback();
            }
            snap_budget -= 1;
        }
        if e >= m {
            break; // ran off the tail: no further boundaries exist
        }
        if boundaries.last().is_none_or(|b| b.pos < e) {
            boundaries.push(Boundary {
                pos: e,
                value: col[list[e - 1] as usize],
            });
        }
        raw = (e + 1).max(raw + stride);
    }
    if boundaries.len() < 2 {
        // Degenerate column (all-equal, or one giant run): nothing to
        // bound — degrade to the exact sweep.
        return fallback();
    }

    // --- 2. Exact weighted prefix counts at every boundary, one lean pass
    // (labels and weights only; no value loads).
    let nb = boundaries.len();
    let mut prefix = vec![0u64; nb * k]; // cumulative counts at boundary j
    {
        let mut acc = vec![0u64; k];
        let mut j = 0usize;
        for (i, &row) in list.iter().enumerate() {
            while j < nb && boundaries[j].pos == i {
                prefix[j * k..(j + 1) * k].copy_from_slice(&acc);
                j += 1;
            }
            debug_assert!(weights[row as usize] > 0, "node rows carry weight >= 1");
            acc[labels[row as usize] as usize] += weights[row as usize] as u64;
        }
        while j < nb {
            prefix[j * k..(j + 1) * k].copy_from_slice(&acc);
            j += 1;
        }
    }

    // --- 3. Score every boundary candidate exactly; track the leader.
    rt.stats.swept.add(nb as u64);
    let mut right = vec![0u64; k];
    let mut leader: Option<(f64, usize)> = None; // (impurity, boundary idx)
    for j in 0..nb {
        let left = &prefix[j * k..(j + 1) * k];
        for (r, (t, l)) in right.iter_mut().zip(totals.iter().zip(left)) {
            *r = t - l;
        }
        let v = split_impurity(imp, left, &right);
        // Boundary values strictly ascend, so keeping the first strict
        // minimum reproduces the sweep's smaller-value tie-break.
        if leader.is_none_or(|(best, _)| v.total_cmp(&best) == Ordering::Less) {
            leader = Some((v, j));
        }
    }
    let (leader_imp, leader_j) = leader.expect("nb >= 2 boundaries scored");

    // The pruning reference: the better of the in-attribute leader and the
    // cross-attribute best. A gap whose bound *ties* the reference may be
    // pruned only if the reference wins the tie outright — i.e. it comes
    // from a smaller attribute index ([`cmp_splits`] order). In-attribute
    // ties must survive to the exact sweep (a smaller split value in the
    // gap would win them).
    let (ref_imp, tie_prunes) = match best_so_far {
        Some(b) if b.impurity.total_cmp(&leader_imp) != Ordering::Greater => (b.impurity, true),
        _ => (leader_imp, false),
    };

    // --- 4. Corner-bound every gap; collect surviving windows.
    // Gap g spans positions (start_pos, end_pos): g=0 is [0, b_0), g=j is
    // (b_{j-1}, b_j), g=nb is (b_{nb-1}, m). Its candidates' left-count
    // vectors lie in the box [prefix start, prefix end].
    let zero = vec![0u64; k];
    let gap_box = |g: usize| -> (&[u64], &[u64]) {
        let lo = if g == 0 {
            &zero[..]
        } else {
            &prefix[(g - 1) * k..g * k]
        };
        let hi = if g == nb {
            totals
        } else {
            &prefix[g * k..(g + 1) * k]
        };
        (lo, hi)
    };
    let gap_span = |g: usize| -> (usize, usize) {
        let start = if g == 0 { 0 } else { boundaries[g - 1].pos };
        let end = if g == nb { m } else { boundaries[g].pos };
        (start, end)
    };
    let mut survives = vec![false; nb + 1];
    let mut pruned_gaps = 0u64;
    for (g, alive) in survives.iter_mut().enumerate() {
        let (start, end) = gap_span(g);
        if end - start <= 1 {
            continue; // no interior run end can exist in a 1-row gap
        }
        let (lo, hi) = gap_box(g);
        let bound = corner_lower_bound(imp, lo, hi, totals);
        let beaten = match bound.total_cmp(&ref_imp) {
            Ordering::Greater => true,
            Ordering::Equal => tie_prunes,
            Ordering::Less => false,
        };
        if beaten {
            pruned_gaps += 1;
        } else {
            *alive = true;
        }
    }
    rt.stats.pruned.add(pruned_gaps);

    // --- 5. Exact sweep over each maximal run of surviving gaps, seeded
    // with the prefix counts at the window's left edge (the same
    // `sweep_numeric` base-seeding BOAT's in-interval search uses).
    let mut best: Option<SplitEval> = None;
    let consider = |cand: SplitEval, best: &mut Option<SplitEval>| {
        if best
            .as_ref()
            .is_none_or(|b| cmp_splits(&cand, b) == Ordering::Less)
        {
            *best = Some(cand);
        }
    };
    let mut exact_points = 0u64;
    let mut values: Vec<f64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut g = 0usize;
    while g <= nb {
        if !survives[g] {
            g += 1;
            continue;
        }
        let first = g;
        while g < nb && survives[g + 1] {
            g += 1;
        }
        let last = g;
        g += 1;
        let (start, _) = gap_span(first);
        let (_, end) = gap_span(last);
        // Group the window's rows into distinct-value runs (windows start
        // and end on run boundaries by construction, so runs never split).
        values.clear();
        counts.clear();
        for &row in &list[start..end] {
            let v = col[row as usize];
            let new_run = values
                .last()
                .is_none_or(|&last| last.to_bits() != v.to_bits());
            if new_run {
                values.push(v);
                counts.extend(std::iter::repeat_n(0, k));
            }
            let base = counts.len() - k;
            counts[base + labels[row as usize] as usize] += weights[row as usize] as u64;
        }
        exact_points += values.len() as u64;
        let (init_left, init_candidate) = if first == 0 {
            (None, None)
        } else {
            let b = &boundaries[first - 1];
            (Some(&prefix[(first - 1) * k..first * k]), Some(b.value))
        };
        if let Some(cand) = sweep_numeric(
            attr,
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, &counts[i * k..(i + 1) * k])),
            init_left,
            init_candidate,
            totals,
            imp,
        ) {
            consider(cand, &mut best);
        }
    }
    rt.stats.exact_points.add(exact_points);

    // --- 6. Merge in the boundary leader (its gap neighbors may both be
    // pruned, in which case no window swept it). Identical integer counts
    // through the identical impurity code give the identical float.
    {
        let left = prefix[leader_j * k..(leader_j + 1) * k].to_vec();
        let right: Vec<u64> = totals.iter().zip(&left).map(|(t, l)| t - l).collect();
        consider(
            SplitEval {
                split: Split {
                    attr,
                    predicate: Predicate::NumLe(boundaries[leader_j].value),
                },
                impurity: leader_imp,
                left_counts: left,
                right_counts: right,
            },
            &mut best,
        );
    }
    GateOutcome::Gated(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impurity::{Entropy, Gini};

    #[test]
    fn corner_bound_degenerate_box_is_exact() {
        let stamp = [30u64, 10];
        let totals = [50u64, 50];
        let bound = corner_lower_bound(&Gini, &stamp, &stamp, &totals);
        let right = [20u64, 40];
        assert_eq!(bound, split_impurity(&Gini, &stamp, &right));
    }

    #[test]
    fn corner_bound_lower_bounds_interior_points() {
        // Every integer point inside the box scores >= the bound.
        let lo = [5u64, 2, 1];
        let hi = [12u64, 9, 4];
        let totals = [20u64, 15, 10];
        for imp in [&Gini as &dyn Impurity, &Entropy] {
            let bound = corner_lower_bound(imp, &lo, &hi, &totals);
            for a in lo[0]..=hi[0] {
                for b in lo[1]..=hi[1] {
                    for c in lo[2]..=hi[2] {
                        let left = [a, b, c];
                        let right = [totals[0] - a, totals[1] - b, totals[2] - c];
                        let v = split_impurity(imp, &left, &right);
                        assert!(
                            v >= bound,
                            "{}: interior {left:?} scored {v} < bound {bound}",
                            imp.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Offsets land in every residue class over a small modulus.
        let mut seen = [false; 8];
        for i in 0..64u64 {
            seen[(splitmix64(i) % 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

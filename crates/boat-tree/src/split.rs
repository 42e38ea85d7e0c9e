//! Split selection (paper §2.2).
//!
//! All algorithms in this workspace — the in-memory builder, RainForest and
//! BOAT — evaluate candidate splits through the functions in this module,
//! over identical integer class counts, with one deterministic total order
//! for tie-breaking ([`cmp_splits`]). That is what makes their output trees
//! bit-identical, which the paper's correctness guarantee is stated in terms
//! of.
//!
//! * numeric attributes: sweep the distinct observed values in ascending
//!   order, evaluating `X ≤ v` for every value except the largest
//!   ([`sweep_numeric`]); BOAT reuses the same sweep with a non-zero base
//!   (the counts at its confidence-interval left edge).
//! * categorical attributes: for two classes, the provably optimal
//!   class-proportion ordering sweep \[BFOS84\]; for more classes, exhaustive
//!   search up to 12 observed categories and the ordering heuristic beyond.

use crate::avc::{fold_zero, AttrAvc, AvcGroup, CatAvc, NumAvc};
use crate::catset::CatSet;
use crate::impurity::{split_impurity, Impurity};
use crate::model::{Predicate, Split};
use boat_data::Schema;
use std::cmp::Ordering;

/// Maximum observed categories for exhaustive subset search with 3+
/// classes.
pub const EXHAUSTIVE_SUBSET_MAX: u32 = 12;

/// A fully evaluated candidate split.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitEval {
    /// The candidate splitting criterion.
    pub split: Split,
    /// Its weighted impurity (lower is better).
    pub impurity: f64,
    /// Per-class counts of the left partition (records matching the
    /// predicate).
    pub left_counts: Vec<u64>,
    /// Per-class counts of the right partition.
    pub right_counts: Vec<u64>,
}

/// The deterministic total order on candidate splits: lower impurity wins;
/// ties break on the smaller attribute index, then on the predicate
/// (smaller split point / smaller canonical subset mask).
pub fn cmp_splits(a: &SplitEval, b: &SplitEval) -> Ordering {
    a.impurity
        .total_cmp(&b.impurity)
        .then_with(|| a.split.attr.cmp(&b.split.attr))
        .then_with(|| {
            a.split
                .predicate
                .tie_rank()
                .cmp(&b.split.predicate.tie_rank())
        })
}

/// Sweep candidate numeric splits `X ≤ v` on attribute `attr`.
///
/// `entries` must yield `(value, per-class counts at that value)` in strictly
/// ascending value order. `init_left` optionally seeds the sweep with the
/// counts of all tuples strictly below the first entry — this is how BOAT
/// evaluates in-interval candidates without the below-interval tuples in
/// memory. If `init_candidate` is set (a value strictly smaller than every
/// entry), "split exactly there with the seeded counts" is evaluated as a
/// candidate too. `totals` are the family's per-class counts `N^i`.
///
/// A candidate is valid only if both sides are non-empty. Returns the best
/// candidate under [`cmp_splits`] (within one attribute that means: lowest
/// impurity, then smallest split value).
pub fn sweep_numeric<'a>(
    attr: usize,
    entries: impl Iterator<Item = (f64, &'a [u64])>,
    init_left: Option<&[u64]>,
    init_candidate: Option<f64>,
    totals: &[u64],
    imp: &dyn Impurity,
) -> Option<SplitEval> {
    let n: u64 = totals.iter().sum();
    let mut left: Vec<u64> = match init_left {
        Some(counts) => counts.to_vec(),
        None => vec![0; totals.len()],
    };
    // Candidate values strictly ascend and `Predicate::NumLe`'s tie rank is
    // monotone in the value, so [`cmp_splits`] within this one attribute
    // reduces to a strict impurity comparison: equal impurity keeps the
    // earlier (smaller) value. Tracking `(impurity, value, left snapshot)`
    // and materializing one `SplitEval` at the end is therefore
    // bit-identical to building a candidate per point — and drops the
    // two Vec allocations per candidate this hot loop used to pay.
    let mut best: Option<(f64, f64)> = None; // (impurity, value)
    let mut best_left: Vec<u64> = Vec::new();
    let mut right: Vec<u64> = vec![0; totals.len()];
    let mut consider = |value: f64, left: &[u64]| {
        let left_n: u64 = left.iter().sum();
        if left_n == 0 || left_n == n {
            return;
        }
        for (r, (t, l)) in right.iter_mut().zip(totals.iter().zip(left)) {
            *r = t - l;
        }
        let impurity = split_impurity(imp, left, &right);
        if best.is_none_or(|(b, _)| impurity.total_cmp(&b) == Ordering::Less) {
            best = Some((impurity, value));
            best_left.clear();
            best_left.extend_from_slice(left);
        }
    };
    if let Some(v0) = init_candidate {
        consider(v0, &left);
    }
    let mut prev = init_candidate;
    for (v, counts) in entries {
        debug_assert!(
            prev.is_none_or(|p| p.total_cmp(&v) == Ordering::Less),
            "sweep_numeric entries must be strictly ascending (total_cmp order)"
        );
        prev = Some(v);
        for (l, c) in left.iter_mut().zip(counts) {
            *l += c;
        }
        consider(v, &left);
    }
    let (impurity, value) = best?;
    let right_counts: Vec<u64> = totals.iter().zip(&best_left).map(|(t, l)| t - l).collect();
    Some(SplitEval {
        split: Split {
            attr,
            predicate: Predicate::NumLe(value),
        },
        impurity,
        left_counts: best_left,
        right_counts,
    })
}

/// Best numeric split from raw `(value, label)` pairs: sorts in place,
/// aggregates equal values (the two zeros are one, see [`fold_zero`]), and
/// sweeps. Equivalent to building a [`NumAvc`]
/// and calling [`best_numeric_split`] (identical candidates, counts and
/// floats) but several times faster — this is the in-memory builder's hot
/// path, exercised heavily by BOAT's bootstrap phase.
pub fn best_numeric_split_from_pairs(
    attr: usize,
    pairs: &mut [(f64, u16)],
    totals: &[u64],
    imp: &dyn Impurity,
) -> Option<SplitEval> {
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let k = totals.len();
    // Group runs of equal values into parallel arrays.
    let mut values: Vec<f64> = Vec::new();
    let mut counts: Vec<u64> = Vec::new(); // flat, k per value
    for &(v, label) in pairs.iter() {
        let v = fold_zero(v);
        let new_run = values
            .last()
            .is_none_or(|&last| last.to_bits() != v.to_bits());
        if new_run {
            values.push(v);
            counts.extend(std::iter::repeat_n(0, k));
        }
        let base = counts.len() - k;
        counts[base + label as usize] += 1;
    }
    sweep_numeric(
        attr,
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, &counts[i * k..(i + 1) * k])),
        None,
        None,
        totals,
        imp,
    )
}

/// Best numeric split from an AVC-set.
pub fn best_numeric_split(
    attr: usize,
    avc: &NumAvc,
    totals: &[u64],
    imp: &dyn Impurity,
) -> Option<SplitEval> {
    sweep_numeric(attr, avc.iter(), None, None, totals, imp)
}

/// Order observed categories by ascending proportion of class `class_idx`
/// (exact rational comparison), ties by category code.
fn order_by_class_fraction(avc: &CatAvc, observed: &[u32], class_idx: usize) -> Vec<u32> {
    let mut cats = observed.to_vec();
    cats.sort_by(|&a, &b| {
        let (ca, ta) = {
            let c = avc.counts_for(a);
            (c[class_idx] as u128, c.iter().sum::<u64>() as u128)
        };
        let (cb, tb) = {
            let c = avc.counts_for(b);
            (c[class_idx] as u128, c.iter().sum::<u64>() as u128)
        };
        // ca/ta vs cb/tb without floats: cross-multiply.
        (ca * tb).cmp(&(cb * ta)).then_with(|| a.cmp(&b))
    });
    cats
}

/// Best categorical split `X ∈ Y` from an AVC-set.
///
/// The returned subset is canonicalized within the *observed* category
/// universe (see [`CatSet::canonicalize`]); `left_counts` always corresponds
/// to the canonical subset.
pub fn best_categorical_split(attr: usize, avc: &CatAvc, imp: &dyn Impurity) -> Option<SplitEval> {
    let universe = avc.observed();
    let observed: Vec<u32> = universe.iter().collect();
    if observed.len() < 2 {
        return None;
    }
    let totals: Vec<u64> = {
        let mut t = vec![0u64; avc.n_classes()];
        for &c in &observed {
            for (ti, ci) in t.iter_mut().zip(avc.counts_for(c)) {
                *ti += ci;
            }
        }
        t
    };

    let candidate_subsets: Vec<CatSet> = if avc.n_classes() == 2 {
        // Breiman's theorem: for two classes and a concave impurity, an
        // optimal subset is a prefix of the categories ordered by class-1
        // proportion.
        let order = order_by_class_fraction(avc, &observed, 1);
        (1..order.len())
            .map(|j| CatSet::from_iter(order[..j].iter().copied()))
            .collect()
    } else if observed.len() as u32 <= EXHAUSTIVE_SUBSET_MAX {
        // Exhaustive over subsets that contain the lowest observed category
        // (fixing one side avoids enumerating complements twice), excluding
        // the full set.
        let first = observed[0];
        let rest = &observed[1..];
        let m = rest.len();
        (0..(1u64 << m) - 1)
            .map(|bits| {
                let mut s = CatSet::from_iter([first]);
                for (i, &c) in rest.iter().enumerate() {
                    if bits & (1 << i) != 0 {
                        s.insert(c);
                    }
                }
                s
            })
            .collect()
    } else {
        // Heuristic for many categories and 3+ classes: ordering sweep by
        // class-0 proportion. Deterministic, identical across algorithms.
        let order = order_by_class_fraction(avc, &observed, 0);
        (1..order.len())
            .map(|j| CatSet::from_iter(order[..j].iter().copied()))
            .collect()
    };

    let mut best: Option<SplitEval> = None;
    for subset in candidate_subsets {
        let canonical = subset.canonicalize(universe);
        let mut left = vec![0u64; avc.n_classes()];
        for c in canonical.iter() {
            for (l, x) in left.iter_mut().zip(avc.counts_for(c)) {
                *l += x;
            }
        }
        let right: Vec<u64> = totals.iter().zip(&left).map(|(t, l)| t - l).collect();
        let left_n: u64 = left.iter().sum();
        let n: u64 = totals.iter().sum();
        if left_n == 0 || left_n == n {
            continue;
        }
        let impurity = split_impurity(imp, &left, &right);
        let cand = SplitEval {
            split: Split {
                attr,
                predicate: Predicate::CatIn(canonical),
            },
            impurity,
            left_counts: left,
            right_counts: right,
        };
        if best
            .as_ref()
            .is_none_or(|b| cmp_splits(&cand, b) == Ordering::Less)
        {
            best = Some(cand);
        }
    }
    best
}

/// Best split over every attribute of an AVC-group, under the global
/// deterministic order [`cmp_splits`].
pub fn best_split(schema: &Schema, group: &AvcGroup, imp: &dyn Impurity) -> Option<SplitEval> {
    debug_assert_eq!(schema.n_attributes(), group.n_attrs());
    let totals = group.class_totals();
    let mut best: Option<SplitEval> = None;
    for attr in 0..group.n_attrs() {
        let cand = match group.attr(attr) {
            AttrAvc::Num(avc) => best_numeric_split(attr, avc, totals, imp),
            AttrAvc::Cat(avc) => best_categorical_split(attr, avc, imp),
        };
        if let Some(c) = cand {
            if best
                .as_ref()
                .is_none_or(|b| cmp_splits(&c, b) == Ordering::Less)
            {
                best = Some(c);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impurity::{Entropy, Gini};
    use boat_data::{Attribute, Field, Record};

    fn build_num_avc(pairs: &[(f64, u16)]) -> (NumAvc, Vec<u64>) {
        let mut avc = NumAvc::new(2);
        let mut totals = vec![0u64; 2];
        for &(v, l) in pairs {
            avc.add(v, l);
            totals[l as usize] += 1;
        }
        (avc, totals)
    }

    #[test]
    fn pairs_fast_path_matches_avc_path() {
        // Random-ish fixture with duplicates; both paths must agree to the
        // bit (they share sweep_numeric and split_impurity).
        let pairs: Vec<(f64, u16)> = (0..500)
            .map(|i| (((i * 37) % 83) as f64, u16::from((i * 13) % 17 < 8)))
            .collect();
        let (avc, totals) = build_num_avc(&pairs);
        let slow = best_numeric_split(0, &avc, &totals, &Gini).unwrap();
        let mut p = pairs.clone();
        let fast = best_numeric_split_from_pairs(0, &mut p, &totals, &Gini).unwrap();
        assert_eq!(slow.split, fast.split);
        assert_eq!(slow.impurity.to_bits(), fast.impurity.to_bits());
        assert_eq!(slow.left_counts, fast.left_counts);
    }

    #[test]
    fn sweep_counts_the_signed_zeros_as_one_value() {
        // -0.0 and 0.0 are distinct under total_cmp but one value to the
        // `<=` predicate, so both the AVC path and the pairs fast path fold
        // them into one entry, and they agree.
        let pairs = [(-1.0, 0u16), (-0.0, 1), (0.0, 1), (1.0, 1)];
        let (avc, totals) = build_num_avc(&pairs);
        let slow = best_numeric_split(0, &avc, &totals, &Gini).unwrap();
        let mut p = pairs.to_vec();
        let fast = best_numeric_split_from_pairs(0, &mut p, &totals, &Gini).unwrap();
        assert_eq!(slow.split, fast.split);
        assert_eq!(slow.impurity.to_bits(), fast.impurity.to_bits());
        assert_eq!(slow.split.predicate, Predicate::NumLe(-1.0));
    }

    #[test]
    fn numeric_perfect_separation() {
        let (avc, totals) = build_num_avc(&[(1.0, 0), (2.0, 0), (3.0, 0), (10.0, 1), (11.0, 1)]);
        let e = best_numeric_split(0, &avc, &totals, &Gini).unwrap();
        assert_eq!(e.split.predicate, Predicate::NumLe(3.0));
        assert_eq!(e.impurity, 0.0);
        assert_eq!(e.left_counts, vec![3, 0]);
        assert_eq!(e.right_counts, vec![0, 2]);
    }

    #[test]
    fn numeric_never_splits_at_the_maximum() {
        let (avc, totals) = build_num_avc(&[(1.0, 0), (2.0, 1)]);
        let e = best_numeric_split(0, &avc, &totals, &Gini).unwrap();
        assert_eq!(e.split.predicate, Predicate::NumLe(1.0));
    }

    #[test]
    fn numeric_single_distinct_value_has_no_split() {
        let (avc, totals) = build_num_avc(&[(5.0, 0), (5.0, 1)]);
        assert!(best_numeric_split(0, &avc, &totals, &Gini).is_none());
    }

    #[test]
    fn numeric_tie_breaks_to_smaller_value() {
        // Symmetric data: splits at 1.0 and 3.0 score identically;
        // the sweep must keep 1.0.
        let (avc, totals) = build_num_avc(&[(1.0, 0), (2.0, 0), (2.0, 1), (3.0, 1)]);
        let at1 = {
            let left = [1u64, 0];
            let right = [1u64, 2];
            split_impurity(&Gini, &left, &right)
        };
        let at3 = {
            let left = [2u64, 1];
            let right = [0u64, 1];
            split_impurity(&Gini, &left, &right)
        };
        assert_eq!(at1, at3, "fixture must actually tie");
        let e = best_numeric_split(0, &avc, &totals, &Gini).unwrap();
        assert_eq!(e.split.predicate, Predicate::NumLe(1.0));
    }

    #[test]
    fn sweep_with_base_matches_full_sweep() {
        // Full data: values 1..=6. Base summarizes values <= 2.
        let all = [(1.0, 0), (2.0, 0), (3.0, 0), (4.0, 1), (5.0, 1), (6.0, 1)];
        let (avc, totals) = build_num_avc(&all);
        let full = best_numeric_split(0, &avc, &totals, &Gini).unwrap();

        let (tail_avc, _) = build_num_avc(&all[2..]);
        let base_counts = [2u64, 0];
        let from_base = sweep_numeric(
            0,
            tail_avc.iter(),
            Some(&base_counts),
            Some(2.0),
            &totals,
            &Gini,
        )
        .unwrap();
        assert_eq!(full.split, from_base.split);
        assert_eq!(full.impurity.to_bits(), from_base.impurity.to_bits());
        assert_eq!(full.left_counts, from_base.left_counts);
    }

    #[test]
    fn sweep_base_candidate_can_win() {
        // The best split is exactly at the base value.
        let all = [(1.0, 0), (2.0, 0), (3.0, 1), (4.0, 1)];
        let (avc, totals) = build_num_avc(&all);
        let full = best_numeric_split(0, &avc, &totals, &Gini).unwrap();
        assert_eq!(full.split.predicate, Predicate::NumLe(2.0));

        let (tail_avc, _) = build_num_avc(&all[2..]);
        let base_counts = [2u64, 0];
        let from_base = sweep_numeric(
            0,
            tail_avc.iter(),
            Some(&base_counts),
            Some(2.0),
            &totals,
            &Gini,
        )
        .unwrap();
        assert_eq!(from_base.split.predicate, Predicate::NumLe(2.0));
        assert_eq!(from_base.impurity, 0.0);
    }

    fn build_cat_avc(card: u32, k: usize, triples: &[(u32, u16, u64)]) -> CatAvc {
        let mut avc = CatAvc::new(card, k);
        for &(c, l, n) in triples {
            for _ in 0..n {
                avc.add(c, l);
            }
        }
        avc
    }

    #[test]
    fn categorical_perfect_separation() {
        let avc = build_cat_avc(4, 2, &[(0, 0, 5), (1, 1, 5), (2, 0, 5), (3, 1, 5)]);
        let e = best_categorical_split(0, &avc, &Gini).unwrap();
        assert_eq!(e.impurity, 0.0);
        let Predicate::CatIn(set) = e.split.predicate else {
            panic!("categorical")
        };
        // {0,2} vs {1,3}: canonical is the smaller mask {0,2} (0b0101).
        assert_eq!(set, CatSet::from_iter([0, 2]));
        assert_eq!(e.left_counts, vec![10, 0]);
    }

    #[test]
    fn categorical_single_observed_category_has_no_split() {
        let avc = build_cat_avc(4, 2, &[(2, 0, 5), (2, 1, 3)]);
        assert!(best_categorical_split(0, &avc, &Gini).is_none());
    }

    #[test]
    fn categorical_two_class_ordering_matches_exhaustive() {
        // Cross-check the Breiman prefix sweep against brute force on a
        // nontrivial 5-category fixture.
        let avc = build_cat_avc(
            5,
            2,
            &[
                (0, 0, 9),
                (0, 1, 1),
                (1, 0, 4),
                (1, 1, 6),
                (2, 0, 5),
                (2, 1, 5),
                (3, 0, 1),
                (3, 1, 9),
                (4, 0, 7),
                (4, 1, 3),
            ],
        );
        let fast = best_categorical_split(0, &avc, &Gini).unwrap();
        // Brute force over all subsets containing category 0.
        let universe = avc.observed();
        let mut best_imp = f64::INFINITY;
        for bits in 0..(1u64 << 4) {
            let mut s = CatSet::from_iter([0u32]);
            for i in 0..4u32 {
                if bits & (1 << i) != 0 {
                    s.insert(i + 1);
                }
            }
            if s == universe {
                continue;
            }
            let mut left = vec![0u64; 2];
            for c in s.iter() {
                for (l, x) in left.iter_mut().zip(avc.counts_for(c)) {
                    *l += x;
                }
            }
            let right = vec![26 - left[0], 24 - left[1]];
            best_imp = best_imp.min(split_impurity(&Gini, &left, &right));
        }
        assert!(
            (fast.impurity - best_imp).abs() < 1e-12,
            "prefix sweep {} vs exhaustive {best_imp}",
            fast.impurity
        );
    }

    #[test]
    fn categorical_multiclass_exhaustive() {
        // Three classes, three categories: category 0 -> class 0,
        // 1 -> class 1, 2 -> class 2. Any 1-vs-2 subset isolates a class.
        let avc = build_cat_avc(3, 3, &[(0, 0, 4), (1, 1, 4), (2, 2, 4)]);
        let e = best_categorical_split(0, &avc, &Gini).unwrap();
        let Predicate::CatIn(set) = e.split.predicate else {
            panic!()
        };
        assert_eq!(
            set.len(),
            1,
            "isolating one category is optimal-and-canonical"
        );
        // Tie across the three singletons breaks to the smallest mask {0}.
        assert_eq!(set, CatSet::from_iter([0]));
    }

    #[test]
    fn best_split_prefers_lower_impurity_attribute() {
        let schema = Schema::new(
            vec![
                Attribute::numeric("noisy"),
                Attribute::categorical("clean", 2),
            ],
            2,
        )
        .unwrap();
        let records: Vec<Record> = (0..20)
            .map(|i| {
                let label = (i % 2) as u16;
                // attr0 barely correlates; attr1 separates perfectly.
                Record::new(
                    vec![Field::Num((i % 5) as f64), Field::Cat(label as u32)],
                    label,
                )
            })
            .collect();
        let group = AvcGroup::from_records(&schema, &records);
        let e = best_split(&schema, &group, &Gini).unwrap();
        assert_eq!(e.split.attr, 1);
        assert_eq!(e.impurity, 0.0);
    }

    #[test]
    fn best_split_attribute_tie_breaks_to_lower_index() {
        let schema =
            Schema::new(vec![Attribute::numeric("a"), Attribute::numeric("b")], 2).unwrap();
        // Identical columns: both attributes admit identical best splits.
        let records: Vec<Record> = (0..10)
            .map(|i| {
                let v = i as f64;
                Record::new(vec![Field::Num(v), Field::Num(v)], (i / 5) as u16)
            })
            .collect();
        let group = AvcGroup::from_records(&schema, &records);
        let e = best_split(&schema, &group, &Gini).unwrap();
        assert_eq!(e.split.attr, 0);
    }

    #[test]
    fn entropy_and_gini_can_disagree_but_both_work() {
        let (avc, totals) =
            build_num_avc(&[(1.0, 0), (1.0, 0), (2.0, 1), (3.0, 0), (4.0, 1), (4.0, 1)]);
        let g = best_numeric_split(0, &avc, &totals, &Gini).unwrap();
        let h = best_numeric_split(0, &avc, &totals, &Entropy).unwrap();
        // Sanity: both choose a valid interior split.
        for e in [g, h] {
            let Predicate::NumLe(x) = e.split.predicate else {
                panic!()
            };
            assert!((1.0..4.0).contains(&x));
        }
    }

    #[test]
    fn no_split_when_all_attributes_constant() {
        let schema = Schema::new(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 3)],
            2,
        )
        .unwrap();
        let records: Vec<Record> = (0..4)
            .map(|i| Record::new(vec![Field::Num(7.0), Field::Cat(1)], (i % 2) as u16))
            .collect();
        let group = AvcGroup::from_records(&schema, &records);
        assert!(best_split(&schema, &group, &Gini).is_none());
    }
}

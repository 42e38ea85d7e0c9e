//! Property tests for the subsample gate's bound math (ISSUE 8 satellite):
//! the corner bound must contain the exact impurity of every candidate it
//! vouches for, and the gate must degrade to the exact sweep on degenerate
//! inputs instead of guessing.

use boat_data::{Attribute, Field, Record, Schema};
use boat_tree::subsample::{
    corner_lower_bound, gated_numeric_split, GateOutcome, SubsampleParams, SubsampleRuntime,
    SubsampleStats,
};
use boat_tree::{
    grow_weighted, grow_weighted_gated, split_impurity, ColumnarSample, Entropy, Gini,
    GrowthLimits, Impurity, ImpuritySelector,
};
use proptest::prelude::*;

fn runtime(
    stats: &SubsampleStats,
    fraction: f64,
    min_node: usize,
    seed: u64,
) -> SubsampleRuntime<'_> {
    SubsampleRuntime {
        params: SubsampleParams { fraction, min_node },
        seed,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Lemma 3.1 corner bound really is a lower bound: for random
    /// weighted samples, every prefix of the sorted order whose count
    /// vector falls inside a random box scores >= the box's bound.
    #[test]
    fn corner_bound_contains_exact_impurity(
        labeled in prop::collection::vec((0u64..40, 0usize..3, 1u32..4), 20..200),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let k = 3;
        // Sort by value (the sweep order) and build weighted prefixes.
        let mut rows = labeled;
        rows.sort_by_key(|&(v, _, _)| v);
        let mut totals = vec![0u64; k];
        for &(_, label, w) in &rows {
            totals[label] += w as u64;
        }
        let mut prefixes: Vec<Vec<u64>> = Vec::new();
        let mut acc = vec![0u64; k];
        for &(_, label, w) in &rows {
            acc[label] += w as u64;
            prefixes.push(acc.clone());
        }
        // A box spanned by two random prefixes (the gate's gap boxes are
        // exactly this shape: prefix counts at two boundaries).
        let i = ((rows.len() - 1) as f64 * cut_a) as usize;
        let j = ((rows.len() - 1) as f64 * cut_b) as usize;
        let (lo_i, hi_i) = (i.min(j), i.max(j));
        let lo = &prefixes[lo_i];
        let hi = &prefixes[hi_i];
        for imp in [&Gini as &dyn Impurity, &Entropy] {
            let bound = corner_lower_bound(imp, lo, hi, &totals);
            for p in &prefixes[lo_i..=hi_i] {
                let right: Vec<u64> = totals.iter().zip(p).map(|(t, l)| t - l).collect();
                let exact = split_impurity(imp, p, &right);
                prop_assert!(
                    exact >= bound,
                    "{}: prefix {p:?} scored {exact} below bound {bound}",
                    imp.name()
                );
            }
        }
    }

    /// End to end: gated growth is identical to ungated growth on random
    /// weighted samples, across fractions (including sub-sample == full
    /// sample, where every pick is a boundary).
    #[test]
    fn gated_tree_equals_exact_tree(
        seed in 0u64..1000,
        fraction_idx in 0usize..4,
        min_node_idx in 0usize..3,
    ) {
        let fraction = [0.01, 0.0625, 0.25, 1.0][fraction_idx];
        let min_node = [2usize, 64, 256][min_node_idx];
        let schema = Schema::new(
            vec![
                Attribute::numeric("x"),
                Attribute::numeric("y"),
                Attribute::categorical("c", 4),
            ],
            2,
        )
        .unwrap();
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let records: Vec<Record> = (0..600)
            .map(|_| {
                let x = (next() % 50) as f64 * 0.5;
                let y = (next() % 200) as f64 * 0.25;
                let c = next() % 4;
                let noisy = next() % 10 == 0;
                let label = u16::from((x + 0.3 * y >= 18.0) ^ noisy);
                Record::new(vec![Field::Num(x), Field::Num(y), Field::Cat(c)], label)
            })
            .collect();
        let weights: Vec<u32> = (0..records.len()).map(|_| next() % 3).collect();
        let cs = ColumnarSample::from_records(&schema, &records);
        let sel = ImpuritySelector::new(Gini);
        let exact = grow_weighted(&cs, &weights, &sel, GrowthLimits::default());
        let stats = SubsampleStats::default();
        let rt = runtime(&stats, fraction, min_node, seed);
        let gated = grow_weighted_gated(&cs, &weights, &sel, GrowthLimits::default(), Some(&rt));
        prop_assert_eq!(&gated, &exact, "fraction {} min_node {}", fraction, min_node);
        // Debug formatting covers every float bit (counts, impurities live
        // in the nodes) — the trees must be byte-identical, not just Eq.
        prop_assert_eq!(format!("{gated:?}"), format!("{exact:?}"));
    }
}

fn node_inputs(values: &[f64], labels: &[u16], weights: &[u32], k: usize) -> (Vec<u32>, Vec<u64>) {
    let mut list: Vec<u32> = (0..values.len() as u32)
        .filter(|&r| weights[r as usize] > 0)
        .collect();
    list.sort_by(|&a, &b| {
        values[a as usize]
            .total_cmp(&values[b as usize])
            .then_with(|| a.cmp(&b))
    });
    let mut totals = vec![0u64; k];
    for &r in &list {
        totals[labels[r as usize] as usize] += weights[r as usize] as u64;
    }
    (list, totals)
}

#[test]
fn all_equal_column_degrades_to_exact_sweep() {
    // One giant run: fewer than 2 boundaries exist, so the gate must refuse
    // (Fallback) rather than return a bogus candidate.
    let n = 4000;
    let values = vec![7.25f64; n];
    let labels: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
    let weights = vec![1u32; n];
    let (list, totals) = node_inputs(&values, &labels, &weights, 2);
    let stats = SubsampleStats::default();
    let rt = runtime(&stats, 0.0625, 2, 42);
    let out = gated_numeric_split(
        0, &values, &list, &labels, &weights, &totals, &Gini, &rt, 0, 0, None,
    );
    assert!(matches!(out, GateOutcome::Fallback));
    assert_eq!(stats.fallbacks.get(), 1);
    assert_eq!(stats.swept.get(), 0);
}

#[test]
fn heavy_ties_blow_the_snap_budget_and_fall_back() {
    // Two giant runs: snapping picks forward crosses half the list, which
    // exhausts the budget — exact sweep territory.
    let n = 4000;
    let values: Vec<f64> = (0..n).map(|i| if i < n / 2 { 1.0 } else { 2.0 }).collect();
    let labels: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
    let weights = vec![1u32; n];
    let (list, totals) = node_inputs(&values, &labels, &weights, 2);
    let stats = SubsampleStats::default();
    let rt = runtime(&stats, 0.0625, 2, 7);
    let out = gated_numeric_split(
        0, &values, &list, &labels, &weights, &totals, &Gini, &rt, 0, 0, None,
    );
    assert!(matches!(out, GateOutcome::Fallback));
    assert_eq!(stats.fallbacks.get(), 1);
}

#[test]
fn single_class_node_never_reaches_the_gate() {
    // A pure node is a leaf by `GrowthLimits::must_stop` before selection:
    // the gate never runs, so its counters stay zero.
    let schema = Schema::new(vec![Attribute::numeric("x")], 2).unwrap();
    let records: Vec<Record> = (0..600)
        .map(|i| Record::new(vec![Field::Num(i as f64)], 1))
        .collect();
    let cs = ColumnarSample::from_records(&schema, &records);
    let sel = ImpuritySelector::new(Gini);
    let stats = SubsampleStats::default();
    let rt = runtime(&stats, 0.0625, 2, 3);
    let weights = vec![1u32; records.len()];
    let tree = grow_weighted_gated(&cs, &weights, &sel, GrowthLimits::default(), Some(&rt));
    assert_eq!(tree.n_nodes(), 1);
    assert_eq!(
        (
            stats.swept.get(),
            stats.pruned.get(),
            stats.fallbacks.get(),
            stats.exact_points.get()
        ),
        (0, 0, 0, 0)
    );
}

#[test]
fn tiny_nodes_skip_the_gate_via_min_node() {
    let schema = Schema::new(vec![Attribute::numeric("x")], 2).unwrap();
    let records: Vec<Record> = (0..100)
        .map(|i| Record::new(vec![Field::Num(i as f64)], u16::from(i >= 50)))
        .collect();
    let cs = ColumnarSample::from_records(&schema, &records);
    let sel = ImpuritySelector::new(Gini);
    let stats = SubsampleStats::default();
    let rt = runtime(&stats, 0.0625, 256, 3);
    let weights = vec![1u32; records.len()];
    let gated = grow_weighted_gated(&cs, &weights, &sel, GrowthLimits::default(), Some(&rt));
    let exact = grow_weighted(&cs, &weights, &sel, GrowthLimits::default());
    assert_eq!(gated, exact);
    assert_eq!(
        (
            stats.swept.get(),
            stats.pruned.get(),
            stats.fallbacks.get(),
            stats.exact_points.get()
        ),
        (0, 0, 0, 0),
        "nodes under min_node must not touch the gate"
    );
}

#[test]
fn subsample_equal_to_full_sample_is_exact() {
    // fraction 1.0 forces picks > m/4: the gate refuses every node, the
    // tree is still exact, and every gate entry counts as a fallback.
    let schema = Schema::new(vec![Attribute::numeric("x")], 2).unwrap();
    let records: Vec<Record> = (0..600)
        .map(|i| Record::new(vec![Field::Num((i % 37) as f64)], u16::from(i % 37 >= 18)))
        .collect();
    let cs = ColumnarSample::from_records(&schema, &records);
    let sel = ImpuritySelector::new(Gini);
    let stats = SubsampleStats::default();
    let rt = runtime(&stats, 1.0, 2, 9);
    let weights = vec![1u32; records.len()];
    let gated = grow_weighted_gated(&cs, &weights, &sel, GrowthLimits::default(), Some(&rt));
    let exact = grow_weighted(&cs, &weights, &sel, GrowthLimits::default());
    assert_eq!(gated, exact);
    assert!(stats.fallbacks.get() > 0);
    assert_eq!(stats.swept.get(), 0);
}

#[test]
fn large_node_actually_prunes() {
    // Sanity that the machinery pays for itself on the shape it targets: a
    // large node with near-unique values and a clear separator must prune
    // most gaps and sweep far fewer points than the full sweep.
    let n = 8000usize;
    let values: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let labels: Vec<u16> = (0..n).map(|i| u16::from(i >= 4000)).collect();
    let weights = vec![1u32; n];
    let (list, totals) = node_inputs(&values, &labels, &weights, 2);
    let stats = SubsampleStats::default();
    let rt = runtime(&stats, 0.0625, 2, 11);
    let out = gated_numeric_split(
        0, &values, &list, &labels, &weights, &totals, &Gini, &rt, 0, 0, None,
    );
    let GateOutcome::Gated(Some(eval)) = out else {
        panic!("gate must run and find a split");
    };
    // Exact reference over the full sweep.
    let mut pairs: Vec<(f64, u16)> = list
        .iter()
        .map(|&r| (values[r as usize], labels[r as usize]))
        .collect();
    let exact =
        boat_tree::split::best_numeric_split_from_pairs(0, &mut pairs, &totals, &Gini).unwrap();
    assert_eq!(eval.split, exact.split);
    assert_eq!(eval.impurity.to_bits(), exact.impurity.to_bits());
    assert_eq!(eval.left_counts, exact.left_counts);
    assert!(
        stats.pruned.get() > 400,
        "clear separator must prune most gaps: {stats:?}"
    );
    assert!(
        stats.swept.get() + stats.exact_points.get() < n as u64 / 4,
        "should evaluate far fewer than the {n} distinct values: {stats:?}"
    );
}

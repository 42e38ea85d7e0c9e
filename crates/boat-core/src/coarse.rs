//! Sampling phase: bootstrapped coarse splitting criteria (paper §3.2).
//!
//! From the in-memory sample `D'`, draw `b` bootstrap resamples (with
//! replacement), build a tree on each with the ordinary in-memory builder,
//! and walk the `b` trees top-down in lockstep:
//!
//! * if the `b` nodes disagree on the splitting attribute (or any is a
//!   leaf while another is internal), the node and its subtree are *cut* —
//!   the coarse tree gets a frontier leaf there;
//! * if they agree on a **categorical** attribute, the splitting subsets
//!   must be identical too (the paper's stringent rule), and the coarse
//!   criterion is that exact subset;
//! * if they agree on a **numeric** attribute, the `b` bootstrap split
//!   points give a confidence interval `[lo, hi]` that contains the final
//!   split point with high probability.

use crate::config::{AgreementRule, BoatConfig};
use boat_data::{DataError, Record, Result, Schema};
use boat_obs::Registry;
use boat_tree::grow::SplitSelector;
use boat_tree::model::Predicate;
use boat_tree::{CatSet, ColumnarSample, GrowthLimits, NodeId, TdTreeBuilder, Tree};
use rand::rngs::StdRng;

/// A coarse splitting criterion (paper Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub enum CoarseCriterion {
    /// Numeric splitting attribute plus a confidence interval that contains
    /// the final split point with high probability.
    Num {
        /// Splitting attribute index.
        attr: usize,
        /// Interval lower edge (inclusive).
        lo: f64,
        /// Interval upper edge (inclusive).
        hi: f64,
    },
    /// Categorical splitting attribute with the exact splitting subset.
    Cat {
        /// Splitting attribute index.
        attr: usize,
        /// The (canonical) splitting subset.
        subset: CatSet,
    },
}

impl CoarseCriterion {
    /// The coarse splitting attribute.
    pub fn attr(&self) -> usize {
        match self {
            CoarseCriterion::Num { attr, .. } | CoarseCriterion::Cat { attr, .. } => *attr,
        }
    }
}

/// Why a coarse node is a frontier leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierReason {
    /// Every bootstrap tree had a leaf here (the sample says: stop).
    SampleLeaf,
    /// The bootstrap trees disagreed (the paper's instability case).
    Disagreement,
}

/// One node of the coarse tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseNode {
    /// The coarse criterion; `None` marks a frontier leaf.
    pub crit: Option<CoarseCriterion>,
    /// Why `crit` is `None` (meaningless otherwise).
    pub reason: Option<FrontierReason>,
    /// Left child (tuples satisfying the criterion).
    pub left: Option<usize>,
    /// Right child.
    pub right: Option<usize>,
    /// Parent index.
    pub parent: Option<usize>,
    /// Depth below the coarse root.
    pub depth: u32,
    /// The `b` bootstrap split points (numeric criteria only) — kept for
    /// diagnostics such as the instability experiment's histogram.
    pub bootstrap_points: Vec<f64>,
}

/// The coarse tree produced by the sampling phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseTree {
    /// Arena of nodes; index 0 is the root.
    pub nodes: Vec<CoarseNode>,
}

impl CoarseTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single frontier leaf (total disagreement).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.nodes[0].crit.is_none()
    }

    /// The degenerate coarse tree of an empty sample: a single frontier
    /// leaf (everything resolves via the completion machinery).
    fn sample_leaf() -> CoarseTree {
        CoarseTree {
            nodes: vec![CoarseNode {
                crit: None,
                reason: Some(FrontierReason::SampleLeaf),
                left: None,
                right: None,
                parent: None,
                depth: 0,
                bootstrap_points: Vec::new(),
            }],
        }
    }

    /// Count internal (criterion-bearing) nodes.
    pub fn n_internal(&self) -> usize {
        self.nodes.iter().filter(|n| n.crit.is_some()).count()
    }

    /// Count frontier leaves cut because of bootstrap disagreement.
    pub fn n_disagreements(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.reason == Some(FrontierReason::Disagreement))
            .count()
    }
}

/// Growth limits for the bootstrap trees: the same semantic rules as the
/// final tree, but with the family-size thresholds scaled down by
/// `resample_size / full_size` so the sample trees stop at the equivalent
/// depth of the paper's in-memory switch.
pub fn bootstrap_limits(config: &BoatConfig, full_size: u64) -> GrowthLimits {
    let full_stop = config
        .limits
        .stop_family_size
        .unwrap_or(0)
        .max(config.in_memory_threshold);
    let scaled = if full_size == 0 {
        1
    } else {
        ((full_stop as u128 * config.bootstrap_sample_size as u128) / full_size as u128) as u64
    };
    GrowthLimits {
        min_split: config.limits.min_split,
        max_depth: config.limits.max_depth,
        stop_family_size: Some(scaled.max(1)),
    }
}

/// Build the coarse tree from the in-memory sample: transpose and presort
/// it ([`columnar_sample`]), then [`build_coarse_tree_columnar`], whose
/// result (and error) it returns.
pub fn build_coarse_tree<S: SplitSelector + ?Sized>(
    schema: &Schema,
    sample: &[Record],
    selector: &S,
    config: &BoatConfig,
    full_size: u64,
    rng: &mut StdRng,
    metrics: &Registry,
) -> Result<CoarseTree> {
    let cs = columnar_sample(schema, sample, metrics);
    build_coarse_tree_columnar(&cs, selector, config, full_size, rng, metrics)
}

/// The sample in columnar form, presorted: what the bootstrap trees grow
/// on and what `WorkTree::prepare` reads its per-node statistics from.
/// Records the `boat.sample.transpose` and `boat.sample.presort` spans.
pub fn columnar_sample(schema: &Schema, sample: &[Record], metrics: &Registry) -> ColumnarSample {
    let transpose_span = metrics.span("boat.sample.transpose");
    let mut cs = ColumnarSample::transpose(schema, sample);
    transpose_span.finish();
    let presort_span = metrics.span("boat.sample.presort");
    cs.presort();
    presort_span.finish();
    cs
}

/// Build the coarse tree from the presorted columnar sample.
///
/// `full_size` is `|D|` (used to scale the bootstrap trees' stopping
/// threshold). The selector must be the same split-selection method the
/// final tree uses. `metrics` receives the `boat.sample.*` phase spans and
/// counters (resample/grow timings, build counts).
///
/// The bootstrap trees grow on the columnar engine. For the same seeded rng
/// the result is node for node [`reference_coarse_tree`]'s, because the
/// multiplicity vectors are drawn with the *same rng call sequence* as
/// [`bootstrap_resample`] and every node selects its split through the
/// columnar determinism contract (see `boat_tree::columnar`).
///
/// A bootstrap build that panics (a faulty selector) fails the call with
/// [`DataError::Io`] instead of unwinding into the caller.
///
/// [`bootstrap_resample`]: boat_data::sample::bootstrap_resample
pub fn build_coarse_tree_columnar<S: SplitSelector + ?Sized>(
    sample: &ColumnarSample,
    selector: &S,
    config: &BoatConfig,
    full_size: u64,
    rng: &mut StdRng,
    metrics: &Registry,
) -> Result<CoarseTree> {
    if sample.n_rows() == 0 {
        return Ok(CoarseTree::sample_leaf());
    }
    let limits = bootstrap_limits(config, full_size);
    let resample_span = metrics.span("boat.sample.resample");
    let weight_sets: Vec<Vec<u32>> = (0..config.bootstrap_reps)
        .map(|_| {
            boat_data::sample::bootstrap_multiplicities(
                sample.n_rows(),
                config.bootstrap_sample_size,
                rng,
            )
        })
        .collect();
    resample_span.finish();
    metrics
        .counter("boat.sample.columnar_builds")
        .add(weight_sets.len() as u64);
    let grow_span = metrics.span("boat.sample.grow");
    let stats = boat_tree::SubsampleStats::default();
    let base = subsample_runtime(config, &stats);
    let trees = build_parallel(weight_sets.len(), |i| {
        let rt = base.map(|b| b.for_rep(i as u64));
        boat_tree::grow_weighted_gated(sample, &weight_sets[i], selector, limits, rt.as_ref())
    });
    grow_span.finish();
    record_subsample_stats(&stats, metrics);
    Ok(agree_all(&trees?, config))
}

/// The reference coarse tree: materialize each bootstrap resample as a
/// `Vec<Record>` (drawn sequentially, deterministic in the rng), grow the
/// `b` trees with the reference in-memory builder, and run the same
/// agreement walk as [`build_coarse_tree`]. Like
/// [`reference_tree`](crate::reference_tree), it exists for tests and
/// benches to compare against; a panicking selector panics here.
pub fn reference_coarse_tree<S: SplitSelector + ?Sized>(
    schema: &Schema,
    sample: &[Record],
    selector: &S,
    config: &BoatConfig,
    full_size: u64,
    rng: &mut StdRng,
) -> CoarseTree {
    if sample.is_empty() {
        return CoarseTree::sample_leaf();
    }
    let builder = TdTreeBuilder::new(selector, bootstrap_limits(config, full_size));
    let resamples: Vec<Vec<Record>> = (0..config.bootstrap_reps)
        .map(|_| boat_data::sample::bootstrap_resample(sample, config.bootstrap_sample_size, rng))
        .collect();
    let trees = build_parallel(resamples.len(), |i| builder.fit(schema, &resamples[i]))
        .expect("reference bootstrap build");
    agree_all(&trees, config)
}

/// The agreement walk over every bootstrap tree from its root.
fn agree_all(trees: &[Tree], config: &BoatConfig) -> CoarseTree {
    let mut coarse = CoarseTree { nodes: Vec::new() };
    let cursors: Vec<(usize, NodeId)> = trees
        .iter()
        .enumerate()
        .map(|(i, t)| (i, t.root()))
        .collect();
    agree(trees, cursors, None, 0, config, &mut coarse);
    coarse
}

/// Run `build(i)` for `i in 0..n` over a work-stealing thread pool (one
/// atomic next-index counter; workers return `(i, tree)` pairs merged in
/// order). The builds are independent, so the result is bit-identical to a
/// serial loop at every thread count. A build that panics, on a worker or
/// on this thread when one worker suffices, fails the call with
/// [`DataError::Io`] carrying the panic message.
fn build_parallel<F>(n: usize, build: F) -> Result<Vec<Tree>>
where
    F: Fn(usize) -> Tree + Sync,
{
    let panicked = |payload: Box<dyn std::any::Any + Send>| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        DataError::Io(std::io::Error::other(format!(
            "bootstrap worker panicked: {msg}"
        )))
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(n.max(1));
    if threads <= 1 || n <= 1 {
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (0..n).map(&build).collect()
        }))
        .map_err(panicked);
    }
    let mut slots: Vec<Option<Tree>> = (0..n).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut failure = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let next = &next;
            let build = &build;
            handles.push(scope.spawn(move || {
                let mut built: Vec<(usize, Tree)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    built.push((i, build(i)));
                }
                built
            }));
        }
        for h in handles {
            match h.join() {
                Ok(built) => {
                    for (i, t) in built {
                        slots[i] = Some(t);
                    }
                }
                Err(payload) => {
                    failure.get_or_insert(panicked(payload));
                }
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|t| t.expect("every slot built"))
        .collect())
}

/// The subsample gate runtime a config denotes (seeded off `config.seed`,
/// mixed per bootstrap repetition by the caller), or `None` when disabled.
pub(crate) fn subsample_runtime<'s>(
    config: &BoatConfig,
    stats: &'s boat_tree::SubsampleStats,
) -> Option<boat_tree::SubsampleRuntime<'s>> {
    config
        .subsample_params()
        .map(|params| boat_tree::SubsampleRuntime {
            params,
            seed: boat_tree::subsample::splitmix64(config.seed ^ 0x5B5A_B5A4_B1E5),
            stats,
        })
}

/// Mirror the gate's counters into the `boat.sample.subsample.*` metrics.
pub(crate) fn record_subsample_stats(stats: &boat_tree::SubsampleStats, metrics: &Registry) {
    let snap = stats.snapshot();
    for (name, v) in [
        ("boat.sample.subsample.swept", snap.swept),
        ("boat.sample.subsample.pruned", snap.pruned),
        ("boat.sample.subsample.fallbacks", snap.fallbacks),
        ("boat.sample.subsample.exact_points", snap.exact_points),
    ] {
        if v > 0 {
            metrics.counter(name).add(v);
        }
    }
}

/// The "signature" a bootstrap node votes with: leaf, or internal with a
/// splitting attribute (plus, for categorical splits, the exact subset —
/// the paper's stringent rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Vote {
    Leaf,
    Num { attr: usize },
    Cat { attr: usize, mask: u64 },
}

fn vote_of(tree: &Tree, id: NodeId) -> Vote {
    match tree.node(id).split() {
        None => Vote::Leaf,
        Some(s) => match s.predicate {
            Predicate::NumLe(_) => Vote::Num { attr: s.attr },
            Predicate::CatIn(set) => Vote::Cat {
                attr: s.attr,
                mask: set.mask(),
            },
        },
    }
}

/// Recursive lockstep agreement walk over a (possibly shrinking) set of
/// `(tree index, node)` cursors. Appends the coarse node and recurses into
/// the agreeing trees' children.
fn agree(
    trees: &[Tree],
    cursors: Vec<(usize, NodeId)>,
    parent: Option<usize>,
    depth: u32,
    config: &BoatConfig,
    coarse: &mut CoarseTree,
) -> usize {
    let idx = coarse.nodes.len();
    coarse.nodes.push(CoarseNode {
        crit: None,
        reason: None,
        left: None,
        right: None,
        parent,
        depth,
        bootstrap_points: Vec::new(),
    });

    // Tally votes.
    let mut tally: Vec<(Vote, usize)> = Vec::new();
    for &(ti, id) in &cursors {
        let v = vote_of(&trees[ti], id);
        match tally.iter_mut().find(|(w, _)| *w == v) {
            Some((_, c)) => *c += 1,
            None => tally.push((v, 1)),
        }
    }
    // Winner: largest count, ties broken deterministically by the vote's
    // natural order (Leaf first, then attribute index).
    tally.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let (winner, count) = tally[0];

    let accepted = match (config.agreement, winner) {
        (_, Vote::Leaf) => {
            // The sample says stop (or the modal choice is a leaf): cut.
            coarse.nodes[idx].reason = Some(if count == cursors.len() {
                FrontierReason::SampleLeaf
            } else {
                FrontierReason::Disagreement
            });
            return idx;
        }
        (AgreementRule::Unanimous, _) => count == cursors.len(),
        (AgreementRule::Majority { quorum }, _) => {
            count >= 2 && (count as f64) >= quorum * cursors.len() as f64
        }
    };
    if !accepted {
        coarse.nodes[idx].reason = Some(FrontierReason::Disagreement);
        return idx;
    }

    // The agreeing trees carry the criterion; dissenters are dropped from
    // this subtree (under Unanimous, nothing is ever dropped).
    let agreeing: Vec<(usize, NodeId)> = cursors
        .into_iter()
        .filter(|&(ti, id)| vote_of(&trees[ti], id) == winner)
        .collect();

    let crit = match winner {
        Vote::Leaf => unreachable!("leaf handled above"),
        Vote::Cat { attr, mask } => CoarseCriterion::Cat {
            attr,
            subset: boat_tree::CatSet::from_mask(mask),
        },
        Vote::Num { attr } => {
            let mut pairs: Vec<(usize, NodeId, f64)> = agreeing
                .iter()
                .map(|&(ti, id)| match trees[ti].node(id).split() {
                    Some(s) => match s.predicate {
                        Predicate::NumLe(x) => (ti, id, x),
                        Predicate::CatIn(_) => unreachable!("vote was Num"),
                    },
                    None => unreachable!("vote was Num"),
                })
                .collect();
            pairs.sort_by(|a, b| a.2.total_cmp(&b.2));

            // Mode clustering: near-tied minima far apart make bootstrap
            // split points *bimodal* (the paper's Figure 12). An interval
            // spanning both modes parks a third of the database and the
            // modes' subtrees are structurally incomparable, so when the
            // sorted points split into two well-separated clusters, keep
            // the majority cluster and drop the minority trees. Purely an
            // optimism heuristic — the cleanup-phase verification still
            // guarantees the exact tree either way.
            if pairs.len() >= 4 {
                let range = pairs.last().expect("non-empty").2 - pairs[0].2;
                if range > 0.0 {
                    let (mut gap_at, mut gap) = (0usize, 0.0f64);
                    for i in 1..pairs.len() {
                        let g = pairs[i].2 - pairs[i - 1].2;
                        if g > gap {
                            gap = g;
                            gap_at = i;
                        }
                    }
                    if gap >= 0.5 * range {
                        let keep_high = gap_at <= pairs.len() - gap_at;
                        if keep_high {
                            pairs.drain(..gap_at);
                        } else {
                            pairs.truncate(gap_at);
                        }
                    }
                }
            }

            let points: Vec<f64> = pairs.iter().map(|p| p.2).collect();
            let b = points.len();
            let cut =
                ((b as f64 * config.confidence_trim).floor() as usize).min(b.saturating_sub(1) / 2);
            let (lo, hi) = (points[cut], points[b - 1 - cut]);
            coarse.nodes[idx].bootstrap_points = points;
            let kept = CoarseCriterion::Num { attr, lo, hi };
            // Narrow `agreeing` to the surviving cluster.
            let survivors: Vec<(usize, NodeId)> =
                pairs.into_iter().map(|(ti, id, _)| (ti, id)).collect();
            return finish_internal(trees, survivors, idx, depth, config, coarse, kept);
        }
    };
    coarse.nodes[idx].crit = Some(crit);

    let lefts: Vec<(usize, NodeId)> = agreeing
        .iter()
        .map(|&(ti, id)| (ti, trees[ti].node(id).children().expect("internal").0))
        .collect();
    let rights: Vec<(usize, NodeId)> = agreeing
        .iter()
        .map(|&(ti, id)| (ti, trees[ti].node(id).children().expect("internal").1))
        .collect();
    let l = agree(trees, lefts, Some(idx), depth + 1, config, coarse);
    let r = agree(trees, rights, Some(idx), depth + 1, config, coarse);
    coarse.nodes[idx].left = Some(l);
    coarse.nodes[idx].right = Some(r);
    idx
}

/// Record a numeric criterion at `idx` and recurse into the surviving
/// trees' children.
fn finish_internal(
    trees: &[Tree],
    survivors: Vec<(usize, NodeId)>,
    idx: usize,
    depth: u32,
    config: &BoatConfig,
    coarse: &mut CoarseTree,
    crit: CoarseCriterion,
) -> usize {
    coarse.nodes[idx].crit = Some(crit);
    let lefts: Vec<(usize, NodeId)> = survivors
        .iter()
        .map(|&(ti, id)| (ti, trees[ti].node(id).children().expect("internal").0))
        .collect();
    let rights: Vec<(usize, NodeId)> = survivors
        .iter()
        .map(|&(ti, id)| (ti, trees[ti].node(id).children().expect("internal").1))
        .collect();
    let l = agree(trees, lefts, Some(idx), depth + 1, config, coarse);
    let r = agree(trees, rights, Some(idx), depth + 1, config, coarse);
    coarse.nodes[idx].left = Some(l);
    coarse.nodes[idx].right = Some(r);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_data::{Attribute, Field, RecordSource};
    use boat_tree::{Gini, ImpuritySelector};
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 4)],
            2,
        )
        .unwrap()
    }

    /// Strongly separable data: label = x >= 500, c irrelevant.
    fn clean_sample(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let x = (i % 1000) as f64;
                Record::new(
                    vec![Field::Num(x), Field::Cat((i % 4) as u32)],
                    u16::from(x >= 500.0),
                )
            })
            .collect()
    }

    fn config() -> BoatConfig {
        BoatConfig {
            sample_size: 1000,
            bootstrap_reps: 10,
            bootstrap_sample_size: 400,
            in_memory_threshold: 10, // scaled: tiny -> deep bootstrap trees
            ..BoatConfig::default()
        }
    }

    #[test]
    fn clean_data_agrees_at_the_root() {
        let schema = schema();
        let sample = clean_sample(1000);
        let sel = ImpuritySelector::new(Gini);
        let mut rng = StdRng::seed_from_u64(7);
        let coarse = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &config(),
            100_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        let root = &coarse.nodes[0];
        let Some(CoarseCriterion::Num { attr, lo, hi }) = &root.crit else {
            panic!(
                "root should agree on the numeric attribute, got {:?}",
                root.crit
            );
        };
        assert_eq!(*attr, 0);
        // Every bootstrap split point is near the true boundary 499.
        assert!(*lo <= *hi);
        assert!((450.0..=550.0).contains(lo), "lo={lo}");
        assert!((450.0..=550.0).contains(hi), "hi={hi}");
        // Mode clustering may drop a stray point, but most must survive.
        assert!(root.bootstrap_points.len() >= 6);
        assert!(root.bootstrap_points.len() <= 10);
    }

    #[test]
    fn interval_contains_all_untrimmed_points() {
        let schema = schema();
        let sample = clean_sample(800);
        let sel = ImpuritySelector::new(Gini);
        let mut rng = StdRng::seed_from_u64(8);
        let coarse = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &config(),
            50_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        let root = &coarse.nodes[0];
        if let Some(CoarseCriterion::Num { lo, hi, .. }) = root.crit {
            for &p in &root.bootstrap_points {
                assert!(p >= lo && p <= hi);
            }
        } else {
            panic!("expected numeric root");
        }
    }

    #[test]
    fn trimming_narrows_the_interval() {
        let schema = schema();
        let sample = clean_sample(700);
        let sel = ImpuritySelector::new(Gini);
        let mut cfg = config();
        let mut rng = StdRng::seed_from_u64(9);
        let wide = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            50_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        cfg.confidence_trim = 0.2;
        let mut rng = StdRng::seed_from_u64(9);
        let narrow = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            50_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        let get = |c: &CoarseTree| match c.nodes[0].crit {
            Some(CoarseCriterion::Num { lo, hi, .. }) => (lo, hi),
            _ => panic!("numeric root"),
        };
        let (wl, wh) = get(&wide);
        let (nl, nh) = get(&narrow);
        assert!(nl >= wl && nh <= wh);
    }

    #[test]
    fn pure_sample_is_a_sample_leaf() {
        let schema = schema();
        let sample: Vec<Record> = (0..100)
            .map(|i| Record::new(vec![Field::Num(i as f64), Field::Cat(0)], 0))
            .collect();
        let sel = ImpuritySelector::new(Gini);
        let mut rng = StdRng::seed_from_u64(10);
        let coarse = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &config(),
            10_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        assert!(coarse.is_empty());
        assert_eq!(coarse.nodes[0].reason, Some(FrontierReason::SampleLeaf));
    }

    #[test]
    fn unstable_data_cuts_with_disagreement() {
        // Two near-tied minima (the paper's Figure 12 situation) make the
        // root's *children* (or the root itself) disagree across bootstrap
        // repetitions.
        let ds = boat_datagen::instability::two_minima_dataset(24, 4);
        let schema = ds.schema().as_ref().clone();
        let sample = ds.records().to_vec();
        let sel = ImpuritySelector::new(Gini);
        let mut cfg = config();
        cfg.bootstrap_reps = 16;
        cfg.bootstrap_sample_size = 600;
        let mut rng = StdRng::seed_from_u64(11);
        let coarse = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            100_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        // The root agrees on the single attribute; mode clustering then
        // commits to ONE of the two minima (near 20 or near 60) — spanning
        // both would park half the database and make the children
        // incomparable. (A cut with Disagreement is also acceptable if the
        // vote itself fractured.)
        match &coarse.nodes[0].crit {
            Some(CoarseCriterion::Num { lo, hi, .. }) => {
                let near_20 = *lo >= 10.0 && *hi <= 30.0;
                let near_60 = *lo >= 50.0 && *hi <= 70.0;
                assert!(
                    near_20 || near_60,
                    "interval [{lo},{hi}] should commit to a single mode"
                );
            }
            None => assert_eq!(coarse.nodes[0].reason, Some(FrontierReason::Disagreement)),
            other => panic!("unexpected root criterion {other:?}"),
        }
    }

    #[test]
    fn depths_and_parents_are_consistent() {
        let schema = schema();
        let sample = clean_sample(1000);
        let sel = ImpuritySelector::new(Gini);
        let mut rng = StdRng::seed_from_u64(12);
        let coarse = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &config(),
            100_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        for (i, n) in coarse.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                assert_eq!(coarse.nodes[p].depth + 1, n.depth);
                let pn = &coarse.nodes[p];
                assert!(pn.left == Some(i) || pn.right == Some(i));
            } else {
                assert_eq!(i, 0);
                assert_eq!(n.depth, 0);
            }
            if n.crit.is_some() {
                assert!(n.left.is_some() && n.right.is_some());
            } else {
                assert!(n.left.is_none() && n.right.is_none());
            }
        }
    }

    #[test]
    fn majority_survives_a_dissenting_minority_where_unanimity_cuts() {
        // Mixture data where a clear best attribute exists but a small
        // fraction of resamples flips: exactly the laptop-scale regime the
        // Majority rule exists for. Attribute 0 separates at 500 with a
        // thin noisy band; a competing weak signal lives on the categorical
        // attribute.
        let schema = schema();
        let sample: Vec<Record> = (0..1200)
            .map(|i| {
                let x = (i % 1000) as f64;
                // Noisy band near the boundary keeps resamples wobbly.
                let label = if (480..520).contains(&(i % 1000)) {
                    (i % 2) as u16
                } else {
                    u16::from(x >= 500.0)
                };
                Record::new(vec![Field::Num(x), Field::Cat((i % 4) as u32)], label)
            })
            .collect();
        let sel = ImpuritySelector::new(Gini);
        let mut cfg = config();
        cfg.bootstrap_reps = 20;
        cfg.bootstrap_sample_size = 300;

        cfg.agreement = crate::config::AgreementRule::Majority { quorum: 0.7 };
        let mut rng = StdRng::seed_from_u64(77);
        let majority = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            100_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();

        cfg.agreement = crate::config::AgreementRule::Unanimous;
        let mut rng = StdRng::seed_from_u64(77);
        let unanimous = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            100_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();

        assert!(
            majority.n_internal() >= unanimous.n_internal(),
            "majority must never keep fewer criteria: {} vs {}",
            majority.n_internal(),
            unanimous.n_internal()
        );
        // And the majority root must be the numeric attribute.
        match &majority.nodes[0].crit {
            Some(CoarseCriterion::Num { attr: 0, .. }) => {}
            other => panic!("majority root should split attribute 0, got {other:?}"),
        }
    }

    #[test]
    fn majority_interval_uses_only_agreeing_trees() {
        let schema = schema();
        let sample = clean_sample(1000);
        let sel = ImpuritySelector::new(Gini);
        let mut cfg = config();
        cfg.agreement = crate::config::AgreementRule::Majority { quorum: 0.6 };
        let mut rng = StdRng::seed_from_u64(78);
        let coarse = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            100_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();
        let root = &coarse.nodes[0];
        assert!(root.crit.is_some());
        assert!(
            root.bootstrap_points.len() <= cfg.bootstrap_reps,
            "interval points come from agreeing trees only"
        );
        assert!(root.bootstrap_points.len() >= (0.6 * cfg.bootstrap_reps as f64) as usize);
    }

    #[test]
    fn build_coarse_tree_matches_reference_coarse_tree() {
        // Same seed, columnar build vs the row-materializing reference;
        // metrics inspected for the sampling-phase spans and counters.
        let schema = schema();
        let sample = clean_sample(900);
        let sel = ImpuritySelector::new(Gini);
        let cfg = config();

        let metrics = Registry::new();
        let mut rng = StdRng::seed_from_u64(99);
        let columnar =
            build_coarse_tree(&schema, &sample, &sel, &cfg, 100_000, &mut rng, &metrics).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let reference = reference_coarse_tree(&schema, &sample, &sel, &cfg, 100_000, &mut rng);

        assert_eq!(columnar, reference, "must agree node for node");

        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("boat.sample.columnar_builds"),
            cfg.bootstrap_reps as u64
        );
        assert!(snap.histogram("boat.sample.transpose").is_some());
        assert!(snap.histogram("boat.sample.presort").is_some());
        assert!(snap.histogram("boat.sample.grow").is_some());
    }

    #[test]
    fn quest_coarse_tree_matches_reference() {
        // QUEST has no columnar override: its bootstrap trees grow through
        // the default (materializing) `select_columnar`.
        let schema = schema();
        let sample = clean_sample(600);
        let sel = boat_tree::QuestSelector;
        let cfg = config();
        let metrics = Registry::new();
        let mut rng = StdRng::seed_from_u64(5);
        let coarse =
            build_coarse_tree(&schema, &sample, &sel, &cfg, 50_000, &mut rng, &metrics).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let reference = reference_coarse_tree(&schema, &sample, &sel, &cfg, 50_000, &mut rng);
        assert_eq!(coarse, reference);
        assert!(coarse.n_internal() > 0, "QUEST should agree on the root");
        assert_eq!(
            metrics.snapshot().counter("boat.sample.columnar_builds"),
            cfg.bootstrap_reps as u64
        );
    }

    #[test]
    fn subsample_gate_produces_identical_coarse_trees_and_counters() {
        // Gate on (default) vs gate off: identical coarse trees, and the
        // gated run must report activity on a sample large enough to clear
        // min_node at the root.
        let schema = schema();
        let sample = clean_sample(4000);
        let sel = ImpuritySelector::new(Gini);
        let mut cfg = config();
        cfg.sample_size = 4000;
        cfg.bootstrap_sample_size = 2000;
        cfg.split_subsample_min_node = 64;

        let gated_metrics = Registry::new();
        let mut rng = StdRng::seed_from_u64(55);
        let gated = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            100_000,
            &mut rng,
            &gated_metrics,
        )
        .unwrap();

        cfg.split_subsample = 0.0;
        let mut rng = StdRng::seed_from_u64(55);
        let exact = build_coarse_tree(
            &schema,
            &sample,
            &sel,
            &cfg,
            100_000,
            &mut rng,
            &Registry::new(),
        )
        .unwrap();

        assert_eq!(gated, exact, "the gate must never change the coarse tree");
        let snap = gated_metrics.snapshot();
        assert!(
            snap.counter("boat.sample.subsample.swept") > 0,
            "gate must have engaged on 2000-row resamples"
        );
    }

    /// A selector whose columnar path panics.
    #[derive(Debug)]
    struct PanickingSelector;

    impl SplitSelector for PanickingSelector {
        fn select(&self, _: &Schema, _: &boat_tree::AvcGroup) -> Option<boat_tree::SplitEval> {
            None
        }

        fn select_columnar_ctx(
            &self,
            _: &ColumnarSample,
            _: &boat_tree::NodeRows,
            _: &[u32],
            _: &[u64],
            _: &boat_tree::ColumnarCtx<'_>,
        ) -> Option<boat_tree::SplitEval> {
            panic!("selector fault");
        }
    }

    #[test]
    fn a_panicking_bootstrap_build_is_an_error_not_a_panic() {
        let schema = schema();
        let sample = clean_sample(1000);
        // One repetition runs on this thread; four fan out over workers.
        for reps in [1, 4] {
            let cfg = BoatConfig {
                bootstrap_reps: reps,
                ..config()
            };
            let mut rng = StdRng::seed_from_u64(3);
            let result = build_coarse_tree(
                &schema,
                &sample,
                &PanickingSelector,
                &cfg,
                100_000,
                &mut rng,
                &Registry::new(),
            );
            match result {
                Err(DataError::Io(e)) => {
                    assert!(e.to_string().contains("selector fault"), "reps={reps}: {e}")
                }
                other => panic!("reps={reps}: expected an i/o error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bootstrap_limits_scale_with_dataset_size() {
        let mut cfg = config();
        cfg.in_memory_threshold = 1_500_000;
        cfg.bootstrap_sample_size = 50_000;
        // Paper scale: 10M tuples, threshold 1.5M, resample 50k
        // => scaled stop = 1.5M * 50k / 10M = 7500.
        let l = bootstrap_limits(&cfg, 10_000_000);
        assert_eq!(l.stop_family_size, Some(7_500));
        // Degenerate full_size.
        assert_eq!(bootstrap_limits(&cfg, 0).stop_family_size, Some(1));
    }
}

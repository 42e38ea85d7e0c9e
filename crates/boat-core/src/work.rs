//! The working tree: per-node cleanup state, the cleanup scan, and the
//! top-down verification pass (paper §3.3–§3.5).
//!
//! ## Routing invariant
//!
//! Stored per-node statistics cover exactly the tuples that *reached* the
//! node under the **parking rule**: at a node with a numeric coarse
//! criterion, a tuple whose splitting-attribute value lies inside the
//! closed confidence interval `[lo, hi]` is parked in the node's `S_n`
//! buffer and never contributes to descendant statistics. Final split
//! points therefore never influence stored state — which is what makes the
//! same state incrementally maintainable under insertions and deletions
//! (paper §4): the verification pass re-derives exact splits every time,
//! carrying parked ancestor tuples downward *transiently*.

use crate::buckets::{build_boundaries, BucketSet, ValueRuns};
use crate::coarse::{CoarseCriterion, CoarseTree};
use crate::config::BoatConfig;
use crate::verify::bucket_passes;
use boat_data::codec::RowLayout;
use boat_data::spill::SpillBuffer;
use boat_data::{AttrType, DataError, Fields, RecordChunk, RecordSource, Result, Schema};
use boat_obs::Registry;
use boat_tree::split::{best_categorical_split, cmp_splits, sweep_numeric};
use boat_tree::{
    CatAvc, ColumnarSample, GrowthLimits, Impurity, ImpuritySelector, NodeRows, SplitEval,
    SplitSelector, Tree,
};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stopping rules for a subtree grown at absolute depth `base_depth`.
pub(crate) fn limits_for_subtree(limits: GrowthLimits, base_depth: u32) -> GrowthLimits {
    GrowthLimits {
        max_depth: limits.max_depth.map(|d| d.saturating_sub(base_depth)),
        ..limits
    }
}

/// Per-node state accumulated during the cleanup scan (and maintained by
/// incremental updates).
pub(crate) struct NodeState {
    /// The node's split statistics.
    pub counts: NodeCounts,
    /// Parked tuples `S_n` (numeric criteria only).
    pub parked: Option<SpillBuffer>,
    /// Retained family records (frontier nodes that may need growth).
    pub family: Option<SpillBuffer>,
    /// Incremental: the node's retained records changed since last grow.
    pub dirty: bool,
}

impl NodeState {
    /// The buffer that holds the records whose walk stops at this node:
    /// `S_n` at a numeric node, the retained family at a frontier node.
    fn buffer(&mut self) -> Option<&mut SpillBuffer> {
        self.parked.as_mut().or(self.family.as_mut())
    }
}

/// The split statistics of one node. The cleanup routers count tuples into
/// zeroed copies, which [`NodeCounts::merge_from`] adds into the node's
/// counts and [`NodeCounts::subtract`] takes out of them for a delete. Every
/// cell is an integer count, so merging copies is exact in any order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeCounts {
    /// Per-class totals of tuples that reached this node (`N^i` minus
    /// ancestor-parked).
    pub class_totals: Vec<u64>,
    /// Full category/class counts, per categorical attribute (internal
    /// nodes only).
    pub cat: Vec<Option<CatAvc>>,
    /// Bucket counts, per numeric attribute (internal nodes only).
    pub buckets: Vec<Option<BucketSet>>,
    /// Class counts of tuples with splitting-attribute value `< lo`
    /// (numeric criteria only).
    pub edge_left: Vec<u64>,
}

impl NodeCounts {
    /// Zeroed counts over `k` classes with the given per-attribute slots
    /// (both empty at a frontier node).
    fn new(k: usize, cat: Vec<Option<CatAvc>>, buckets: Vec<Option<BucketSet>>) -> Self {
        NodeCounts {
            class_totals: vec![0; k],
            cat,
            buckets,
            edge_left: vec![0; k],
        }
    }

    /// Count `r`, which takes `step` at this node.
    fn add(&mut self, r: &impl Fields, step: Step) {
        self.add_unbucketed(r, step);
        let label = r.label();
        for (a, slot) in self.buckets.iter_mut().enumerate() {
            if let Some(b) = slot {
                b.add(r.num(a), label);
            }
        }
    }

    /// Count `r`, which takes `step` at this node, in every statistic but
    /// the numeric buckets: the cleanup scan counts those a column at a
    /// time ([`BucketSet::add_column`]).
    #[inline]
    fn add_unbucketed(&mut self, r: &impl Fields, step: Step) {
        let label = r.label();
        self.class_totals[label as usize] += 1;
        for (a, slot) in self.cat.iter_mut().enumerate() {
            if let Some(avc) = slot {
                avc.add(r.cat(a), label);
            }
        }
        if step == Step::LeftEdge {
            self.edge_left[label as usize] += 1;
        }
    }

    /// Counts of the same shape with every cell zero.
    fn zeroed_like(&self) -> Self {
        NodeCounts::new(
            self.class_totals.len(),
            self.cat
                .iter()
                .map(|s| s.as_ref().map(CatAvc::zeroed_like))
                .collect(),
            self.buckets
                .iter()
                .map(|s| s.as_ref().map(BucketSet::zeroed_like))
                .collect(),
        )
    }

    /// Add every cell of `other`, which has the same shape, into `self`.
    fn merge_from(&mut self, other: &NodeCounts) {
        for (a, b) in self.class_totals.iter_mut().zip(&other.class_totals) {
            *a += b;
        }
        for (a, b) in self.edge_left.iter_mut().zip(&other.edge_left) {
            *a += b;
        }
        for (slot, other) in self.cat.iter_mut().zip(&other.cat) {
            if let (Some(avc), Some(o)) = (slot.as_mut(), other.as_ref()) {
                avc.merge_from(o);
            }
        }
        for (slot, other) in self.buckets.iter_mut().zip(&other.buckets) {
            if let (Some(b), Some(o)) = (slot.as_mut(), other.as_ref()) {
                b.merge_from(o);
            }
        }
    }

    /// Whether every cell of `self` is at least the same cell of `other`,
    /// which has the same shape: whether [`NodeCounts::subtract`] of `other`
    /// leaves every cell non-negative.
    fn covers(&self, other: &NodeCounts) -> bool {
        let at_least = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(a, b)| a >= b);
        at_least(&self.class_totals, &other.class_totals)
            && at_least(&self.edge_left, &other.edge_left)
            && self.cat.iter().zip(&other.cat).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => a.covers(b),
                _ => true,
            })
            && self
                .buckets
                .iter()
                .zip(&other.buckets)
                .all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => a.covers(b),
                    _ => true,
                })
    }

    /// Subtract every cell of `other`, which `self` [covers](NodeCounts::covers):
    /// the inverse of [`NodeCounts::merge_from`].
    fn subtract(&mut self, other: &NodeCounts) {
        for (a, b) in self.class_totals.iter_mut().zip(&other.class_totals) {
            *a -= b;
        }
        for (a, b) in self.edge_left.iter_mut().zip(&other.edge_left) {
            *a -= b;
        }
        for (slot, other) in self.cat.iter_mut().zip(&other.cat) {
            if let (Some(avc), Some(o)) = (slot.as_mut(), other.as_ref()) {
                avc.subtract(o);
            }
        }
        for (slot, other) in self.buckets.iter_mut().zip(&other.buckets) {
            if let (Some(b), Some(o)) = (slot.as_mut(), other.as_ref()) {
                b.subtract(o);
            }
        }
    }

    /// Whether the counts hold no tuple. Every tuple a walk visits counts in
    /// the class totals, so this is whether no walk visited the node.
    fn is_empty(&self) -> bool {
        self.class_totals.iter().all(|&c| c == 0)
    }
}

/// Where one tuple goes at one node under the parking rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Numeric criterion, value below the interval: the left child, and
    /// the tuple counts in `edge_left`.
    LeftEdge,
    /// Categorical criterion, category in the subset: the left child.
    Left,
    /// The right child.
    Right,
    /// Numeric criterion, value inside the closed interval: the tuple
    /// parks in `S_n` and goes no further.
    Park,
    /// Frontier node: the walk ends here.
    Leaf,
}

impl Step {
    /// The step `r` takes at a node with criterion `crit`.
    #[inline]
    fn of(crit: Option<&CoarseCriterion>, r: &impl Fields) -> Step {
        match crit {
            None => Step::Leaf,
            Some(CoarseCriterion::Num { attr, lo, hi }) => {
                let v = r.num(*attr);
                if v < *lo {
                    Step::LeftEdge
                } else if v <= *hi {
                    Step::Park
                } else {
                    Step::Right
                }
            }
            Some(CoarseCriterion::Cat { attr, subset }) => {
                if subset.contains(r.cat(*attr)) {
                    Step::Left
                } else {
                    Step::Right
                }
            }
        }
    }

    /// The child of a node with children `left` and `right` that a tuple
    /// taking this step moves to; `None` where its walk stops.
    #[inline]
    fn child(self, left: Option<usize>, right: Option<usize>) -> Option<usize> {
        match self {
            Step::LeftEdge | Step::Left => Some(left.expect("internal")),
            Step::Right => Some(right.expect("internal")),
            Step::Park | Step::Leaf => None,
        }
    }
}

/// How a node was resolved by the verification pass.
#[derive(Debug, Clone)]
pub(crate) enum Resolution {
    /// Not yet finalized.
    Pending,
    /// The stopping rules make this a leaf of the final tree.
    Leaf { counts: Vec<u64> },
    /// The coarse criterion was verified; this is the exact final split.
    Split { eval: SplitEval },
    /// Frontier leaf that needs growth (records via its family buffer or a
    /// collection scan).
    Frontier { counts: Vec<u64> },
    /// Verification failed; the subtree must be rebuilt (paper §3.4).
    Failed { counts: Vec<u64> },
}

impl Resolution {
    /// The exact family class counts, when resolved.
    pub fn counts(&self) -> Option<&[u64]> {
        match self {
            Resolution::Pending => None,
            Resolution::Leaf { counts }
            | Resolution::Frontier { counts }
            | Resolution::Failed { counts } => Some(counts),
            Resolution::Split { eval } => {
                // Split stores the partition counts; totals are derivable,
                // so report nothing here (callers use the children).
                let _ = eval;
                None
            }
        }
    }
}

/// Why the verification pass failed a node; each reason has its own
/// counter beside `boat.verify.fail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailReason {
    /// No valid split inside the interval, or the categorical criterion's
    /// exact subset is not the family's best.
    Mismatch,
    /// Another categorical attribute beats the chosen split.
    Categorical,
    /// The exact candidate at a bucket boundary beats the chosen split.
    Boundary,
    /// A bucket's Lemma 3.1 bound admits a better interior candidate.
    Interior,
}

impl FailReason {
    fn counter(self) -> &'static str {
        match self {
            FailReason::Mismatch => "boat.verify.fail.mismatch",
            FailReason::Categorical => "boat.verify.fail.categorical",
            FailReason::Boundary => "boat.verify.fail.boundary",
            FailReason::Interior => "boat.verify.fail.interior",
        }
    }
}

/// A pending completion job produced by the verification pass.
pub(crate) struct Job {
    /// Work-tree node index.
    pub idx: usize,
    /// Ancestor-parked tuples routed into this node by final splits, as
    /// encoded rows back to back.
    pub carried: Vec<u8>,
    /// Fingerprint of `carried` (for grown-subtree reuse).
    pub carried_fp: u64,
}

/// One node of the working tree.
pub(crate) struct WorkNode {
    pub crit: Option<CoarseCriterion>,
    pub left: Option<usize>,
    pub right: Option<usize>,
    pub depth: u32,
    pub state: NodeState,
    pub resolution: Resolution,
    /// Completed subtree for Frontier/Failed nodes.
    pub grown: Option<Tree>,
    /// Fingerprint of the carried set the grown subtree was built with.
    pub grown_carried_fp: Option<u64>,
}

/// The working tree: coarse structure + cleanup state + resolutions.
pub(crate) struct WorkTree {
    pub schema: Arc<Schema>,
    /// The layout of the schema's encoded rows, which every buffer, carried
    /// set and completion family holds.
    pub layout: RowLayout,
    pub nodes: Vec<WorkNode>,
    /// Observability registry (shared with the owning `Boat`): cleanup-shard
    /// timers, merge spans, verification-verdict counters and the spill
    /// buffers' `data.spill.*` traffic record here.
    pub metrics: Registry,
}

/// What the cleanup routers read of one node: its criterion, its children
/// and whether a walk that stops here deposits its row. A copy, so the
/// routers can walk it while the main thread fills the node's buffers.
struct RouteNode {
    crit: Option<CoarseCriterion>,
    left: Option<usize>,
    right: Option<usize>,
    /// The node parks `S_n` or retains its frontier family.
    keeps: bool,
    /// The node keeps bucket counts of some numeric attribute.
    buckets: bool,
}

impl RouteNode {
    fn of(node: &WorkNode) -> Self {
        RouteNode {
            crit: node.crit.clone(),
            left: node.left,
            right: node.right,
            keeps: node.state.parked.is_some() || node.state.family.is_some(),
            buckets: node.state.counts.buckets.iter().any(Option::is_some),
        }
    }
}

/// Thread-local accumulator for one worker of the parallel cleanup scan.
///
/// A shard holds zeroed clones of every node's statistics and routes
/// encoded rows against a copy of the work tree's coarse structure.
/// Routing a row updates the shard only; rows the scan stores in a spill
/// buffer (parked `S_n` tuples, retained frontier families) are emitted as
/// *deposits* — the node index as 4 little-endian bytes, then the row —
/// which the main thread hands on in chunk order. Two invariants make the
/// reduction exact (see [`WorkTree::route`]):
///
/// * every statistic is an integer count, so shard merges are associative
///   and commutative — any merge order is bit-identical to one serial
///   accumulation;
/// * deposits preserve row order within a chunk, and chunks are handed on
///   in ascending index (= serial scan order), so every spill buffer
///   receives its rows in scan order, at every thread count and chunk
///   size.
pub(crate) struct CleanupShard {
    nodes: Vec<NodeCounts>,
    /// Per node with buckets, the rows of the chunk in hand that visited
    /// it, by index. Emptied by each chunk's count; the capacity stays.
    visits: Vec<Vec<usize>>,
    /// One bucketed column of a node's visitors, and their labels.
    values: Vec<f64>,
    labels: Vec<u16>,
    /// Nanoseconds spent in each pass of [`CleanupShard::route_chunk`].
    walk_ns: u64,
    count_ns: u64,
}

impl CleanupShard {
    /// A shard with zeroed counts of the shape of `nodes`' counts.
    fn new(nodes: &[WorkNode]) -> Self {
        CleanupShard {
            nodes: nodes.iter().map(|n| n.state.counts.zeroed_like()).collect(),
            visits: vec![Vec::new(); nodes.len()],
            values: Vec::new(),
            labels: Vec::new(),
            walk_ns: 0,
            count_ns: 0,
        }
    }

    /// Check every row of `chunk`, then route them all and return the
    /// chunk's deposits. A chunk holding a row that fails
    /// [`RowLayout::check`] fails whole with that error: none of its counts
    /// move and it deposits nothing.
    ///
    /// Routing takes two passes over the chunk. The walk takes each row
    /// down `tree` in scan order: it counts the row at every node on its
    /// path in all but the numeric buckets, deposits it where the walk
    /// stops at a node that keeps it, and notes it in the visits of every
    /// node with buckets. The count then gathers, for each such node and
    /// bucketed attribute, the visitors' values into one column and counts
    /// the column with [`BucketSet::add_column`].
    fn route_chunk(
        &mut self,
        tree: &[RouteNode],
        layout: &RowLayout,
        chunk: &RecordChunk,
    ) -> Result<Vec<u8>> {
        let t_walk = Instant::now();
        chunk.check_width(layout.width())?;
        let mut deposits = Vec::new();
        for (i, row) in layout.rows(&chunk.bytes)?.enumerate() {
            let mut idx = 0usize;
            loop {
                let node = &tree[idx];
                let step = Step::of(node.crit.as_ref(), &row);
                self.nodes[idx].add_unbucketed(&row, step);
                if node.buckets {
                    self.visits[idx].push(i);
                }
                match step.child(node.left, node.right) {
                    Some(child) => idx = child,
                    None => {
                        if node.keeps {
                            deposits.extend_from_slice(&(idx as u32).to_le_bytes());
                            deposits.extend_from_slice(row.bytes());
                        }
                        break;
                    }
                }
            }
        }
        let t_count = Instant::now();
        self.walk_ns = self.walk_ns.saturating_add(nanos(t_count - t_walk));

        let width = layout.width();
        let row = |i: usize| &chunk.bytes[i * width..(i + 1) * width];
        for (counts, visits) in self.nodes.iter_mut().zip(&mut self.visits) {
            if visits.is_empty() {
                continue;
            }
            self.labels.clear();
            self.labels
                .extend(visits.iter().map(|&i| layout.label(row(i))));
            for (a, slot) in counts.buckets.iter_mut().enumerate() {
                if let Some(buckets) = slot {
                    self.values.clear();
                    self.values
                        .extend(visits.iter().map(|&i| layout.num(row(i), a)));
                    buckets.add_column(&self.values, &self.labels);
                }
            }
            visits.clear();
        }
        self.count_ns = self.count_ns.saturating_add(nanos(t_count.elapsed()));
        Ok(deposits)
    }
}

/// `d` in whole nanoseconds, saturating at `u64::MAX`.
fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// The spill-bound output of routing one input chunk through a shard.
struct RoutedChunk {
    /// Chunk index in scan order (restores the serial application order).
    index: usize,
    /// The chunk's deposits in within-chunk scan order, or its first bad
    /// row.
    deposits: Result<Vec<u8>>,
}

/// Routed chunks waiting for their turn. Chunk `next`'s deposits are handed
/// on as soon as it arrives, then those of every chunk already waiting
/// behind it, so for an in-order source deposits wait only as long as the
/// chunks in flight. An index that arrives twice fails the scan instead of
/// replacing the deposits of a chunk whose counts are already in a shard.
#[derive(Default)]
struct Reorder {
    next: usize,
    waiting: BTreeMap<usize, Result<Vec<u8>>>,
    /// The first failure in chunk order; nothing is handed on after it.
    error: Option<DataError>,
}

impl Reorder {
    /// Take `routed`, then hand every chunk whose turn has come to `take`.
    fn accept(&mut self, routed: RoutedChunk, mut take: impl FnMut(Vec<u8>) -> Result<()>) {
        if self.error.is_some() {
            return;
        }
        if routed.index < self.next || self.waiting.insert(routed.index, routed.deposits).is_some()
        {
            self.error = Some(DataError::Invalid(format!(
                "chunked scan repeated chunk index {}",
                routed.index
            )));
            self.waiting.clear();
            return;
        }
        while let Some(deposits) = self.waiting.remove(&self.next) {
            self.next += 1;
            if let Err(e) = deposits.and_then(&mut take) {
                self.error = Some(e);
                self.waiting.clear();
                return;
            }
        }
    }
}

/// An update's chunk, routed down the tree but not yet applied
/// ([`WorkTree::route_batch`]).
pub(crate) struct Batch {
    /// Per node, the counts of the batch's tuples that visit it.
    counts: Vec<NodeCounts>,
    /// Per node, the encoded rows whose walk stops there, back to back in
    /// scan order: empty at a node that keeps no buffer.
    rows: Vec<Vec<u8>>,
}

impl Batch {
    /// The records in the batch: every walk starts at the root.
    pub fn len(&self) -> u64 {
        self.counts[0].class_totals.iter().sum()
    }
}

/// The `(node, row)` pairs of a chunk's deposits, for rows of `width` bytes.
fn split_deposits(deposits: &[u8], width: usize) -> impl Iterator<Item = (usize, &[u8])> {
    deposits.chunks_exact(4 + width).map(|deposit| {
        let (idx, row) = deposit.split_at(4);
        let idx = u32::from_le_bytes(idx.try_into().expect("4-byte node index"));
        (idx as usize, row)
    })
}

impl WorkTree {
    /// Prepare a working tree from the coarse tree and the presorted
    /// columnar sample: route the sample down the coarse structure (numeric
    /// criteria route by interval midpoint), estimate family sizes, widen
    /// the numeric intervals, build per-node discretizations, and allocate
    /// cleanup state.
    ///
    /// Every node's sample family is a [`NodeRows`] split from its parent's
    /// by the rank-preserving partition, so each numeric attribute's runs
    /// come from one linear pass over an already sorted list, and the
    /// node's minimum-impurity estimate from the columnar split search.
    ///
    /// `retain_all_families` keeps family buffers at *every* frontier node
    /// (needed for incremental maintenance); otherwise only frontier nodes
    /// expected to need growth retain records: not those whose sample
    /// family is a single class, nor those the stopping rules are expected
    /// to stop.
    #[allow(clippy::too_many_arguments)] // construction-time plumbing
    pub fn prepare(
        coarse: &CoarseTree,
        schema: Arc<Schema>,
        sample: &ColumnarSample,
        imp: &dyn Impurity,
        config: &BoatConfig,
        full_size: u64,
        retain_all_families: bool,
        metrics: Registry,
    ) -> WorkTree {
        let n = sample.n_rows();
        let scale = if n == 0 {
            0.0
        } else {
            full_size as f64 / n as f64
        };
        let k = schema.n_classes();
        let ones = vec![1u32; n];
        let selector = ImpuritySelector::new(ErasedImpurity(imp));
        let new_buffer = || {
            SpillBuffer::new_in(
                schema.clone(),
                config.spill_budget,
                &metrics,
                config.spill_dir.clone(),
            )
        };
        let mut in_left = vec![false; n];
        let mut built: Vec<Option<WorkNode>> = (0..coarse.len()).map(|_| None).collect();
        let mut stack = vec![(0usize, NodeRows::root(sample, &ones))];
        while let Some((i, rows)) = stack.pop() {
            let cn = &coarse.nodes[i];
            let mut totals = vec![0u64; k];
            for &row in &rows.rows {
                totals[sample.label(row) as usize] += 1;
            }
            let (crit, state) = match &cn.crit {
                Some(coarse_crit) => {
                    // Internal: estimate the node's minimum impurity from
                    // the sample, widen the interval and discretize every
                    // numeric attribute from its runs.
                    let est_min = selector
                        .select_columnar(sample, &rows, &ones, &totals)
                        .map_or(0.0, |e| e.impurity);
                    let (crit, counts) = internal_counts(
                        coarse_crit.clone(),
                        sample,
                        &rows,
                        &totals,
                        est_min,
                        imp,
                        config,
                    );
                    // The sample routes by the coarse criterion, numeric
                    // ones at the interval midpoint.
                    for &row in &rows.rows {
                        in_left[row as usize] = match coarse_crit {
                            CoarseCriterion::Num { attr, lo, hi } => {
                                sample.num_column(*attr)[row as usize] <= 0.5 * (lo + hi)
                            }
                            CoarseCriterion::Cat { attr, subset } => {
                                subset.contains(sample.cat_column(*attr)[row as usize])
                            }
                        };
                    }
                    let (left, right) = rows.partition(&in_left);
                    for &row in &left.rows {
                        in_left[row as usize] = false;
                    }
                    stack.push((cn.right.expect("internal"), right));
                    stack.push((cn.left.expect("internal"), left));
                    let parked = matches!(crit, CoarseCriterion::Num { .. }).then(new_buffer);
                    let state = NodeState {
                        counts,
                        parked,
                        family: None,
                        dirty: false,
                    };
                    (Some(crit), state)
                }
                None => {
                    // Frontier: decide whether to retain family records. A
                    // sample family of one class bets that the node is a
                    // pure leaf, which its class counts settle without its
                    // records; a lost bet costs one collection scan.
                    let sample_pure = totals.iter().filter(|&&c| c > 0).count() == 1;
                    let est_family = (rows.len() as f64 * scale).round() as u64;
                    let keep = retain_all_families
                        || (!sample_pure
                            && match config.limits.stop_family_size {
                                None => true,
                                Some(t) => est_family.saturating_mul(2) > t,
                            });
                    let state = NodeState {
                        counts: NodeCounts::new(k, Vec::new(), Vec::new()),
                        parked: None,
                        family: keep.then(new_buffer),
                        dirty: false,
                    };
                    (None, state)
                }
            };
            built[i] = Some(WorkNode {
                crit,
                left: cn.left,
                right: cn.right,
                depth: cn.depth,
                state,
                resolution: Resolution::Pending,
                grown: None,
                grown_carried_fp: None,
            });
        }
        let nodes = built
            .into_iter()
            .map(|node| node.expect("every coarse node is reachable from the root"))
            .collect();
        WorkTree {
            layout: RowLayout::new(&schema),
            schema,
            nodes,
            metrics,
        }
    }

    /// The cleanup scan: route every row of `source` down the tree and add
    /// the counts the routers took into the tree's, applying each chunk's
    /// deposits (parked `S_n` tuples and retained frontier-family records)
    /// in chunk order as the scan goes. The state is bit-identical at every
    /// thread count and chunk size.
    pub fn parallel_cleanup(
        &mut self,
        source: &dyn RecordSource,
        threads: usize,
        chunk_size: usize,
    ) -> Result<()> {
        let counts = self.route(source, threads, chunk_size, |tree, deposits| {
            tree.apply_deposits(&deposits)
        })?;
        self.apply_counts(&counts, false);
        Ok(())
    }

    /// Route every row of `source` down the tree with the cleanup routers
    /// and return the counts they took, one per node, summed over routers.
    /// The tree's counts do not move; each chunk's deposits go to `deposit`
    /// in chunk order.
    ///
    /// The main thread drives the sequential chunked scan (I/O stays one
    /// sequential pass, exactly as the paper requires) and fans
    /// [`RecordChunk`]s of encoded rows out over a bounded channel to at
    /// most `threads` scoped routers (at least one, and no more than the
    /// source has chunks). Each router checks and routes its chunks' rows in
    /// place down a private [`CleanupShard`] and sends back per-chunk
    /// deposits. Between sends the main thread hands on deposits in
    /// ascending chunk index as they become ready; after the scan, shard
    /// statistics sum in any order (integer sums). A row that fails
    /// [`RowLayout::check`] fails the scan with [`DataError::Corrupt`]; the
    /// first such row in scan order is the one reported.
    fn route(
        &mut self,
        source: &dyn RecordSource,
        threads: usize,
        chunk_size: usize,
        mut deposit: impl FnMut(&mut WorkTree, Vec<u8>) -> Result<()>,
    ) -> Result<Vec<NodeCounts>> {
        let chunks = source.len().div_ceil(chunk_size.max(1) as u64);
        let threads = threads.clamp(1, usize::try_from(chunks).unwrap_or(usize::MAX).max(1));
        // Per-shard accumulation is local (plain u64s); each worker records
        // once at exit, so the histograms describe how route time and
        // queue-wait distribute *across shards* without hot-path atomics.
        let route_hist = self.metrics.histogram("boat.cleanup.shard_route");
        let walk_hist = self.metrics.histogram("boat.cleanup.walk");
        let count_hist = self.metrics.histogram("boat.cleanup.count");
        let wait_hist = self.metrics.histogram("boat.cleanup.queue_wait");
        let chunks_counter = self.metrics.counter("boat.cleanup.chunks");
        let routed_counter = self.metrics.counter("boat.cleanup.records_routed");
        let layout = self.layout.clone();
        let routes: Vec<RouteNode> = self.nodes.iter().map(RouteNode::of).collect();
        let mut shards: Vec<CleanupShard> = (0..threads)
            .map(|_| CleanupShard::new(&self.nodes))
            .collect();
        let mut order = Reorder::default();
        let mut scan_err: Option<DataError> = None;
        {
            let (chunk_tx, chunk_rx) = std::sync::mpsc::sync_channel::<RecordChunk>(2 * threads);
            let (out_tx, out_rx) = std::sync::mpsc::channel::<RoutedChunk>();
            // Only the routers hold the receiver. Once the last one exits,
            // even by panicking, `send` below fails instead of blocking on a
            // full channel, and the scope re-raises the router's panic.
            let chunk_rx = Arc::new(Mutex::new(chunk_rx));
            let (routes, layout) = (&routes, &layout);
            std::thread::scope(|scope| {
                for shard in shards.iter_mut() {
                    let rx = Arc::clone(&chunk_rx);
                    let tx = out_tx.clone();
                    let route_hist = route_hist.clone();
                    let walk_hist = walk_hist.clone();
                    let count_hist = count_hist.clone();
                    let wait_hist = wait_hist.clone();
                    let chunks_counter = chunks_counter.clone();
                    let routed_counter = routed_counter.clone();
                    scope.spawn(move || {
                        let (mut route_ns, mut wait_ns) = (0u64, 0u64);
                        let (mut n_chunks, mut n_routed) = (0u64, 0u64);
                        loop {
                            let t_wait = Instant::now();
                            let next = {
                                let guard = rx.lock().expect("chunk channel lock");
                                guard.recv()
                            };
                            wait_ns = wait_ns.saturating_add(nanos(t_wait.elapsed()));
                            let Ok(chunk) = next else { break };
                            let t_route = Instant::now();
                            n_routed += chunk.len() as u64;
                            let deposits = shard.route_chunk(routes, layout, &chunk);
                            route_ns = route_ns.saturating_add(nanos(t_route.elapsed()));
                            n_chunks += 1;
                            let routed = RoutedChunk {
                                index: chunk.index,
                                deposits,
                            };
                            if tx.send(routed).is_err() {
                                break;
                            }
                        }
                        route_hist.record(route_ns);
                        walk_hist.record(shard.walk_ns);
                        count_hist.record(shard.count_ns);
                        wait_hist.record(wait_ns);
                        chunks_counter.add(n_chunks);
                        routed_counter.add(n_routed);
                    });
                }
                drop(chunk_rx);
                drop(out_tx);
                // Produce chunks on this thread: the scan itself is a
                // single sequential pass over the source. After each send,
                // hand on whatever the routers have finished.
                match source.scan_chunks(chunk_size) {
                    Ok(chunks) => {
                        for chunk in chunks {
                            match chunk {
                                Ok(c) => {
                                    if chunk_tx.send(c).is_err() {
                                        break;
                                    }
                                }
                                Err(e) => {
                                    scan_err = Some(e);
                                    break;
                                }
                            }
                            for routed in out_rx.try_iter() {
                                order.accept(routed, |d| deposit(self, d));
                            }
                            if order.error.is_some() {
                                break;
                            }
                        }
                    }
                    Err(e) => scan_err = Some(e),
                }
                drop(chunk_tx); // workers drain the channel and exit
                for routed in out_rx {
                    order.accept(routed, |d| deposit(self, d));
                }
            });
        }
        // A bad row reached in chunk order precedes a scan error, which
        // ends the chunks the scan delivered.
        if let Some(e) = order.error.or(scan_err) {
            return Err(e);
        }
        if !order.waiting.is_empty() {
            return Err(DataError::Invalid(format!(
                "chunked scan skipped chunk index {}",
                order.next
            )));
        }
        // Shard order is fixed for good measure, though any order produces
        // identical counts.
        let merge_span = self.metrics.span("boat.cleanup.merge");
        let mut shards = shards.into_iter();
        let mut counts = shards.next().expect("at least one router").nodes;
        for shard in shards {
            for (sum, counted) in counts.iter_mut().zip(&shard.nodes) {
                sum.merge_from(counted);
            }
        }
        merge_span.finish();
        Ok(counts)
    }

    /// Add `counts`, one per node, into the tree's counts, or subtract them
    /// for a delete, and mark dirty every node where they count a tuple.
    fn apply_counts(&mut self, counts: &[NodeCounts], delete: bool) {
        debug_assert_eq!(self.nodes.len(), counts.len(), "counts shape mismatch");
        for (node, counts) in self.nodes.iter_mut().zip(counts) {
            if counts.is_empty() {
                continue;
            }
            node.state.dirty = true;
            if delete {
                node.state.counts.subtract(counts);
            } else {
                node.state.counts.merge_from(counts);
            }
        }
    }

    /// Apply one chunk's deposits to the buffers, copying each row's bytes
    /// as they are: no row is decoded. The cleanup scan applies chunks in
    /// ascending chunk index, i.e. scan order.
    fn apply_deposits(&mut self, deposits: &[u8]) -> Result<()> {
        for (idx, row) in split_deposits(deposits, self.layout.width()) {
            self.nodes[idx]
                .state
                .buffer()
                .expect("deposits go only to nodes with a buffer")
                .push_row(row)?;
        }
        Ok(())
    }

    /// Route the chunk `source` of an update down the tree as the cleanup
    /// scan routes its input, and hold what it would change: the counts the
    /// routers took and, per node, the rows whose walk stops there. Nothing
    /// in the tree changes until [`WorkTree::apply`]; a malformed row or a
    /// failed read fails the call.
    pub fn route_batch(
        &mut self,
        source: &dyn RecordSource,
        threads: usize,
        chunk_size: usize,
    ) -> Result<Batch> {
        let width = self.layout.width();
        let mut rows = vec![Vec::new(); self.nodes.len()];
        let counts = self.route(source, threads, chunk_size, |_, deposits| {
            for (idx, row) in split_deposits(&deposits, width) {
                rows[idx].extend_from_slice(row);
            }
            Ok(())
        })?;
        Ok(Batch { counts, rows })
    }

    /// Check that `batch` can be deleted: the tree's counts must cover the
    /// batch's at every node, cell by cell, and every buffer the batch's
    /// walks stop at must hold the batch's rows there as a multiset
    /// ([`SpillBuffer::contains_all`]). Counts only go down in a delete, so
    /// this holds exactly when deleting the batch's records one at a time,
    /// in scan order, would find each of them present. A failure is
    /// [`DataError::Invalid`]. Changes nothing: reading a spilled buffer
    /// only flushes its writer.
    pub fn check_delete(&mut self, batch: &Batch) -> Result<()> {
        let uncovered = (self.nodes.iter().zip(&batch.counts))
            .position(|(node, counts)| !node.state.counts.covers(counts));
        if let Some(i) = uncovered {
            return Err(DataError::Invalid(format!(
                "deletion of a record not counted at node {i}"
            )));
        }
        for (i, (node, rows)) in self.nodes.iter_mut().zip(&batch.rows).enumerate() {
            if rows.is_empty() {
                continue;
            }
            let buf = node
                .state
                .buffer()
                .expect("rows stop only at nodes with a buffer");
            if !buf.contains_all(rows)? {
                return Err(DataError::Invalid(format!(
                    "deletion of a record missing from the S_n or frontier family of node {i}"
                )));
            }
        }
        Ok(())
    }

    /// Apply a routed `batch`. An insert adds its counts and pushes its rows
    /// onto their buffers in scan order, which leaves the state routing the
    /// same rows in the cleanup scan would. A delete, checked first by
    /// [`WorkTree::check_delete`], subtracts its counts and removes its rows
    /// with one [`SpillBuffer::remove_many`] per touched buffer: one read
    /// and one rewrite of a spilled buffer, not one per deleted record, and
    /// the buffer ends as one-record removals in scan order would leave it.
    pub fn apply(&mut self, batch: Batch, delete: bool) -> Result<()> {
        self.apply_counts(&batch.counts, delete);
        let width = self.layout.width();
        for (node, rows) in self.nodes.iter_mut().zip(batch.rows) {
            if rows.is_empty() {
                continue;
            }
            let buf = node
                .state
                .buffer()
                .expect("rows stop only at nodes with a buffer");
            if !delete {
                for row in rows.chunks_exact(width) {
                    buf.push_row(row)?;
                }
            } else if buf.remove_many(&rows)? != (rows.len() / width) as u64 {
                return Err(DataError::Invalid(
                    "batch delete failed to remove a checked record".into(),
                ));
            }
        }
        Ok(())
    }

    /// The verification / finalization pass: walk the tree top-down,
    /// re-derive every exact split, verify the coarse criteria, resolve
    /// every node, and emit completion [`Job`]s for frontier and failed
    /// nodes. Idempotent with respect to stored state.
    pub fn finalize(&mut self, imp: &dyn Impurity, limits: GrowthLimits) -> Result<Vec<Job>> {
        for node in &mut self.nodes {
            node.resolution = Resolution::Pending;
        }
        let mut jobs = Vec::new();
        self.finalize_node(0, Vec::new(), imp, limits, &mut jobs)?;
        Ok(jobs)
    }

    /// Resolve node `idx`, whose ancestors parked the encoded rows
    /// `carried` on their way down to it.
    fn finalize_node(
        &mut self,
        idx: usize,
        carried: Vec<u8>,
        imp: &dyn Impurity,
        limits: GrowthLimits,
        jobs: &mut Vec<Job>,
    ) -> Result<()> {
        let depth = self.nodes[idx].depth;
        let k = self.schema.n_classes();

        // Full-family statistics: the stored counts plus every carried
        // ancestor-parked tuple, counted as if it had reached this node.
        // Carried tuples that park here join the interval sweep.
        let crit = self.nodes[idx].crit.clone();
        let mut full = self.nodes[idx].state.counts.clone();
        let mut interval_pairs: Vec<(f64, u16)> = Vec::new();
        for r in self.layout.rows(&carried)? {
            let step = Step::of(crit.as_ref(), &r);
            full.add(&r, step);
            if let (Step::Park, Some(CoarseCriterion::Num { attr, .. })) = (step, &crit) {
                interval_pairs.push((r.num(*attr), r.label()));
            }
        }
        let combined = full.class_totals.clone();

        if limits.must_stop(&combined, depth) {
            self.metrics.counter("boat.verify.leaf").inc();
            self.nodes[idx].resolution = Resolution::Leaf { counts: combined };
            return Ok(());
        }

        let Some(crit) = crit else {
            let fp = fingerprint(&carried, self.layout.width());
            self.metrics.counter("boat.verify.frontier").inc();
            self.nodes[idx].resolution = Resolution::Frontier { counts: combined };
            jobs.push(Job {
                idx,
                carried,
                carried_fp: fp,
            });
            return Ok(());
        };

        // ---- derive the exact split for the coarse criterion ----
        // A numeric node's parked set is read once: its values feed the
        // interval sweep, and on success the same rows route down.
        let mut parked: Vec<u8> = Vec::new();
        let chosen: Option<SplitEval> = match &crit {
            CoarseCriterion::Cat { attr, subset } => {
                let avc = full.cat[*attr].as_ref().expect("cat attr has AVC");
                match best_categorical_split(*attr, avc, imp) {
                    Some(eval) => {
                        let same = matches!(
                            eval.split.predicate,
                            boat_tree::Predicate::CatIn(s) if s == *subset
                        );
                        same.then_some(eval)
                    }
                    None => None,
                }
            }
            CoarseCriterion::Num { attr, .. } => {
                let mut pairs = interval_pairs;
                let buf = self.nodes[idx]
                    .state
                    .parked
                    .as_mut()
                    .expect("numeric node parks");
                pairs.reserve(buf.len() as usize);
                parked.reserve(buf.len() as usize * self.layout.width());
                buf.for_each_row(|r| {
                    pairs.push((r.num(*attr), r.label()));
                    parked.extend_from_slice(r.bytes());
                })?;
                let mut runs = ValueRuns::new(k);
                runs.fill_from_pairs(&mut pairs);
                sweep_numeric(
                    *attr,
                    runs.iter(),
                    Some(&full.edge_left),
                    None,
                    &combined,
                    imp,
                )
            }
        };

        let Some(chosen) = chosen else {
            return self.fail_node(idx, carried, combined, FailReason::Mismatch, jobs);
        };

        // ---- cross-attribute verification ----
        let mut failure: Option<FailReason> = None;
        'attrs: for a in 0..self.schema.n_attributes() {
            match self.schema.attribute(a).ty() {
                AttrType::Categorical { .. } => {
                    if a == chosen.split.attr {
                        continue;
                    }
                    let avc = full.cat[a].as_ref().expect("cat attr has AVC");
                    if let Some(cand) = best_categorical_split(a, avc, imp) {
                        if cmp_splits(&cand, &chosen) == Ordering::Less {
                            failure = Some(FailReason::Categorical);
                            break 'attrs;
                        }
                    }
                }
                AttrType::Numeric => {
                    let bset = full.buckets[a].as_ref().expect("numeric attr has buckets");
                    let stamps = bset.stamps();
                    let boundaries = bset.boundaries();
                    // For the splitting attribute, candidates inside the
                    // closed interval `[lo, hi]` were examined exactly —
                    // skip those buckets entirely, and skip the *exact
                    // boundary candidate* of any boundary inside the
                    // interval (the sweep already evaluated it).
                    let interval = match &crit {
                        CoarseCriterion::Num { attr, lo, hi } if *attr == a => Some((*lo, *hi)),
                        _ => None,
                    };
                    let n_total: u64 = combined.iter().sum();
                    for b in 0..bset.n_buckets() {
                        if bset.bucket_counts(b).iter().all(|&c| c == 0) {
                            continue; // no candidate split points inside
                        }
                        let upper = if b < boundaries.len() {
                            boundaries[b]
                        } else {
                            f64::INFINITY
                        };
                        let lower = if b == 0 {
                            f64::NEG_INFINITY
                        } else {
                            boundaries[b - 1]
                        };
                        if let Some((lo_v, hi_v)) = interval {
                            if lower >= lo_v && upper <= hi_v {
                                continue; // fully inside: exactly examined
                            }
                        }
                        let (exact_upper, interior) =
                            bset.bucket_bound_parts_with(&stamps, b, &combined, imp);
                        // Exact candidate at the upper boundary value:
                        // compare tie-aware through the same total order the
                        // reference builder uses (equal impurity does not
                        // invalidate the chosen split unless the candidate
                        // also wins the tie-break).
                        let upper_in_interval =
                            interval.is_some_and(|(lo_v, hi_v)| upper >= lo_v && upper <= hi_v);
                        if let Some(stamp) = exact_upper {
                            let left_n: u64 = stamp.iter().sum();
                            if !upper_in_interval && left_n > 0 && left_n < n_total {
                                let right: Vec<u64> =
                                    combined.iter().zip(&stamp).map(|(t, s)| t - s).collect();
                                let impurity = boat_tree::split_impurity(imp, &stamp, &right);
                                let cand = SplitEval {
                                    split: boat_tree::Split {
                                        attr: a,
                                        predicate: boat_tree::Predicate::NumLe(upper),
                                    },
                                    impurity,
                                    left_counts: stamp,
                                    right_counts: right,
                                };
                                if cmp_splits(&cand, &chosen) == Ordering::Less {
                                    failure = Some(FailReason::Boundary);
                                    break 'attrs;
                                }
                            }
                        }
                        // Interior candidates (strictly between boundaries):
                        // Lemma 3.1 corner bound, tie-aware. A candidate in
                        // this bucket wins an exact tie against the chosen
                        // split iff it precedes it in the deterministic
                        // total order: smaller attribute index, or — on the
                        // chosen attribute itself — a smaller split value
                        // (buckets outside the interval sit entirely below
                        // `lo` or entirely above `hi`, so the direction is
                        // determined by the bucket, not the candidate).
                        let tie_wins = if a == chosen.split.attr {
                            upper
                                <= match &crit {
                                    CoarseCriterion::Num { lo, .. } => *lo,
                                    CoarseCriterion::Cat { .. } => unreachable!(
                                        "numeric chosen attr under a categorical criterion"
                                    ),
                                }
                        } else {
                            a < chosen.split.attr
                        };
                        if let Some(bound) = interior {
                            if !bucket_passes(bound, chosen.impurity, tie_wins) {
                                failure = Some(FailReason::Interior);
                                break 'attrs;
                            }
                        }
                    }
                }
            }
        }
        if let Some(reason) = failure {
            return self.fail_node(idx, carried, combined, reason, jobs);
        }

        // ---- verified: route parked + carried tuples to the children ----
        let (mut left_c, mut right_c) = (Vec::new(), Vec::new());
        for r in self
            .layout
            .rows(&parked)?
            .chain(self.layout.rows(&carried)?)
        {
            let side = if chosen.split.goes_left(&r) {
                &mut left_c
            } else {
                &mut right_c
            };
            side.extend_from_slice(r.bytes());
        }
        let (l, rgt) = (
            self.nodes[idx].left.expect("internal"),
            self.nodes[idx].right.expect("internal"),
        );
        self.metrics.counter("boat.verify.pass").inc();
        self.nodes[idx].resolution = Resolution::Split { eval: chosen };
        self.finalize_node(l, left_c, imp, limits, jobs)?;
        self.finalize_node(rgt, right_c, imp, limits, jobs)?;
        Ok(())
    }

    fn fail_node(
        &mut self,
        idx: usize,
        carried: Vec<u8>,
        combined: Vec<u64>,
        reason: FailReason,
        jobs: &mut Vec<Job>,
    ) -> Result<()> {
        let fp = fingerprint(&carried, self.layout.width());
        // A failed verdict is exactly a rebuild trigger: the job pushed
        // below regrows this subtree.
        self.metrics.counter("boat.verify.fail").inc();
        self.metrics.counter(reason.counter()).inc();
        self.nodes[idx].resolution = Resolution::Failed { counts: combined };
        jobs.push(Job {
            idx,
            carried,
            carried_fp: fp,
        });
        Ok(())
    }

    /// Whether the cleanup scan retained the whole family of `idx`: every
    /// frontier node in its subtree that holds tuples kept its family
    /// buffer. Otherwise completing `idx` needs a collection scan.
    pub fn retains_family(&self, idx: usize) -> bool {
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i];
            if node.crit.is_some() {
                stack.push(node.left.expect("internal"));
                stack.push(node.right.expect("internal"));
            } else if node.state.family.is_none()
                && node.state.counts.class_totals.iter().any(|&c| c > 0)
            {
                return false;
            }
        }
        true
    }

    /// Append the family of `idx` as the cleanup scan retained it to `out`,
    /// as encoded rows back to back: the parked sets of the numeric nodes in
    /// its subtree and the family buffers of its frontier nodes. The caller
    /// has checked [`WorkTree::retains_family`]; the tuples its ancestors
    /// parked are in its job's carried set, not here.
    pub fn collect_subtree(&mut self, idx: usize, out: &mut Vec<u8>) -> Result<()> {
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            let node = &mut self.nodes[i];
            if let Some(buf) = node.state.buffer() {
                buf.append_rows(out)?;
            }
            if node.crit.is_some() {
                stack.push(node.left.expect("internal"));
                stack.push(node.right.expect("internal"));
            }
        }
        Ok(())
    }

    /// Route one row by the *resolved* splits, returning the index of the
    /// Frontier/Failed node it lands in (if any). Used by the collection
    /// scan for jobs whose records were not retained.
    pub fn route_to_job(&self, r: &impl Fields) -> Option<usize> {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx].resolution {
                Resolution::Split { eval } => {
                    let node = &self.nodes[idx];
                    idx = if eval.split.goes_left(r) {
                        node.left.expect("internal")
                    } else {
                        node.right.expect("internal")
                    };
                }
                Resolution::Frontier { .. } | Resolution::Failed { .. } => return Some(idx),
                Resolution::Leaf { .. } | Resolution::Pending => return None,
            }
        }
    }

    /// Assemble the final decision tree from resolutions and grown
    /// subtrees. Panics if a Frontier/Failed node has no grown subtree
    /// (jobs must be executed first).
    pub fn extract_tree(&self) -> Tree {
        let mut tree = self.extract_node(0);
        tree.compact();
        tree
    }

    fn extract_node(&self, idx: usize) -> Tree {
        match &self.nodes[idx].resolution {
            Resolution::Pending => panic!("extract_tree before finalize"),
            Resolution::Leaf { counts } => Tree::leaf(counts.clone()),
            Resolution::Frontier { .. } | Resolution::Failed { .. } => self.nodes[idx]
                .grown
                .clone()
                .expect("completion job not executed before extract_tree"),
            Resolution::Split { eval } => {
                let total: Vec<u64> = eval
                    .left_counts
                    .iter()
                    .zip(&eval.right_counts)
                    .map(|(a, b)| a + b)
                    .collect();
                let mut tree = Tree::leaf(total);
                let root = tree.root();
                let (l, r) = tree.split_node(
                    root,
                    eval.split,
                    eval.left_counts.clone(),
                    eval.right_counts.clone(),
                );
                let lt = self.extract_node(self.nodes[idx].left.expect("internal"));
                let rt = self.extract_node(self.nodes[idx].right.expect("internal"));
                tree.replace_subtree(l, &lt);
                tree.replace_subtree(r, &rt);
                tree
            }
        }
    }

    /// Total parked tuples across all nodes.
    pub fn parked_total(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.state.parked.as_ref().map_or(0, |p| p.len()))
            .sum()
    }

    /// Total tuples that overflowed to spill files (parked + families).
    pub fn spilled_total(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                n.state.parked.as_ref().map_or(0, |p| p.spilled_len())
                    + n.state.family.as_ref().map_or(0, |f| f.spilled_len())
            })
            .sum()
    }

    /// Assert the count-conservation identities that the cleanup scan and
    /// every applied update maintain at every node:
    ///
    /// * an internal node's class totals equal its children's totals plus
    ///   the labels of its parked tuples;
    /// * a numeric node's `edge_left` equals its left child's totals;
    /// * every bucket set and categorical AVC sums to the node's totals;
    /// * a retained frontier family holds exactly the node's tuples;
    /// * every buffer's length matches the records it yields.
    ///
    /// Panics on a violation. Tests run it after every mutation.
    pub(crate) fn check_invariants(&mut self) {
        fn label_counts(buf: &mut SpillBuffer, k: usize, what: &str, i: usize) -> Vec<u64> {
            let mut counts = vec![0u64; k];
            buf.for_each_row(|r| counts[r.label() as usize] += 1)
                .expect("read buffer");
            let n: u64 = counts.iter().sum();
            assert_eq!(n, buf.len(), "{what} length at node {i}");
            counts
        }
        for i in 0..self.nodes.len() {
            let state = &mut self.nodes[i].state;
            let totals = state.counts.class_totals.clone();
            let k = totals.len();
            let parked = match state.parked.as_mut() {
                Some(p) => label_counts(p, k, "parked", i),
                None => vec![0; k],
            };
            if let Some(f) = state.family.as_mut() {
                assert_eq!(
                    label_counts(f, k, "family", i),
                    totals,
                    "family at node {i}"
                );
            }
            for b in state.counts.buckets.iter().flatten() {
                assert_eq!(b.totals(), totals, "bucket totals at node {i}");
            }
            for avc in state.counts.cat.iter().flatten() {
                let mut sum = vec![0u64; k];
                for c in 0..avc.cardinality() {
                    for (s, n) in sum.iter_mut().zip(avc.counts_for(c)) {
                        *s += n;
                    }
                }
                assert_eq!(sum, totals, "categorical AVC totals at node {i}");
            }
            let node = &self.nodes[i];
            let Some(crit) = &node.crit else { continue };
            let left = &self.nodes[node.left.expect("internal")]
                .state
                .counts
                .class_totals;
            let right = &self.nodes[node.right.expect("internal")]
                .state
                .counts
                .class_totals;
            let children: Vec<u64> = (0..k).map(|c| left[c] + right[c] + parked[c]).collect();
            assert_eq!(totals, children, "children + parked at node {i}");
            if let CoarseCriterion::Num { .. } = crit {
                assert_eq!(&node.state.counts.edge_left, left, "edge_left at node {i}");
            }
        }
    }
}

/// Adapter making a `&dyn Impurity` usable where an owned `Impurity` is
/// expected.
#[derive(Debug, Clone, Copy)]
struct ErasedImpurity<'a>(&'a dyn Impurity);

impl Impurity for ErasedImpurity<'_> {
    fn node_impurity(&self, counts: &[u64]) -> f64 {
        self.0.node_impurity(counts)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Order-insensitive fingerprint of a carried set of `width`-byte rows
/// (used to reuse grown subtrees across verification passes when nothing
/// changed).
fn fingerprint(rows: &[u8], width: usize) -> u64 {
    let mut acc: u64 = 0x9E3779B97F4A7C15 ^ (rows.len() / width) as u64;
    for row in rows.chunks_exact(width) {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        // XOR-fold per row: order-insensitive.
        acc ^= h.finish();
    }
    acc
}

/// The cleanup statistics of an internal node whose sample family `rows`
/// has class totals `totals` and estimated minimum impurity `est_min`: the
/// criterion, its numeric interval widened over the family's runs on the
/// splitting attribute, and zeroed counts with a category/class table per
/// categorical attribute and a bucket set per numeric one, discretized from
/// the same runs.
fn internal_counts(
    mut crit: CoarseCriterion,
    sample: &ColumnarSample,
    rows: &NodeRows,
    totals: &[u64],
    est_min: f64,
    imp: &dyn Impurity,
    config: &BoatConfig,
) -> (CoarseCriterion, NodeCounts) {
    let schema = sample.schema();
    let k = totals.len();
    let mut runs = ValueRuns::new(k);
    let mut cat = Vec::with_capacity(schema.n_attributes());
    let mut buckets = Vec::with_capacity(schema.n_attributes());
    for (a, attr) in schema.attributes().iter().enumerate() {
        match attr.ty() {
            AttrType::Categorical { cardinality } => {
                cat.push(Some(CatAvc::new(cardinality, k)));
                buckets.push(None);
            }
            AttrType::Numeric => {
                cat.push(None);
                let col = sample.num_column(a);
                let list = rows.sorted[a].as_deref().expect("presorted sample");
                runs.fill_sorted(
                    list.iter()
                        .map(|&row| (col[row as usize], sample.label(row))),
                );
                let edges;
                let must_include: &[f64] = match &mut crit {
                    CoarseCriterion::Num { attr, lo, hi } if *attr == a => {
                        (*lo, *hi) = widen_interval(&runs, totals, imp, *lo, *hi);
                        edges = [*lo, *hi];
                        &edges
                    }
                    _ => &[],
                };
                let bounds =
                    build_boundaries(&runs, totals, imp, est_min, config.discretize, must_include);
                buckets.push(Some(BucketSet::new(bounds, k)));
            }
        }
    }
    (crit, NodeCounts::new(k, cat, buckets))
}

/// Minimum interval padding, in distinct sample values per side, on top of
/// the impurity-aware shelf extension of [`widen_interval`]. One value
/// covers the sample-gap the full database's optimum usually sits in.
const INTERVAL_PAD_VALUES: usize = 1;

/// Widen a bootstrap confidence interval using the node's *sample family*.
///
/// Three effects, all optimism heuristics (verification still guarantees
/// the exact tree):
///
/// 1. the interval is stretched to cover the sample family's own best
///    candidate on the attribute (small-resample bootstrap points can all
///    undershoot it);
/// 2. it is stretched across the *statistically indistinguishable shelf*:
///    adjacent sample candidates whose impurity is within ~½σ of the
///    sample best, where σ ≈ 1/√m is the impurity estimation noise at a
///    sample family of size m — the full database's optimum wanders inside
///    that shelf, and bucket bounds can never resolve it;
/// 3. it is padded by [`INTERVAL_PAD_VALUES`] extra distinct sample values
///    on each side (the full database's optimum usually sits in the
///    sample-gap just past the sample's best candidate).
///
/// Extension stops once the added sample mass on a side exceeds 2% of the
/// family (keeps parked sets small on low-cardinality attributes where a
/// single value carries percent-level mass).
fn widen_interval(
    runs: &ValueRuns,
    totals: &[u64],
    imp: &dyn Impurity,
    lo: f64,
    hi: f64,
) -> (f64, f64) {
    let m: u64 = totals.iter().sum();
    if m == 0 || runs.is_empty() {
        return (lo, hi);
    }
    // Candidate evaluations: (value, impurity, mass at value).
    let mut evals: Vec<(f64, f64, u64)> = Vec::with_capacity(runs.len());
    let mut cum = vec![0u64; totals.len()];
    let mut right = vec![0u64; totals.len()];
    let mut best = f64::INFINITY;
    for (v, counts) in runs.iter() {
        let mass: u64 = counts.iter().sum();
        for (c, x) in cum.iter_mut().zip(counts) {
            *c += x;
        }
        let left_n: u64 = cum.iter().sum();
        let impurity = if left_n == 0 || left_n == m {
            f64::INFINITY
        } else {
            for (r, (t, c)) in right.iter_mut().zip(totals.iter().zip(&cum)) {
                *r = t - c;
            }
            boat_tree::split_impurity(imp, &cum, &right)
        };
        if impurity < best {
            best = impurity;
        }
        evals.push((v, impurity, mass));
    }
    if !best.is_finite() {
        return (lo, hi);
    }
    let tol = best + 0.5 / (m as f64).sqrt();
    // Parking even a quarter of the family per side is still far cheaper
    // than the rebuild a false alarm triggers (parked tuples cost two
    // sequential spill passes; a rebuild re-samples, re-bootstraps and
    // re-scans the whole partition).
    let mass_cap = (m / 4).max(8);

    // Start from the bootstrap interval, stretched over the sample best.
    let best_idx = evals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then(a.0.cmp(&b.0)))
        .map(|(i, _)| i)
        .expect("non-empty evals");
    let mut lo_idx = evals.partition_point(|e| e.0 < lo).min(best_idx);
    let mut hi_idx = evals
        .partition_point(|e| e.0 <= hi)
        .saturating_sub(1)
        .max(best_idx);

    // Shelf extension, mass-capped per side.
    let mut added: u64 = 0;
    while lo_idx > 0 && evals[lo_idx - 1].1 <= tol && added <= mass_cap {
        lo_idx -= 1;
        added += evals[lo_idx].2;
    }
    let mut added: u64 = 0;
    while hi_idx + 1 < evals.len() && evals[hi_idx + 1].1 <= tol && added <= mass_cap {
        hi_idx += 1;
        added += evals[hi_idx].2;
    }
    // Minimum gap padding.
    lo_idx = lo_idx.saturating_sub(INTERVAL_PAD_VALUES);
    hi_idx = (hi_idx + INTERVAL_PAD_VALUES).min(evals.len() - 1);
    (evals[lo_idx].0.min(lo), evals[hi_idx].0.max(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::build_coarse_tree_columnar;
    use boat_data::{Attribute, Field, MemoryDataset, Record, RecordSource};
    use boat_tree::Gini;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Arc<Schema> {
        Schema::shared(vec![Attribute::numeric("x")], 2).unwrap()
    }

    fn rec(x: f64, label: u16) -> Record {
        Record::new(vec![Field::Num(x)], label)
    }

    /// Threshold concept at 500 over 0..1000.
    fn threshold_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let x = (i % 1000) as f64;
                rec(x, u16::from(x > 500.0))
            })
            .collect()
    }

    /// The sample, its coarse tree and the prepared work tree of a fit of
    /// `ds` under `cfg`, as `Boat::fit` builds them.
    fn prepare_parts(
        ds: &MemoryDataset,
        cfg: &BoatConfig,
        retain_all_families: bool,
    ) -> (Vec<Record>, CoarseTree, WorkTree) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let sample = boat_data::sample::reservoir_sample(ds, cfg.sample_size, &mut rng).unwrap();
        let cs = ColumnarSample::from_records(ds.schema(), &sample);
        let selector = ImpuritySelector::new(Gini);
        let coarse =
            build_coarse_tree_columnar(&cs, &selector, cfg, ds.len(), &mut rng, &Registry::new())
                .unwrap();
        let work = WorkTree::prepare(
            &coarse,
            ds.schema().clone(),
            &cs,
            &Gini,
            cfg,
            ds.len(),
            retain_all_families,
            Registry::new(),
        );
        (sample, coarse, work)
    }

    fn prepare_work(ds: &MemoryDataset, cfg: &BoatConfig, retain_all_families: bool) -> WorkTree {
        prepare_parts(ds, cfg, retain_all_families).2
    }

    fn prepared(records: &[Record], cfg: &BoatConfig) -> WorkTree {
        prepare_work(&MemoryDataset::new(schema(), records.to_vec()), cfg, false)
    }

    fn small_cfg() -> BoatConfig {
        BoatConfig {
            sample_size: 500,
            bootstrap_reps: 8,
            bootstrap_sample_size: 250,
            in_memory_threshold: 100,
            spill_budget: 32,
            seed: 99,
            ..BoatConfig::default()
        }
    }

    /// Run the cleanup scan of `records` on `work`: one router, chunks of
    /// 64 rows.
    fn fill(work: &mut WorkTree, records: &[Record]) {
        let ds = MemoryDataset::new(work.schema.clone(), records.to_vec());
        work.parallel_cleanup(&ds, 1, 64).unwrap();
    }

    /// Insert or delete `records` as a maintained model does: route them on
    /// two routers in chunks of 64 rows, check a delete, then apply.
    fn update(work: &mut WorkTree, records: &[Record], delete: bool) -> Result<()> {
        let ds = MemoryDataset::new(work.schema.clone(), records.to_vec());
        let batch = work.route_batch(&ds, 2, 64)?;
        if delete {
            work.check_delete(&batch)?;
        }
        work.apply(batch, delete)
    }

    #[test]
    fn cleanup_then_finalize_resolves_a_clean_root() {
        let records = threshold_records(4000);
        let cfg = small_cfg();
        let mut work = prepared(&records, &cfg);
        fill(&mut work, &records);
        assert_eq!(
            work.nodes[0].state.counts.class_totals.iter().sum::<u64>(),
            4000
        );
        let jobs = work.finalize(&Gini, cfg.limits).unwrap();
        // Root must be a verified split at exactly 500.
        match &work.nodes[0].resolution {
            Resolution::Split { eval } => {
                assert_eq!(eval.split.attr, 0);
                match eval.split.predicate {
                    boat_tree::Predicate::NumLe(x) => assert_eq!(x, 500.0),
                    ref p => panic!("unexpected predicate {p:?}"),
                }
            }
            other => panic!("root should verify, got {other:?}"),
        }
        // Children are pure -> leaves, no completion jobs from them.
        for job in &jobs {
            assert_ne!(job.idx, 0);
        }
    }

    #[test]
    fn delete_inverts_insert() {
        let records = threshold_records(1000);
        let cfg = small_cfg();
        let mut work = prepared(&records, &cfg);
        fill(&mut work, &records);
        work.check_invariants();
        let counts_before = work.nodes[0].state.counts.class_totals.clone();
        let extra = rec(333.0, 0);
        update(&mut work, std::slice::from_ref(&extra), false).unwrap();
        work.check_invariants();
        update(&mut work, std::slice::from_ref(&extra), true).unwrap();
        work.check_invariants();
        assert_eq!(work.nodes[0].state.counts.class_totals, counts_before);
    }

    /// Every row of `buf`, back to back.
    fn rows(buf: &mut SpillBuffer) -> Vec<u8> {
        let mut out = Vec::new();
        buf.append_rows(&mut out).unwrap();
        out
    }

    /// Assert complete per-node state equality between two work trees.
    fn assert_same_state(a: &mut WorkTree, b: &mut WorkTree) {
        assert_eq!(a.nodes.len(), b.nodes.len());
        for i in 0..a.nodes.len() {
            let (sa, sb) = (&a.nodes[i].state, &b.nodes[i].state);
            assert_eq!(sa.counts, sb.counts, "counts at node {i}");
            assert_eq!(sa.dirty, sb.dirty, "dirty at node {i}");
            let (sa, sb) = (&mut a.nodes[i].state, &mut b.nodes[i].state);
            match (sa.parked.as_mut(), sb.parked.as_mut()) {
                (None, None) => {}
                (Some(pa), Some(pb)) => {
                    assert_eq!(rows(pa), rows(pb), "parked rows at node {i}");
                }
                _ => panic!("parked presence differs at node {i}"),
            }
            match (sa.family.as_mut(), sb.family.as_mut()) {
                (None, None) => {}
                (Some(fa), Some(fb)) => {
                    assert_eq!(rows(fa), rows(fb), "family rows at node {i}");
                }
                _ => panic!("family presence differs at node {i}"),
            }
        }
    }

    /// A fit-like fixture with numeric and categorical criteria, parked
    /// buffers and frontier families, with a spill budget of 16 records.
    fn f6_fixture(n: usize, seed: u64) -> (Vec<Record>, MemoryDataset, BoatConfig) {
        let gen =
            boat_datagen::GeneratorConfig::new(boat_datagen::LabelFunction::F6).with_seed(seed);
        let records = gen.generate_vec(n);
        let ds = MemoryDataset::new(gen.schema(), records.clone());
        let cfg = BoatConfig {
            sample_size: 800,
            bootstrap_reps: 8,
            bootstrap_sample_size: 400,
            in_memory_threshold: 100,
            spill_budget: 16,
            seed: 7,
            ..BoatConfig::default()
        };
        (records, ds, cfg)
    }

    #[test]
    fn parallel_cleanup_state_matches_serial_exactly() {
        // Rich multi-attribute data (numeric + categorical criteria, parked
        // buffers, frontier families): the cleanup scan must leave the work
        // tree in *identical* state at every thread count and chunk size to
        // one router taking one row at a time.
        let (_, ds, cfg) = f6_fixture(4_000, 77);
        let prepare = || prepare_work(&ds, &cfg, false);
        let mut serial = prepare();
        serial.parallel_cleanup(&ds, 1, 1).unwrap();
        serial.check_invariants();
        for threads in [1usize, 2, 4, 8] {
            // 123 leaves a ragged final chunk; 5 000 is one chunk.
            for chunk_size in [7usize, 123, 5_000] {
                let mut parallel = prepare();
                parallel.parallel_cleanup(&ds, threads, chunk_size).unwrap();
                parallel.check_invariants();
                assert_same_state(&mut serial, &mut parallel);
            }
        }
    }

    #[test]
    fn an_insert_batch_leaves_the_state_of_one_cleanup_scan() {
        let (records, ds, cfg) = f6_fixture(4_000, 78);
        let mut scanned = prepare_work(&ds, &cfg, true);
        fill(&mut scanned, &records);
        let mut updated = prepare_work(&ds, &cfg, true);
        let (base, rest) = records.split_at(1_500);
        fill(&mut updated, base);
        for chunk in rest.chunks(1_000) {
            update(&mut updated, chunk, false).unwrap();
            updated.check_invariants();
        }
        assert_same_state(&mut scanned, &mut updated);
    }

    #[test]
    fn a_chunk_with_a_corrupt_last_row_moves_no_count() {
        let gen = boat_datagen::GeneratorConfig::new(boat_datagen::LabelFunction::F6).with_seed(77);
        let records = gen.generate_vec(2_000);
        let ds = MemoryDataset::new(gen.schema(), records.clone());
        let cfg = BoatConfig {
            sample_size: 800,
            bootstrap_reps: 8,
            bootstrap_sample_size: 400,
            in_memory_threshold: 100,
            seed: 7,
            ..BoatConfig::default()
        };
        let work = prepare_work(&ds, &cfg, false);
        let layout = RowLayout::new(&work.schema);
        let routes: Vec<RouteNode> = work.nodes.iter().map(RouteNode::of).collect();
        let mut bytes = Vec::new();
        for r in &records[..300] {
            boat_data::codec::encode_into(&work.schema, r, &mut bytes).unwrap();
        }
        let sound = RecordChunk::new(0, layout.width(), bytes.clone());
        // The label of the last row is out of range.
        let end = bytes.len();
        bytes[end - 2..].copy_from_slice(&u16::MAX.to_le_bytes());
        let corrupt = RecordChunk::new(0, layout.width(), bytes);

        let mut shard = CleanupShard::new(&work.nodes);
        let err = shard.route_chunk(&routes, &layout, &corrupt).unwrap_err();
        assert!(matches!(err, DataError::Corrupt(_)), "{err}");
        let zero = CleanupShard::new(&work.nodes);
        for (i, (got, want)) in shard.nodes.iter().zip(&zero.nodes).enumerate() {
            assert_eq!(got, want, "counts at node {i}");
        }
        assert!(shard.visits.iter().all(Vec::is_empty));

        // The same rows with a sound last row count and deposit.
        let deposits = shard.route_chunk(&routes, &layout, &sound).unwrap();
        assert!(!deposits.is_empty());
        assert_eq!(shard.nodes[0].class_totals.iter().sum::<u64>(), 300);
    }

    /// A fixture whose every frontier retains its family, filled with the
    /// cleanup scan of its records, as a maintained model holds it.
    fn maintained_fixture() -> (Vec<Record>, impl Fn() -> WorkTree) {
        let gen = boat_datagen::GeneratorConfig::new(boat_datagen::LabelFunction::F6).with_seed(79);
        let records = gen.generate_vec(3_000);
        let ds = MemoryDataset::new(gen.schema(), records.clone());
        let cfg = BoatConfig {
            sample_size: 600,
            bootstrap_reps: 8,
            bootstrap_sample_size: 300,
            in_memory_threshold: 100,
            spill_budget: 16,
            seed: 11,
            ..BoatConfig::default()
        };
        let all = records.clone();
        let prepare = move || {
            // Retain families so deletes touch family buffers too.
            let mut work = prepare_work(&ds, &cfg, true);
            fill(&mut work, &all);
            work
        };
        (records, prepare)
    }

    #[test]
    fn batch_delete_matches_serial_deletes_exactly() {
        let (records, prepare) = maintained_fixture();
        // Delete every 7th record.
        let victims: Vec<Record> = records.iter().step_by(7).cloned().collect();
        let mut serial = prepare();
        for v in &victims {
            update(&mut serial, std::slice::from_ref(v), true).unwrap();
        }
        let mut batched = prepare();
        update(&mut batched, &victims, true).unwrap();
        batched.check_invariants();
        assert_same_state(&mut serial, &mut batched);
    }

    /// Assert that deleting `victims` from the fixture fails with
    /// `DataError::Invalid` and leaves every node as an untouched copy.
    fn assert_failed_delete_changes_nothing(victims: &[Record]) {
        let (_, prepare) = maintained_fixture();
        let mut work = prepare();
        let err = update(&mut work, victims, true).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)), "{err}");
        work.check_invariants();
        assert_same_state(&mut prepare(), &mut work);
    }

    #[test]
    fn over_deleting_batch_changes_nothing() {
        let (records, _) = maintained_fixture();
        // Every 7th record, then the first three of them once more: the
        // model holds each of them once.
        let mut victims: Vec<Record> = records.iter().step_by(7).cloned().collect();
        victims.extend(records.iter().step_by(7).take(3).cloned());
        assert_failed_delete_changes_nothing(&victims);
        assert_failed_delete_changes_nothing(&[records[5].clone(), records[5].clone()]);
    }

    #[test]
    fn delete_batch_with_an_absent_record_changes_nothing() {
        let (records, _) = maintained_fixture();
        let absent = boat_datagen::GeneratorConfig::new(boat_datagen::LabelFunction::F6)
            .with_seed(4_242)
            .generate_vec(1);
        let victims = [records[0].clone(), records[1].clone(), absent[0].clone()];
        assert_failed_delete_changes_nothing(&victims);
    }

    #[test]
    fn deleting_a_class_never_seen_errors() {
        // All records are class 0; deleting a class-1 record must fail at
        // the root's class totals.
        let records: Vec<Record> = (0..500).map(|i| rec((i % 100) as f64, 0)).collect();
        let cfg = small_cfg();
        let mut work = prepared(&records, &cfg);
        fill(&mut work, &records);
        let err = update(&mut work, &[rec(3.0, 1)], true).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)), "{err}");
        assert_eq!(work.nodes[0].state.counts.class_totals, [500, 0]);
    }

    #[test]
    fn widen_interval_covers_the_shelf_and_pads() {
        // Steep curve: minimum at 10, neighbors clearly worse.
        let mut pairs = Vec::new();
        let mut totals = vec![0u64; 2];
        for i in 0..200u64 {
            let v = (i % 20) as f64;
            let label = u16::from(v > 10.0);
            pairs.push((v, label));
            totals[label as usize] += 1;
        }
        let mut runs = ValueRuns::new(2);
        runs.fill_from_pairs(&mut pairs);
        let (lo, hi) = widen_interval(&runs, &totals, &Gini, 10.0, 10.0);
        // One padding value each side at minimum.
        assert!(lo <= 9.0, "lo={lo}");
        assert!(hi >= 11.0, "hi={hi}");
        // Steepness keeps it from swallowing the whole axis.
        assert!(
            lo >= 5.0 && hi <= 15.0,
            "[{lo},{hi}] too wide for a steep curve"
        );
    }

    #[test]
    fn widen_interval_mass_cap_limits_flat_valleys() {
        // Perfectly flat (useless) attribute: every candidate ties, the
        // shelf is everything — the mass cap must stop the extension.
        let mut pairs = Vec::new();
        let mut totals = vec![0u64; 2];
        for i in 0..1000u64 {
            let v = (i % 100) as f64;
            let label = (i % 2) as u16;
            pairs.push((v, label));
            totals[label as usize] += 1;
        }
        let mut runs = ValueRuns::new(2);
        runs.fill_from_pairs(&mut pairs);
        let (lo, hi) = widen_interval(&runs, &totals, &Gini, 50.0, 50.0);
        let covered = runs.iter().filter(|&(v, _)| v >= lo && v <= hi).count();
        assert!(
            covered < 80,
            "mass cap should stop a flat shelf from covering everything ({covered}/100)"
        );
    }

    /// One node of [`row_form_prepare`].
    struct RowFormNode {
        crit: Option<CoarseCriterion>,
        boundaries: Vec<Option<Vec<f64>>>,
        keeps_family: bool,
    }

    /// The row-form computation `prepare` replaced: the sample routed
    /// record by record down the coarse tree (numeric criteria at the
    /// interval midpoint), one `NumAvc` per node and numeric attribute, and
    /// the minimum-impurity estimate from `best_split` over an `AvcGroup`.
    fn row_form_prepare(
        coarse: &CoarseTree,
        schema: &Schema,
        sample: &[Record],
        cfg: &BoatConfig,
        full_size: u64,
        retain_all_families: bool,
    ) -> Vec<RowFormNode> {
        let mut families: Vec<Vec<&Record>> = vec![Vec::new(); coarse.len()];
        for r in sample {
            let mut idx = 0;
            loop {
                families[idx].push(r);
                let cn = &coarse.nodes[idx];
                let left = match &cn.crit {
                    None => break,
                    Some(CoarseCriterion::Num { attr, lo, hi }) => r.num(*attr) <= 0.5 * (lo + hi),
                    Some(CoarseCriterion::Cat { attr, subset }) => subset.contains(r.cat(*attr)),
                };
                idx = if left { cn.left } else { cn.right }.expect("internal");
            }
        }
        let scale = if sample.is_empty() {
            0.0
        } else {
            full_size as f64 / sample.len() as f64
        };
        let k = schema.n_classes();
        let runs_of = |family: &[&Record], a: usize| {
            let mut avc = boat_tree::NumAvc::new(k);
            for r in family {
                avc.add(r.num(a), r.label());
            }
            ValueRuns::from_avc(&avc, k)
        };
        coarse
            .nodes
            .iter()
            .zip(&families)
            .map(|(cn, family)| {
                let est_family = (family.len() as f64 * scale).round() as u64;
                let Some(crit) = &cn.crit else {
                    let pure = family
                        .split_first()
                        .is_some_and(|(r, rest)| rest.iter().all(|o| o.label() == r.label()));
                    let keeps_family = retain_all_families
                        || (!pure
                            && cfg
                                .limits
                                .stop_family_size
                                .is_none_or(|t| est_family.saturating_mul(2) > t));
                    return RowFormNode {
                        crit: None,
                        boundaries: Vec::new(),
                        keeps_family,
                    };
                };
                let group = boat_tree::AvcGroup::from_records(schema, family.iter().copied());
                let est_min =
                    boat_tree::best_split(schema, &group, &Gini).map_or(0.0, |e| e.impurity);
                let totals = group.class_totals();
                let crit = match crit.clone() {
                    CoarseCriterion::Num { attr, lo, hi } => {
                        let (lo, hi) =
                            widen_interval(&runs_of(family, attr), totals, &Gini, lo, hi);
                        CoarseCriterion::Num { attr, lo, hi }
                    }
                    cat => cat,
                };
                let boundaries = (0..schema.n_attributes())
                    .map(|a| {
                        matches!(schema.attribute(a).ty(), AttrType::Numeric).then(|| {
                            let must_include = match &crit {
                                CoarseCriterion::Num { attr, lo, hi } if *attr == a => {
                                    vec![*lo, *hi]
                                }
                                _ => vec![],
                            };
                            build_boundaries(
                                &runs_of(family, a),
                                totals,
                                &Gini,
                                est_min,
                                cfg.discretize,
                                &must_include,
                            )
                        })
                    })
                    .collect();
                RowFormNode {
                    crit: Some(crit),
                    boundaries,
                    keeps_family: false,
                }
            })
            .collect()
    }

    /// Assert that `prepare` builds, bit for bit, the per-node state
    /// [`row_form_prepare`] computes from the same sample and coarse tree.
    /// Returns the number of numeric and categorical criteria compared.
    fn assert_prepare_matches_row_form(
        ds: &MemoryDataset,
        cfg: &BoatConfig,
        retain_all_families: bool,
        case: &str,
    ) -> (usize, usize) {
        let (sample, coarse, work) = prepare_parts(ds, cfg, retain_all_families);
        let want = row_form_prepare(
            &coarse,
            ds.schema(),
            &sample,
            cfg,
            ds.len(),
            retain_all_families,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(work.nodes.len(), want.len(), "{case}: node count");
        for (i, (node, want)) in work.nodes.iter().zip(&want).enumerate() {
            match (&node.crit, &want.crit) {
                (
                    Some(CoarseCriterion::Num { attr, lo, hi }),
                    Some(CoarseCriterion::Num {
                        attr: want_attr,
                        lo: want_lo,
                        hi: want_hi,
                    }),
                ) => assert_eq!(
                    (attr, lo.to_bits(), hi.to_bits()),
                    (want_attr, want_lo.to_bits(), want_hi.to_bits()),
                    "{case}: widened interval at node {i}"
                ),
                (got, want) => assert_eq!(got, want, "{case}: criterion at node {i}"),
            }
            assert_eq!(
                node.state.family.is_some(),
                want.keeps_family,
                "{case}: retained family at node {i}"
            );
            let got_bounds: Vec<Option<Vec<u64>>> = node
                .state
                .counts
                .buckets
                .iter()
                .map(|b| b.as_ref().map(|b| bits(b.boundaries())))
                .collect();
            let want_bounds: Vec<Option<Vec<u64>>> = want
                .boundaries
                .iter()
                .map(|b| {
                    b.as_ref()
                        .map(|b| bits(BucketSet::new(b.clone(), 1).boundaries()))
                })
                .collect();
            assert_eq!(got_bounds, want_bounds, "{case}: boundaries at node {i}");
        }
        let count = |numeric: bool| {
            want.iter()
                .filter(|n| {
                    n.crit
                        .as_ref()
                        .is_some_and(|c| matches!(c, CoarseCriterion::Num { .. }) == numeric)
                })
                .count()
        };
        (count(true), count(false))
    }

    /// A random schema and dataset: one to three numeric attributes drawn
    /// from a handful of values or a fine grid, zero to two categoricals up
    /// to 40 wide, two or three classes, and a threshold concept that
    /// leaves pure regions, with or without noise. The first attribute's
    /// handful holds both signed zeros, with different labels: one mixed
    /// value to the `<=` predicate, which every builder must count as one
    /// (`boat_tree::fold_zero`).
    fn random_dataset(seed: u64) -> MemoryDataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n_num = rng.random_range(1..=3usize);
        let n_cat = rng.random_range(0..=2usize);
        let k = rng.random_range(2..=3u16);
        let mut attrs: Vec<Attribute> = (0..n_num)
            .map(|i| Attribute::numeric(format!("x{i}")))
            .collect();
        let cards: Vec<u32> = (0..n_cat)
            .map(|_| [2, 5, 40][rng.random_range(0..3usize)])
            .collect();
        for (j, &c) in cards.iter().enumerate() {
            attrs.push(Attribute::categorical(format!("c{j}"), c));
        }
        let schema = Schema::shared(attrs, k).unwrap();
        let tied: Vec<bool> = (0..n_num).map(|_| rng.random_bool(0.6)).collect();
        let noise = [0.0, 0.05][rng.random_range(0..2usize)];
        const SIGNED_TIES: [f64; 6] = [-1.0, -0.0, 0.0, 1.0, 2.0, 3.0];
        const TIES: [f64; 5] = [-1.0, 0.5, 1.0, 2.0, 3.0];
        let n = rng.random_range(1_500..3_000);
        let records = (0..n)
            .map(|_| {
                let nums: Vec<f64> = tied
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| match (t, i) {
                        (true, 0) => SIGNED_TIES[rng.random_range(0..SIGNED_TIES.len())],
                        (true, _) => TIES[rng.random_range(0..TIES.len())],
                        (false, _) => rng.random_range(-400..400i32) as f64 * 0.125,
                    })
                    .collect();
                let cats: Vec<u32> = cards.iter().map(|&c| rng.random_range(0..c)).collect();
                let label = if nums[0] == 0.0 {
                    u16::from(nums[0].is_sign_negative())
                } else if nums[0] <= 1.0 {
                    0
                } else if rng.random_bool(noise) {
                    rng.random_range(0..k)
                } else if cats.first().is_some_and(|c| c % 2 == 1) {
                    k - 1
                } else {
                    u16::from(nums.get(1).is_none_or(|&x| x > 0.75))
                };
                let mut fields: Vec<Field> = nums.into_iter().map(Field::Num).collect();
                fields.extend(cats.into_iter().map(Field::Cat));
                Record::new(fields, label)
            })
            .collect();
        MemoryDataset::new(schema, records)
    }

    #[test]
    fn prepare_matches_the_row_form_computation_bit_for_bit() {
        let (mut numeric, mut categorical) = (0, 0);
        for seed in 0..24u64 {
            let ds = random_dataset(seed);
            let mut cfg = BoatConfig {
                sample_size: [200, 600, 1_000][seed as usize % 3],
                bootstrap_reps: 6,
                bootstrap_sample_size: 300,
                in_memory_threshold: 40,
                seed,
                ..BoatConfig::default()
            };
            if seed % 4 == 3 {
                cfg.discretize = crate::config::DiscretizeStrategy::EquiDepth { buckets: 8 };
            }
            if seed % 5 == 4 {
                cfg.limits.stop_family_size = Some(300);
            }
            for retain in [false, true] {
                let case = format!("seed {seed}, retain_all_families {retain}");
                let (n, c) = assert_prepare_matches_row_form(&ds, &cfg, retain, &case);
                numeric += n;
                categorical += c;
            }
        }
        assert!(
            numeric >= 48 && categorical > 0,
            "the cases must exercise both criteria: {numeric} numeric, {categorical} categorical"
        );
        // The empty sample prepares a single frontier leaf.
        let empty = MemoryDataset::new(schema(), Vec::new());
        for retain in [false, true] {
            assert_prepare_matches_row_form(&empty, &small_cfg(), retain, "empty");
        }
    }

    #[test]
    fn prepare_matches_the_row_form_computation_on_the_adversarial_grid() {
        let scenarios = [
            (
                "heavy_ties",
                boat_datagen::adversarial::heavy_ties(3_000, 5),
            ),
            (
                "high_cardinality",
                boat_datagen::adversarial::high_cardinality(3_000, 6),
            ),
            (
                "skewed_priors",
                boat_datagen::adversarial::skewed_priors(3_000, 7),
            ),
        ];
        for (name, (schema, records)) in scenarios {
            let ds = MemoryDataset::new(Arc::new(schema), records);
            let cfg = BoatConfig {
                sample_size: 800,
                bootstrap_reps: 6,
                bootstrap_sample_size: 400,
                in_memory_threshold: 40,
                seed: 21,
                ..BoatConfig::default()
            };
            for retain in [false, true] {
                assert_prepare_matches_row_form(&ds, &cfg, retain, name);
            }
        }
    }

    #[test]
    fn finalize_reads_each_spilled_parked_set_once() {
        let gen = boat_datagen::GeneratorConfig::new(boat_datagen::LabelFunction::F1).with_seed(3);
        let records = gen.generate_vec(6_000);
        let ds = MemoryDataset::new(gen.schema(), records.clone());
        let cfg = BoatConfig {
            sample_size: 1_000,
            bootstrap_reps: 8,
            bootstrap_sample_size: 500,
            in_memory_threshold: 100,
            spill_budget: 8,
            seed: 5,
            ..BoatConfig::default()
        };
        let mut work = prepare_work(&ds, &cfg, false);
        fill(&mut work, &records);
        let spill_read = |work: &WorkTree| work.metrics.counter("data.spill.records_read").get();
        let read_before = spill_read(&work);
        work.finalize(&Gini, cfg.limits).unwrap();
        let read = spill_read(&work) - read_before;
        // Every numeric node the pass reaches reads its parked set: it
        // either verifies (and routes the set on) or fails.
        let reached_parked: u64 = work
            .nodes
            .iter()
            .filter(|n| {
                matches!(n.crit, Some(CoarseCriterion::Num { .. }))
                    && matches!(
                        n.resolution,
                        Resolution::Split { .. } | Resolution::Failed { .. }
                    )
            })
            .map(|n| n.state.parked.as_ref().map_or(0, SpillBuffer::spilled_len))
            .sum();
        assert!(reached_parked > 0, "the parked sets must spill");
        assert_eq!(
            read, reached_parked,
            "records read from spilled parked sets"
        );
    }

    #[test]
    fn limits_for_subtree_adjusts_depth_only() {
        let limits = GrowthLimits {
            min_split: 5,
            max_depth: Some(10),
            stop_family_size: Some(100),
        };
        let sub = limits_for_subtree(limits, 4);
        assert_eq!(sub.max_depth, Some(6));
        assert_eq!(sub.min_split, 5);
        assert_eq!(sub.stop_family_size, Some(100));
        assert_eq!(limits_for_subtree(limits, 12).max_depth, Some(0));
    }
}

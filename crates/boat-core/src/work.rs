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
use crate::coarse::{CoarseCriterion, CoarseTree, FrontierReason};
use crate::config::BoatConfig;
use crate::verify::bucket_passes;
use boat_data::codec::RowLayout;
use boat_data::spill::SpillBuffer;
use boat_data::{AttrType, DataError, IoStats, Record, RecordChunk, RecordSource, Result, Schema};
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

/// Read access to one tuple's fields, for the per-tuple step and count
/// update: a decoded [`Record`] (insert, delete, verification) or an
/// encoded row read in place (the cleanup scan).
trait Fields {
    /// The numeric value of attribute `attr`.
    fn num(&self, attr: usize) -> f64;
    /// The category code of attribute `attr`.
    fn cat(&self, attr: usize) -> u32;
    /// The class label.
    fn label(&self) -> u16;
}

impl Fields for Record {
    #[inline]
    fn num(&self, attr: usize) -> f64 {
        Record::num(self, attr)
    }
    #[inline]
    fn cat(&self, attr: usize) -> u32 {
        Record::cat(self, attr)
    }
    #[inline]
    fn label(&self) -> u16 {
        Record::label(self)
    }
}

/// One encoded row that has passed [`RowLayout::check`], read through its
/// layout's precomputed offsets.
struct EncodedRow<'a> {
    layout: &'a RowLayout,
    bytes: &'a [u8],
}

impl Fields for EncodedRow<'_> {
    #[inline]
    fn num(&self, attr: usize) -> f64 {
        self.layout.num(self.bytes, attr)
    }
    #[inline]
    fn cat(&self, attr: usize) -> u32 {
        self.layout.cat(self.bytes, attr)
    }
    #[inline]
    fn label(&self) -> u16 {
        self.layout.label(self.bytes)
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

/// The split statistics of one node. One per-tuple update ([`NodeCounts::add`]
/// and [`NodeCounts::sub`]) maintains all of them. Every cell is an integer
/// count, so merging shard copies is exact in any order.
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
    #[inline]
    fn add(&mut self, r: &impl Fields, step: Step) {
        let label = r.label();
        self.class_totals[label as usize] += 1;
        for (a, slot) in self.cat.iter_mut().enumerate() {
            if let Some(avc) = slot {
                avc.add(r.cat(a), label);
            }
        }
        for (a, slot) in self.buckets.iter_mut().enumerate() {
            if let Some(b) = slot {
                b.add(r.num(a), label);
            }
        }
        if step == Step::LeftEdge {
            self.edge_left[label as usize] += 1;
        }
    }

    /// Uncount `r`, which takes `step` at this node. The caller has checked
    /// [`NodeCounts::check_sub`] first.
    fn sub(&mut self, r: &Record, step: Step) {
        let label = r.label();
        self.class_totals[label as usize] -= 1;
        for (a, slot) in self.cat.iter_mut().enumerate() {
            if let Some(avc) = slot {
                avc.sub(r.cat(a), label);
            }
        }
        for (a, slot) in self.buckets.iter_mut().enumerate() {
            if let Some(b) = slot {
                b.sub(r.num(a), label);
            }
        }
        if step == Step::LeftEdge {
            self.edge_left[label as usize] -= 1;
        }
    }

    /// Check, without mutating, that [`NodeCounts::sub`] of `r` would not
    /// underflow any cell: every cell it decrements must be positive.
    fn check_sub(&self, r: &Record, step: Step) -> Result<()> {
        let label = r.label();
        let missing = |what: &str| Err(DataError::Invalid(format!("deletion of a record {what}")));
        if self.class_totals[label as usize] == 0 {
            return missing("not present at a node");
        }
        for (a, slot) in self.cat.iter().enumerate() {
            if slot
                .as_ref()
                .is_some_and(|avc| avc.counts_for(r.cat(a))[label as usize] == 0)
            {
                return missing("not counted in a node's AVC-set");
            }
        }
        for (a, slot) in self.buckets.iter().enumerate() {
            if slot.as_ref().is_some_and(|b| !b.can_sub(r.num(a), label)) {
                return missing("not counted in a node's buckets");
            }
        }
        if step == Step::LeftEdge && self.edge_left[label as usize] == 0 {
            return missing("not counted at a node's left edge");
        }
        Ok(())
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
    /// Ancestor-parked tuples routed into this node by final splits.
    pub carried: Vec<Record>,
    /// Fingerprint of `carried` (for grown-subtree reuse).
    pub carried_fp: u64,
}

/// One node of the working tree.
pub(crate) struct WorkNode {
    pub crit: Option<CoarseCriterion>,
    /// Why the coarse node is a frontier leaf (diagnostics).
    #[allow(dead_code)]
    pub reason: Option<FrontierReason>,
    pub left: Option<usize>,
    pub right: Option<usize>,
    #[allow(dead_code)] // parent links are kept for diagnostics/debugging
    pub parent: Option<usize>,
    pub depth: u32,
    /// Estimated `|F_n|` extrapolated from the sample (spill policy only).
    #[allow(dead_code)]
    pub est_family: u64,
    pub state: NodeState,
    pub resolution: Resolution,
    /// Completed subtree for Frontier/Failed nodes.
    pub grown: Option<Tree>,
    /// Fingerprint of the carried set the grown subtree was built with.
    pub grown_carried_fp: Option<u64>,
    /// How many times this position has been promoted to maintained state.
    /// Positions that keep failing verification (noise-driven structure)
    /// fall back to cheap static regrowth instead of re-promoting.
    pub promotions: u32,
}

/// The working tree: coarse structure + cleanup state + resolutions.
pub(crate) struct WorkTree {
    pub schema: Arc<Schema>,
    pub nodes: Vec<WorkNode>,
    pub spill_stats: IoStats,
    /// Observability registry (shared with the owning `Boat`): cleanup-shard
    /// timers, merge spans and verification-verdict counters record here.
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
}

impl RouteNode {
    fn of(node: &WorkNode) -> Self {
        RouteNode {
            crit: node.crit.clone(),
            left: node.left,
            right: node.right,
            keeps: node.state.parked.is_some() || node.state.family.is_some(),
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
/// for the main thread to apply in chunk order. Two invariants make the
/// reduction exact (see `WorkTree::merge_shard` and
/// `WorkTree::apply_deposits`):
///
/// * every statistic is an integer count, so shard merges are associative
///   and commutative — any merge order is bit-identical to one serial
///   accumulation;
/// * deposits preserve row order within a chunk, and chunks are applied
///   in ascending index (= serial scan order), so spill-buffer contents
///   and spill behaviour are byte-identical to [`WorkTree::absorb`] on
///   every record in scan order.
pub(crate) struct CleanupShard {
    nodes: Vec<NodeCounts>,
}

impl CleanupShard {
    /// Check and route every row of `chunk`, returning its deposits. The
    /// first row that fails [`RowLayout::check`] ends the chunk with that
    /// error before any of its counts move.
    fn route_chunk(
        &mut self,
        tree: &[RouteNode],
        layout: &RowLayout,
        chunk: &RecordChunk,
    ) -> Result<Vec<u8>> {
        if chunk.width() != layout.width() || !chunk.bytes.len().is_multiple_of(layout.width()) {
            return Err(DataError::Corrupt(format!(
                "chunk {} holds {} bytes of {}-byte rows, expected {}-byte rows",
                chunk.index,
                chunk.bytes.len(),
                chunk.width(),
                layout.width()
            )));
        }
        let mut deposits = Vec::new();
        for bytes in chunk.rows() {
            layout.check(bytes)?;
            self.route(tree, EncodedRow { layout, bytes }, &mut deposits);
        }
        Ok(deposits)
    }

    /// Route one checked row down `tree`, counting it in this shard. A row
    /// that parks or lands in a retained frontier family is appended to
    /// `deposits` behind its node index.
    #[inline]
    fn route(&mut self, tree: &[RouteNode], row: EncodedRow<'_>, deposits: &mut Vec<u8>) {
        let mut idx = 0usize;
        loop {
            let node = &tree[idx];
            let step = Step::of(node.crit.as_ref(), &row);
            self.nodes[idx].add(&row, step);
            match step.child(node.left, node.right) {
                Some(child) => idx = child,
                None => {
                    if node.keeps {
                        deposits.extend_from_slice(&(idx as u32).to_le_bytes());
                        deposits.extend_from_slice(row.bytes);
                    }
                    return;
                }
            }
        }
    }
}

/// The spill-bound output of routing one input chunk through a shard.
struct RoutedChunk {
    /// Chunk index in scan order (restores the serial application order).
    index: usize,
    /// The chunk's deposits in within-chunk scan order, or its first bad
    /// row.
    deposits: Result<Vec<u8>>,
}

/// Routed chunks waiting for their turn. Chunk `next` is applied as soon as
/// it arrives, then every chunk already waiting behind it, so for an
/// in-order source deposits live only as long as the chunks in flight. An
/// index that arrives twice fails the scan instead of replacing the
/// deposits of a chunk whose counts are already in a shard.
#[derive(Default)]
struct Reorder {
    next: usize,
    waiting: BTreeMap<usize, Result<Vec<u8>>>,
    /// The first failure in chunk order; nothing is applied after it.
    error: Option<DataError>,
}

impl Reorder {
    fn accept(&mut self, tree: &mut WorkTree, layout: &RowLayout, routed: RoutedChunk) {
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
            if let Err(e) = deposits.and_then(|d| tree.apply_deposits(layout, &d)) {
                self.error = Some(e);
                self.waiting.clear();
                return;
            }
        }
    }
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
        spill_stats: IoStats,
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
                spill_stats.clone(),
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
            let est_family = (rows.len() as f64 * scale).round() as u64;
            let (crit, state) = match &cn.crit {
                Some(coarse_crit) => {
                    // Internal: estimate the node's minimum impurity from
                    // the sample, widen the interval and discretize every
                    // numeric attribute from its runs.
                    let est_min = selector
                        .select_columnar(sample, &rows, &ones, &totals)
                        .map_or(0.0, |e| e.impurity);
                    let (crit, counts) = internal_counts(
                        &schema,
                        coarse_crit.clone(),
                        &totals,
                        est_min,
                        imp,
                        config,
                        |a, runs| {
                            let col = sample.num_column(a);
                            let list = rows.sorted[a].as_deref().expect("presorted sample");
                            runs.fill_sorted(
                                list.iter()
                                    .map(|&row| (col[row as usize], sample.label(row))),
                            );
                        },
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
                reason: cn.reason,
                left: cn.left,
                right: cn.right,
                parent: cn.parent,
                depth: cn.depth,
                est_family,
                state,
                resolution: Resolution::Pending,
                grown: None,
                grown_carried_fp: None,
                promotions: 0,
            });
        }
        let nodes = built
            .into_iter()
            .map(|node| node.expect("every coarse node is reachable from the root"))
            .collect();
        WorkTree {
            schema,
            nodes,
            spill_stats,
            metrics,
        }
    }

    /// Stream `r` from the root under the parking rule, handing every node
    /// on its path, and the step taken there, to `visit`. Returns the node
    /// where the walk stops: the numeric node whose `S_n` the record parks
    /// in, or its frontier leaf.
    fn walk(
        &mut self,
        r: &Record,
        mut visit: impl FnMut(&mut NodeState, Step) -> Result<()>,
    ) -> Result<usize> {
        let mut idx = 0usize;
        loop {
            let node = &mut self.nodes[idx];
            let step = Step::of(node.crit.as_ref(), r);
            visit(&mut node.state, step)?;
            match step.child(node.left, node.right) {
                Some(child) => idx = child,
                None => return Ok(idx),
            }
        }
    }

    /// Stream one inserted tuple down the tree, updating statistics (the
    /// per-tuple update of the §3.3/§3.5 cleanup scan, applied in place for
    /// the §4 incremental insert).
    pub fn absorb(&mut self, r: &Record) -> Result<()> {
        let end = self.walk(r, |state, step| {
            state.dirty = true;
            state.counts.add(r, step);
            Ok(())
        })?;
        match self.nodes[end].state.buffer() {
            Some(buf) => buf.push(r),
            None => Ok(()),
        }
    }

    /// Stream a whole chunk of deletions down the tree, deferring every
    /// spill-buffer removal so each buffer is rewritten **once** instead of
    /// once per deleted record.
    ///
    /// Each record is validated along its whole routing path before any
    /// counter moves. Otherwise deleting a record that was never inserted
    /// would underflow a `u64` cell several levels down after its ancestors
    /// were already decremented. A failed delete is therefore a no-op and
    /// the model stays usable. [`SpillBuffer::remove_many`] leaves each
    /// buffer as one-record removals in sequence would, but a D-record chunk
    /// rewrites each touched spilled buffer once (`O(n)`) instead of `D`
    /// times (`O(D·n)`).
    ///
    /// Returns how many records were fully applied, plus the error that
    /// stopped the batch (if any). On an error the prefix before the failing
    /// record is still applied.
    pub fn absorb_delete_batch(&mut self, records: &[Record]) -> (u64, Option<DataError>) {
        let mut pending: BTreeMap<usize, Vec<Record>> = BTreeMap::new();
        let mut applied = 0u64;
        let mut err: Option<DataError> = None;
        for r in records {
            match self.delete_deferred(r, &mut pending) {
                Ok(()) => applied += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        // Apply the deferred removals even after a mid-batch error: the
        // records before the failure already had their counters decremented,
        // so their buffer entries must go too.
        if let Err(e) = self.apply_pending_removals(pending) {
            if err.is_none() {
                err = Some(e);
            }
        }
        (applied, err)
    }

    /// One deletion of [`WorkTree::absorb_delete_batch`]. Validates the whole
    /// routing path first. Buffer membership is checked net of the removals
    /// already in `pending`: the buffer must hold **more** copies than are
    /// earmarked, or a duplicate deletion in one chunk would validate
    /// against the same stored record twice. Then decrements the counters
    /// and queues the buffer removal in `pending`.
    fn delete_deferred(
        &mut self,
        r: &Record,
        pending: &mut BTreeMap<usize, Vec<Record>>,
    ) -> Result<()> {
        // `&mut` walk only because probing a spilled buffer flushes its
        // writer; validation mutates no statistic.
        let end = self.walk(r, |state, step| state.counts.check_sub(r, step))?;
        if let Some(buf) = self.nodes[end].state.buffer() {
            let held = pending
                .get(&end)
                .map_or(0, |queued| queued.iter().filter(|p| *p == r).count() as u64);
            if buf.count_matching(r)? <= held {
                return Err(DataError::Invalid(
                    "deletion of a record missing from its S_n or frontier family".into(),
                ));
            }
            pending.entry(end).or_default().push(r.clone());
        }
        self.walk(r, |state, step| {
            state.dirty = true;
            state.counts.sub(r, step);
            Ok(())
        })?;
        Ok(())
    }

    /// Flush the removals a delete batch queued up: one
    /// [`SpillBuffer::remove_many`] per touched buffer.
    fn apply_pending_removals(&mut self, pending: BTreeMap<usize, Vec<Record>>) -> Result<()> {
        for (idx, targets) in pending {
            let buf = self.nodes[idx]
                .state
                .buffer()
                .expect("removals are queued only at nodes with a buffer");
            let removed = buf.remove_many(&targets)?;
            if removed != targets.len() as u64 {
                return Err(DataError::Invalid(
                    "batch delete failed to remove a validated record".into(),
                ));
            }
        }
        Ok(())
    }

    /// Fold one shard's statistics into the tree.
    ///
    /// Every statistic is an integer count, so this is exactly associative
    /// and commutative: merging any number of shards in any order yields
    /// bit-identical state to a single serial accumulation. Nodes the shard
    /// visited are marked dirty, as [`WorkTree::absorb`] marks them.
    fn merge_shard(&mut self, shard: &CleanupShard) {
        debug_assert_eq!(self.nodes.len(), shard.nodes.len(), "shard shape mismatch");
        for (node, counts) in self.nodes.iter_mut().zip(&shard.nodes) {
            // Every visit counts one tuple, so zero totals mean no visit.
            if counts.class_totals.iter().all(|&c| c == 0) {
                continue;
            }
            node.state.dirty = true;
            node.state.counts.merge_from(counts);
        }
    }

    /// Apply one chunk's spill-bound deposits (parked `S_n` tuples and
    /// retained frontier-family records) to the shared buffers, copying
    /// each row's bytes as they are: no row is decoded.
    ///
    /// Deposits preserve scan order within a chunk; the caller applies
    /// chunks in ascending chunk index — i.e. serial scan order — so every
    /// spill buffer receives its records in exactly the sequence
    /// [`WorkTree::absorb`] would have pushed them.
    fn apply_deposits(&mut self, layout: &RowLayout, deposits: &[u8]) -> Result<()> {
        for deposit in deposits.chunks_exact(4 + layout.width()) {
            let (idx, row) = deposit.split_at(4);
            let idx = u32::from_le_bytes(idx.try_into().expect("4-byte node index")) as usize;
            self.nodes[idx]
                .state
                .buffer()
                .expect("deposits go only to nodes with a buffer")
                .push_row(row)?;
        }
        Ok(())
    }

    /// The cleanup scan (insertions only).
    ///
    /// The main thread drives the sequential chunked scan (I/O stays one
    /// sequential pass, exactly as the paper requires) and fans
    /// [`RecordChunk`]s of encoded rows out over a bounded channel to
    /// `threads` scoped workers (at least one). Each worker checks and
    /// routes its chunks' rows in place down a private [`CleanupShard`] and
    /// sends back per-chunk deposits. Between sends the main thread applies
    /// deposits in ascending chunk index as they become ready; after the
    /// scan, shard statistics merge in any order (integer sums). The result
    /// is bit-identical to calling [`WorkTree::absorb`] on every record in
    /// scan order, at every thread count. A row that fails
    /// [`RowLayout::check`] fails the scan with [`DataError::Corrupt`]; the
    /// first such row in scan order is the one reported.
    pub fn parallel_cleanup(
        &mut self,
        source: &dyn RecordSource,
        threads: usize,
        chunk_size: usize,
    ) -> Result<()> {
        let threads = threads.max(1);
        // Per-shard accumulation is local (plain u64s); each worker records
        // once at exit, so the histograms describe how route time and
        // queue-wait distribute *across shards* without hot-path atomics.
        let route_hist = self.metrics.histogram("boat.cleanup.shard_route");
        let wait_hist = self.metrics.histogram("boat.cleanup.queue_wait");
        let chunks_counter = self.metrics.counter("boat.cleanup.chunks");
        let routed_counter = self.metrics.counter("boat.cleanup.records_routed");
        let layout = RowLayout::new(&self.schema);
        let routes: Vec<RouteNode> = self.nodes.iter().map(RouteNode::of).collect();
        let mut shards: Vec<CleanupShard> = (0..threads)
            .map(|_| CleanupShard {
                nodes: self
                    .nodes
                    .iter()
                    .map(|n| n.state.counts.zeroed_like())
                    .collect(),
            })
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
                            wait_ns = wait_ns.saturating_add(
                                t_wait.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                            );
                            let Ok(chunk) = next else { break };
                            let t_route = Instant::now();
                            n_routed += chunk.len() as u64;
                            let deposits = shard.route_chunk(routes, layout, &chunk);
                            route_ns = route_ns.saturating_add(
                                t_route.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                            );
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
                        wait_hist.record(wait_ns);
                        chunks_counter.add(n_chunks);
                        routed_counter.add(n_routed);
                    });
                }
                drop(chunk_rx);
                drop(out_tx);
                // Produce chunks on this thread: the scan itself is a
                // single sequential pass over the source. After each send,
                // apply whatever the routers have finished.
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
                                order.accept(self, layout, routed);
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
                    order.accept(self, layout, routed);
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
        for shard in &shards {
            self.merge_shard(shard);
        }
        merge_span.finish();
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

    fn finalize_node(
        &mut self,
        idx: usize,
        carried: Vec<Record>,
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
        for r in &carried {
            let step = Step::of(crit.as_ref(), r);
            full.add(r, step);
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
            let fp = fingerprint(&self.schema, &carried);
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
        // interval sweep, and on success the same records route down.
        let mut parked: Vec<Record> = Vec::new();
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
                parked = self.nodes[idx]
                    .state
                    .parked
                    .as_mut()
                    .expect("numeric node parks")
                    .to_vec()?;
                let mut pairs = interval_pairs;
                pairs.extend(parked.iter().map(|r| (r.num(*attr), r.label())));
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
        for r in parked.into_iter().chain(carried) {
            if chosen.split.goes_left(&r) {
                left_c.push(r);
            } else {
                right_c.push(r);
            }
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
        carried: Vec<Record>,
        combined: Vec<u64>,
        reason: FailReason,
        jobs: &mut Vec<Job>,
    ) -> Result<()> {
        let fp = fingerprint(&self.schema, &carried);
        // A failed verdict is exactly a rebuild trigger: the job pushed
        // below regrows (or promotes) this subtree.
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

    /// Try to assemble the full family of `idx` from retained buffers in
    /// its subtree: parked sets at numeric nodes plus family buffers at
    /// frontier nodes. Returns `None` if some frontier descendant retained
    /// no records (a collection scan is then required).
    pub fn collect_subtree(&mut self, idx: usize) -> Result<Option<Vec<Record>>> {
        // First check retainment without copying.
        let mut stack = vec![idx];
        let mut order = Vec::new();
        while let Some(i) = stack.pop() {
            order.push(i);
            if self.nodes[i].crit.is_some() {
                stack.push(self.nodes[i].left.expect("internal"));
                stack.push(self.nodes[i].right.expect("internal"));
            } else if self.nodes[i].state.family.is_none()
                && self.nodes[i]
                    .state
                    .counts
                    .class_totals
                    .iter()
                    .any(|&c| c > 0)
            {
                return Ok(None);
            }
        }
        let mut out = Vec::new();
        for i in order {
            let node = &mut self.nodes[i];
            if let Some(parked) = node.state.parked.as_mut() {
                for r in parked.iter()? {
                    out.push(r?);
                }
            }
            if node.crit.is_none() {
                if let Some(family) = node.state.family.as_mut() {
                    for r in family.iter()? {
                        out.push(r?);
                    }
                }
            }
        }
        Ok(Some(out))
    }

    /// Route one record by the *resolved* splits, returning the index of
    /// the Frontier/Failed node it lands in (if any). Used by the
    /// collection scan for jobs whose records were not retained.
    pub fn route_to_job(&self, r: &Record) -> Option<usize> {
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

    /// Splice another working tree in place of node `at`: the sub-tree's
    /// root replaces `at`, its other nodes are appended with indices
    /// remapped, and its depths are shifted. Used by incremental
    /// maintenance to *promote* a frontier node that outgrew the in-memory
    /// threshold into fully maintained BOAT state (paper §4: the tree's
    /// per-node information is kept up to date as the tree grows).
    pub fn splice(&mut self, at: usize, sub: WorkTree) {
        let base = self.nodes.len();
        let depth_offset = self.nodes[at].depth;
        let parent_of_at = self.nodes[at].parent;
        let remap = |j: usize| if j == 0 { at } else { base + j - 1 };
        for (j, mut n) in sub.nodes.into_iter().enumerate() {
            n.depth += depth_offset;
            n.left = n.left.map(remap);
            n.right = n.right.map(remap);
            n.parent = if j == 0 {
                parent_of_at
            } else {
                Some(remap(n.parent.expect("non-root")))
            };
            if j == 0 {
                self.nodes[at] = n;
            } else {
                self.nodes.push(n);
            }
        }
    }

    /// Size of the root family (the current logical dataset size).
    pub fn root_family(&self) -> u64 {
        self.nodes[0].state.counts.class_totals.iter().sum()
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
    /// [`WorkTree::absorb`] maintain at every node:
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
            let records = buf.to_vec().expect("read buffer");
            assert_eq!(records.len() as u64, buf.len(), "{what} length at node {i}");
            let mut counts = vec![0u64; k];
            for r in &records {
                counts[r.label() as usize] += 1;
            }
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

/// Build maintained BOAT state *exactly* from an in-memory family: every
/// split is computed from the full family (not a sample), numeric criteria
/// get degenerate confidence intervals at the exact split point, and bucket
/// / category statistics are built from the family itself. Used to
/// *promote* a frontier node that outgrew the in-memory threshold into
/// fully maintained state (paper §4 keeps the whole tree's per-node
/// information current as the tree grows) — much cheaper than a bootstrap
/// sub-run, and it verifies trivially on the next pass.
///
/// The records handed in must follow the parking invariant (no
/// ancestor-parked tuples); the returned tree's nodes follow it too.
pub(crate) fn build_exact_work(
    schema: Arc<Schema>,
    records: Vec<Record>,
    imp: &dyn Impurity,
    config: &BoatConfig,
    limits: GrowthLimits,
    spill_stats: IoStats,
    metrics: Registry,
) -> Result<WorkTree> {
    let mut work = WorkTree {
        schema,
        nodes: Vec::new(),
        spill_stats,
        metrics,
    };
    build_exact_node(&mut work, None, 0, records, imp, config, limits)?;
    Ok(work)
}

fn build_exact_node(
    work: &mut WorkTree,
    parent: Option<usize>,
    depth: u32,
    records: Vec<Record>,
    imp: &dyn Impurity,
    config: &BoatConfig,
    limits: GrowthLimits,
) -> Result<usize> {
    let schema = work.schema.clone();
    let k = schema.n_classes();
    let mut class_totals = vec![0u64; k];
    for r in &records {
        class_totals[r.label() as usize] += 1;
    }
    let idx = work.nodes.len();

    let selector = boat_tree::ImpuritySelector::new(ErasedImpurity(imp));
    let refs: Vec<&Record> = records.iter().collect();
    let eval = if limits.must_stop(&class_totals, depth) {
        None
    } else {
        boat_tree::grow::SplitSelector::select_records(&selector, &schema, &refs)
    };
    drop(refs);

    let Some(eval) = eval else {
        // Frontier leaf: retain the family so future growth never rescans.
        let mut family = SpillBuffer::new_in(
            schema.clone(),
            config.spill_budget,
            work.spill_stats.clone(),
            config.spill_dir.clone(),
        );
        family.extend(&records)?;
        work.nodes.push(WorkNode {
            crit: None,
            reason: Some(FrontierReason::SampleLeaf),
            left: None,
            right: None,
            parent,
            depth,
            est_family: class_totals.iter().sum(),
            state: NodeState {
                counts: NodeCounts {
                    class_totals,
                    ..NodeCounts::new(k, Vec::new(), Vec::new())
                },
                parked: None,
                family: Some(family),
                dirty: true,
            },
            resolution: Resolution::Pending,
            grown: None,
            grown_carried_fp: None,
            promotions: 0,
        });
        return Ok(idx);
    };

    // Exact criterion. Numeric splits get the statistical *shelf* around
    // the exact split point as their confidence interval (not a degenerate
    // point: future chunks shift the optimum within sampling noise, and
    // the interval must absorb that or every update would re-promote).
    // Per-attribute statistics are discretized from the family itself, one
    // attribute's sorted `(value, label)` pairs at a time.
    let crit = match eval.split.predicate {
        boat_tree::Predicate::NumLe(x) => CoarseCriterion::Num {
            attr: eval.split.attr,
            lo: x,
            hi: x,
        },
        boat_tree::Predicate::CatIn(subset) => CoarseCriterion::Cat {
            attr: eval.split.attr,
            subset,
        },
    };
    let mut pairs: Vec<(f64, u16)> = Vec::with_capacity(records.len());
    let (crit, mut counts) = internal_counts(
        &schema,
        crit,
        &class_totals,
        eval.impurity,
        imp,
        config,
        |a, runs| {
            pairs.clear();
            pairs.extend(records.iter().map(|r| (r.num(a), r.label())));
            runs.fill_from_pairs(&mut pairs);
        },
    );
    drop(pairs);

    // Partition by the exact criterion with parking, counting every record
    // as the cleanup scan would.
    let mut parked = SpillBuffer::new(
        schema.clone(),
        config.spill_budget,
        work.spill_stats.clone(),
    );
    let (mut left_recs, mut right_recs) = (Vec::new(), Vec::new());
    for r in records {
        let step = Step::of(Some(&crit), &r);
        counts.add(&r, step);
        match step {
            Step::LeftEdge | Step::Left => left_recs.push(r),
            Step::Right => right_recs.push(r),
            Step::Park => parked.push(&r)?,
            Step::Leaf => unreachable!("an internal criterion routes every record"),
        }
    }

    work.nodes.push(WorkNode {
        crit: Some(crit.clone()),
        reason: None,
        left: None,
        right: None,
        parent,
        depth,
        est_family: class_totals.iter().sum(),
        state: NodeState {
            counts,
            parked: matches!(crit, CoarseCriterion::Num { .. }).then_some(parked),
            family: None,
            dirty: true,
        },
        resolution: Resolution::Pending,
        grown: None,
        grown_carried_fp: None,
        promotions: 0,
    });
    let l = build_exact_node(work, Some(idx), depth + 1, left_recs, imp, config, limits)?;
    let r = build_exact_node(work, Some(idx), depth + 1, right_recs, imp, config, limits)?;
    work.nodes[idx].left = Some(l);
    work.nodes[idx].right = Some(r);
    Ok(idx)
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

/// Order-insensitive fingerprint of a carried set (used to reuse grown
/// subtrees across verification passes when nothing changed).
fn fingerprint(schema: &Schema, records: &[Record]) -> u64 {
    let mut acc: u64 = 0x9E3779B97F4A7C15 ^ (records.len() as u64);
    for r in records {
        let mut h = DefaultHasher::new();
        if let Ok(bytes) = boat_data::codec::encode(schema, r) {
            bytes.hash(&mut h);
        }
        // XOR-fold per record: order-insensitive.
        acc ^= h.finish();
    }
    acc
}

/// The cleanup statistics of an internal node whose family (the sample
/// family in [`WorkTree::prepare`], the full family in exact construction)
/// has class totals `totals` and estimated minimum impurity `est_min`: the
/// criterion, its numeric interval widened over the family's runs on the
/// splitting attribute, and zeroed counts with a category/class table per
/// categorical attribute and a bucket set per numeric one, discretized from
/// the same runs. `fill(a, runs)` loads numeric attribute `a`'s runs.
fn internal_counts(
    schema: &Schema,
    mut crit: CoarseCriterion,
    totals: &[u64],
    est_min: f64,
    imp: &dyn Impurity,
    config: &BoatConfig,
    mut fill: impl FnMut(usize, &mut ValueRuns),
) -> (CoarseCriterion, NodeCounts) {
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
                fill(a, &mut runs);
                let edges;
                let must_include: &[f64] = match &mut crit {
                    CoarseCriterion::Num { attr, lo, hi } if *attr == a => {
                        (*lo, *hi) = widen_interval(
                            &runs,
                            totals,
                            imp,
                            *lo,
                            *hi,
                            config.interval_pad_values.max(1),
                        );
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
/// 3. it is padded by `pad_min` extra distinct sample values on each side
///    (the full database's optimum usually sits in the sample-gap just
///    past the sample's best candidate).
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
    pad_min: usize,
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
    lo_idx = lo_idx.saturating_sub(pad_min);
    hi_idx = (hi_idx + pad_min).min(evals.len() - 1);
    (evals[lo_idx].0.min(lo), evals[hi_idx].0.max(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::build_coarse_tree_columnar;
    use boat_data::{Attribute, Field, MemoryDataset, RecordSource};
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
            IoStats::new(),
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

    #[test]
    fn absorb_then_finalize_resolves_a_clean_root() {
        let records = threshold_records(4000);
        let cfg = small_cfg();
        let mut work = prepared(&records, &cfg);
        for r in &records {
            work.absorb(r).unwrap();
        }
        assert_eq!(work.root_family(), 4000);
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
    fn absorb_delete_inverts_insert() {
        let records = threshold_records(1000);
        let cfg = small_cfg();
        let mut work = prepared(&records, &cfg);
        for r in &records {
            work.absorb(r).unwrap();
        }
        work.check_invariants();
        let counts_before = work.nodes[0].state.counts.class_totals.clone();
        let extra = rec(333.0, 0);
        work.absorb(&extra).unwrap();
        work.check_invariants();
        let (applied, err) = work.absorb_delete_batch(std::slice::from_ref(&extra));
        assert_eq!((applied, err.is_none()), (1, true));
        work.check_invariants();
        assert_eq!(work.nodes[0].state.counts.class_totals, counts_before);
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
                    assert_eq!(
                        pa.to_vec().unwrap(),
                        pb.to_vec().unwrap(),
                        "parked records at node {i}"
                    );
                }
                _ => panic!("parked presence differs at node {i}"),
            }
            match (sa.family.as_mut(), sb.family.as_mut()) {
                (None, None) => {}
                (Some(fa), Some(fb)) => {
                    assert_eq!(
                        fa.to_vec().unwrap(),
                        fb.to_vec().unwrap(),
                        "family records at node {i}"
                    );
                }
                _ => panic!("family presence differs at node {i}"),
            }
        }
    }

    #[test]
    fn parallel_cleanup_state_matches_serial_exactly() {
        // Rich multi-attribute data (numeric + categorical criteria, parked
        // buffers, frontier families) — the cleanup scan must leave the
        // work tree in *identical* state to serial `absorb` at every thread
        // count.
        let gen = boat_datagen::GeneratorConfig::new(boat_datagen::LabelFunction::F6).with_seed(77);
        let records = gen.generate_vec(4_000);
        let ds = MemoryDataset::new(gen.schema(), records.clone());
        let cfg = BoatConfig {
            sample_size: 800,
            bootstrap_reps: 8,
            bootstrap_sample_size: 400,
            in_memory_threshold: 100,
            spill_budget: 16,
            cleanup_chunk_size: 123, // odd size → ragged final chunk
            seed: 7,
            ..BoatConfig::default()
        };
        let prepare = || prepare_work(&ds, &cfg, false);
        let mut serial = prepare();
        for r in &records {
            serial.absorb(r).unwrap();
        }
        serial.check_invariants();
        for threads in [1usize, 2, 4, 8] {
            let mut parallel = prepare();
            parallel
                .parallel_cleanup(&ds, threads, cfg.cleanup_chunk_size)
                .unwrap();
            parallel.check_invariants();
            assert_same_state(&mut serial, &mut parallel);
        }
    }

    #[test]
    fn batch_delete_matches_serial_deletes_exactly() {
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
        let prepare = || {
            // Retain families so deletes touch family buffers too.
            let mut work = prepare_work(&ds, &cfg, true);
            for r in &records {
                work.absorb(r).unwrap();
            }
            work
        };
        // Delete every 7th record, including a duplicated prefix so the
        // batch validator must account for already-pending removals.
        let mut victims: Vec<Record> = records.iter().step_by(7).cloned().collect();
        victims.extend(records.iter().step_by(7).take(3).cloned());
        let mut serial = prepare();
        let mut serial_applied = 0u64;
        let mut serial_err: Option<DataError> = None;
        for v in &victims {
            let (applied, err) = serial.absorb_delete_batch(std::slice::from_ref(v));
            serial_applied += applied;
            if err.is_some() {
                serial_err = err;
                break;
            }
        }
        let mut batched = prepare();
        let (batch_applied, batch_err) = batched.absorb_delete_batch(&victims);
        assert_eq!(serial_applied, batch_applied);
        assert_eq!(serial_err.is_some(), batch_err.is_some());
        assert_same_state(&mut serial, &mut batched);
    }

    #[test]
    fn deleting_a_class_never_seen_errors() {
        // All records are class 0; deleting a class-1 record must fail at
        // the root's class totals.
        let records: Vec<Record> = (0..500).map(|i| rec((i % 100) as f64, 0)).collect();
        let cfg = small_cfg();
        let mut work = prepared(&records, &cfg);
        for r in &records {
            work.absorb(r).unwrap();
        }
        let (applied, err) = work.absorb_delete_batch(&[rec(3.0, 1)]);
        assert_eq!(applied, 0);
        assert!(err.is_some());
    }

    #[test]
    fn build_exact_work_verifies_trivially() {
        let records = threshold_records(2000);
        let cfg = small_cfg();
        let work_limits = GrowthLimits::default();
        let mut work = build_exact_work(
            schema(),
            records.clone(),
            &Gini,
            &cfg,
            work_limits,
            boat_data::IoStats::new(),
            boat_obs::Registry::new(),
        )
        .unwrap();
        let jobs = work.finalize(&Gini, work_limits).unwrap();
        assert!(
            matches!(work.nodes[0].resolution, Resolution::Split { .. }),
            "exact-built root must verify"
        );
        assert!(
            !work
                .nodes
                .iter()
                .any(|n| matches!(n.resolution, Resolution::Failed { .. })),
            "exact-built state must not fail its own verification"
        );
        // Frontier jobs (pure leaves resolved as Leaf) need no records.
        for job in &jobs {
            assert!(matches!(
                work.nodes[job.idx].resolution,
                Resolution::Frontier { .. }
            ));
        }
        // The extracted tree (after executing trivial jobs) matches the
        // reference builder.
        let selector = ImpuritySelector::new(Gini);
        let reference =
            boat_tree::TdTreeBuilder::new(&selector, work_limits).fit(&schema(), &records);
        // Execute jobs in-place via static growth (families retained).
        for job in jobs {
            let mut family = work.collect_subtree(job.idx).unwrap().unwrap();
            family.extend(job.carried.iter().cloned());
            let sub = boat_tree::TdTreeBuilder::new(&selector, work_limits).fit(&schema(), &family);
            work.nodes[job.idx].grown = Some(sub);
            work.nodes[job.idx].grown_carried_fp = Some(job.carried_fp);
        }
        assert_eq!(work.extract_tree(), reference);
    }

    #[test]
    fn splice_remaps_structure_and_depths() {
        let records = threshold_records(2000);
        let cfg = small_cfg();
        let mut outer = build_exact_work(
            schema(),
            records.clone(),
            &Gini,
            &cfg,
            GrowthLimits::default(),
            boat_data::IoStats::new(),
            boat_obs::Registry::new(),
        )
        .unwrap();
        let n_before = outer.nodes.len();
        // Splice a small exact tree over the root's left child.
        let left = outer.nodes[0].left.unwrap();
        let child_depth = outer.nodes[left].depth;
        let sub = build_exact_work(
            schema(),
            threshold_records(300),
            &Gini,
            &cfg,
            GrowthLimits::default(),
            boat_data::IoStats::new(),
            boat_obs::Registry::new(),
        )
        .unwrap();
        let sub_nodes = sub.nodes.len();
        outer.splice(left, sub);
        assert_eq!(outer.nodes.len(), n_before + sub_nodes - 1);
        // Depths below the splice point are shifted by the child's depth.
        assert_eq!(outer.nodes[left].depth, child_depth);
        if let Some(l2) = outer.nodes[left].left {
            assert_eq!(outer.nodes[l2].depth, child_depth + 1);
            assert_eq!(outer.nodes[l2].parent, Some(left));
        }
        // Parent link of the splice root is preserved.
        assert_eq!(outer.nodes[left].parent, Some(0));
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
        let (lo, hi) = widen_interval(&runs, &totals, &Gini, 10.0, 10.0, 1);
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
        let (lo, hi) = widen_interval(&runs, &totals, &Gini, 50.0, 50.0, 1);
        let covered = runs.iter().filter(|&(v, _)| v >= lo && v <= hi).count();
        assert!(
            covered < 80,
            "mass cap should stop a flat shelf from covering everything ({covered}/100)"
        );
    }

    /// One node of [`row_form_prepare`].
    struct RowFormNode {
        crit: Option<CoarseCriterion>,
        est_family: u64,
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
                        est_family,
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
                        let pad = cfg.interval_pad_values.max(1);
                        let (lo, hi) =
                            widen_interval(&runs_of(family, attr), totals, &Gini, lo, hi, pad);
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
                    est_family,
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
                node.est_family, want.est_family,
                "{case}: est_family at node {i}"
            );
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
    /// handful holds both signed zeros; they sit inside the noise-free
    /// region `x0 <= 1`, so a split between them never wins (a `NumLe(-0.0)`
    /// winner is not realizable by the `<=` predicate).
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
                let label = if nums[0] <= 1.0 {
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
        for r in &records {
            work.absorb(r).unwrap();
        }
        let read_before = work.spill_stats.snapshot().records_read;
        work.finalize(&Gini, cfg.limits).unwrap();
        let read = work.spill_stats.snapshot().records_read - read_before;
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

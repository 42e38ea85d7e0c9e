//! Decision-tree substrate for the BOAT reproduction.
//!
//! This crate provides everything the construction algorithms (BOAT in
//! `boat-core`, the RainForest baselines in `boat-rainforest`) share:
//!
//! * [`model`] — the binary tree, splitting criteria and prediction.
//! * [`impurity`] — concave impurity functions (Gini, entropy).
//! * [`avc`] — AVC-sets/AVC-groups: the sufficient statistics for split
//!   selection.
//! * [`split`] — split search over AVC data with one deterministic
//!   tie-breaking order, used by *every* algorithm so outputs are
//!   bit-identical.
//! * [`grow`] — the greedy top-down induction schema (the paper's Figure 1)
//!   over in-memory data; the reference all scalable algorithms must match.
//! * [`catset`] — category subsets for categorical splitting predicates.
//! * [`subsample`] — the confidence-gated subsampled split search layered
//!   on the columnar engine (exact output, fewer points evaluated), plus
//!   the Lemma 3.1 corner bound.

#![warn(missing_docs)]

pub mod avc;
pub mod catset;
pub mod columnar;
pub mod grow;
pub mod impurity;
pub mod model;
pub mod model_io;
pub mod pruning;
pub mod quest;
pub mod split;
pub mod stats;
pub mod subsample;

pub use avc::{fold_zero, AttrAvc, AvcGroup, CatAvc, NumAvc, OrdF64};
pub use catset::CatSet;
pub use columnar::{grow_weighted, grow_weighted_gated, ColumnarSample, NodeRows};
pub use grow::{GrowthLimits, ImpuritySelector, SplitSelector, TdTreeBuilder};
pub use impurity::{split_impurity, Entropy, Gini, Impurity};
pub use model::{Node, NodeId, NodeKind, Predicate, Split, Tree};
pub use pruning::{prune_mdl, prune_reduced_error, MdlConfig};
pub use quest::QuestSelector;
pub use split::{best_split, cmp_splits, sweep_numeric, SplitEval};
pub use subsample::{
    corner_lower_bound, ColumnarCtx, SubsampleParams, SubsampleRuntime, SubsampleStats,
};

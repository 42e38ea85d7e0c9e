//! # BOAT — Bootstrapped Optimistic Algorithm for Tree construction
//!
//! A faithful implementation of *"BOAT—Optimistic Decision Tree
//! Construction"* (Gehrke, Ganti, Ramakrishnan, Loh; SIGMOD 1999): exact
//! greedy decision trees over training databases larger than memory, built
//! in (typically) **two sequential scans** instead of one scan per tree
//! level, plus incremental maintenance of the same exact tree under chunk
//! insertions and deletions.
//!
//! The pipeline (paper §3):
//!
//! 1. **Sampling phase** ([`coarse`]) — scan 1 draws an in-memory sample;
//!    bootstrapping turns it into a *coarse tree* whose numeric splits are
//!    confidence intervals and whose categorical splits are exact subsets.
//! 2. **Cleanup phase** (internal) — scan 2 streams every tuple down the
//!    coarse tree, parking tuples that fall inside a confidence interval
//!    and counting category/bucket statistics everywhere else.
//! 3. **Verification** ([`verify`], [`buckets`]) — the exact split is
//!    computed inside each interval, and Lemma 3.1's concavity corner bound
//!    proves no better split exists outside; any detected failure rebuilds
//!    just the affected subtree, so the output is *always* the exact tree.
//! 4. **Dynamic maintenance** ([`incremental`]) — the retained state
//!    absorbs insert/delete chunks in one scan over the chunk, routed by
//!    the cleanup scan's routers and applied all or nothing, with the
//!    identical-tree guarantee preserved.
//!
//! Every run records into a `boat_obs` registry (phase spans, verification
//! verdicts, cleanup-shard timers, input/spill I/O counters); the per-run
//! delta is returned as [`BoatRunStats::metrics`], so the paper's cost
//! model ("two scans, bounded spill") is directly assertable.
//!
//! ```no_run
//! use boat_core::{Boat, BoatConfig};
//! use boat_data::FileDataset;
//!
//! let data = FileDataset::open("train.boat").unwrap();
//! let fit = Boat::new(BoatConfig::scaled_for(1_000_000)).fit(&data).unwrap();
//! println!("{} scans, {} nodes", fit.stats.scans_over_input, fit.tree.n_nodes());
//! ```

#![warn(missing_docs)]

mod boat;
pub mod buckets;
pub mod coarse;
pub mod config;
pub mod incremental;
pub mod stats;
pub mod stream;
pub mod verify;
mod work;

pub use boat::{reference_tree, Boat, BoatFit};
pub use coarse::{CoarseCriterion, CoarseTree, FrontierReason};
pub use config::{BoatConfig, DiscretizeStrategy};
pub use incremental::{BoatModel, MaintainReport, UpdateReport};
pub use stats::BoatRunStats;
pub use stream::{
    replay_wal_into, DeadlineTrigger, DriftTrigger, MaintainTrigger, ProvenanceSink, QuiesceReport,
    RecordCountTrigger, Staleness, StalenessBound, StreamConfig, StreamStats, StreamWriter,
    StreamingBoat,
};

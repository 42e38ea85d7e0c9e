//! # boat-repro — BOAT: Optimistic Decision Tree Construction (SIGMOD 1999)
//!
//! Facade crate re-exporting the whole workspace so examples, integration
//! tests and downstream users can depend on a single crate.
//!
//! * [`data`] — storage substrate: schemas, records, counted file scans,
//!   sampling, spill buffers, the write-ahead log.
//! * [`datagen`] — the Agrawal et al. synthetic classification benchmark
//!   generator used by the paper's evaluation.
//! * [`tree`] — decision-tree substrate: tree model, impurity functions,
//!   split selection and the classic greedy in-memory builder.
//! * [`boat`] — the paper's contribution: two-scan exact tree construction
//!   and incremental maintenance.
//! * [`rainforest`] — the RainForest baselines (RF-Hybrid, RF-Vertical) the
//!   paper compares against.
//! * [`serve`] — the read path: trees compiled to flat structure-of-arrays
//!   tables, epoch-versioned snapshot publication, and a multi-worker
//!   serving engine that scores while maintenance runs.
//! * [`proof`] — authenticated provenance: Merkle-committed trees, chained
//!   epoch fingerprints over the maintenance history, and per-prediction
//!   path proofs any client can verify against the model commitment.
//!
//! ## Quickstart
//!
//! ```no_run
//! use boat_repro::datagen::{GeneratorConfig, LabelFunction};
//! use boat_repro::boat::{Boat, BoatConfig};
//! use boat_repro::data::dataset::RecordSource;
//!
//! // Synthesize a training database on disk (100k tuples of Function 1).
//! let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(42);
//! let file = gen.materialize("train.boat", 100_000).unwrap();
//!
//! // Build the exact greedy decision tree in two scans.
//! let result = Boat::new(BoatConfig::default()).fit(&file).unwrap();
//! println!("{}", result.tree.render(file.schema()));
//! println!("scans over D: {}", result.stats.scans_over_input);
//! ```

pub use boat_core as boat;
pub use boat_data as data;
pub use boat_datagen as datagen;
pub use boat_proof as proof;
pub use boat_rainforest as rainforest;
pub use boat_serve as serve;
pub use boat_tree as tree;

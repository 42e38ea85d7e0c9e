//! Experiment harness for the BOAT paper's evaluation (§5).
//!
//! One binary per figure group regenerates the corresponding figure's data
//! as a table (rows = the paper's x-axis, columns = the algorithms):
//!
//! | binary | paper figures |
//! |---|---|
//! | `scalability` | 4, 5, 6 — overall time vs dataset size, F1/F6/F7 |
//! | `noise`       | 7, 8, 9 — time vs noise level |
//! | `extra_attrs` | 10, 11 — time vs added random attributes |
//! | `instability` | 12 — bimodal bootstrap split points |
//! | `dynamic`     | 13, 14, 15 — incremental updates vs re-builds |
//!
//! Sizes default to 1/100 of the paper's (2–10 M tuples → 20–100 k) with
//! every knob overridable; each row reports wall time **and** the scan /
//! record-read counts that drive it, since at laptop scale the shape of the
//! I/O counts is the more robust signal.

#![warn(missing_docs)]

pub mod cli;
pub mod obs;
pub mod run;
pub mod table;

pub use cli::Args;
pub use obs::{print_metrics_summary, BenchReport};
pub use run::{rf_budgets, run_boat, run_rf_hybrid, run_rf_vertical, run_rf_write, AlgoResult};
pub use table::Table;

use boat_data::dataset::RecordSource;
use boat_data::{FileDataset, Result};
use boat_datagen::GeneratorConfig;
use std::path::PathBuf;

/// Directory used for materialized benchmark datasets and temp files.
pub fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("boat-bench");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Materialize (or reuse a previously materialized) dataset for a
/// generator configuration. The cache key encodes the generator parameters
/// and size, so sweeps don't regenerate shared datasets.
pub fn materialize_cached(gen: &GeneratorConfig, n: u64, key: &str) -> Result<FileDataset> {
    let path = bench_dir().join(format!("{key}-{n}.boat"));
    if path.exists() {
        if let Ok(ds) = FileDataset::open(&path) {
            if ds.len() == n {
                return Ok(ds);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    gen.materialize(&path, n)
}

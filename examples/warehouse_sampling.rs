//! Mining a decision tree from a data-warehouse query **without
//! materializing the training set** (paper §1: "BOAT enables mining of
//! decision trees from any star-join query without materializing the
//! training set ... as long as random samples from parts of the training
//! database can be obtained").
//!
//! Here the [`SyntheticSource`] plays the role of a training view defined
//! by a query: it is never written to disk, only *scanned* — and every scan
//! recomputes the view, which is exactly why scan counts matter. BOAT needs
//! two scans; RainForest needs one per level (plus batching), so on a
//! non-materialized view its cost multiplies.
//!
//! ```sh
//! cargo run --release --example warehouse_sampling
//! ```

use boat_repro::boat::{Boat, BoatConfig};
use boat_repro::data::dataset::RecordSource;
use boat_repro::datagen::{GeneratorConfig, LabelFunction};
use boat_repro::rainforest::{RainForest, RfConfig, RfVariant};
use boat_repro::tree::GrowthLimits;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150_000);

    // The "star-join view": recomputed on every scan, never materialized.
    let view = GeneratorConfig::new(LabelFunction::F7)
        .with_seed(3)
        .source(n);
    println!(
        "training view: {} tuples (never materialized)\n",
        view.len()
    );

    let limits = GrowthLimits {
        stop_family_size: Some((n / 8).max(1_000)),
        ..GrowthLimits::default()
    };

    // BOAT over the view.
    let mut config = BoatConfig::scaled_for(n).with_seed(11);
    config.limits = limits;
    let t = Instant::now();
    let boat_fit = Boat::new(config).fit(&view)?;
    let boat_time = t.elapsed();
    let boat_scans = view.metrics().snapshot().counter("data.input.scans");

    // RainForest over the same view (fresh source for clean accounting).
    let view_rf = GeneratorConfig::new(LabelFunction::F7)
        .with_seed(3)
        .source(n);
    let rf_config = RfConfig {
        avc_budget_entries: 3_000_000,
        in_memory_threshold: (n / 8).max(1_000),
        limits,
    };
    let t = Instant::now();
    let rf_fit = RainForest::new(RfVariant::Hybrid, rf_config).fit(&view_rf)?;
    let rf_time = t.elapsed();
    let rf_scans = view_rf.metrics().snapshot().counter("data.input.scans");

    assert_eq!(
        boat_fit.tree, rf_fit.tree,
        "both algorithms build the exact same tree"
    );

    println!("algorithm   | scans of the view | recomputed tuples | wall time");
    println!("------------+-------------------+-------------------+----------");
    println!(
        "BOAT        | {boat_scans:>17} | {:>17} | {boat_time:?}",
        boat_scans * n
    );
    println!(
        "RF-Hybrid   | {rf_scans:>17} | {:>17} | {rf_time:?}",
        rf_scans * n
    );
    println!(
        "\nidentical trees ({} nodes); BOAT re-evaluated the query {}x, RainForest {}x",
        boat_fit.tree.n_nodes(),
        boat_scans,
        rf_scans
    );
    Ok(())
}

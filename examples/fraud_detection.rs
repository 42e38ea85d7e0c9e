//! The paper's motivating dynamic scenario (§1, §4): a credit-card company
//! receives new transactions continuously; the fraud-detection tree must
//! reflect them without nightly full rebuilds.
//!
//! This example builds a BOAT model once, then streams in nightly chunks:
//! * nights 1–3 come from the same distribution — updates are cheap and the
//!   original data is never rescanned;
//! * night 4 brings a *new fraud pattern* (distribution drift in part of
//!   the attribute space) — verification localizes the change and rebuilds
//!   only the affected subtree;
//! * old transactions expire (deletion chunks) with the same machinery.
//!
//! After every update the maintained tree is asserted identical to a full
//! rebuild — the paper's exactness guarantee, live.
//!
//! ```sh
//! cargo run --release --example fraud_detection
//! ```

use boat_repro::boat::{reference_tree, Boat, BoatConfig};
use boat_repro::data::dataset::RecordSource;
use boat_repro::data::MemoryDataset;
use boat_repro::datagen::{GeneratorConfig, LabelFunction};
use boat_repro::tree::Gini;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base_n = 60_000;
    let chunk_n = 10_000;

    // "Transactions": the Agrawal benchmark stands in for transaction
    // features; Function 1 labels the (initial) fraud pattern, and its
    // drifted variant models a new fraud scheme appearing in the
    // high-salary segment.
    let normal = GeneratorConfig::new(LabelFunction::F1).with_seed(1);
    let drifted = GeneratorConfig::new(LabelFunction::F1Drift).with_seed(99);
    let schema = normal.schema();

    println!("building initial model on {base_n} transactions ...");
    let mut history = normal.generate_vec(base_n);
    let base = MemoryDataset::new(schema.clone(), history.clone());
    let algo = Boat::new(BoatConfig::scaled_for(base_n as u64).with_seed(5));
    let t0 = Instant::now();
    let (mut model, build_stats) = algo.fit_model(&base)?;
    println!(
        "  built in {:?}: {} nodes, {} scans, {} parked tuples\n",
        t0.elapsed(),
        model.tree()?.n_nodes(),
        build_stats.scans_over_input,
        build_stats.parked_tuples
    );
    let base_scans_after_build = base.metrics().snapshot().counter("data.input.scans");

    // Nights 1-3: same distribution, different seeds.
    for night in 1..=3 {
        let chunk_gen = normal.clone().with_seed(1000 + night);
        let chunk_records = chunk_gen.generate_vec(chunk_n);
        let chunk = MemoryDataset::new(schema.clone(), chunk_records.clone());
        let report = model.insert(&chunk)?;
        let maintenance = model.maintain()?;
        history.extend(chunk_records);
        println!(
            "night {night}: +{} transactions in {:?} + maintenance {:?} (failed subtrees: {})",
            report.inserted, report.time, maintenance.time, maintenance.failed_nodes
        );
        verify(&mut model, &schema, &history);
    }
    assert_eq!(
        base.metrics().snapshot().counter("data.input.scans"),
        base_scans_after_build,
        "same-distribution updates never rescan the original transactions"
    );
    println!("  original transaction file untouched since the build ✓\n");

    // Night 4: a new fraud pattern appears.
    let drift_records = drifted.generate_vec(chunk_n);
    let chunk = MemoryDataset::new(schema.clone(), drift_records.clone());
    let report = model.insert(&chunk)?;
    let maintenance = model.maintain()?;
    history.extend(drift_records);
    println!(
        "night 4 (NEW FRAUD PATTERN): +{} transactions in {:?}; \
         maintenance {:?} rebuilt {} subtree(s)",
        report.inserted, report.time, maintenance.time, maintenance.regrown_subtrees
    );
    verify(&mut model, &schema, &history);

    // Quarter end: the oldest chunk of transactions expires.
    let expired: Vec<_> = history.drain(..chunk_n).collect();
    let chunk = MemoryDataset::new(schema.clone(), expired);
    let report = model.delete(&chunk)?;
    println!(
        "\nexpiry: -{} transactions in {:?} (deletions are symmetric to insertions)",
        report.deleted, report.time
    );
    verify(&mut model, &schema, &history);

    println!("\nfinal tree ({} nodes):", model.tree()?.n_nodes());
    println!("{}", model.tree()?.render(&schema));
    Ok(())
}

/// Assert the maintained tree equals a from-scratch rebuild on the current
/// history — the §4 guarantee.
fn verify(
    model: &mut boat_repro::boat::BoatModel,
    schema: &std::sync::Arc<boat_repro::data::Schema>,
    history: &[boat_repro::data::Record],
) {
    let net = MemoryDataset::new(schema.clone(), history.to_vec());
    let reference = reference_tree(&net, Gini, model.config().limits).expect("reference");
    assert_eq!(
        model.tree().expect("maintain"),
        &reference,
        "maintained tree must equal a full rebuild"
    );
    println!(
        "  tree identical to full rebuild on {} transactions ✓",
        history.len()
    );
}

//! Quickstart: materialize a synthetic training database, build the exact
//! decision tree with BOAT in two scans, and verify it against the
//! in-memory reference builder.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use boat_repro::boat::{reference_tree, Boat, BoatConfig};
use boat_repro::data::dataset::RecordSource;
use boat_repro::datagen::{GeneratorConfig, LabelFunction};
use boat_repro::tree::Gini;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    // 1. Synthesize a training database on disk: the Agrawal et al.
    //    benchmark, Function 6 (three predicates over age, salary and
    //    commission), 5% label noise.
    let dir = std::env::temp_dir().join("boat-quickstart");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("train.boat");
    let gen = GeneratorConfig::new(LabelFunction::F6)
        .with_seed(42)
        .with_noise(0.05);
    println!("materializing {n} tuples of F6 to {} ...", path.display());
    let data = gen.materialize(&path, n)?;

    // 2. Build the tree with BOAT. `scaled_for` mirrors the paper's §5.1
    //    setup at this dataset's scale (sample, bootstrap, in-memory
    //    switch).
    let config = BoatConfig::scaled_for(n).with_seed(7);
    let boat = Boat::new(config.clone());
    let fit = boat.fit(&data)?;

    println!("\n=== BOAT result ===");
    println!(
        "tree: {} nodes, {} leaves, depth {}",
        fit.tree.n_nodes(),
        fit.tree.n_leaves(),
        fit.tree.max_depth()
    );
    println!("stats: {}", fit.stats);
    println!(
        "scans over the training database: {} (traditional algorithms: one per level = {})",
        fit.stats.scans_over_input,
        fit.tree.max_depth()
    );
    println!("\n{}", fit.tree.render(data.schema()));

    // 3. The guarantee: identical to the greedy in-memory tree.
    println!("verifying against the in-memory reference builder ...");
    let reference = reference_tree(&data, Gini, config.limits)?;
    assert_eq!(
        fit.tree, reference,
        "BOAT must produce the exact reference tree"
    );
    println!("exact match ✓");

    // 4. Use the classifier: a fresh, noise-free holdout from a different
    //    seed measures how well the tree recovered the true concept.
    let holdout = GeneratorConfig::new(LabelFunction::F6)
        .with_seed(4242)
        .generate_vec(10_000);
    let correct = holdout
        .iter()
        .filter(|r| fit.tree.predict(r) == r.label())
        .count();
    println!(
        "holdout accuracy on 10k fresh noise-free tuples: {:.1}%",
        100.0 * correct as f64 / 10_000.0
    );

    // 5. Ship it: serialize the model, reload, verify bit-identical.
    let model_path = dir.join("model.boattree");
    std::fs::write(&model_path, fit.tree.to_bytes())?;
    let reloaded = boat_repro::tree::Tree::from_bytes(&std::fs::read(&model_path)?)?;
    assert_eq!(reloaded, fit.tree);
    println!(
        "model serialized to {} ({} bytes) and reloaded bit-identically ✓",
        model_path.display(),
        std::fs::metadata(&model_path)?.len()
    );
    std::fs::remove_file(&model_path).ok();

    std::fs::remove_file(&path).ok();
    Ok(())
}

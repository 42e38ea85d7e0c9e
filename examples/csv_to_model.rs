//! End-to-end production path: delimited text in, deployable model out.
//!
//! 1. Import a CSV (string categories interned into dictionaries) into an
//!    on-disk training database.
//! 2. Build the exact decision tree with BOAT.
//! 3. Post-prune it (MDL) — the phase the paper scopes out but every user
//!    needs.
//! 4. Serialize the pruned model and reload it for serving.
//!
//! ```sh
//! cargo run --release --example csv_to_model
//! ```

use boat_repro::boat::{Boat, BoatConfig};
use boat_repro::data::csv::{import_csv, CsvOptions};
use boat_repro::data::dataset::RecordSource;
use boat_repro::data::{Attribute, Schema};
use boat_repro::datagen::{GeneratorConfig, LabelFunction};
use boat_repro::tree::{prune_mdl, MdlConfig, Tree};
use std::fmt::Write as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("boat-csv-example");
    std::fs::create_dir_all(&dir)?;

    // --- 0. Fabricate the "export from the warehouse": a CSV with string
    //        categories, from the Agrawal generator (F2: age × salary).
    let gen = GeneratorConfig::new(LabelFunction::F2)
        .with_seed(8)
        .with_noise(0.05);
    let zips = [
        "north", "south", "east", "west", "midtown", "docks", "hills", "old town", "port",
    ];
    let mut csv = String::from("salary,age,zipcode,label\n");
    for r in gen.generate_vec(40_000) {
        writeln!(
            csv,
            "{},{},{},{}",
            r.num(0),
            r.num(2),
            zips[r.cat(5) as usize],
            if r.label() == 0 { "approve" } else { "review" }
        )?;
    }
    let csv_path = dir.join("applications.csv");
    std::fs::write(&csv_path, &csv)?;
    println!(
        "wrote {} ({} KiB of CSV)",
        csv_path.display(),
        csv.len() / 1024
    );

    // --- 1. Import against a declared schema.
    let schema = Schema::shared(
        vec![
            Attribute::numeric("salary"),
            Attribute::numeric("age"),
            Attribute::categorical("zipcode", 9),
        ],
        2,
    )?;
    let data_path = dir.join("applications.boat");
    let (data, dicts) = import_csv(&csv_path, &data_path, schema.clone(), CsvOptions::default())?;
    println!(
        "imported {} records; zipcode dictionary: {:?} …; labels: {:?}",
        data.len(),
        (0..3)
            .filter_map(|c| dicts.attributes[2].name(c))
            .collect::<Vec<_>>(),
        (0..2)
            .filter_map(|c| dicts.label.name(c))
            .collect::<Vec<_>>(),
    );

    // --- 2. Exact tree via BOAT.
    let fit = Boat::new(BoatConfig::scaled_for(data.len()).with_seed(9)).fit(&data)?;
    println!(
        "\nBOAT: {} nodes in {} scans",
        fit.tree.n_nodes(),
        fit.stats.scans_over_input
    );

    // --- 3. MDL pruning.
    let pruned = prune_mdl(&fit.tree, MdlConfig::default());
    println!(
        "MDL pruning: {} -> {} nodes",
        fit.tree.n_nodes(),
        pruned.n_nodes()
    );

    // --- 4. Serialize + reload + serve.
    let model_path = dir.join("model.boattree");
    std::fs::write(&model_path, pruned.to_bytes())?;
    let served = Tree::from_bytes(&std::fs::read(&model_path)?)?;
    assert_eq!(served, pruned);

    let fresh = GeneratorConfig::new(LabelFunction::F2)
        .with_seed(88)
        .generate_vec(10_000);
    // The CSV interned labels in first-seen order, so generator labels
    // (0 = "approve") must be translated through the dictionary.
    let approve = dicts.label.code("approve").expect("seen during import") as u16;
    let review = dicts.label.code("review").expect("seen during import") as u16;
    let schema_order_record = |r: &boat_repro::data::Record| {
        boat_repro::data::Record::new(
            vec![
                boat_repro::data::Field::Num(r.num(0)),
                boat_repro::data::Field::Num(r.num(2)),
                boat_repro::data::Field::Cat(r.cat(5)),
            ],
            if r.label() == 0 { approve } else { review },
        )
    };
    let correct = fresh
        .iter()
        .map(&schema_order_record)
        .filter(|r| served.predict(r) == r.label())
        .count();
    println!(
        "reloaded model classifies 10k fresh applications at {:.1}% accuracy \
         (labels map back through the dictionary: 0 = {:?})",
        100.0 * correct as f64 / 10_000.0,
        dicts.label.name(0).unwrap_or("?")
    );

    for p in [&csv_path, &data_path, &model_path] {
        std::fs::remove_file(p).ok();
    }
    Ok(())
}

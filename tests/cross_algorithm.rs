//! Workspace-level integration: all three construction algorithms — the
//! in-memory reference, BOAT, RF-Hybrid and RF-Vertical — produce the
//! identical tree over on-disk datasets, and the whole file-based pipeline
//! (generate → materialize → fit → predict) holds together.

use boat_repro::boat::{reference_tree, Boat, BoatConfig};
use boat_repro::data::dataset::RecordSource;
use boat_repro::data::{FileDataset, MemoryDataset};
use boat_repro::datagen::{GeneratorConfig, LabelFunction};
use boat_repro::rainforest::{RainForest, RfConfig, RfVariant};
use boat_repro::tree::{Gini, GrowthLimits};

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("boat-repro-integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn all_algorithms_agree_on_disk_data() {
    for (f, seed) in [
        (LabelFunction::F1, 51u64),
        (LabelFunction::F6, 52),
        (LabelFunction::F7, 53),
    ] {
        let path = tmpfile(&format!("agree-{seed}.boat"));
        let gen = GeneratorConfig::new(f).with_seed(seed).with_noise(0.02);
        let data = gen.materialize(&path, 6_000).unwrap();

        let limits = GrowthLimits {
            stop_family_size: Some(400),
            ..GrowthLimits::default()
        };
        let reference = reference_tree(&data, Gini, limits).unwrap();

        let mut bc = BoatConfig::scaled_for(6_000).with_seed(seed);
        bc.limits = limits;
        let boat = Boat::new(bc).fit(&data).unwrap();
        assert_eq!(boat.tree, reference, "{f:?}: BOAT vs reference");

        let rfc = RfConfig {
            avc_budget_entries: 60_000,
            in_memory_threshold: 400,
            limits,
        };
        let hybrid = RainForest::new(RfVariant::Hybrid, rfc.clone())
            .fit(&data)
            .unwrap();
        assert_eq!(hybrid.tree, reference, "{f:?}: RF-Hybrid vs reference");
        let vertical = RainForest::new(RfVariant::Vertical, rfc)
            .fit(&data)
            .unwrap();
        assert_eq!(vertical.tree, reference, "{f:?}: RF-Vertical vs reference");

        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn boat_reads_less_than_level_synchronous_rainforest() {
    // The headline cost comparison, measured as *records read* (the BOAT
    // handle also counts its temporary spill files, so this is
    // total I/O, not just scans of D).
    let path = tmpfile("scans.boat");
    let gen = GeneratorConfig::new(LabelFunction::F7).with_seed(60);
    let data = gen.materialize(&path, 12_000).unwrap();
    let records_read = |source: &dyn RecordSource| {
        source
            .metrics()
            .snapshot()
            .counter("data.input.records_read")
    };

    let limits = GrowthLimits {
        stop_family_size: Some(1_000),
        ..GrowthLimits::default()
    };
    let mut bc = BoatConfig::scaled_for(12_000).with_seed(61);
    bc.sample_size = 3_000;
    bc.bootstrap_sample_size = 1_500;
    bc.limits = limits;
    bc.in_memory_threshold = 1_000;
    let before = records_read(&data);
    let fit = Boat::new(bc).fit(&data).unwrap();
    let boat_read = records_read(&data) - before + fit.stats.spill_io.records_read;

    let data_rf = FileDataset::open(&path).unwrap();
    let rfc = RfConfig {
        avc_budget_entries: 10_000_000,
        in_memory_threshold: 1_000,
        limits,
    };
    let rf = RainForest::new(RfVariant::Hybrid, rfc)
        .fit(&data_rf)
        .unwrap();
    let rf_read = records_read(&data_rf);

    assert_eq!(fit.tree, rf.tree);
    assert!(
        boat_read < rf_read,
        "BOAT must read less data than level-synchronous RainForest: \
         {boat_read} vs {rf_read} records (BOAT stats: {})",
        fit.stats
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn dataset_log_drives_incremental_rebuild_equivalence() {
    // Model the warehouse flow end-to-end: a base file, an insertion
    // chunk and a deletion chunk through the model; BOAT's incremental
    // model must match a full rebuild over the net contents.
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(70);
    let schema = gen.schema();
    let all = gen.generate_vec(9_000);

    let base_path = tmpfile("log-base.boat");
    let base = {
        let src = MemoryDataset::new(schema.clone(), all[..5_000].to_vec());
        FileDataset::create_from(&base_path, &src).unwrap()
    };

    let algo = Boat::new(BoatConfig::scaled_for(5_000).with_seed(71));
    let (mut model, _) = algo.fit_model(&base).unwrap();

    // Insert 5k..9k.
    let chunk1 = MemoryDataset::new(schema.clone(), all[5_000..9_000].to_vec());
    model.insert(&chunk1).unwrap();
    // Expire 0..2k.
    let expired = MemoryDataset::new(schema.clone(), all[..2_000].to_vec());
    model.delete(&expired).unwrap();

    let net = MemoryDataset::new(schema.clone(), all[2_000..9_000].to_vec());
    assert_eq!(net.len(), 7_000);
    let reference = reference_tree(&net, Gini, GrowthLimits::default()).unwrap();
    assert_eq!(model.tree().unwrap(), &reference);
    std::fs::remove_file(&base_path).ok();
}

#[test]
fn non_materialized_source_trains_identically_to_materialized() {
    let gen = GeneratorConfig::new(LabelFunction::F3).with_seed(80);
    let streaming = gen.source(5_000);

    let path = tmpfile("materialized.boat");
    let materialized = gen.materialize(&path, 5_000).unwrap();

    let algo = Boat::new(BoatConfig::scaled_for(5_000).with_seed(81));
    let a = algo.fit(&streaming).unwrap();
    let b = algo.fit(&materialized).unwrap();
    assert_eq!(a.tree, b.tree);
    std::fs::remove_file(&path).ok();
}

#[test]
fn predictions_match_labels_on_clean_separable_data() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(90);
    let data = MemoryDataset::new(gen.schema(), gen.generate_vec(8_000));
    let fit = Boat::new(BoatConfig::scaled_for(8_000).with_seed(91))
        .fit(&data)
        .unwrap();
    // F1 is noise-free and axis-aligned: the exact greedy tree classifies
    // training data perfectly.
    for r in data.records() {
        assert_eq!(fit.tree.predict(r), r.label());
    }
}

#[test]
fn facade_reexports_are_usable() {
    // Spot-check that the facade exposes the documented API surface.
    let _ = boat_repro::boat::BoatConfig::default();
    let _ = boat_repro::rainforest::RfConfig::default();
    let _ = boat_repro::tree::GrowthLimits::default();
    let _ = boat_repro::data::IoSnapshot::default();
    let _ = boat_repro::datagen::GeneratorConfig::new(boat_repro::datagen::LabelFunction::F1);
}

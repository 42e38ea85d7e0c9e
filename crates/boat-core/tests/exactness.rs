//! The paper's central guarantee: BOAT constructs *exactly* the tree a
//! traditional in-memory algorithm builds on the full training database —
//! across label functions, noise levels, impurity functions, schemas, and
//! adversarial (unstable) data designed to defeat the optimistic phase.

use boat_core::{reference_tree, Boat, BoatConfig, DiscretizeStrategy};
use boat_data::dataset::RecordSource;
use boat_data::MemoryDataset;
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_tree::{Entropy, Gini, GrowthLimits};

fn small_config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 1_500,
        bootstrap_reps: 12,
        bootstrap_sample_size: 600,
        in_memory_threshold: 400,
        spill_budget: 64,
        seed,
        ..BoatConfig::default()
    }
}

fn check_exact(cfg: &GeneratorConfig, n: u64, boat_cfg: BoatConfig) {
    let source = cfg.source(n);
    let fit = Boat::new(boat_cfg.clone()).fit(&source).expect("boat fit");
    let reference = reference_tree(&source, Gini, boat_cfg.limits).expect("reference fit");
    assert_eq!(
        fit.tree,
        reference,
        "BOAT tree differs from the reference tree\nBOAT:\n{}\nreference:\n{}\nstats: {}",
        fit.tree.render(source.schema()),
        reference.render(source.schema()),
        fit.stats
    );
}

#[test]
fn exact_on_f1() {
    check_exact(
        &GeneratorConfig::new(LabelFunction::F1).with_seed(1),
        8_000,
        small_config(101),
    );
}

#[test]
fn exact_on_f6() {
    check_exact(
        &GeneratorConfig::new(LabelFunction::F6).with_seed(2),
        8_000,
        small_config(102),
    );
}

#[test]
fn exact_on_f7() {
    check_exact(
        &GeneratorConfig::new(LabelFunction::F7).with_seed(3),
        8_000,
        small_config(103),
    );
}

#[test]
fn exact_on_every_label_function() {
    for f in 1..=10 {
        let func = LabelFunction::from_number(f).unwrap();
        check_exact(
            &GeneratorConfig::new(func).with_seed(40 + f as u64),
            4_000,
            small_config(200 + f as u64),
        );
    }
}

#[test]
fn exact_with_noise() {
    for noise in [0.02, 0.06, 0.10] {
        check_exact(
            &GeneratorConfig::new(LabelFunction::F1)
                .with_seed(5)
                .with_noise(noise),
            6_000,
            small_config(300),
        );
    }
}

#[test]
fn exact_with_extra_attributes() {
    check_exact(
        &GeneratorConfig::new(LabelFunction::F6)
            .with_seed(6)
            .with_extra_attrs(4),
        5_000,
        small_config(400),
    );
}

#[test]
fn exact_with_entropy() {
    let source = GeneratorConfig::new(LabelFunction::F2)
        .with_seed(7)
        .source(6_000);
    let fit = Boat::with_impurity(small_config(500), Entropy)
        .fit(&source)
        .unwrap();
    let reference = reference_tree(&source, Entropy, GrowthLimits::default()).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn exact_with_stop_threshold() {
    // Paper-mode: stop growth at families under a size threshold.
    let limits = GrowthLimits {
        stop_family_size: Some(500),
        ..GrowthLimits::default()
    };
    let mut cfg = small_config(600);
    cfg.limits = limits;
    let source = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(8)
        .source(10_000);
    let fit = Boat::new(cfg).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, limits).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn exact_with_max_depth() {
    let limits = GrowthLimits {
        max_depth: Some(3),
        ..GrowthLimits::default()
    };
    let mut cfg = small_config(700);
    cfg.limits = limits;
    let source = GeneratorConfig::new(LabelFunction::F6)
        .with_seed(9)
        .source(6_000);
    let fit = Boat::new(cfg).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, limits).unwrap();
    assert_eq!(fit.tree, reference);
    assert!(fit.tree.max_depth() <= 3);
}

#[test]
fn exact_on_unstable_two_minima_data() {
    // The Figure 12 adversarial case: bootstrap split points are bimodal, so
    // the optimistic phase degrades — but the output must stay exact.
    let ds = boat_datagen::instability::two_minima_dataset(200, 8);
    let mut cfg = small_config(800);
    cfg.sample_size = 2_000;
    cfg.in_memory_threshold = 500;
    let fit = Boat::new(cfg).fit(&ds).unwrap();
    let reference = reference_tree(&ds, Gini, GrowthLimits::default()).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn exact_with_degenerate_interval_and_tiny_sample() {
    // A sample far too small to be reliable: verification failures and
    // rebuilds must still converge to the exact tree.
    let mut cfg = small_config(900);
    cfg.sample_size = 60;
    cfg.bootstrap_reps = 4;
    cfg.bootstrap_sample_size = 30;
    cfg.in_memory_threshold = 100;
    check_exact(
        &GeneratorConfig::new(LabelFunction::F2).with_seed(10),
        4_000,
        cfg,
    );
}

#[test]
fn exact_with_equidepth_discretization() {
    let mut cfg = small_config(1000);
    cfg.discretize = DiscretizeStrategy::EquiDepth { buckets: 8 };
    check_exact(
        &GeneratorConfig::new(LabelFunction::F7).with_seed(11),
        5_000,
        cfg,
    );
}

#[test]
fn exact_with_zero_spill_budget() {
    // Everything parked goes to disk immediately; results identical.
    let mut cfg = small_config(1100);
    cfg.spill_budget = 0;
    check_exact(
        &GeneratorConfig::new(LabelFunction::F1).with_seed(12),
        5_000,
        cfg,
    );
}

#[test]
fn typical_case_uses_two_scans() {
    // Well-conditioned data (a single crisp threshold concept): every
    // bootstrap tree agrees, every criterion verifies, and BOAT needs
    // exactly the sampling scan plus the cleanup scan.
    let schema = boat_data::Schema::shared(vec![boat_data::Attribute::numeric("x")], 2).unwrap();
    let records: Vec<boat_data::Record> = (0..10_000)
        .map(|i| {
            let x = (i % 1_000) as f64;
            boat_data::Record::new(vec![boat_data::Field::Num(x)], u16::from(x <= 300.0))
        })
        .collect();
    let source = MemoryDataset::new(schema, records);
    let limits = GrowthLimits {
        stop_family_size: Some(1_500),
        ..GrowthLimits::default()
    };
    let mut cfg = small_config(1200);
    cfg.limits = limits;
    cfg.in_memory_threshold = 1_500;
    let fit = Boat::new(cfg).fit(&source).unwrap();
    assert_eq!(
        fit.stats.scans_over_input, 2,
        "well-conditioned paper-mode run should need exactly two scans; stats: {}",
        fit.stats
    );
    assert_eq!(fit.stats.failed_nodes, 0);
    // And it is still the exact tree.
    let reference = reference_tree(&source, Gini, limits).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn paper_mode_f1_needs_few_scans_and_stays_exact() {
    // F1 at paper-mode settings: the occasional structural disagreement may
    // cost a collection scan, but scan counts stay far below the
    // one-scan-per-level baseline and the tree stays exact.
    let source = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(13)
        .source(10_000);
    let limits = GrowthLimits {
        stop_family_size: Some(1_500),
        ..GrowthLimits::default()
    };
    let mut cfg = small_config(1200);
    cfg.limits = limits;
    cfg.in_memory_threshold = 1_500;
    let fit = Boat::new(cfg).fit(&source).unwrap();
    assert!(
        fit.stats.scans_over_input <= 4,
        "F1 should need at most sampling + cleanup + one recovery round; stats: {}",
        fit.stats
    );
    let reference = reference_tree(&source, Gini, limits).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn small_input_takes_the_in_memory_fast_path() {
    let source = GeneratorConfig::new(LabelFunction::F3)
        .with_seed(14)
        .source(300);
    let fit = Boat::new(small_config(1300)).fit(&source).unwrap();
    assert_eq!(fit.stats.scans_over_input, 1);
    let reference = reference_tree(&source, Gini, GrowthLimits::default()).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn exact_on_pure_dataset() {
    let schema = boat_data::Schema::shared(vec![boat_data::Attribute::numeric("x")], 2).unwrap();
    let records: Vec<boat_data::Record> = (0..2_000)
        .map(|i| boat_data::Record::new(vec![boat_data::Field::Num(i as f64)], 0))
        .collect();
    let ds = MemoryDataset::new(schema, records);
    let mut cfg = small_config(1400);
    cfg.in_memory_threshold = 100;
    cfg.sample_size = 500;
    let fit = Boat::new(cfg).fit(&ds).unwrap();
    assert_eq!(fit.tree.n_nodes(), 1);
    let reference = reference_tree(&ds, Gini, GrowthLimits::default()).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn stats_are_plausible() {
    let source = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(15)
        .source(8_000);
    let fit = Boat::new(small_config(1500)).fit(&source).unwrap();
    assert!(fit.stats.scans_over_input >= 2);
    assert!(fit.stats.sample_records == 1_500);
    assert!(fit.stats.coarse_nodes >= 1);
    assert!(fit.stats.io.records_read >= 8_000);
}

#[test]
fn exact_on_four_class_data() {
    // Exercises the 2^k corner bound with k=4 and categorical splits: class
    // determined by quadrant of (x, y) with a categorical override region.
    let schema = boat_data::Schema::shared(
        vec![
            boat_data::Attribute::numeric("x"),
            boat_data::Attribute::numeric("y"),
            boat_data::Attribute::categorical("zone", 6),
        ],
        4,
    )
    .unwrap();
    let records: Vec<boat_data::Record> = (0..8_000)
        .map(|i| {
            let x = (i % 100) as f64;
            let y = ((i / 7) % 100) as f64;
            let zone = (i % 6) as u32;
            let label: u16 = if zone == 5 {
                3
            } else {
                match (x < 50.0, y < 50.0) {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, true) => 2,
                    (false, false) => 3,
                }
            };
            boat_data::Record::new(
                vec![
                    boat_data::Field::Num(x),
                    boat_data::Field::Num(y),
                    boat_data::Field::Cat(zone),
                ],
                label,
            )
        })
        .collect();
    let ds = MemoryDataset::new(schema, records);
    let cfg = small_config(1600);
    let fit = Boat::new(cfg.clone()).fit(&ds).unwrap();
    let reference = reference_tree(&ds, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
    // Sanity: the tree actually uses several classes.
    let labels: std::collections::HashSet<u16> = fit
        .tree
        .preorder_ids()
        .iter()
        .filter(|&&id| fit.tree.node(id).is_leaf())
        .map(|&id| fit.tree.node(id).majority_label())
        .collect();
    assert!(
        labels.len() >= 3,
        "tree should distinguish several classes: {labels:?}"
    );
}

#[test]
fn exact_with_unanimous_agreement_rule() {
    // The paper's original agreement rule, end to end.
    let mut cfg = small_config(1700);
    cfg.agreement = boat_core::config::AgreementRule::Unanimous;
    check_exact(
        &GeneratorConfig::new(LabelFunction::F1).with_seed(16),
        6_000,
        cfg,
    );
}

#[test]
fn exact_with_confidence_trimming() {
    let mut cfg = small_config(1800);
    cfg.confidence_trim = 0.1;
    check_exact(
        &GeneratorConfig::new(LabelFunction::F6).with_seed(17),
        6_000,
        cfg,
    );
}

/// `-0.0` and `0.0` are one value to the `X <= x` predicate, so no builder
/// may split between them. Attribute `x` tells the classes apart only by
/// the sign of zero; `y` separates them outright. Every builder must split
/// on `y`, classify all 400 training rows, and hold at each node the class
/// counts of the rows that reach it.
#[test]
fn signed_zeros_are_one_value() {
    use boat_data::{Attribute, Field, Record, Schema};
    let schema = Schema::shared(vec![Attribute::numeric("x"), Attribute::numeric("y")], 2).unwrap();
    let records: Vec<Record> = (0..400u32)
        .map(|i| {
            let label = (i % 2) as u16;
            let x = if label == 0 { -0.0 } else { 0.0 };
            let y = f64::from(label) * 1_000.0 + f64::from(i);
            Record::new(vec![Field::Num(x), Field::Num(y)], label)
        })
        .collect();
    let source = MemoryDataset::new(schema, records.clone());
    let limits = GrowthLimits::default();
    let reference = reference_tree(&source, Gini, limits).unwrap();
    let misclassified = records
        .iter()
        .filter(|r| reference.predict(r) != r.label())
        .count();
    assert_eq!(
        misclassified,
        0,
        "reference:\n{}",
        reference.render(source.schema())
    );
    for id in reference.preorder_ids() {
        let mut counts = vec![0u64; 2];
        for r in records.iter().filter(|r| reaches(&reference, id, r)) {
            counts[r.label() as usize] += 1;
        }
        assert_eq!(reference.node(id).class_counts, counts, "node {id:?}");
    }
    // Through the sample, cleanup and verification, and through the
    // top-level in-memory switch.
    for in_memory_threshold in [50, 1_000] {
        let cfg = BoatConfig {
            sample_size: 200,
            bootstrap_reps: 6,
            bootstrap_sample_size: 100,
            in_memory_threshold,
            seed: 7,
            ..BoatConfig::default()
        };
        let fit = Boat::new(cfg).fit(&source).unwrap();
        assert_eq!(
            fit.tree, reference,
            "in_memory_threshold {in_memory_threshold}"
        );
    }
}

/// Whether `r` routes through node `id` of `tree`.
fn reaches(tree: &boat_tree::Tree, id: boat_tree::NodeId, r: &boat_data::Record) -> bool {
    let mut at = tree.root();
    loop {
        if at == id {
            return true;
        }
        if tree.node(at).is_leaf() {
            return false;
        }
        at = tree.route(at, r);
    }
}

//! Exactness oracle for the parallel cleanup scan.
//!
//! The parallel scan must be *invisible*: at every thread count BOAT must
//! produce the same tree as the one-router scan — which in turn must equal the
//! greedy reference tree — and the deterministic run statistics (scan
//! counts, parked/spilled tuples, verification outcomes, input I/O) must be
//! identical, because verification is supposed to see bit-identical state.
//! This suite sweeps a grid of generator functions × noise levels ×
//! `cleanup_threads ∈ {1, 2, 4, 8}` against both oracles, plus the
//! degenerate shapes: class-sorted input (whole chunks of one class), the
//! auto thread count, and more workers than chunks. At every thread count
//! a maintainable model (`fit_model`) is fitted too and its cleanup state
//! checked with `check_invariants`. Two cases cover the optimistic leaves
//! of a plain fit: a frontier whose sample is pure but whose full family is
//! not (one collection scan), and a fit where every such bet holds.

use boat_core::{reference_tree, Boat, BoatConfig, BoatRunStats};
use boat_data::dataset::RecordSource;
use boat_data::{Attribute, Field, MemoryDataset, Record, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_tree::{Gini, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thread counts required by the acceptance criteria.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn grid_config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 1_500,
        bootstrap_reps: 12,
        bootstrap_sample_size: 600,
        in_memory_threshold: 400,
        spill_budget: 64,
        // Small chunks so that even the grid's small inputs split into
        // dozens of chunks per worker — otherwise chunking is vacuous.
        cleanup_chunk_size: 256,
        seed,
        ..BoatConfig::default()
    }
}

/// The deterministic subset of [`BoatRunStats`] (everything but wall times
/// and spill-file I/O bytes, which may legitimately vary with buffering).
#[derive(Debug, PartialEq)]
struct DeterministicStats {
    scans_over_input: u64,
    sample_records: u64,
    coarse_nodes: u64,
    verified_nodes: u64,
    failed_nodes: u64,
    parked_tuples: u64,
    spilled_tuples: u64,
    inmem_builds: u64,
    input_records_read: u64,
    input_bytes_read: u64,
}

impl DeterministicStats {
    fn of(stats: &BoatRunStats) -> Self {
        DeterministicStats {
            scans_over_input: stats.scans_over_input,
            sample_records: stats.sample_records,
            coarse_nodes: stats.coarse_nodes,
            verified_nodes: stats.verified_nodes,
            failed_nodes: stats.failed_nodes,
            parked_tuples: stats.parked_tuples,
            spilled_tuples: stats.spilled_tuples,
            inmem_builds: stats.inmem_builds,
            input_records_read: stats.io.records_read,
            input_bytes_read: stats.io.bytes_read,
        }
    }
}

/// Fit BOAT at every thread count, assert every tree equals both the serial
/// tree and the greedy reference, and that deterministic stats agree.
fn check_grid_point(gen: &GeneratorConfig, n: u64, base: BoatConfig) {
    check_thread_counts(|| gen.source(n), base, &THREADS);
}

/// Fit BOAT on a fresh source from `make` at every count in `threads`
/// (the first is the baseline), assert every tree equals both the baseline
/// tree and the greedy reference, and that deterministic stats agree. A
/// maintainable model fitted at each count must pass `check_invariants`
/// and build the reference tree too.
fn check_thread_counts<S: RecordSource>(make: impl Fn() -> S, base: BoatConfig, threads: &[usize]) {
    let source = make();
    let reference = reference_tree(&source, Gini, base.limits).expect("reference fit");

    let mut serial: Option<(Tree, DeterministicStats)> = None;
    for &threads in threads {
        let cfg = base.clone().with_cleanup_threads(threads);
        let (mut model, _) = Boat::new(cfg.clone())
            .fit_model(&make())
            .expect("model fit");
        model.check_invariants();
        assert_eq!(
            model.tree().expect("model tree"),
            &reference,
            "threads={threads}: maintainable model differs from the reference"
        );
        // A fresh source per run so `stats.io` counts this run only.
        let source = make();
        let fit = Boat::new(cfg).fit(&source).expect("boat fit");
        assert_eq!(
            fit.tree,
            reference,
            "threads={threads}: BOAT tree differs from the reference\nBOAT:\n{}\nreference:\n{}\nstats: {}",
            fit.tree.render(source.schema()),
            reference.render(source.schema()),
            fit.stats,
        );
        let det = DeterministicStats::of(&fit.stats);
        match &serial {
            None => serial = Some((fit.tree, det)),
            Some((tree1, det1)) => {
                assert_eq!(
                    &fit.tree, tree1,
                    "threads={threads}: tree differs from the baseline tree"
                );
                assert_eq!(
                    &det, det1,
                    "threads={threads}: run statistics differ from the baseline run"
                );
            }
        }
    }
}

#[test]
fn parallel_exact_on_f1_grid() {
    for (i, &noise) in [0.0, 0.05].iter().enumerate() {
        check_grid_point(
            &GeneratorConfig::new(LabelFunction::F1)
                .with_seed(21)
                .with_noise(noise),
            5_000,
            grid_config(2_100 + i as u64),
        );
    }
}

#[test]
fn parallel_exact_on_f6_grid() {
    for (i, &noise) in [0.0, 0.05].iter().enumerate() {
        check_grid_point(
            &GeneratorConfig::new(LabelFunction::F6)
                .with_seed(22)
                .with_noise(noise),
            5_000,
            grid_config(2_200 + i as u64),
        );
    }
}

#[test]
fn parallel_exact_on_f7_grid() {
    for (i, &noise) in [0.0, 0.05].iter().enumerate() {
        check_grid_point(
            &GeneratorConfig::new(LabelFunction::F7)
                .with_seed(23)
                .with_noise(noise),
            5_000,
            grid_config(2_300 + i as u64),
        );
    }
}

#[test]
fn parallel_exact_with_categorical_splits_and_extra_attrs() {
    // F3 splits on the categorical `elevel`; extra attributes widen the
    // per-node statistics the shards must merge.
    check_grid_point(
        &GeneratorConfig::new(LabelFunction::F3)
            .with_seed(24)
            .with_extra_attrs(3),
        4_000,
        grid_config(2_400),
    );
}

#[test]
fn parallel_exact_with_zero_spill_budget() {
    // Every deposit goes straight to a spill file: the chunk-ordered
    // application must reproduce the serial spill stream exactly.
    let mut cfg = grid_config(2_500);
    cfg.spill_budget = 0;
    check_grid_point(
        &GeneratorConfig::new(LabelFunction::F1).with_seed(25),
        5_000,
        cfg,
    );
}

#[test]
fn parallel_exact_on_disk_dataset() {
    // The same oracle through the on-disk chunked scan path.
    let dir = std::env::temp_dir().join("boat-parallel-exactness");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("f6.boat");
    let gen = GeneratorConfig::new(LabelFunction::F6).with_seed(26);
    let ds = gen.materialize(&path, 6_000).unwrap();
    let reference = reference_tree(&ds, Gini, grid_config(0).limits).unwrap();

    let mut first: Option<Tree> = None;
    for threads in THREADS {
        let ds = boat_data::FileDataset::open(&path).unwrap();
        let cfg = grid_config(2_600).with_cleanup_threads(threads);
        let fit = Boat::new(cfg).fit(&ds).unwrap();
        assert_eq!(
            fit.tree, reference,
            "threads={threads} differs on the disk path"
        );
        match &first {
            None => first = Some(fit.tree),
            Some(t) => assert_eq!(&fit.tree, t),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn threads_beyond_chunks_degenerate_gracefully() {
    // More workers than chunks (and than records): spare workers stay idle
    // and the result is still exact.
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(27);
    let source = gen.source(2_000);
    let mut cfg = grid_config(2_700);
    cfg.cleanup_chunk_size = 100_000; // single chunk
    cfg.cleanup_threads = 8;
    let fit = Boat::new(cfg.clone()).fit(&source).unwrap();
    let reference = reference_tree(&source, Gini, cfg.limits).unwrap();
    assert_eq!(fit.tree, reference);
}

#[test]
fn class_sorted_input_keeps_one_class_per_chunk_exact() {
    // Sorted by class, so whole chunks (and whole workers' shares of the
    // scan) see a single class.
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(28);
    let mut records = gen.generate_vec(5_000);
    records.sort_by_key(|r| r.label());
    check_thread_counts(
        || MemoryDataset::new(gen.schema(), records.clone()),
        grid_config(2_800),
        &[1, 2, 4, 8],
    );
}

#[test]
fn auto_thread_count_matches_serial() {
    // `cleanup_threads: 0` resolves to the machine's parallelism.
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(29);
    check_thread_counts(|| gen.source(4_000), grid_config(2_900), &[1, 0]);
}

/// Label 1 from `x = 50` up, else 0 — except that with `rare`, one row in
/// a thousand below 50 carries class 2. A small sample of the left region
/// then usually holds only class 0, while its full family does not. `x`
/// takes 100 integer values, so every bootstrap split lands on `x <= 49`
/// and the sample routes cleanly to the two sides.
fn rare_class_source(n: usize, rare: bool) -> MemoryDataset {
    let schema = Schema::shared(vec![Attribute::numeric("x"), Attribute::numeric("y")], 3).unwrap();
    let mut rng = StdRng::seed_from_u64(0xB0A7);
    let records = (0..n)
        .map(|i| {
            let x = f64::from(rng.random_range(0..100u32));
            let y = f64::from(rng.random_range(0..1_000u32));
            let label = if x >= 50.0 {
                1
            } else if rare && i % 1_000 == 7 {
                2
            } else {
                0
            };
            Record::new(vec![Field::Num(x), Field::Num(y)], label)
        })
        .collect();
    MemoryDataset::new(schema, records)
}

fn bet_config() -> BoatConfig {
    BoatConfig {
        sample_size: 400,
        bootstrap_reps: 10,
        bootstrap_sample_size: 200,
        // Above either half's family, below the input: the fit runs the
        // BOAT pipeline rather than the top-level in-memory build.
        in_memory_threshold: 15_000,
        spill_budget: 64,
        cleanup_chunk_size: 512,
        seed: 4_100,
        ..BoatConfig::default()
    }
}

#[test]
fn lost_pure_leaf_bet_costs_one_collection_scan() {
    let make = || rare_class_source(20_000, true);
    let reference = reference_tree(&make(), Gini, bet_config().limits).unwrap();
    for threads in [1usize, 2, 4] {
        let fit = Boat::new(bet_config().with_cleanup_threads(threads))
            .fit(&make())
            .unwrap();
        assert_eq!(
            fit.tree.to_bytes(),
            reference.to_bytes(),
            "threads={threads}: {}",
            fit.stats
        );
        // The third scan is the lost bet's, not a failed verification's.
        assert_eq!(fit.stats.failed_nodes, 0, "threads={threads}");
        assert_eq!(fit.stats.scans_over_input, 3, "threads={threads}");
        assert_eq!(
            fit.stats.metrics.counter("boat.jobs.collection_scans"),
            1,
            "threads={threads}"
        );
    }
}

#[test]
fn held_pure_leaf_bets_keep_two_scans() {
    let make = || rare_class_source(20_000, false);
    let reference = reference_tree(&make(), Gini, bet_config().limits).unwrap();
    for threads in [1usize, 2, 4] {
        let fit = Boat::new(bet_config().with_cleanup_threads(threads))
            .fit(&make())
            .unwrap();
        assert_eq!(fit.tree.to_bytes(), reference.to_bytes());
        assert_eq!(fit.stats.scans_over_input, 2, "threads={threads}");
        assert_eq!(fit.stats.metrics.counter("boat.jobs.collection_scans"), 0);
        assert!(
            fit.stats.spilled_tuples <= fit.stats.parked_tuples,
            "threads={threads}: {}",
            fit.stats
        );
    }
}

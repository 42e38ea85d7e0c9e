//! Cost-model invariants asserted on the observability snapshot.
//!
//! The paper's performance claims are stated in scans and bounded spill;
//! `BoatRunStats::metrics` (the per-run delta of the owning `Boat`'s
//! `boat_obs` registry) makes them directly checkable instead of inferred
//! from wall time.

use boat_core::{Boat, BoatConfig};
use boat_data::dataset::RecordSource;
use boat_data::FileDataset;
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_tree::GrowthLimits;

fn config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 1_500,
        bootstrap_reps: 10,
        bootstrap_sample_size: 600,
        in_memory_threshold: 500,
        spill_budget: 128,
        seed,
        ..BoatConfig::default()
    }
}

/// The paper's operating regime (§5): growth stopped at 15 % families, the
/// in-memory switch at the stopping size. The cost-model claims ("two
/// scans", "spill bounded by the parked/frontier subset of the input") are
/// statements about *this* regime — a deliberately tiny in-memory threshold
/// instead grows deep coarse trees whose many parked sets and retained
/// families are not what the claims describe.
fn paper_config(n: u64, seed: u64) -> BoatConfig {
    let stop = (n * 3 / 20).max(500);
    let mut cfg = BoatConfig::scaled_for(n).with_seed(seed);
    cfg.limits = GrowthLimits {
        stop_family_size: Some(stop),
        ..GrowthLimits::default()
    };
    cfg.in_memory_threshold = stop;
    cfg
}

fn on_disk(n: u64, seed: u64, key: &str) -> FileDataset {
    let path = std::env::temp_dir().join(format!(
        "boat-metrics-{key}-{}-{n}.boat",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    GeneratorConfig::new(LabelFunction::F1)
        .with_seed(seed)
        .materialize(&path, n)
        .unwrap()
}

#[test]
fn clean_fit_makes_exactly_two_scans() {
    let data = on_disk(8_000, 41, "twoscan");
    let fit = Boat::new(paper_config(8_000, 4100)).fit(&data).unwrap();
    let m = &fit.stats.metrics;
    assert_eq!(fit.stats.failed_nodes, 0, "fixture must verify cleanly");
    // The paper's headline, in the classic stats and in the input counter
    // they are read from.
    assert_eq!(fit.stats.scans_over_input, 2);
    assert_eq!(m.counter("data.input.scans"), 2);
    assert_eq!(m.counter("boat.jobs.collection_scans"), 0);
    // Two scans = every input record read exactly twice.
    assert_eq!(m.counter("data.input.records_read"), 2 * data.len());
}

#[test]
fn spill_stays_within_input_budget() {
    let data = on_disk(8_000, 42, "spill");
    let fit = Boat::new(paper_config(8_000, 4200)).fit(&data).unwrap();
    let m = &fit.stats.metrics;
    let input_bytes = m.counter("data.input.bytes_read");
    let spill_written = m.counter("data.spill.bytes_written");
    assert!(input_bytes > 0);
    // Cleanup only writes parked / frontier tuples to temporary files, so
    // spill traffic is bounded by input traffic.
    assert!(
        spill_written <= input_bytes,
        "spill {spill_written}B must not exceed input {input_bytes}B"
    );
    // The structured snapshot agrees with the classic spill_io stats.
    assert_eq!(spill_written, fit.stats.spill_io.bytes_written);
    assert_eq!(
        m.counter("data.spill.records_written"),
        fit.stats.spill_io.records_written
    );
}

#[test]
fn phase_spans_cover_fit_time() {
    let data = on_disk(8_000, 43, "phases");
    let t = std::time::Instant::now();
    let fit = Boat::new(paper_config(8_000, 4300)).fit(&data).unwrap();
    let wall = t.elapsed();
    let m = &fit.stats.metrics;
    let phase_ns = m.histogram_sum_by_prefix("boat.phase.");
    assert!(
        phase_ns as f64 >= 0.9 * wall.as_nanos() as f64,
        "phase spans ({phase_ns}ns) must cover >= 90% of fit wall time ({:?})",
        wall
    );
    for phase in ["sample", "bootstrap", "cleanup", "verify"] {
        let h = m
            .histogram(&format!("boat.phase.{phase}"))
            .unwrap_or_else(|| panic!("boat.phase.{phase} span missing"));
        assert!(h.count >= 1, "boat.phase.{phase} must have fired");
    }
}

#[test]
fn metrics_are_per_run_deltas() {
    let data = on_disk(6_000, 44, "deltas");
    let algo = Boat::new(config(4400));
    let first = algo.fit(&data).unwrap();
    let second = algo.fit(&data).unwrap();
    // Same algorithm instance, same registry — but each run's snapshot is
    // the delta over that run only.
    for fit in [&first, &second] {
        assert_eq!(fit.stats.metrics.counter("boat.fit.runs"), 1);
        assert_eq!(fit.stats.metrics.counter("data.input.scans"), 2);
    }
    // The shared registry accumulated both runs, the input's scans folded
    // in from the source's own counters.
    assert_eq!(algo.metrics().snapshot().counter("boat.fit.runs"), 2);
    assert_eq!(algo.metrics().snapshot().counter("data.input.scans"), 4);
}

#[test]
fn verification_verdicts_account_for_every_coarse_node() {
    let data = on_disk(8_000, 45, "verdicts");
    let fit = Boat::new(paper_config(8_000, 4500)).fit(&data).unwrap();
    let m = &fit.stats.metrics;
    assert_eq!(m.counter("boat.verify.pass"), fit.stats.verified_nodes);
    assert_eq!(m.counter("boat.verify.fail"), fit.stats.failed_nodes);
    // On a clean fit, internal verdicts + leaves + frontier cover the whole
    // coarse tree (re-verification rounds can revisit nodes, hence >=). A
    // failed node discards its subtree, so descendants then carry no
    // verdict — gate on the clean case.
    if fit.stats.failed_nodes == 0 {
        assert!(
            m.counter("boat.verify.pass")
                + m.counter("boat.verify.leaf")
                + m.counter("boat.verify.frontier")
                >= fit.stats.coarse_nodes,
            "verdicts must cover all {} coarse nodes",
            fit.stats.coarse_nodes
        );
    }
}

#[test]
fn incremental_counters_track_updates() {
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(46);
    let schema = gen.schema();
    let all = gen.generate_vec(6_000);
    let base = boat_data::MemoryDataset::new(schema.clone(), all[..4_000].to_vec());
    let algo = Boat::new(config(4600));
    let (mut model, stats) = algo.fit_model(&base).unwrap();
    assert_eq!(stats.metrics.counter("boat.fit.runs"), 1);

    let chunk = boat_data::MemoryDataset::new(schema.clone(), all[4_000..].to_vec());
    model.insert(&chunk).unwrap();
    let _ = model.tree().unwrap();
    model.delete(&chunk).unwrap();
    let _ = model.tree().unwrap();

    let snap = model.metrics().snapshot();
    assert_eq!(snap.counter("boat.incremental.update_chunks"), 2);
    assert_eq!(snap.counter("boat.incremental.inserts"), 2_000);
    assert_eq!(snap.counter("boat.incremental.deletes"), 2_000);
    assert_eq!(snap.counter("boat.incremental.maintain_runs"), 2);
    let update_span = snap.histogram("boat.incremental.update").unwrap();
    assert_eq!(update_span.count, 2);
    let maintain_span = snap.histogram("boat.incremental.maintain").unwrap();
    assert_eq!(maintain_span.count, 2);

    // A maintain that has work records a fit's verify and rebuild spans
    // once each, inside its own span.
    model.insert(&chunk).unwrap();
    let before = model.metrics().snapshot();
    model.maintain().unwrap();
    let delta = model.metrics().snapshot().since(&before);
    let span = |name: &str| delta.histogram(name).cloned().unwrap_or_default();
    let (verify, rebuild) = (span("boat.phase.verify"), span("boat.phase.rebuild"));
    let maintain = span("boat.incremental.maintain");
    assert_eq!((verify.count, rebuild.count, maintain.count), (1, 1, 1));
    assert!(
        verify.sum + rebuild.sum <= maintain.sum,
        "verify {} ns + rebuild {} ns > maintain {} ns",
        verify.sum,
        rebuild.sum,
        maintain.sum
    );
}

#[test]
fn snapshot_exports_json_with_run_counters() {
    let data = on_disk(5_000, 47, "json");
    let fit = Boat::new(config(4700)).fit(&data).unwrap();
    let json = fit.stats.metrics.to_json();
    for needle in [
        "\"counters\":",
        "\"gauges\":",
        "\"histograms\":",
        "\"boat.fit.runs\":1",
        "\"data.input.scans\":2",
        "\"boat.phase.cleanup\":",
    ] {
        assert!(
            json.contains(needle),
            "JSON export missing {needle}: {json}"
        );
    }
}

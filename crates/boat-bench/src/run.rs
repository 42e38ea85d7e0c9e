//! Algorithm runners shared by every experiment binary.
//!
//! Each runner times one fit over a dataset and reports the quantities the
//! paper's discussion revolves around: wall time, scans over the input,
//! records read (input and temporary files), and the resulting tree shape.
//! Runners return the tree too, so experiments can assert all algorithms
//! agree — every benchmark doubles as a correctness check.

use boat_core::{Boat, BoatConfig};
use boat_data::dataset::RecordSource;
use boat_rainforest::{RainForest, RfConfig, RfVariant};
use boat_tree::{GrowthLimits, Tree};
use std::time::{Duration, Instant};

/// One algorithm's measurements on one dataset.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Algorithm label.
    pub algo: &'static str,
    /// Wall time of the fit.
    pub time: Duration,
    /// Sequential scans over the input training database.
    pub scans: u64,
    /// Records read from the input.
    pub input_reads: u64,
    /// Records read from temporary files (spills, partitions).
    pub spill_reads: u64,
    /// The constructed tree.
    pub tree: Tree,
    /// BOAT only: verification failures (rebuild events).
    pub failed_nodes: u64,
    /// BOAT only: per-run metrics delta (the `boat-obs` snapshot recorded
    /// over this fit). Empty for the RainForest runners.
    pub metrics: boat_obs::Snapshot,
}

/// Paper-proportional RainForest memory budgets for a dataset of `n` base
/// tuples with `extra` random attributes: RF-Hybrid gets ~1.2× the root
/// AVC-group (as in the paper, where 3 M entries roughly covers the root),
/// RF-Vertical 60 % of that (the paper's 1.8 M : 3 M ratio).
pub fn rf_budgets(n: u64, extra: usize) -> (usize, usize) {
    let n = n as usize;
    // Distinct-value counts of the integer-valued AIS93 attributes.
    let root_entries: usize = 2
        * (n.min(130_000)   // salary
            + n.min(65_001) // commission (0 + 10k..75k)
            + 61            // age
            + 5 + 20 + 9    // elevel, car, zipcode
            + n.min(1_350_000) // hvalue
            + 30            // hyears
            + n.min(500_000)   // loan
            + extra * n); // extra attributes are continuous
    let hybrid = root_entries + root_entries / 5;
    (hybrid, hybrid * 6 / 10)
}

/// Run BOAT with paper-§5.1-proportional parameters.
pub fn run_boat(
    data: &dyn RecordSource,
    limits: GrowthLimits,
    seed: u64,
) -> boat_data::Result<AlgoResult> {
    let mut config = BoatConfig::scaled_for(data.len()).with_seed(seed);
    config.limits = limits;
    if let Some(stop) = limits.stop_family_size {
        config.in_memory_threshold = stop;
    }
    let t = Instant::now();
    // Record into the process-global registry so experiment binaries can
    // embed one whole-run snapshot in their BENCH_*.json artifact.
    let fit = Boat::new(config)
        .with_metrics(boat_obs::Registry::global().clone())
        .fit(data)?;
    let time = t.elapsed();
    Ok(AlgoResult {
        algo: "BOAT",
        time,
        scans: fit.stats.scans_over_input,
        input_reads: fit.stats.io.records_read,
        spill_reads: fit.stats.spill_io.records_read,
        tree: fit.tree,
        failed_nodes: fit.stats.failed_nodes,
        metrics: fit.stats.metrics,
    })
}

fn run_rf(
    variant: RfVariant,
    label: &'static str,
    data: &dyn RecordSource,
    limits: GrowthLimits,
    budget: usize,
) -> boat_data::Result<AlgoResult> {
    let config = RfConfig {
        avc_budget_entries: budget,
        in_memory_threshold: limits.stop_family_size.unwrap_or(data.len() / 10 + 1),
        limits,
    };
    let t = Instant::now();
    let fit = RainForest::new(variant, config).fit(data)?;
    let time = t.elapsed();
    Ok(AlgoResult {
        algo: label,
        time,
        scans: fit.stats.scans_over_input,
        input_reads: fit.stats.io.records_read,
        spill_reads: fit.stats.temp_io.records_read,
        tree: fit.tree,
        failed_nodes: 0,
        metrics: boat_obs::Snapshot::default(),
    })
}

/// Run RF-Hybrid with the given AVC budget.
pub fn run_rf_hybrid(
    data: &dyn RecordSource,
    limits: GrowthLimits,
    budget: usize,
) -> boat_data::Result<AlgoResult> {
    run_rf(RfVariant::Hybrid, "RF-Hybrid", data, limits, budget)
}

/// Run RF-Write (one AVC-group of memory; partitions the data per level).
pub fn run_rf_write(
    data: &dyn RecordSource,
    limits: GrowthLimits,
    budget: usize,
) -> boat_data::Result<AlgoResult> {
    run_rf(RfVariant::Write, "RF-Write", data, limits, budget)
}

/// Run RF-Vertical with the given AVC budget.
pub fn run_rf_vertical(
    data: &dyn RecordSource,
    limits: GrowthLimits,
    budget: usize,
) -> boat_data::Result<AlgoResult> {
    run_rf(RfVariant::Vertical, "RF-Vertical", data, limits, budget)
}

/// The paper's experimental stopping rule: freeze families at or below 15 %
/// of the largest dataset in the sweep (1.5 M of 10 M in §5.2).
pub fn paper_limits(max_n: u64) -> GrowthLimits {
    GrowthLimits {
        stop_family_size: Some((max_n * 3 / 20).max(500)),
        ..GrowthLimits::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_datagen::{GeneratorConfig, LabelFunction};

    #[test]
    fn runners_agree_and_report_sane_numbers() {
        let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(7);
        let data = gen.source(6_000);
        let limits = paper_limits(6_000);
        let (hybrid_budget, vertical_budget) = rf_budgets(6_000, 0);

        let b = run_boat(&data, limits, 1).unwrap();
        let h = run_rf_hybrid(&data, limits, hybrid_budget).unwrap();
        let v = run_rf_vertical(&data, limits, vertical_budget).unwrap();
        assert_eq!(b.tree, h.tree);
        assert_eq!(b.tree, v.tree);
        assert!(b.scans >= 2 && b.input_reads >= 12_000);
        assert!(h.scans >= 2);
        assert!(v.scans >= h.scans);
        // The embedded metrics delta agrees with the classic stats.
        assert_eq!(b.metrics.counter("data.input.scans"), b.scans);
        assert_eq!(b.metrics.counter("boat.fit.runs"), 1);
        assert!(
            h.metrics.counters.is_empty(),
            "RF runners carry no snapshot"
        );
    }

    #[test]
    fn budgets_scale_with_n_and_extras() {
        let (h1, v1) = rf_budgets(10_000, 0);
        let (h2, _) = rf_budgets(100_000, 0);
        let (h3, _) = rf_budgets(10_000, 4);
        assert!(h2 > h1);
        assert!(h3 > h1);
        assert_eq!(v1, h1 * 6 / 10);
    }

    #[test]
    fn paper_limits_are_fifteen_percent() {
        assert_eq!(paper_limits(100_000).stop_family_size, Some(15_000));
    }
}

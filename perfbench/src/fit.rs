//! `fit`: the paper's two-scan case. A file-backed F1 dataset is written
//! during set-up and fitted back to back with `Boat::fit` (a closed loop of
//! one caller), at the paper's §5.1 sample ratios.

use crate::report::Outcome;
use crate::stats::{median, ms, percentile};
use crate::{probes, repeat_setup, rundir};
use boat_core::{reference_tree, Boat, BoatConfig, BoatRunStats};
use boat_data::{DataError, RecordSource};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_tree::{Gini, Tree};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fits every run makes, however short its window.
const MIN_FITS: usize = 3;

/// Size and schedule of the `fit` workload.
#[derive(Debug, Clone)]
pub struct FitParams {
    /// Rows in the input file.
    pub rows: u64,
    /// In-memory sample `D'`.
    pub sample: usize,
    /// Bootstrap resamples and their size.
    pub bootstrap_reps: usize,
    pub bootstrap_size: usize,
    /// Keep starting fits while they should end within this window, but
    /// run at least [`MIN_FITS`].
    pub seconds: f64,
}

impl FitParams {
    /// The benchmark's workload: 2 M rows, a 2 % sample (40 k) and 20
    /// bootstrap resamples of 10 k, as in the paper's §5.1.
    pub fn standard(seconds: f64) -> FitParams {
        FitParams {
            rows: 2_000_000,
            sample: 40_000,
            bootstrap_reps: 20,
            bootstrap_size: 10_000,
            seconds,
        }
    }

    /// The configuration every fit of the run uses.
    pub fn config(&self, seed: u64, dir: &Path) -> BoatConfig {
        BoatConfig {
            sample_size: self.sample,
            bootstrap_reps: self.bootstrap_reps,
            bootstrap_sample_size: self.bootstrap_size,
            spill_dir: Some(dir.to_path_buf()),
            ..BoatConfig::scaled_for(self.rows).with_seed(seed)
        }
    }
}

/// Run the workload. With `trace`, record the per-layer metrics instead
/// of the end-to-end ones.
pub fn run(p: &FitParams, seed: u64, trace: bool, dir: &Path) -> Result<Outcome, DataError> {
    let path = dir.join("fit-input.boat");
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(seed);
    let (setup_s, input) = repeat_setup(|| gen.materialize(&path, p.rows))?;
    let config = p.config(seed, dir);
    // Each fit samples with its own seed: the run's median then spans the
    // sampling luck, and every fit must still build the same exact tree.
    let fit_config = |k: usize| BoatConfig {
        seed: seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..config.clone()
    };

    let mut out = Outcome::default();
    let window = if trace {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(p.seconds)
    };
    let mut times: Vec<Duration> = Vec::new();
    let mut cleanup: Vec<Duration> = Vec::new();
    let mut first: Option<(Vec<u8>, Tree, BoatRunStats)> = None;
    let started = Instant::now();
    // Start another fit only if it should end inside the window.
    while times.len() < MIN_FITS
        || started.elapsed() + times.last().copied().unwrap_or_default() <= window
    {
        let algo = Boat::new(fit_config(times.len()));
        let t = Instant::now();
        let fitted = algo.fit(&input);
        let elapsed = t.elapsed();
        match fitted {
            Ok(fit) => {
                times.push(elapsed);
                cleanup.push(fit.stats.cleanup_time);
                let bytes = fit.tree.to_bytes();
                let same = first.as_ref().is_none_or(|(b, _, _)| *b == bytes);
                out.attempt(same, || {
                    "fit produced a different tree than the run's first fit".into()
                });
                if first.is_none() {
                    first = Some((bytes, fit.tree, fit.stats));
                }
            }
            Err(e) => {
                out.attempt(false, || format!("fit failed: {e}"));
                break;
            }
        }
    }
    let Some((tree_bytes, tree, stats)) = first else {
        return Ok(out);
    };
    let fit_ms = ms(&times);

    if trace {
        let reference = reference_tree(&input, Gini, config.limits)?;
        out.fail_unless(reference.to_bytes() == tree_bytes, || {
            "fit tree differs from reference_tree".into()
        });
        record_fit_stats(&mut out, &stats);
        probes::layer_probes(&mut out, &input, &tree, &config)?;
        out.set("trace.p50_ms", median(&fit_ms));
        out.set("trace.p90_ms", percentile(&fit_ms, 90.0));
    } else {
        out.set("setup_s", setup_s);
        out.set("p50_ms", median(&fit_ms));
        // The cleanup scan alone, so this is not `p50_ms` again: input rows
        // over the median time of the second scan.
        let cleanup_s = median(&ms(&cleanup)) / 1e3;
        out.set("records_per_s", input.len() as f64 / cleanup_s);
        out.set("peak_rss_mb", rundir::peak_rss_mb().map_err(DataError::Io)?);
    }
    drop(input);
    std::fs::remove_file(&path).ok();
    Ok(out)
}

/// Per-layer counts and phase times a fit reports about itself.
pub fn record_fit_stats(out: &mut Outcome, stats: &BoatRunStats) {
    let mb = |bytes: u64| bytes as f64 / 1e6;
    out.set("data.input_scans", stats.scans_over_input as f64);
    out.set("data.input_mb", mb(stats.io.bytes_read));
    out.set("data.spill_write_mb", mb(stats.spill_io.bytes_written));
    out.set("data.spill_read_mb", mb(stats.spill_io.bytes_read));
    out.set("core.sampling_ms", stats.sampling_time.as_secs_f64() * 1e3);
    out.set("core.cleanup_ms", stats.cleanup_time.as_secs_f64() * 1e3);
    out.set(
        "core.postprocess_ms",
        stats.postprocess_time.as_secs_f64() * 1e3,
    );
    out.set("core.parked_tuples", stats.parked_tuples as f64);
    out.set("core.spilled_tuples", stats.spilled_tuples as f64);
    out.set("core.failed_nodes", stats.failed_nodes as f64);
    out.set("core.jobs_executed", stats.jobs_executed as f64);
}

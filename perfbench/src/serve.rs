//! `serve`: online and batch scoring by a one-worker `ServeEngine`.
//!
//! An F1 model with 8 % label noise is trained on 64 k rows and grown to
//! purity (a tree of some 14 k nodes), then scores 16 k probes in three
//! phases: (a) an open loop of 64-record requests at a fixed rate,
//! (b) a closed loop of 4,000-record batches, and (c) a closed loop of
//! 64-record requests with Merkle proofs, each checked by the client. No
//! fit or maintain runs after set-up.

use crate::fit::record_fit_stats;
use crate::report::Outcome;
use crate::stats::{median, ms, percentile};
use crate::{probes, repeat_setup, rundir, sleep_until};
use boat_core::{Boat, BoatConfig, BoatRunStats};
use boat_data::{DataError, FileDataset, Record, RecordSource};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_proof::verify_prediction;
use boat_serve::{
    compile, record_values, tree_commit, ModelHandle, ServeConfig, ServeEngine, Ticket,
};
use boat_tree::{GrowthLimits, Tree};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Label noise of the training data and the probes.
const NOISE: f64 = 0.08;
/// Records per online request, in phases (a) and (c).
const SMALL: usize = 64;
/// Phase (a) arrival rate, requests per second.
const RATE: f64 = 2_000.0;

/// Size and schedule of the `serve` workload.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Training rows.
    pub train: u64,
    /// Probe records scored, cycled through by every phase.
    pub probes: usize,
    /// Records per batch, in phase (b).
    pub large: usize,
    /// Length of phases (a), (b) and (c).
    pub open: Duration,
    pub batch: Duration,
    pub proof: Duration,
}

impl ServeParams {
    /// The benchmark's workload: 40 % of the window for phase (a) at 2,000
    /// requests/s, 30 % each for (b) and (c).
    pub fn standard(seconds: f64) -> ServeParams {
        ServeParams {
            train: 64_000,
            probes: 16_000,
            large: 4_000,
            open: Duration::from_secs_f64(seconds * 0.4),
            batch: Duration::from_secs_f64(seconds * 0.3),
            proof: Duration::from_secs_f64(seconds * 0.3),
        }
    }

    /// The `i`-th request of `len` records, cycling through the probes.
    fn range(&self, i: usize, len: usize) -> std::ops::Range<usize> {
        let per_cycle = (self.probes / len).max(1);
        let start = (i % per_cycle) * len;
        start..start + len
    }
}

/// A started engine over a freshly trained, committed model.
struct Live {
    engine: ServeEngine,
    handle: ModelHandle,
    tree: Tree,
    probes: Arc<Vec<Record>>,
    input: FileDataset,
    config: BoatConfig,
    fit_stats: BoatRunStats,
}

/// Set-up: generate and write the training data, fit it to purity,
/// compile and commit the tree, and start a one-worker engine.
fn start(p: &ServeParams, seed: u64, dir: &Path) -> Result<Live, DataError> {
    let gen = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(seed)
        .with_noise(NOISE);
    let input = gen.materialize(dir.join("serve-train.boat"), p.train)?;
    let probes = gen
        .clone()
        .with_seed(seed ^ 0x9E37_79B9)
        .generate_vec(p.probes);
    let config = BoatConfig {
        limits: GrowthLimits::default(),
        spill_dir: Some(dir.to_path_buf()),
        ..BoatConfig::scaled_for(p.train).with_seed(seed)
    };
    let fit = Boat::new(config.clone()).fit(&input)?;
    let compiled = compile(&fit.tree);
    let commit = tree_commit(&compiled).map_err(|e| DataError::Invalid(e.to_string()))?;
    let handle =
        ModelHandle::with_metrics_committed(compiled, Arc::new(commit), Default::default());
    let engine = ServeEngine::start(
        handle.clone(),
        input.schema().clone(),
        ServeConfig {
            workers: 1,
            queue_depth: 64,
        },
    );
    Ok(Live {
        engine,
        handle,
        tree: fit.tree,
        probes: Arc::new(probes),
        input,
        config,
        fit_stats: fit.stats,
    })
}

/// Run the workload. With `trace`, record the per-layer metrics instead
/// of the end-to-end ones.
pub fn run(p: &ServeParams, seed: u64, trace: bool, dir: &Path) -> Result<Outcome, DataError> {
    let (setup_s, live) = repeat_setup(|| start(p, seed, dir))?;
    let mut out = Outcome::default();
    // The client's oracle, computed outside every timed region.
    let expected: Vec<u16> = live.probes.iter().map(|r| live.tree.predict(r)).collect();
    let check = |out: &mut Outcome, range: std::ops::Range<usize>, labels: &[u16]| {
        out.attempt(labels == &expected[range.clone()], || {
            format!("engine labels differ from Tree::predict on probes {range:?}")
        });
    };

    // (a) Open loop: each request is due on a fixed schedule and timed
    // from its due time. The client sends it at that time, or as soon as
    // the previous request is fulfilled if that is later, so a stall also
    // delays the requests behind it.
    let n_open = ((p.open.as_secs_f64() * RATE) as usize).max(1);
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let mut late = Vec::with_capacity(n_open);
    let mut latency = Vec::with_capacity(n_open);
    let t0 = Instant::now() + interval;
    for i in 0..n_open {
        let due = t0 + interval * i as u32;
        late.push(sleep_until(due));
        let range = p.range(i, SMALL);
        let labels = live
            .engine
            .submit_shared(Arc::clone(&live.probes), range.clone())
            .map(Ticket::wait);
        latency.push(due.elapsed());
        match labels {
            Ok(labels) => check(&mut out, range, &labels),
            Err(e) => out.attempt(false, || format!("submit failed: {e}")),
        }
    }

    // (b) Closed loop of large batches. Throughput is one batch over the
    // median submit-to-fulfilled time, which a brief stall cannot move.
    let mut batch_time = Vec::new();
    let mut i = 0;
    let started = Instant::now();
    while i == 0 || started.elapsed() < p.batch {
        let range = p.range(i, p.large);
        let t = Instant::now();
        let labels = live
            .engine
            .submit_shared(Arc::clone(&live.probes), range.clone())
            .map(Ticket::wait);
        batch_time.push(t.elapsed());
        match labels {
            Ok(labels) => check(&mut out, range, &labels),
            Err(e) => out.attempt(false, || format!("submit failed: {e}")),
        }
        i += 1;
    }
    let batch_rps = p.large as f64 / (median(&ms(&batch_time)) / 1e3);

    // (c) Closed loop of proof-carrying requests: submit to all proofs
    // verified by the client against the published commitment.
    let commitment = live.handle.commitment();
    let mut proof_latency = Vec::new();
    let started = Instant::now();
    i = 0;
    while i == 0 || started.elapsed() < p.proof {
        let range = p.range(i, SMALL);
        let records = live.probes[range.clone()].to_vec();
        let t = Instant::now();
        let (labels, proofs) = match live.engine.submit_with_proofs(records) {
            Ok(ticket) => {
                let (labels, _, proofs) = ticket.wait_with_proofs();
                (labels, proofs)
            }
            Err(e) => {
                out.attempt(false, || format!("submit failed: {e}"));
                i += 1;
                continue;
            }
        };
        let verified = proofs.as_ref().map(|scored| {
            let recs = &live.probes[range.clone()];
            scored.proofs.len() == recs.len()
                && Some(scored.commitment) == commitment
                && recs
                    .iter()
                    .zip(&labels)
                    .zip(&scored.proofs)
                    .all(|((r, l), proof)| {
                        verify_prediction(&scored.commitment, &record_values(r), *l, proof).is_ok()
                    })
        });
        proof_latency.push(t.elapsed());
        out.attempt(verified == Some(true), || {
            format!("proofs for probes {range:?} did not verify")
        });
        check(&mut out, range, &labels);
        i += 1;
    }

    if latency.is_empty() || proof_latency.is_empty() {
        return Ok(out);
    }
    let latency_ms = ms(&latency);
    if trace {
        record_fit_stats(&mut out, &live.fit_stats);
        probes::layer_probes(&mut out, &live.input, &live.tree, &live.config)?;
        let service_us = out.get("serve.transpose_us_64").unwrap_or(0.0)
            + out.get("serve.score_us_64").unwrap_or(0.0);
        out.set(
            "serve.engine_overhead_us",
            median(&latency_ms) * 1e3 - service_us,
        );
        out.set("proof.request_p50_ms", median(&ms(&proof_latency)));
        out.set("serve.generator_late_ms", percentile(&ms(&late), 90.0));
        out.set("trace.p50_ms", median(&latency_ms));
        // The p90 of each one-second window, then their median: a stall of
        // the shared host moves one window, not the metric.
        let window = RATE as usize;
        let p90s: Vec<f64> = latency_ms
            .chunks(window)
            .map(|w| percentile(w, 90.0))
            .collect();
        out.set("trace.p90_ms", median(&p90s));
    } else {
        out.set("setup_s", setup_s);
        out.set("p50_ms", median(&latency_ms));
        out.set("records_per_s", batch_rps);
        out.set("peak_rss_mb", rundir::peak_rss_mb().map_err(DataError::Io)?);
    }
    Ok(out)
}

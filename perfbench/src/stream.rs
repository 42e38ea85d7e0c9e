//! `stream`: append-to-visible under a bounded-staleness daemon.
//!
//! Each of several F2 base models of 20 k rows, streamed one after another,
//! is fed 500-record chunks through the durable WAL: each insert chunk is
//! followed by deleting the chunk inserted one window (the base size)
//! earlier, so the model always holds 20 k rows.
//! `StalenessBound { max_records: 500, max_age: None }` with the default
//! triggers gives exactly one maintain per operation whatever the timing,
//! so visibility measures maintain speed rather than batching policy.
//! Phase 1 is an open loop at a fixed record rate; phase 2 drains a fixed
//! backlog as fast as the daemon absorbs it.

use crate::fit::record_fit_stats;
use crate::report::Outcome;
use crate::stats::{first_visible, median, ms, percentile};
use crate::{probes, rundir, sleep_until};
use boat_core::stream::{ProvenanceSink, StalenessBound, StreamConfig, StreamingBoat};
use boat_core::{Boat, BoatConfig, BoatModel, BoatRunStats};
use boat_data::wal::{replay_segments, WalConfig, WalKind, WalOp};
use boat_data::{DataError, FileDataset, MemoryDataset, Record, RecordSource};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_obs::Registry;
use boat_serve::{compile, publish_on_maintain, ModelHandle};
use boat_tree::{Gini, Tree};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Phase 1 arrival rate, records per second: below 70 % of the drain rate
/// on a 2-vCPU host, so the backlog does not grow.
const RATE: f64 = 1_600.0;

/// Size and schedule of the `stream` workload.
#[derive(Debug, Clone)]
pub struct StreamParams {
    /// Rows of the base model, and of the sliding window.
    pub base: usize,
    /// Records per WAL operation.
    pub chunk: usize,
    /// Independent models streamed one after another; each has its own
    /// base, set-up and daemon.
    pub models: usize,
    /// Operations per model in phase 1 (open loop) and phase 2 (drain).
    pub open_ops: usize,
    pub drain_ops: usize,
}

impl StreamParams {
    /// The benchmark's workload: twenty models, because what a model's
    /// set-up and maintains cost depends on the coarse tree its base fit
    /// happened to draw. Phase 1 runs at [`RATE`] for five sixths of the
    /// window but at least 100 operations in all, five per model; phase 2
    /// drains four operations per model.
    pub fn standard(seconds: f64) -> StreamParams {
        let (chunk, models) = (500, 20);
        let ops_per_s = RATE / chunk as f64;
        let open = ((seconds * 5.0 / 6.0 * ops_per_s) as usize).max(100);
        StreamParams {
            base: 20_000,
            chunk,
            models,
            open_ops: open.div_ceil(models),
            drain_ops: 4,
        }
    }

    fn ops(&self) -> usize {
        self.open_ops + self.drain_ops
    }

    /// Records the generator must produce: the base plus one chunk per
    /// insert.
    fn records(&self) -> usize {
        self.base + self.ops().div_ceil(2) * self.chunk
    }

    /// Operation `k`: even operations insert the next new chunk, odd ones
    /// delete the oldest chunk of the window. Chunk `c` is
    /// `records[c * chunk..(c + 1) * chunk]`; the base holds chunks
    /// `0..base / chunk`.
    pub fn op(&self, k: usize, records: &[Record]) -> (WalKind, Vec<Record>) {
        let window = self.base / self.chunk;
        let (kind, c) = if k.is_multiple_of(2) {
            (WalKind::Insert, window + k / 2)
        } else {
            (WalKind::Delete, k / 2)
        };
        (kind, records[c * self.chunk..(c + 1) * self.chunk].to_vec())
    }

    /// The daemon's configuration: a 500-record staleness bound and no
    /// wall-clock bound, so every operation gets exactly one maintain.
    fn stream_config(&self, dir: &Path, sink: OpSink) -> StreamConfig {
        StreamConfig {
            staleness: StalenessBound {
                max_records: self.chunk as u64,
                max_age: None,
            },
            wal: WalConfig {
                dir: Some(dir.to_path_buf()),
                keep_segments: true,
                ..WalConfig::default()
            },
            provenance: Some(Box::new(sink)),
            ..StreamConfig::default()
        }
    }
}

/// One publish the daemon made.
#[derive(Debug, Clone, Copy)]
struct Publish {
    at: Instant,
    /// Operations absorbed before this publish, in WAL order.
    ops: u64,
    compile: Duration,
    publish: Duration,
}

/// Counts absorbed operations (and, when tracing, when each was absorbed).
/// The daemon calls it right before absorbing an operation, on the same
/// thread that later runs the publish hook, so relaxed atomics suffice.
struct OpSink {
    absorbed: Arc<AtomicU64>,
    absorbed_at: Option<Arc<Mutex<Vec<Instant>>>>,
}

impl ProvenanceSink for OpSink {
    fn absorb_op(&mut self, _op: &WalOp) {
        self.absorbed.fetch_add(1, Ordering::Relaxed);
        if let Some(at) = &self.absorbed_at {
            at.lock().expect("absorb log poisoned").push(Instant::now());
        }
    }

    fn fingerprint(&self) -> Option<boat_proof::Hash256> {
        None
    }
}

/// A running daemon over a freshly fitted base model.
struct Live {
    streaming: StreamingBoat<Gini, ModelHandle>,
    publishes: Arc<Mutex<Vec<Publish>>>,
    absorbed_at: Option<Arc<Mutex<Vec<Instant>>>>,
    records: Vec<Record>,
    input: FileDataset,
    config: BoatConfig,
    fit_stats: BoatRunStats,
}

fn base_config(p: &StreamParams, seed: u64, dir: &Path) -> BoatConfig {
    BoatConfig {
        spill_dir: Some(dir.to_path_buf()),
        ..BoatConfig::scaled_for(p.base as u64).with_seed(seed)
    }
}

/// Set-up: generate the stream, write and fit the base, compile and
/// publish its tree as `boat_serve::spawn_streaming` does, and start the
/// daemon with a publish hook that also logs every publish.
fn start(p: &StreamParams, seed: u64, trace: bool, dir: &Path) -> Result<Live, DataError> {
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(seed);
    let records = gen.generate_vec(p.records());
    // Same generator stream, so the file holds exactly records[..base].
    let input = gen.materialize(dir.join("stream-base.boat"), p.base as u64)?;
    let config = base_config(p, seed, dir);
    let (mut model, fit_stats) = Boat::new(config.clone()).fit_model(&input)?;
    // As `boat_serve::spawn_streaming`: compile under the model's registry,
    // then publish through `publish_on_maintain`.
    let metrics = model.metrics().clone();
    let handle = {
        let span = metrics.span("serve.compile");
        let compiled = compile(model.tree()?);
        span.finish();
        ModelHandle::with_metrics(compiled, metrics)
    };
    publish_on_maintain(&mut model, &handle)?;

    let absorbed = Arc::new(AtomicU64::new(0));
    let absorbed_at = trace.then(|| Arc::new(Mutex::new(Vec::new())));
    let publishes = Arc::new(Mutex::new(Vec::new()));
    let (hook_handle, hook_ops, hook_log) = (handle.clone(), absorbed.clone(), publishes.clone());
    // The hook `publish_on_maintain` installs, line for line (keep the two
    // in step), with timestamps around it and a log of every publish.
    model.set_publish_hook(move |tree| {
        let t0 = Instant::now();
        let span = hook_handle.metrics().span("serve.compile");
        let compiled = compile(tree);
        span.finish();
        let t1 = Instant::now();
        hook_handle.publish(compiled);
        let at = Instant::now();
        hook_log
            .lock()
            .expect("publish log poisoned")
            .push(Publish {
                at,
                ops: hook_ops.load(Ordering::Relaxed),
                compile: t1 - t0,
                publish: at - t1,
            });
    });
    let sink = OpSink {
        absorbed,
        absorbed_at: absorbed_at.clone(),
    };
    let streaming =
        StreamingBoat::spawn_with_publication(model, p.stream_config(dir, sink), handle)?;
    Ok(Live {
        streaming,
        publishes,
        absorbed_at,
        records,
        input,
        config,
        fit_stats,
    })
}

/// Raw measurements, pooled over the run's models.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    visible: Vec<Duration>,
    /// Each model's p90 append-to-visible, in milliseconds.
    visible_p90: Vec<f64>,
    late: Vec<Duration>,
    append: Vec<Duration>,
    /// Phase 2, from one publish to the next: the time to absorb,
    /// maintain and publish one operation when a backlog waits.
    drain_cycle: Vec<Duration>,
    // Traced runs only.
    to_absorb: Vec<Duration>,
    to_visible: Vec<Duration>,
    compile: Vec<Duration>,
    publish: Vec<Duration>,
    wal_fsyncs: u64,
    wal_bytes: u64,
    inserts: Vec<Duration>,
    deletes: Vec<Duration>,
    maintains: Vec<Duration>,
    regrown: u64,
    failed_maintains: u64,
    spill_write: u64,
    spill_read: u64,
}

/// Run the workload. With `trace`, record the per-layer metrics instead
/// of the end-to-end ones.
pub fn run(p: &StreamParams, seed: u64, trace: bool, dir: &Path) -> Result<Outcome, DataError> {
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut last = None;
    for m in 0..p.models.max(1) {
        let model_seed = seed ^ (m as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        last = Some(stream_model(p, model_seed, trace, dir, &mut out, &mut s)?);
    }
    let Some((input, config, fit_stats, tree)) = last else {
        return Ok(out);
    };
    if s.visible.is_empty() {
        return Ok(out);
    }
    let visible_ms = ms(&s.visible);
    if trace {
        probes::layer_probes(&mut out, &input, &tree, &config)?;
        let us = |d: &[Duration]| median(&ms(d)) * 1e3;
        record_fit_stats(&mut out, &fit_stats);
        // The daemons' own publishes, not the probe, for compile and publish.
        out.set("serve.compile_ms", median(&ms(&s.compile)));
        out.set("serve.publish_us", us(&s.publish));
        out.set("data.wal_append_us", us(&s.append));
        out.set("data.wal_fsyncs", s.wal_fsyncs as f64);
        out.set("data.wal_mb", s.wal_bytes as f64 / 1e6);
        out.set("data.spill_write_mb", s.spill_write as f64 / 1e6);
        out.set("data.spill_read_mb", s.spill_read as f64 / 1e6);
        out.set("core.append_to_absorb_ms", median(&ms(&s.to_absorb)));
        out.set("core.absorb_to_visible_ms", median(&ms(&s.to_visible)));
        out.set("core.insert_ms", median(&ms(&s.inserts)));
        out.set("core.delete_ms", median(&ms(&s.deletes)));
        let maintain_ms = ms(&s.maintains);
        out.set("core.maintain_p50_ms", median(&maintain_ms));
        out.set("core.maintain_p90_ms", percentile(&maintain_ms, 90.0));
        out.set("core.maintains", maintain_ms.len() as f64);
        out.set("core.regrown_subtrees", s.regrown as f64);
        out.set(
            "core.maintain_failed_share",
            s.failed_maintains as f64 / maintain_ms.len().max(1) as f64,
        );
        out.set("stream.generator_late_ms", percentile(&ms(&s.late), 90.0));
        out.set("trace.p50_ms", median(&visible_ms));
        // The median of the models' p90s: one slow stretch of the shared
        // host moves one model, not the metric.
        out.set("trace.p90_ms", median(&s.visible_p90));
    } else {
        out.set("setup_s", median(&s.setup));
        out.set("p50_ms", median(&visible_ms));
        let cycle_s = median(&ms(&s.drain_cycle)) / 1e3;
        out.set("records_per_s", p.chunk as f64 / cycle_s);
        out.set("peak_rss_mb", rundir::peak_rss_mb().map_err(DataError::Io)?);
    }
    Ok(out)
}

/// Set up one model, stream its two phases, check the daemon against the
/// synchronous replay, and add its measurements to `s`. Returns what the
/// layer probes need of it, with the daemon's final tree.
fn stream_model(
    p: &StreamParams,
    seed: u64,
    trace: bool,
    dir: &Path,
    out: &mut Outcome,
    s: &mut Samples,
) -> Result<(FileDataset, BoatConfig, BoatRunStats, Tree), DataError> {
    let t = Instant::now();
    let live = start(p, seed, trace, dir)?;
    s.setup.push(t.elapsed().as_secs_f64());
    let writer = live.streaming.writer();
    let append = |kind: WalKind, records: Vec<Record>| match kind {
        WalKind::Insert => writer.insert(records),
        WalKind::Delete => writer.delete(records),
    };

    // Phase 1: open loop. Each operation is due on a fixed schedule and
    // timed from its due time, so a stall also delays the ones behind it.
    let interval = Duration::from_secs_f64(p.chunk as f64 / RATE);
    let mut due = Vec::with_capacity(p.open_ops);
    let t0 = Instant::now() + interval;
    for k in 0..p.open_ops {
        let (kind, records) = p.op(k, &live.records);
        let at = t0 + interval * k as u32;
        s.late.push(sleep_until(at));
        let t = Instant::now();
        let appended = append(kind, records);
        s.append.push(t.elapsed());
        due.push(at);
        out.attempt(appended.is_ok(), || {
            format!("WAL append {k} failed: {appended:?}")
        });
    }
    live.streaming.quiesce()?;

    // Phase 2: closed-loop drain of a fixed backlog.
    let backlog: Vec<_> = (p.open_ops..p.ops())
        .map(|k| p.op(k, &live.records))
        .collect();
    let drain_start = Instant::now();
    for (kind, records) in backlog {
        let t_append = Instant::now();
        let appended = append(kind, records);
        s.append.push(t_append.elapsed());
        out.attempt(appended.is_ok(), || {
            format!("WAL append failed: {appended:?}")
        });
    }
    let quiesced = live.streaming.quiesce()?;

    // Daemon health.
    let registry = live.streaming.metrics().snapshot();
    let stats = &quiesced.stats;
    let ops = p.ops() as u64;
    out.fail_unless(stats.first_error.is_none(), || {
        format!("daemon error: {:?}", stats.first_error)
    });
    for counter in ["boat.stream.ingest_errors", "boat.stream.bound_violations"] {
        let n = registry.counter(counter);
        out.fail_unless(n == 0, || format!("{counter} = {n}"));
    }
    out.fail_unless(stats.ops_absorbed == ops && stats.maintains == ops, || {
        format!(
            "{ops} ops appended, {} absorbed, {} maintains",
            stats.ops_absorbed, stats.maintains
        )
    });
    s.wal_fsyncs += registry.counter("data.wal.fsync_batches");
    s.wal_bytes += registry.counter("data.wal.bytes_written");
    let segments = live.streaming.wal_segments();
    let Live {
        streaming,
        publishes,
        absorbed_at,
        records,
        input,
        config,
        fit_stats,
    } = live;
    streaming.finish()?;

    // Append-to-visible for every phase-1 operation, and the drain's
    // publish-to-publish cycle for every phase-2 one.
    let publishes = publishes.lock().expect("publish log poisoned").clone();
    let published_ops: Vec<u64> = publishes.iter().map(|pb| pb.ops).collect();
    let absorbed_at = absorbed_at.map(|a| a.lock().expect("absorb log poisoned").clone());
    let mut visible = Vec::with_capacity(p.open_ops);
    let mut previous = drain_start;
    for (k, j) in first_visible(&published_ops, p.ops())
        .into_iter()
        .enumerate()
    {
        let Some(j) = j else {
            out.fail_unless(false, || format!("op {k} was never published"));
            continue;
        };
        if k >= p.open_ops {
            s.drain_cycle
                .push(publishes[j].at.saturating_duration_since(previous));
            previous = publishes[j].at;
            continue;
        }
        visible.push(publishes[j].at.saturating_duration_since(due[k]));
        if let Some(a) = absorbed_at.as_ref().and_then(|a| a.get(k)) {
            s.to_absorb.push(a.saturating_duration_since(due[k]));
            s.to_visible
                .push(publishes[j].at.saturating_duration_since(*a));
        }
    }
    if !visible.is_empty() {
        s.visible_p90.push(percentile(&ms(&visible), 90.0));
    }
    s.visible.extend(visible);
    s.compile.extend(publishes.iter().map(|pb| pb.compile));
    s.publish.extend(publishes.iter().map(|pb| pb.publish));

    // Correctness: the quiesce tree equals a synchronous replay of the WAL.
    let timed = trace.then_some(&mut *s);
    let (replayed, matches_appends) = replay(&segments, &input, &config, p, &records, timed)?;
    out.fail_unless(replayed == quiesced.tree_bytes, || {
        "daemon quiesce tree differs from the synchronous WAL-order replay".into()
    });
    out.fail_unless(matches_appends, || {
        "WAL replay differs from the appended operations".into()
    });
    for segment in &segments {
        std::fs::remove_file(segment).ok();
    }
    let tree = Tree::from_bytes(&quiesced.tree_bytes)?;
    Ok((input, config, fit_stats, tree))
}

/// The synchronous oracle: the WAL's operations replayed in order through
/// a fresh `BoatModel` over the same base, maintained once at the end (the
/// exact tree does not depend on cadence). Returns the replayed tree's
/// bytes and whether the WAL held exactly the appended operations. With
/// `timed` (traced runs), maintains after every operation, as the daemon
/// did, and adds each call's time and the spill traffic to it.
fn replay(
    segments: &[std::path::PathBuf],
    input: &FileDataset,
    config: &BoatConfig,
    p: &StreamParams,
    records: &[Record],
    mut timed: Option<&mut Samples>,
) -> Result<(Vec<u8>, bool), DataError> {
    let ops = replay_segments(segments, input.schema(), &Registry::new())?;
    let matches_appends = ops.len() == p.ops()
        && ops.iter().enumerate().all(|(k, op)| {
            let (kind, expected) = p.op(k, records);
            op.kind == kind && op.records == expected
        });
    let (mut model, _) = Boat::new(config.clone()).fit_model(input)?;
    let spill = |m: &BoatModel| {
        let s = m.metrics().snapshot();
        (
            s.counter("data.spill.bytes_written"),
            s.counter("data.spill.bytes_read"),
        )
    };
    let spill_before = spill(&model);
    for op in ops {
        let chunk = MemoryDataset::new(input.schema().clone(), op.records);
        let t = Instant::now();
        match op.kind {
            WalKind::Insert => model.insert(&chunk)?,
            WalKind::Delete => model.delete(&chunk)?,
        };
        let took = t.elapsed();
        if let Some(s) = timed.as_deref_mut() {
            match op.kind {
                WalKind::Insert => s.inserts.push(took),
                WalKind::Delete => s.deletes.push(took),
            }
            let t = Instant::now();
            let report = model.maintain()?;
            s.maintains.push(t.elapsed());
            s.regrown += report.regrown_subtrees;
            s.failed_maintains += u64::from(report.failed_nodes > 0);
        }
    }
    let tree_bytes = model.tree()?.to_bytes();
    if let Some(s) = timed {
        let spill_after = spill(&model);
        s.spill_write += spill_after.0 - spill_before.0;
        s.spill_read += spill_after.1 - spill_before.1;
    }
    Ok((tree_bytes, matches_appends))
}

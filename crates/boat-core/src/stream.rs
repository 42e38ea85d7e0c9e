//! Streaming write path: a maintenance daemon over the durable WAL.
//!
//! BOAT §4's dynamic environment delivers the training database as a
//! stream of insert/delete chunks. [`StreamingBoat`] turns the blocking,
//! caller-driven [`BoatModel::insert`]/[`BoatModel::delete`]/
//! [`BoatModel::maintain`] triple into a daemon:
//!
//! * Producers append chunks through [`StreamWriter`] (any number of
//!   threads). Every chunk lands in the durable [`boat_data::wal`] first;
//!   only *fsynced* operations are forwarded to the daemon, so everything
//!   the model ever absorbed is replayable after a crash
//!   ([`replay_wal_into`]).
//! * The daemon owns the [`BoatModel`], drains the WAL's forward channel,
//!   routes inserts through [`BoatModel::insert`] and deletes through the
//!   batched delete path, and schedules [`BoatModel::maintain`] by
//!   pluggable [`MaintainTrigger`]s — record count, wall-clock deadline,
//!   and a drift trigger fed by the verification-failure rate in
//!   [`MaintainReport`].
//! * A [`StalenessBound`] caps how stale the maintained (and, with a
//!   publish hook installed, the *served*) tree may get: the daemon
//!   maintains *before* an absorb would push unmaintained records past
//!   `max_records`, and wakes itself early enough to respect `max_age`.
//!   Backpressure is end-to-end: both the WAL ingest channel and the
//!   forward channel are bounded, so producers block while the daemon is
//!   busy rather than growing an unbounded backlog.
//!
//! Exactness is unchanged: at any quiesce point ([`StreamingBoat::quiesce`])
//! the daemon-maintained tree is byte-identical to a synchronous replay of
//! the same chunk sequence — the exact tree depends only on the net record
//! multiset, and the WAL fixes one global chunk order.
//!
//! A [`ProvenanceSink`] plugged into [`StreamConfig::provenance`] rides the
//! same single daemon thread: it sees every absorbed operation's WAL
//! content digest *in absorb order*, partitioned by the maintains that
//! seal epochs (the publish hook runs inside [`BoatModel::maintain`], so a
//! sink shared with the hook observes exactly the delta ops between two
//! published trees). [`QuiesceReport::fingerprint`] surfaces the sink's
//! chained epoch fingerprint at the quiesce cut.
//!
//! Metrics (in the model's registry): `boat.stream.{ingest_depth,
//! wal_bytes,staleness_records,staleness_age_ns,maintain_latency_ns,
//! trigger_fires,bound_violations,ingest_errors}` plus the `data.wal.*`
//! durability counters.

use crate::incremental::{BoatModel, MaintainReport};
use boat_data::wal::{Wal, WalAppender, WalConfig, WalEvent, WalKind, WalOp};
use boat_data::{DataError, MemoryDataset, Record, Result, Schema};
use boat_obs::Registry;
use boat_proof::Hash256;
use boat_tree::{Gini, Impurity};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How stale the maintained model may get before the daemon must run
/// [`BoatModel::maintain`].
#[derive(Debug, Clone)]
pub struct StalenessBound {
    /// Maximum absorbed-but-unmaintained records. The daemon maintains
    /// *before* an absorb would exceed this, so the bound can only be
    /// violated by a single chunk larger than the whole budget.
    pub max_records: u64,
    /// Maximum age of the oldest unmaintained operation. `None` disables
    /// the wall-clock bound.
    pub max_age: Option<Duration>,
}

impl Default for StalenessBound {
    fn default() -> Self {
        StalenessBound {
            max_records: 10_000,
            max_age: Some(Duration::from_secs(2)),
        }
    }
}

/// The daemon's current staleness: what has been absorbed since the last
/// maintain. Passed to [`MaintainTrigger`]s.
#[derive(Debug, Clone, Default)]
pub struct Staleness {
    /// Records absorbed since the last maintain.
    pub records: u64,
    /// Operations (chunks) absorbed since the last maintain.
    pub ops: u64,
    /// When the oldest unmaintained operation was absorbed.
    pub oldest: Option<Instant>,
}

impl Staleness {
    /// Age of the oldest unmaintained operation (zero when caught up).
    pub fn age(&self) -> Duration {
        self.oldest.map(|t| t.elapsed()).unwrap_or(Duration::ZERO)
    }

    fn reset(&mut self) {
        *self = Staleness::default();
    }
}

/// A pluggable provenance observer riding the daemon thread.
///
/// The daemon calls [`absorb_op`](ProvenanceSink::absorb_op) for every WAL
/// operation immediately before absorbing it into the model — after any
/// bound-enforcing pre-absorb maintain, so the ops a sink accumulates
/// between two maintains are exactly the delta between the two published
/// trees. Because the model's publish hook also runs on this thread
/// (inside [`BoatModel::maintain`]), a sink that shares state with the
/// hook (e.g. `boat-serve`'s provenance ledger) needs no further
/// synchronization for ordering: absorb → maintain → seal is a single
/// serialized sequence.
pub trait ProvenanceSink: Send {
    /// Observe one durable operation about to be absorbed. `op.content_digest`
    /// is the WAL frame's content digest ([`boat_data::wal`]).
    fn absorb_op(&mut self, op: &WalOp);
    /// The chained epoch fingerprint after the most recent sealed epoch
    /// (`None` until a first epoch exists).
    fn fingerprint(&self) -> Option<Hash256>;
}

/// A pluggable maintenance-scheduling policy.
///
/// The daemon asks every trigger after each absorbed operation (and on
/// wake-ups) whether maintenance is [`due`](MaintainTrigger::due); any
/// `true` fires a maintain. [`max_wait`](MaintainTrigger::max_wait) bounds
/// how long the daemon may sleep waiting for input before re-asking (for
/// wall-clock policies); [`observe`](MaintainTrigger::observe) feeds the
/// resulting [`MaintainReport`] back so triggers can adapt.
pub trait MaintainTrigger: Send {
    /// Short name, used in `boat.stream.trigger_fires.<name>` counters.
    fn name(&self) -> &'static str;
    /// Whether maintenance should run now.
    fn due(&self, staleness: &Staleness) -> bool;
    /// Upper bound on how long the daemon may block waiting for input
    /// before re-evaluating (`None` = no wall-clock constraint).
    fn max_wait(&self, _staleness: &Staleness) -> Option<Duration> {
        None
    }
    /// Feedback after a maintain.
    fn observe(&mut self, _report: &MaintainReport) {}
}

/// Fires once `threshold` records have been absorbed since the last
/// maintain. (The staleness bound's `max_records` is enforced separately
/// and exactly by a pre-absorb check; this trigger sets the steady-state
/// batch size.)
#[derive(Debug, Clone)]
pub struct RecordCountTrigger {
    /// Fire at or above this many unmaintained records.
    pub threshold: u64,
}

impl MaintainTrigger for RecordCountTrigger {
    fn name(&self) -> &'static str {
        "records"
    }

    fn due(&self, staleness: &Staleness) -> bool {
        staleness.records >= self.threshold.max(1)
    }
}

/// Fires when the oldest unmaintained operation is older than `period`.
#[derive(Debug, Clone)]
pub struct DeadlineTrigger {
    /// Maximum time an absorbed operation may wait for a maintain.
    pub period: Duration,
}

impl MaintainTrigger for DeadlineTrigger {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn due(&self, staleness: &Staleness) -> bool {
        staleness.ops > 0 && staleness.age() >= self.period
    }

    fn max_wait(&self, staleness: &Staleness) -> Option<Duration> {
        if staleness.ops == 0 {
            return None; // nothing can go stale while caught up
        }
        Some(self.period.saturating_sub(staleness.age()))
    }
}

/// Drift-adaptive record-count trigger: when maintains report verification
/// failures (the distribution is moving and subtrees are being rebuilt),
/// the firing threshold halves per escalation level — maintaining more
/// eagerly keeps each rebuild small. Clean maintains decay the level back.
#[derive(Debug, Clone)]
pub struct DriftTrigger {
    /// Threshold at level 0 (no recent verification failures).
    pub base_records: u64,
    level: u32,
    clean_streak: u32,
}

impl DriftTrigger {
    /// Maximum escalation level (threshold is `base >> level`).
    const MAX_LEVEL: u32 = 3;
    /// Consecutive clean maintains required to decay one level.
    const DECAY_AFTER: u32 = 2;

    /// A drift trigger with the given level-0 threshold.
    pub fn new(base_records: u64) -> Self {
        DriftTrigger {
            base_records: base_records.max(1),
            level: 0,
            clean_streak: 0,
        }
    }

    /// Current escalation level (0 = no drift observed).
    pub fn level(&self) -> u32 {
        self.level
    }

    fn threshold(&self) -> u64 {
        (self.base_records >> self.level).max(1)
    }
}

impl MaintainTrigger for DriftTrigger {
    fn name(&self) -> &'static str {
        "drift"
    }

    fn due(&self, staleness: &Staleness) -> bool {
        self.level > 0 && staleness.records >= self.threshold()
    }

    fn observe(&mut self, report: &MaintainReport) {
        if report.failed_nodes > 0 {
            self.level = (self.level + 1).min(Self::MAX_LEVEL);
            self.clean_streak = 0;
        } else if self.level > 0 {
            self.clean_streak += 1;
            if self.clean_streak >= Self::DECAY_AFTER {
                self.level -= 1;
                self.clean_streak = 0;
            }
        }
    }
}

/// Configuration for [`StreamingBoat`].
pub struct StreamConfig {
    /// The staleness contract the daemon enforces.
    pub staleness: StalenessBound,
    /// WAL knobs (directory defaults to `BoatConfig::spill_dir` /
    /// [`std::env::temp_dir`]; `queue_ops` is the producer backpressure
    /// bound).
    pub wal: WalConfig,
    /// Bound of the appender → daemon forward channel, in operations.
    pub channel_depth: usize,
    /// Maintenance triggers; `None` installs the default set derived from
    /// `staleness` — [`RecordCountTrigger`] at `max_records`,
    /// [`DeadlineTrigger`] at 4/5 of `max_age` (headroom so the maintain
    /// finishes inside the bound), and a [`DriftTrigger`] based at
    /// `max_records / 2`.
    pub triggers: Option<Vec<Box<dyn MaintainTrigger>>>,
    /// Optional provenance observer (see [`ProvenanceSink`]); `None`
    /// disables provenance tracking.
    pub provenance: Option<Box<dyn ProvenanceSink>>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            staleness: StalenessBound::default(),
            wal: WalConfig::default(),
            channel_depth: 64,
            triggers: None,
            provenance: None,
        }
    }
}

impl StreamConfig {
    fn build_triggers(&mut self) -> Vec<Box<dyn MaintainTrigger>> {
        if let Some(t) = self.triggers.take() {
            return t;
        }
        let mut triggers: Vec<Box<dyn MaintainTrigger>> = vec![Box::new(RecordCountTrigger {
            threshold: self.staleness.max_records.max(1),
        })];
        if let Some(age) = self.staleness.max_age {
            triggers.push(Box::new(DeadlineTrigger {
                period: age.mul_f64(0.8),
            }));
        }
        triggers.push(Box::new(DriftTrigger::new(
            (self.staleness.max_records / 2).max(1),
        )));
        triggers
    }
}

/// Cumulative daemon totals, returned by [`StreamingBoat::quiesce`] and
/// [`StreamingBoat::finish`].
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// WAL operations absorbed into the model.
    pub ops_absorbed: u64,
    /// Records inserted.
    pub records_inserted: u64,
    /// Records deleted.
    pub records_deleted: u64,
    /// Maintains run.
    pub maintains: u64,
    /// Total coarse nodes that failed verification across maintains.
    pub failed_nodes: u64,
    /// Total completion jobs across maintains.
    pub regrown_subtrees: u64,
    /// Staleness-bound violations observed (gated to zero by the bench).
    pub bound_violations: u64,
    /// First absorb/maintain error, if any (the daemon keeps running —
    /// a failed insert or delete changes nothing).
    pub first_error: Option<String>,
}

/// What a quiesce point proves: the daemon's current exact tree plus its
/// totals, with every operation appended before the quiesce absorbed and
/// maintained.
#[derive(Debug, Clone)]
pub struct QuiesceReport {
    /// Serialized current tree ([`boat_tree::Tree::to_bytes`]) — the
    /// byte-identity currency of the `streaming_exactness` oracle.
    pub tree_bytes: Vec<u8>,
    /// Daemon totals at the quiesce point.
    pub stats: StreamStats,
    /// Chained epoch fingerprint from the [`ProvenanceSink`] after the
    /// quiesce maintain sealed its epoch (`None` without a sink).
    pub fingerprint: Option<Hash256>,
}

/// A cloneable producer handle: appends durable insert/delete chunks to
/// the stream. Blocks (backpressure) when the WAL or the daemon is behind.
#[derive(Clone)]
pub struct StreamWriter {
    appender: WalAppender,
}

impl StreamWriter {
    /// Append an insert chunk.
    pub fn insert(&self, records: Vec<Record>) -> Result<()> {
        self.appender.append(WalKind::Insert, records)
    }

    /// Append a delete chunk (matched by content against present records).
    pub fn delete(&self, records: Vec<Record>) -> Result<()> {
        self.appender.append(WalKind::Delete, records)
    }
}

type QuiesceMap = Arc<Mutex<HashMap<u64, SyncSender<QuiesceReport>>>>;

/// The streaming write-path daemon. See the module docs.
///
/// `H` is an opaque publication token carried for the caller —
/// `boat-serve` spawns with a `ModelHandle` wired into the model's publish
/// hook so [`StreamingBoat::handle`] exposes the exact handle readers
/// score against; the plain [`StreamingBoat::spawn`] uses `H = ()`.
pub struct StreamingBoat<I: Impurity + Clone + Send + 'static = Gini, H = ()> {
    wal: Option<Wal>,
    writer: StreamWriter,
    daemon: Option<JoinHandle<(BoatModel<I>, StreamStats)>>,
    quiesce: QuiesceMap,
    next_token: AtomicU64,
    publication: H,
    metrics: Registry,
}

impl<I: Impurity + Clone + Send + 'static> StreamingBoat<I, ()> {
    /// Spawn the daemon over `model` with no publication token.
    pub fn spawn(model: BoatModel<I>, config: StreamConfig) -> Result<Self> {
        Self::spawn_with_publication(model, config, ())
    }
}

impl<I: Impurity + Clone + Send + 'static, H> StreamingBoat<I, H> {
    /// Spawn the daemon over `model`, carrying `publication` (install any
    /// publish hook on `model` *before* calling — the daemon owns the
    /// model from here on).
    pub fn spawn_with_publication(
        model: BoatModel<I>,
        mut config: StreamConfig,
        publication: H,
    ) -> Result<Self> {
        let schema = model.schema().clone();
        let metrics = model.metrics().clone();
        let triggers = config.build_triggers();
        let provenance = config.provenance.take();
        if config.wal.dir.is_none() {
            config.wal.dir = model.config().spill_dir.clone();
        }
        let (fwd_tx, fwd_rx) = sync_channel::<WalEvent>(config.channel_depth.max(1));
        let wal = Wal::create(schema.clone(), config.wal, metrics.clone(), fwd_tx)?;
        let writer = StreamWriter {
            appender: wal.appender(),
        };
        let quiesce: QuiesceMap = Arc::new(Mutex::new(HashMap::new()));
        let daemon = {
            let daemon = Daemon {
                model,
                schema,
                bound: config.staleness,
                triggers,
                staleness: Staleness::default(),
                metrics: metrics.clone(),
                quiesce: quiesce.clone(),
                stats: StreamStats::default(),
                provenance,
            };
            std::thread::Builder::new()
                .name("boat-stream-daemon".into())
                .spawn(move || daemon.run(fwd_rx))
                .expect("spawn stream daemon")
        };
        Ok(StreamingBoat {
            wal: Some(wal),
            writer,
            daemon: Some(daemon),
            quiesce,
            next_token: AtomicU64::new(1),
            publication,
            metrics,
        })
    }

    /// The publication token supplied at spawn (for `boat-serve`: the
    /// `ModelHandle` whose epochs advance on every maintain).
    pub fn handle(&self) -> &H {
        &self.publication
    }

    /// A new producer handle.
    pub fn writer(&self) -> StreamWriter {
        self.writer.clone()
    }

    /// Append an insert chunk (convenience for [`StreamingBoat::writer`]).
    pub fn insert(&self, records: Vec<Record>) -> Result<()> {
        self.writer.insert(records)
    }

    /// Append a delete chunk.
    pub fn delete(&self, records: Vec<Record>) -> Result<()> {
        self.writer.delete(records)
    }

    /// The registry the daemon and WAL record into (the model's own).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Segment files the WAL has written so far.
    pub fn wal_segments(&self) -> Vec<PathBuf> {
        self.wal
            .as_ref()
            .map(Wal::segment_paths)
            .unwrap_or_default()
    }

    /// Quiesce: block until every operation appended *before* this call is
    /// durable, absorbed, and maintained, then return the daemon's exact
    /// tree bytes and totals. Producers may keep appending concurrently —
    /// the marker fixes a cut in the WAL order and the report reflects
    /// exactly the operations before the cut. A daemon that has died (a
    /// panic in absorb or maintain) is a [`DataError::Io`].
    pub fn quiesce(&self) -> Result<QuiesceReport> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        self.quiesce.lock().unwrap().insert(token, tx);
        self.writer.appender.marker(token)?;
        let exited = || DataError::Io(std::io::Error::other("stream daemon exited during quiesce"));
        loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(report) => return Ok(report),
                Err(RecvTimeoutError::Disconnected) => return Err(exited()),
                // A dead daemon never answers the marker.
                Err(RecvTimeoutError::Timeout)
                    if self.daemon.as_ref().is_some_and(|h| h.is_finished()) =>
                {
                    self.quiesce.lock().unwrap().remove(&token);
                    return Err(exited());
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    /// Shut down: flush + fsync the WAL, drain the daemon (which runs a
    /// final maintain), and return the maintained model with the totals.
    /// A panicked daemon or WAL appender is a [`DataError::Io`].
    pub fn finish(mut self) -> Result<(BoatModel<I>, StreamStats)> {
        if let Some(wal) = self.wal.take() {
            wal.finish()?;
        }
        let handle = self.daemon.take().expect("finish called once");
        handle
            .join()
            .map_err(|_| DataError::Io(std::io::Error::other("stream daemon panicked")))
    }
}

impl<I: Impurity + Clone + Send + 'static, H> Drop for StreamingBoat<I, H> {
    fn drop(&mut self) {
        // finish() already detached both; otherwise shut down in order
        // (WAL first so the forward channel closes, then join the daemon).
        drop(self.wal.take());
        if let Some(h) = self.daemon.take() {
            let _ = h.join();
        }
    }
}

struct Daemon<I: Impurity + Clone> {
    model: BoatModel<I>,
    schema: Arc<Schema>,
    bound: StalenessBound,
    triggers: Vec<Box<dyn MaintainTrigger>>,
    staleness: Staleness,
    metrics: Registry,
    quiesce: QuiesceMap,
    stats: StreamStats,
    provenance: Option<Box<dyn ProvenanceSink>>,
}

/// Histogram bounds for unmaintained-record counts (powers of two up to
/// 16M — staleness budgets, not latencies).
fn staleness_bounds() -> Vec<u64> {
    (0..=24).map(|i| 1u64 << i).collect()
}

impl<I: Impurity + Clone> Daemon<I> {
    fn run(mut self, rx: Receiver<WalEvent>) -> (BoatModel<I>, StreamStats) {
        loop {
            let wait = self
                .triggers
                .iter()
                .filter_map(|t| t.max_wait(&self.staleness))
                .min();
            let event = match wait {
                Some(d) => match rx.recv_timeout(d) {
                    Ok(ev) => Some(ev),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match rx.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => break,
                },
            };
            match event {
                Some(WalEvent::Op(op)) => self.absorb(op),
                Some(WalEvent::Marker(token)) => self.quiesce_point(token),
                None => {} // woke to re-check wall-clock triggers
            }
            if self.staleness.ops > 0 {
                let due = self
                    .triggers
                    .iter()
                    .find(|t| t.due(&self.staleness))
                    .map(|t| t.name());
                if let Some(name) = due {
                    self.maintain(name);
                }
            }
        }
        // WAL closed: drain the backlog is complete (channel disconnects
        // only after the appender forwarded everything), final maintain.
        if self.staleness.ops > 0 {
            self.maintain("shutdown");
        }
        (self.model, self.stats)
    }

    fn absorb(&mut self, op: WalOp) {
        // Enforce the record bound *before* absorbing: maintain now if
        // this chunk would push unmaintained records past the budget.
        let n = op.records.len() as u64;
        if self.bound.max_records > 0
            && self.staleness.ops > 0
            && self.staleness.records + n > self.bound.max_records
        {
            self.maintain("bound");
        }
        // After any bound maintain (which seals the previous epoch's
        // delta), so this op lands in the epoch that will publish it.
        if let Some(sink) = self.provenance.as_mut() {
            sink.absorb_op(&op);
        }
        let chunk = MemoryDataset::new(self.schema.clone(), op.records);
        let absorbed = match op.kind {
            WalKind::Insert => self.model.insert(&chunk),
            WalKind::Delete => self.model.delete(&chunk),
        };
        match absorbed {
            Ok(report) => {
                self.stats.records_inserted += report.inserted;
                self.stats.records_deleted += report.deleted;
            }
            Err(e) => {
                // A failed op changes nothing in the model (an update is
                // all or nothing), so the tree stays exact and the daemon
                // keeps going and surfaces the error.
                self.metrics.counter("boat.stream.ingest_errors").inc();
                self.stats.first_error.get_or_insert_with(|| e.to_string());
            }
        }
        self.stats.ops_absorbed += 1;
        self.staleness.records += n;
        self.staleness.ops += 1;
        self.staleness.oldest.get_or_insert_with(Instant::now);
        self.metrics
            .gauge("boat.stream.staleness_records")
            .set(self.staleness.records);
        let forwarded = self.metrics.counter("data.wal.forwarded_ops").get();
        self.metrics
            .gauge("boat.stream.ingest_depth")
            .set(forwarded.saturating_sub(self.stats.ops_absorbed));
        self.metrics
            .gauge("boat.stream.wal_bytes")
            .set(self.metrics.counter("data.wal.bytes_written").get());
    }

    fn quiesce_point(&mut self, token: u64) {
        if self.staleness.ops > 0 {
            self.maintain("quiesce");
        }
        let tree_bytes = match self.model.tree() {
            Ok(t) => t.to_bytes(),
            Err(e) => {
                self.stats.first_error.get_or_insert_with(|| e.to_string());
                Vec::new()
            }
        };
        let fingerprint = self.provenance.as_ref().and_then(|s| s.fingerprint());
        let reply = self.quiesce.lock().unwrap().remove(&token);
        if let Some(tx) = reply {
            let _ = tx.send(QuiesceReport {
                tree_bytes,
                stats: self.stats.clone(),
                fingerprint,
            });
        }
    }

    fn maintain(&mut self, why: &str) {
        let age = self.staleness.age();
        // The contract check: at the moment maintenance starts, were we
        // already past the bound? (The pre-absorb check makes record
        // violations impossible unless one chunk exceeds the whole budget.)
        let violated = (self.bound.max_records > 0
            && self.staleness.records > self.bound.max_records)
            || self.bound.max_age.is_some_and(|max| age > max);
        if violated {
            self.stats.bound_violations += 1;
            self.metrics.counter("boat.stream.bound_violations").inc();
        }
        self.metrics
            .histogram_with("boat.stream.staleness_records_hist", &staleness_bounds())
            .record(self.staleness.records);
        self.metrics
            .histogram("boat.stream.staleness_age_ns")
            .record(age.as_nanos() as u64);
        let t0 = Instant::now();
        match self.model.maintain() {
            Ok(report) => {
                self.stats.maintains += 1;
                self.stats.failed_nodes += report.failed_nodes;
                self.stats.regrown_subtrees += report.regrown_subtrees;
                for t in &mut self.triggers {
                    t.observe(&report);
                }
            }
            Err(e) => {
                self.stats.first_error.get_or_insert_with(|| e.to_string());
            }
        }
        self.metrics
            .histogram("boat.stream.maintain_latency_ns")
            .record(t0.elapsed().as_nanos() as u64);
        self.metrics.counter("boat.stream.trigger_fires").inc();
        self.metrics
            .counter(&format!("boat.stream.trigger_fires.{why}"))
            .inc();
        self.staleness.reset();
        self.metrics.gauge("boat.stream.staleness_records").set(0);
    }
}

/// Crash recovery: replay the durable prefix of `segments` into `model`
/// (inserts and deletes in WAL order) and run one maintain. After this the
/// model is byte-identical to what the daemon had absorbed and published
/// for those operations before the crash — the WAL forwards operations
/// only after fsync, so the durable prefix is a superset of everything
/// ever absorbed.
pub fn replay_wal_into<I: Impurity + Clone>(
    model: &mut BoatModel<I>,
    segments: &[PathBuf],
) -> Result<MaintainReport> {
    let schema = model.schema().clone();
    let metrics = model.metrics().clone();
    let ops = boat_data::wal::replay_segments(segments, &schema, &metrics)?;
    for op in ops {
        let chunk = MemoryDataset::new(schema.clone(), op.records);
        match op.kind {
            WalKind::Insert => model.insert(&chunk)?,
            WalKind::Delete => model.delete(&chunk)?,
        };
    }
    model.maintain()
}

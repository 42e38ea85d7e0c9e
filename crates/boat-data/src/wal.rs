//! Durable write-ahead log for streaming insert/delete chunks.
//!
//! The §4 dynamic environment assumes chunks of training data arrive
//! continuously. [`Wal`] makes that write path *durable* and *concurrent*:
//! any number of producer threads append insert/delete operations through a
//! cloneable [`WalAppender`]; a bounded channel feeds a single appender
//! thread that frames each operation (length-prefixed, checksummed, records
//! encoded with the fixed-width [`crate::codec`]), writes it to a segment
//! file, and **fsyncs in batches** — one `sync_data` per drained burst, not
//! per operation. Only after an operation is durable is it forwarded
//! downstream (to the maintenance daemon), so everything a consumer ever
//! absorbs is guaranteed to be replayable after a crash.
//!
//! ## Segment format
//!
//! Segments are named `boat-wal-<pid>-<seq>.wal` (the same dead-PID
//! stale-file sweep that covers spill and rebuild temp files reclaims
//! orphaned segments). Each segment starts with a 16-byte header —
//! magic `BOATWAL1`, the schema's `record_width` (u32 LE), the segment
//! sequence number (u32 LE) — followed by frames:
//!
//! ```text
//! [len: u32 LE] [op: u8] [payload: len bytes] [checksum: u64 LE]
//! ```
//!
//! `op` is 1 (insert) or 2 (delete); the payload is `len /
//! record_width` fixed-width records; the checksum is FNV-1a over the op
//! byte and the payload. A crash can only tear the *tail* of the last
//! segment (frames are written in order and a segment rolls only after a
//! final fsync): [`read_segment`] stops at the first frame that is
//! incomplete or fails its checksum and reports the preceding frames as
//! the **durable prefix** — exactly the operations a consumer may have
//! observed.
//!
//! ## Content digests
//!
//! Alongside the (cheap, crash-detecting) FNV-1a frame checksums, the log
//! computes **SHA-256 content digests** for the provenance layer: every
//! forwarded [`WalOp`] carries `SHA-256(op byte ‖ payload)` — the exact
//! durable bytes of its frame — and every segment accumulates the digest
//! of its frame digests, reported append-side in [`WalSummary`] and
//! replay-side in [`SegmentReplay`]. The epoch chain's `delta_digest`
//! (see `boat-proof`) folds the per-op digests, so an audit-log entry
//! binds to exactly the bytes a crash replay would re-absorb.
//!
//! ## Metrics
//!
//! `data.wal.{segments,fsync_batches,bytes_written,records_appended,
//! ops_appended,forwarded_ops,replayed_ops,replayed_bytes,torn_tails}`
//! in the [`Registry`] handed to [`Wal::create`].

use crate::codec;
use crate::record::Record;
use crate::schema::Schema;
use crate::spill::sweep_stale_spill_files;
use crate::{DataError, Result};
use boat_obs::Registry;
use boat_proof::{Hash256, Sha256};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Magic bytes opening every WAL segment.
const MAGIC: &[u8; 8] = b"BOATWAL1";
/// Header length: magic + record_width (u32) + segment seq (u32).
const HEADER_LEN: usize = 16;
/// Frame overhead: length prefix (u32) + op byte + checksum (u64).
const FRAME_OVERHEAD: usize = 4 + 1 + 8;
/// Hard ceiling on a single frame's payload — anything larger in a length
/// prefix is treated as a torn tail, not an allocation request.
const MAX_PAYLOAD: u32 = 1 << 30;

/// FNV-1a 64-bit over the op byte followed by the payload.
fn frame_checksum(op: u8, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    step(op);
    for &b in payload {
        step(b);
    }
    h
}

/// SHA-256 over the op byte followed by the payload — the frame's durable
/// content, as bound into the provenance layer's delta digests.
fn frame_digest(op: u8, payload: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(&[op]);
    h.update(payload);
    h.finalize()
}

/// The kind of one logged operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalKind {
    /// A chunk of inserted records.
    Insert,
    /// A chunk of deleted records (matched by content downstream).
    Delete,
}

impl WalKind {
    fn to_byte(self) -> u8 {
        match self {
            WalKind::Insert => 1,
            WalKind::Delete => 2,
        }
    }

    fn from_byte(b: u8) -> Option<WalKind> {
        match b {
            1 => Some(WalKind::Insert),
            2 => Some(WalKind::Delete),
            _ => None,
        }
    }
}

/// One durable logged operation: a kind plus its record chunk.
#[derive(Debug, Clone)]
pub struct WalOp {
    /// Insert or delete.
    pub kind: WalKind,
    /// The chunk's records, in append order.
    pub records: Vec<Record>,
    /// SHA-256 of the frame's durable content (op byte ‖ encoded payload).
    pub content_digest: Hash256,
}

/// What the appender thread forwards downstream, in WAL order, strictly
/// after the corresponding bytes are fsynced.
#[derive(Debug)]
pub enum WalEvent {
    /// A durable operation.
    Op(WalOp),
    /// Every operation appended before the matching
    /// [`WalAppender::marker`] call is durable and has already been
    /// forwarded. Carries the caller's token.
    Marker(u64),
}

/// Configuration for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory for segment files; `None` = [`std::env::temp_dir`]
    /// (callers typically pass their `spill_dir`).
    pub dir: Option<PathBuf>,
    /// Roll to a new segment once the current one exceeds this many bytes.
    pub segment_bytes: u64,
    /// Bound of the producer → appender channel, in operations. Producers
    /// block (backpressure) when the appender falls behind.
    pub queue_ops: usize,
    /// Keep segment files when the log is finished (default: delete them).
    pub keep_segments: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            dir: None,
            segment_bytes: 16 << 20,
            queue_ops: 64,
            keep_segments: false,
        }
    }
}

enum WalMsg {
    Op {
        kind: WalKind,
        /// Pre-encoded payload (producers encode on their own thread).
        payload: Vec<u8>,
        records: Vec<Record>,
    },
    Marker(u64),
    Shutdown,
}

struct Shared {
    /// First appender-thread error; producers fail fast once set.
    error: Mutex<Option<String>>,
    /// Operations forwarded downstream so far (consumers subtract their
    /// own absorbed count to estimate ingest depth).
    forwarded_ops: AtomicU64,
    /// Segment paths created so far.
    segments: Mutex<Vec<PathBuf>>,
    /// Content digest of each *closed* segment, in creation order (the
    /// live segment's digest is still accumulating).
    segment_digests: Mutex<Vec<Hash256>>,
}

/// Summary returned by [`Wal::finish`].
#[derive(Debug)]
pub struct WalSummary {
    /// The segment files this log wrote (already deleted unless
    /// [`WalConfig::keep_segments`] was set).
    pub segments: Vec<PathBuf>,
    /// Per-segment content digests (SHA-256 over each segment's frame
    /// digests), parallel to `segments`. [`read_segment`] recomputes the
    /// same value from an untorn segment's durable bytes.
    pub segment_digests: Vec<Hash256>,
    /// Total frame bytes written across segments.
    pub bytes_written: u64,
}

/// A durable multi-producer write-ahead log. See the module docs.
pub struct Wal {
    tx: SyncSender<WalMsg>,
    shared: Arc<Shared>,
    schema: Arc<Schema>,
    appender: Option<JoinHandle<u64>>,
    keep_segments: bool,
}

/// A cloneable producer handle: encodes record chunks on the calling
/// thread and appends them to the log's bounded channel (blocking when the
/// appender is behind — this is the ingest backpressure).
#[derive(Clone)]
pub struct WalAppender {
    tx: SyncSender<WalMsg>,
    shared: Arc<Shared>,
    schema: Arc<Schema>,
}

impl WalAppender {
    /// Append one operation. Returns once the operation is *enqueued*
    /// (durability is established by the appender before the op is
    /// forwarded downstream; use [`WalAppender::marker`] to wait for it).
    pub fn append(&self, kind: WalKind, records: Vec<Record>) -> Result<()> {
        if let Some(e) = self.shared.error.lock().unwrap().clone() {
            return Err(DataError::Io(std::io::Error::other(e)));
        }
        let mut payload = Vec::with_capacity(records.len() * self.schema.record_width());
        for r in &records {
            codec::encode_into(&self.schema, r, &mut payload)?;
        }
        self.tx
            .send(WalMsg::Op {
                kind,
                payload,
                records,
            })
            .map_err(|_| DataError::Io(std::io::Error::other("wal appender is gone")))
    }

    /// Append an insert chunk.
    pub fn append_insert(&self, records: Vec<Record>) -> Result<()> {
        self.append(WalKind::Insert, records)
    }

    /// Append a delete chunk.
    pub fn append_delete(&self, records: Vec<Record>) -> Result<()> {
        self.append(WalKind::Delete, records)
    }

    /// Enqueue a marker: the appender fsyncs everything before it and then
    /// forwards [`WalEvent::Marker`]`(token)` downstream, after every
    /// earlier operation. The caller sees the marker on the forward
    /// channel once all prior appends are durable *and* delivered.
    pub fn marker(&self, token: u64) -> Result<()> {
        self.tx
            .send(WalMsg::Marker(token))
            .map_err(|_| DataError::Io(std::io::Error::other("wal appender is gone")))
    }
}

struct Segment {
    path: PathBuf,
    writer: BufWriter<File>,
    bytes: u64,
    /// Running digest over this segment's frame digests.
    digest: Sha256,
}

impl Wal {
    /// Create a log and spawn its appender thread. Durable operations are
    /// forwarded on `forward` in WAL order; dropping the receiver simply
    /// stops forwarding (appends keep succeeding and stay durable).
    pub fn create(
        schema: Arc<Schema>,
        config: WalConfig,
        metrics: Registry,
        forward: SyncSender<WalEvent>,
    ) -> Result<Wal> {
        let dir = config.dir.clone().unwrap_or_else(std::env::temp_dir);
        std::fs::create_dir_all(&dir)?;
        // Same crash-orphan story as spill/rebuild temp files: reclaim
        // segments left behind by dead processes before adding our own.
        sweep_stale_spill_files(&dir);
        let (tx, rx) = sync_channel::<WalMsg>(config.queue_ops.max(1));
        let shared = Arc::new(Shared {
            error: Mutex::new(None),
            forwarded_ops: AtomicU64::new(0),
            segments: Mutex::new(Vec::new()),
            segment_digests: Mutex::new(Vec::new()),
        });
        let appender = {
            let shared = shared.clone();
            let metrics = metrics.clone();
            let segment_bytes = config.segment_bytes.max(HEADER_LEN as u64 + 1);
            let record_width = schema.record_width() as u32;
            std::thread::Builder::new()
                .name("boat-wal-appender".into())
                .spawn(move || {
                    appender_loop(
                        rx,
                        forward,
                        shared,
                        metrics,
                        dir,
                        segment_bytes,
                        record_width,
                    )
                })
                .expect("spawn wal appender")
        };
        Ok(Wal {
            tx,
            shared,
            schema,
            appender: Some(appender),
            keep_segments: config.keep_segments,
        })
    }

    /// A new producer handle.
    pub fn appender(&self) -> WalAppender {
        WalAppender {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
            schema: self.schema.clone(),
        }
    }

    /// The segment files written so far (in creation order).
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.shared.segments.lock().unwrap().clone()
    }

    /// Shut the appender down: flush + fsync everything enqueued so far,
    /// close the forward channel, and join. Deletes the segment files
    /// unless [`WalConfig::keep_segments`] was set. Clones of
    /// [`WalAppender`] error on subsequent appends. A panicked appender
    /// thread is a [`DataError::Io`].
    pub fn finish(mut self) -> Result<WalSummary> {
        let _ = self.tx.send(WalMsg::Shutdown);
        let bytes_written = match self.appender.take() {
            Some(h) => h
                .join()
                .map_err(|_| DataError::Io(std::io::Error::other("wal appender panicked")))?,
            None => 0,
        };
        if let Some(e) = self.shared.error.lock().unwrap().clone() {
            return Err(DataError::Io(std::io::Error::other(e)));
        }
        let segments = self.shared.segments.lock().unwrap().clone();
        if !self.keep_segments {
            for p in &segments {
                let _ = std::fs::remove_file(p);
            }
        }
        let segment_digests = self.shared.segment_digests.lock().unwrap().clone();
        Ok(WalSummary {
            segments,
            segment_digests,
            bytes_written,
        })
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Some(h) = self.appender.take() {
            let _ = self.tx.send(WalMsg::Shutdown);
            let _ = h.join();
        }
    }
}

fn open_segment(dir: &Path, seq: u32, record_width: u32) -> std::io::Result<Segment> {
    let path = dir.join(format!("boat-wal-{}-{seq}.wal", std::process::id()));
    let mut writer = BufWriter::with_capacity(1 << 16, File::create(&path)?);
    writer.write_all(MAGIC)?;
    writer.write_all(&record_width.to_le_bytes())?;
    writer.write_all(&seq.to_le_bytes())?;
    Ok(Segment {
        path,
        writer,
        bytes: HEADER_LEN as u64,
        digest: Sha256::new(),
    })
}

fn finish_segment(seg: &mut Segment) -> std::io::Result<()> {
    seg.writer.flush()?;
    seg.writer.get_ref().sync_data()
}

#[allow(clippy::too_many_arguments)]
fn appender_loop(
    rx: Receiver<WalMsg>,
    forward: SyncSender<WalEvent>,
    shared: Arc<Shared>,
    metrics: Registry,
    dir: PathBuf,
    segment_bytes: u64,
    record_width: u32,
) -> u64 {
    let fail = |shared: &Shared, e: std::io::Error| {
        let mut slot = shared.error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(e.to_string());
        }
    };
    let mut seg: Option<Segment> = None;
    let mut seq: u32 = 0;
    let mut total_bytes: u64 = 0;
    let mut pending: Vec<WalEvent> = Vec::new();
    let mut batch: Vec<WalMsg> = Vec::new();
    let mut shutting = false;
    'outer: while !shutting {
        // One blocking receive, then drain whatever else is already
        // queued: the whole burst becomes a single write + fsync batch.
        match rx.recv() {
            Ok(m) => batch.push(m),
            Err(_) => break,
        }
        loop {
            match rx.try_recv() {
                Ok(m) => batch.push(m),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    shutting = true;
                    break;
                }
            }
        }
        let mut wrote = false;
        for msg in batch.drain(..) {
            match msg {
                WalMsg::Op {
                    kind,
                    payload,
                    records,
                } => {
                    let frame_len = (FRAME_OVERHEAD + payload.len()) as u64;
                    // Roll before the frame that would overflow, never
                    // mid-frame — a crash can then only tear the tail of
                    // the *last* segment.
                    if seg
                        .as_ref()
                        .is_some_and(|s| s.bytes + frame_len > segment_bytes)
                    {
                        let mut old = seg.take().expect("checked");
                        if let Err(e) = finish_segment(&mut old) {
                            fail(&shared, e);
                            break 'outer;
                        }
                        shared
                            .segment_digests
                            .lock()
                            .unwrap()
                            .push(old.digest.finalize());
                    }
                    if seg.is_none() {
                        match open_segment(&dir, seq, record_width) {
                            Ok(s) => {
                                shared.segments.lock().unwrap().push(s.path.clone());
                                metrics.counter("data.wal.segments").inc();
                                seq += 1;
                                seg = Some(s);
                            }
                            Err(e) => {
                                fail(&shared, e);
                                break 'outer;
                            }
                        }
                    }
                    let s = seg.as_mut().expect("opened");
                    let write = (|| -> std::io::Result<()> {
                        s.writer.write_all(&(payload.len() as u32).to_le_bytes())?;
                        s.writer.write_all(&[kind.to_byte()])?;
                        s.writer.write_all(&payload)?;
                        s.writer
                            .write_all(&frame_checksum(kind.to_byte(), &payload).to_le_bytes())
                    })();
                    if let Err(e) = write {
                        fail(&shared, e);
                        break 'outer;
                    }
                    s.bytes += frame_len;
                    total_bytes += frame_len;
                    wrote = true;
                    let content_digest = frame_digest(kind.to_byte(), &payload);
                    s.digest.update(&content_digest.0);
                    metrics.counter("data.wal.bytes_written").add(frame_len);
                    metrics.counter("data.wal.ops_appended").inc();
                    metrics
                        .counter("data.wal.records_appended")
                        .add(records.len() as u64);
                    pending.push(WalEvent::Op(WalOp {
                        kind,
                        records,
                        content_digest,
                    }));
                }
                WalMsg::Marker(token) => pending.push(WalEvent::Marker(token)),
                WalMsg::Shutdown => shutting = true,
            }
        }
        // Durability point: one fsync per drained burst (markers force one
        // even without fresh frames, so `marker` always means "durable").
        if let Some(s) = seg.as_mut() {
            if wrote || !pending.is_empty() {
                if let Err(e) = finish_segment(s) {
                    fail(&shared, e);
                    break;
                }
                if wrote {
                    metrics.counter("data.wal.fsync_batches").inc();
                }
            }
        }
        // Forward only once durable. A closed forward channel is fine —
        // the log keeps accepting and persisting appends.
        for ev in pending.drain(..) {
            let is_op = matches!(ev, WalEvent::Op(_));
            if forward.send(ev).is_ok() && is_op {
                shared.forwarded_ops.fetch_add(1, Ordering::Relaxed);
                metrics.counter("data.wal.forwarded_ops").inc();
            }
        }
    }
    if let Some(mut s) = seg.take() {
        if let Err(e) = finish_segment(&mut s) {
            fail(&shared, e);
        }
        shared
            .segment_digests
            .lock()
            .unwrap()
            .push(s.digest.finalize());
    }
    total_bytes
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// The replay of one segment file: its durable prefix of operations.
#[derive(Debug)]
pub struct SegmentReplay {
    /// Operations in the durable prefix, in append order.
    pub ops: Vec<WalOp>,
    /// Bytes covered by the durable prefix (header + whole valid frames).
    pub durable_bytes: u64,
    /// SHA-256 over the durable prefix's frame digests — equals the
    /// append side's [`WalSummary::segment_digests`] entry when the
    /// segment closed cleanly.
    pub content_digest: Hash256,
    /// Whether a torn tail was detected (truncated frame, bad checksum,
    /// or trailing garbage) and replay stopped early.
    pub torn: bool,
}

/// Read one segment's durable prefix. A torn *tail* (the expected crash
/// shape) is not an error — replay stops at the last whole checksummed
/// frame and `torn` is set. Structural corruption that cannot come from a
/// torn write (bad magic, record width mismatch, undecodable records
/// inside a checksummed frame) is a [`DataError::Corrupt`].
pub fn read_segment(path: &Path, schema: &Schema, metrics: &Registry) -> Result<SegmentReplay> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        // Crashed between create and the first flushed frame.
        metrics.counter("data.wal.torn_tails").inc();
        return Ok(SegmentReplay {
            ops: Vec::new(),
            durable_bytes: 0,
            content_digest: Sha256::new().finalize(),
            torn: true,
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(DataError::Corrupt(format!(
            "{} is not a WAL segment (bad magic)",
            path.display()
        )));
    }
    let width = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if width as usize != schema.record_width() {
        return Err(DataError::Corrupt(format!(
            "WAL segment record width {width} does not match schema width {}",
            schema.record_width()
        )));
    }
    let width = width as usize;
    let layout = codec::RowLayout::new(schema);
    let mut ops = Vec::new();
    let mut pos = HEADER_LEN;
    let mut torn = false;
    let mut segment_digest = Sha256::new();
    while pos < bytes.len() {
        if pos + 5 > bytes.len() {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let op = bytes[pos + 4];
        let Some(kind) = WalKind::from_byte(op) else {
            torn = true;
            break;
        };
        if len > MAX_PAYLOAD || (width > 0 && !(len as usize).is_multiple_of(width)) {
            torn = true;
            break;
        }
        let payload_start = pos + 5;
        let payload_end = payload_start + len as usize;
        if payload_end + 8 > bytes.len() {
            torn = true;
            break;
        }
        let payload = &bytes[payload_start..payload_end];
        let sum = u64::from_le_bytes(bytes[payload_end..payload_end + 8].try_into().unwrap());
        if frame_checksum(op, payload) != sum {
            torn = true;
            break;
        }
        // The checksum held, so a decode failure is writer-side corruption
        // (e.g. replaying against the wrong schema), not a torn write.
        let mut records = Vec::with_capacity(payload.len() / width.max(1));
        for chunk in payload.chunks_exact(width.max(1)) {
            records.push(layout.decode(chunk)?);
        }
        let content_digest = frame_digest(op, payload);
        segment_digest.update(&content_digest.0);
        ops.push(WalOp {
            kind,
            records,
            content_digest,
        });
        pos = payload_end + 8;
    }
    if torn {
        metrics.counter("data.wal.torn_tails").inc();
    }
    metrics
        .counter("data.wal.replayed_ops")
        .add(ops.len() as u64);
    metrics.counter("data.wal.replayed_bytes").add(pos as u64);
    Ok(SegmentReplay {
        ops,
        durable_bytes: pos as u64,
        content_digest: segment_digest.finalize(),
        torn,
    })
}

/// Replay a sequence of segments (in the order they were written),
/// concatenating durable prefixes. Stops at the first torn segment: a
/// crash tears only the tail of the last segment the appender touched, so
/// anything after a torn segment was never acknowledged downstream.
pub fn replay_segments(
    paths: &[PathBuf],
    schema: &Schema,
    metrics: &Registry,
) -> Result<Vec<WalOp>> {
    let mut ops = Vec::new();
    for p in paths {
        let replay = read_segment(p, schema, metrics)?;
        ops.extend(replay.ops);
        if replay.torn {
            break;
        }
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Field;
    use crate::schema::Attribute;

    fn schema() -> Arc<Schema> {
        Schema::shared(vec![Attribute::numeric("x")], 2).unwrap()
    }

    fn rec(x: f64) -> Record {
        Record::new(vec![Field::Num(x)], 0)
    }

    fn temp_wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("boat-wal-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn drain_thread(rx: Receiver<WalEvent>) -> JoinHandle<Vec<WalEvent>> {
        std::thread::spawn(move || rx.into_iter().collect())
    }

    #[test]
    fn appends_are_durable_and_replayable() {
        let dir = temp_wal_dir("roundtrip");
        let reg = Registry::new();
        let (tx, rx) = sync_channel(128);
        let wal = Wal::create(
            schema(),
            WalConfig {
                dir: Some(dir.clone()),
                keep_segments: true,
                ..WalConfig::default()
            },
            reg.clone(),
            tx,
        )
        .unwrap();
        let drain = drain_thread(rx);
        let a = wal.appender();
        a.append_insert(vec![rec(1.0), rec(2.0)]).unwrap();
        a.append_delete(vec![rec(1.0)]).unwrap();
        a.append_insert(vec![rec(3.0)]).unwrap();
        let summary = wal.finish().unwrap();
        assert_eq!(summary.segments.len(), 1);
        let events = drain.join().unwrap();
        assert_eq!(events.len(), 3);

        let ops = replay_segments(&summary.segments, &schema(), &reg).unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].kind, WalKind::Insert);
        assert_eq!(ops[0].records.len(), 2);
        assert_eq!(ops[1].kind, WalKind::Delete);
        assert_eq!(ops[2].records[0].num(0), 3.0);
        // Content digests: forwarded == replayed per op, and the segment
        // digest the appender reported matches a fresh replay's.
        let forwarded_digests: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                WalEvent::Op(op) => Some(op.content_digest),
                _ => None,
            })
            .collect();
        let replayed_digests: Vec<_> = ops.iter().map(|o| o.content_digest).collect();
        assert_eq!(forwarded_digests, replayed_digests);
        assert_eq!(summary.segment_digests.len(), 1);
        let replay = read_segment(&summary.segments[0], &schema(), &reg).unwrap();
        assert_eq!(replay.content_digest, summary.segment_digests[0]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("data.wal.ops_appended"), 3);
        assert_eq!(snap.counter("data.wal.records_appended"), 4);
        assert!(snap.counter("data.wal.fsync_batches") >= 1);
        assert_eq!(snap.counter("data.wal.torn_tails"), 0);
        for p in summary.segments {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn segments_roll_at_the_size_threshold() {
        let dir = temp_wal_dir("roll");
        let reg = Registry::new();
        let (tx, rx) = sync_channel(128);
        let wal = Wal::create(
            schema(),
            WalConfig {
                dir: Some(dir.clone()),
                segment_bytes: 64,
                keep_segments: true,
                ..WalConfig::default()
            },
            reg.clone(),
            tx,
        )
        .unwrap();
        let drain = drain_thread(rx);
        let a = wal.appender();
        for i in 0..10 {
            a.append_insert(vec![rec(i as f64)]).unwrap();
        }
        let summary = wal.finish().unwrap();
        drain.join().unwrap();
        assert!(summary.segments.len() > 1, "expected a roll");
        let ops = replay_segments(&summary.segments, &schema(), &reg).unwrap();
        assert_eq!(ops.len(), 10);
        // Every closed segment's append-side digest matches its replay.
        assert_eq!(summary.segment_digests.len(), summary.segments.len());
        for (p, want) in summary.segments.iter().zip(&summary.segment_digests) {
            let replay = read_segment(p, &schema(), &reg).unwrap();
            assert_eq!(replay.content_digest, *want, "{}", p.display());
        }
        assert_eq!(
            reg.snapshot().counter("data.wal.segments"),
            summary.segments.len() as u64
        );
        for p in summary.segments {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn marker_arrives_after_all_prior_ops() {
        let dir = temp_wal_dir("marker");
        let (tx, rx) = sync_channel(128);
        let wal = Wal::create(
            schema(),
            WalConfig {
                dir: Some(dir.clone()),
                ..WalConfig::default()
            },
            Registry::new(),
            tx,
        )
        .unwrap();
        let a = wal.appender();
        a.append_insert(vec![rec(1.0)]).unwrap();
        a.append_insert(vec![rec(2.0)]).unwrap();
        a.marker(42).unwrap();
        let mut seen_ops = 0;
        loop {
            match rx.recv().unwrap() {
                WalEvent::Op(_) => seen_ops += 1,
                WalEvent::Marker(t) => {
                    assert_eq!(t, 42);
                    assert_eq!(seen_ops, 2, "marker must follow every prior op");
                    break;
                }
            }
        }
        wal.finish().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    /// The crash contract: for EVERY truncation point of a segment, replay
    /// yields exactly the frames wholly before the cut — never a torn or
    /// phantom op.
    #[test]
    fn every_truncation_point_replays_the_durable_prefix() {
        let dir = temp_wal_dir("trunc");
        let reg = Registry::new();
        let (tx, rx) = sync_channel(128);
        let wal = Wal::create(
            schema(),
            WalConfig {
                dir: Some(dir.clone()),
                keep_segments: true,
                ..WalConfig::default()
            },
            reg.clone(),
            tx,
        )
        .unwrap();
        let drain = drain_thread(rx);
        let a = wal.appender();
        // Three ops with distinct record counts so prefixes are telling.
        a.append_insert(vec![rec(1.0)]).unwrap();
        a.append_insert(vec![rec(2.0), rec(3.0)]).unwrap();
        a.append_delete(vec![rec(1.0)]).unwrap();
        let summary = wal.finish().unwrap();
        drain.join().unwrap();
        assert_eq!(summary.segments.len(), 1);
        let path = &summary.segments[0];
        let full = std::fs::read(path).unwrap();
        let s = schema();
        let width = s.record_width();
        // Frame boundaries: header, then per-op frame lengths.
        let frame = |n: usize| FRAME_OVERHEAD + n * width;
        let boundaries = [
            HEADER_LEN,
            HEADER_LEN + frame(1),
            HEADER_LEN + frame(1) + frame(2),
            HEADER_LEN + frame(1) + frame(2) + frame(1),
        ];
        assert_eq!(*boundaries.last().unwrap(), full.len());
        let cut_path = dir.join("cut.wal");
        for cut in 0..=full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let replay = read_segment(&cut_path, &s, &reg).unwrap();
            let expect_ops = boundaries
                .iter()
                .filter(|&&b| b <= cut)
                .count()
                .saturating_sub(1);
            assert_eq!(
                replay.ops.len(),
                expect_ops.min(3),
                "cut at byte {cut}: wrong durable prefix"
            );
            // A cut exactly on a frame boundary looks like a clean (if
            // short) segment; anywhere else is a torn tail.
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(replay.torn, !on_boundary, "cut at byte {cut}");
            if on_boundary {
                assert_eq!(replay.durable_bytes, cut as u64);
            }
        }
        std::fs::remove_file(&cut_path).ok();
        for p in summary.segments {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// A flipped payload byte breaks the checksum: the frame and everything
    /// after it is discarded, the prefix survives.
    #[test]
    fn corrupt_checksum_truncates_replay() {
        let dir = temp_wal_dir("corrupt");
        let reg = Registry::new();
        let (tx, rx) = sync_channel(128);
        let wal = Wal::create(
            schema(),
            WalConfig {
                dir: Some(dir.clone()),
                keep_segments: true,
                ..WalConfig::default()
            },
            reg.clone(),
            tx,
        )
        .unwrap();
        let drain = drain_thread(rx);
        let a = wal.appender();
        a.append_insert(vec![rec(1.0)]).unwrap();
        a.append_insert(vec![rec(2.0)]).unwrap();
        a.append_insert(vec![rec(3.0)]).unwrap();
        let summary = wal.finish().unwrap();
        drain.join().unwrap();
        let path = &summary.segments[0];
        let mut bytes = std::fs::read(path).unwrap();
        // Flip one payload byte of the second frame.
        let width = schema().record_width();
        let second_payload = HEADER_LEN + FRAME_OVERHEAD + width + 5;
        bytes[second_payload] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
        let replay = read_segment(path, &schema(), &reg).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.ops.len(), 1, "only the intact prefix replays");
        assert_eq!(replay.ops[0].records[0].num(0), 1.0);
        assert!(reg.snapshot().counter("data.wal.torn_tails") >= 1);
        for p in summary.segments {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wrong_schema_width_is_corrupt_not_torn() {
        let dir = temp_wal_dir("width");
        let reg = Registry::new();
        let (tx, rx) = sync_channel(8);
        let wal = Wal::create(
            schema(),
            WalConfig {
                dir: Some(dir.clone()),
                keep_segments: true,
                ..WalConfig::default()
            },
            reg.clone(),
            tx,
        )
        .unwrap();
        let drain = drain_thread(rx);
        wal.appender().append_insert(vec![rec(1.0)]).unwrap();
        let summary = wal.finish().unwrap();
        drain.join().unwrap();
        let other =
            Schema::shared(vec![Attribute::numeric("x"), Attribute::numeric("y")], 2).unwrap();
        let err = read_segment(&summary.segments[0], &other, &reg);
        assert!(matches!(err, Err(DataError::Corrupt(_))));
        for p in summary.segments {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_producers_all_land_durably() {
        let dir = temp_wal_dir("concurrent");
        let reg = Registry::new();
        let (tx, rx) = sync_channel(8);
        let wal = Wal::create(
            schema(),
            WalConfig {
                dir: Some(dir.clone()),
                queue_ops: 4,
                keep_segments: true,
                ..WalConfig::default()
            },
            reg.clone(),
            tx,
        )
        .unwrap();
        let drain = drain_thread(rx);
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let a = wal.appender();
                s.spawn(move || {
                    for i in 0..25u64 {
                        a.append_insert(vec![rec((p * 1000 + i) as f64)]).unwrap();
                    }
                });
            }
        });
        let summary = wal.finish().unwrap();
        let events = drain.join().unwrap();
        assert_eq!(events.len(), 100);
        let ops = replay_segments(&summary.segments, &schema(), &reg).unwrap();
        assert_eq!(ops.len(), 100);
        // Forwarded order == durable order, and per-producer order holds.
        let forwarded: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                WalEvent::Op(op) => Some(op.records[0].num(0)),
                _ => None,
            })
            .collect();
        let replayed: Vec<f64> = ops.iter().map(|o| o.records[0].num(0)).collect();
        assert_eq!(forwarded, replayed);
        for p in 0..4u64 {
            let mine: Vec<f64> = replayed
                .iter()
                .copied()
                .filter(|v| (*v as u64) / 1000 == p)
                .collect();
            let mut sorted = mine.clone();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(mine, sorted, "producer {p}'s ops must stay in order");
        }
        for p in summary.segments {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

//! Memory-budgeted record buffers with transparent spilling.
//!
//! The cleanup phase of BOAT parks, at each node `n`, the tuples that fall
//! inside the node's confidence interval (the paper's set `S_n`). These sets
//! are usually small, but the paper notes its implementation "writes
//! temporary files to disk to be truly scalable" (§3.3). [`SpillBuffer`]
//! reproduces that: records are kept in memory up to a budget and written to
//! a private temporary file beyond it; reading the rows back is transparent
//! either way.
//!
//! Both tiers hold rows in the fixed-width [`crate::codec`] layout, the
//! format of the dataset files: in memory the rows sit back to back in one
//! byte vector, and past the budget they go through a buffered writer into
//! the temporary file as plain rows, with no header. [`SpillBuffer::push_row`]
//! takes a row as the cleanup scan routed it, so a parked tuple is copied,
//! never decoded, on its way in. Rows leave the buffer the same way:
//! [`SpillBuffer::for_each_row`] hands each one out as an [`EncodedRow`]
//! read in place, after the checks of an input row ([`RowLayout::check`]),
//! so a truncated or corrupt spill file is [`DataError::Corrupt`].
//!
//! Temporary files live in [`std::env::temp_dir`] by default; callers can
//! redirect them with [`SpillBuffer::new_in`] (the `BoatConfig::spill_dir`
//! knob). The first spill into a directory also runs a best-effort
//! [`sweep_stale_spill_files`] pass so files orphaned by a crashed process
//! do not pile up forever.
//!
//! Every buffer counts its temporary-file traffic into the registry it was
//! made with, under `data.spill.*`: records and bytes written and read
//! back, and `spill_events` (files opened on a first overflow).

use crate::codec::{EncodedRow, RowLayout};
use crate::schema::Schema;
use crate::{DataError, Result};
use boat_obs::{Counter, Registry};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// File-name prefixes this module considers its own when sweeping. The WAL
/// segments written by [`crate::wal`] share the temp directory and the
/// crash-orphaning problem, and earlier versions of `boat-core` wrote
/// `boat-rebuild-` partition files that a crashed process may have left
/// behind, so the sweep covers all three.
const STALE_PREFIXES: [&str; 3] = ["boat-spill-", "boat-rebuild-", "boat-wal-"];

fn fresh_temp_path(dir: &Path) -> PathBuf {
    let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("boat-spill-{}-{id}.tmp", std::process::id()))
}

/// Extract the owning pid from a `boat-spill-<pid>-<id>.tmp` /
/// `boat-rebuild-<pid>-<id>.boat` / `boat-wal-<pid>-<seq>.wal` file name;
/// `None` for anything else.
fn stale_candidate_pid(name: &str) -> Option<u32> {
    let rest = STALE_PREFIXES.iter().find_map(|p| name.strip_prefix(p))?;
    let (pid, rest) = rest.split_once('-')?;
    if !rest.ends_with(".tmp") && !rest.ends_with(".boat") && !rest.ends_with(".wal") {
        return None;
    }
    pid.parse().ok()
}

/// Whether a process with `pid` is (conservatively) still alive. On
/// non-Linux platforms this always answers `true`, disabling the sweep
/// rather than risking a live process's files.
fn process_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

/// Best-effort removal of spill/rebuild temp files in `dir` left behind by
/// processes that no longer exist. Files owned by live pids (including this
/// process) and files that do not match the `boat-spill-*`/`boat-rebuild-*`
/// naming are untouched; I/O errors are swallowed (another process may be
/// sweeping concurrently). Returns the number of files removed.
pub fn sweep_stale_spill_files(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let me = std::process::id();
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = stale_candidate_pid(name) else {
            continue;
        };
        if pid == me || process_alive(pid) {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Run the stale sweep at most once per directory per process, the first
/// time a spill file is created there ("on startup" of spilling).
fn sweep_once(dir: &Path) {
    static SWEPT: OnceLock<Mutex<BTreeSet<PathBuf>>> = OnceLock::new();
    let swept = SWEPT.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = swept.lock().expect("sweep registry poisoned");
    if guard.insert(dir.to_path_buf()) {
        drop(guard); // don't hold the lock across filesystem I/O
        sweep_stale_spill_files(dir);
    }
}

struct SpillFile {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    /// Rows written to the file.
    n_records: u64,
}

impl SpillFile {
    fn create(dir: &Path) -> Result<Self> {
        sweep_once(dir);
        let path = fresh_temp_path(dir);
        let writer = BufWriter::with_capacity(1 << 16, File::create(&path)?);
        Ok(SpillFile {
            path,
            writer: Some(writer),
            n_records: 0,
        })
    }

    fn write(&mut self, rows: &[u8]) -> Result<()> {
        self.writer
            .as_mut()
            .expect("writer open while buffer is live")
            .write_all(rows)?;
        Ok(())
    }

    /// Flush the writer and open the file for reading from the start.
    fn rows(&mut self, width: usize, counters: &SpillCounters) -> Result<SpilledRows> {
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        Ok(SpilledRows {
            reader: BufReader::with_capacity(1 << 16, File::open(&self.path)?),
            remaining: self.n_records,
            row: vec![0; width],
            records_read: counters.records_read.clone(),
            bytes_read: counters.bytes_read.clone(),
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.writer = None;
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A spill file's rows read back in order, one reused row at a time, with
/// the read traffic counted.
struct SpilledRows {
    reader: BufReader<File>,
    remaining: u64,
    row: Vec<u8>,
    records_read: Counter,
    bytes_read: Counter,
}

impl SpilledRows {
    /// The next row, unchecked. A file that ends before its last row is
    /// [`DataError::Corrupt`].
    fn next_row(&mut self) -> Result<Option<&[u8]>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.reader.read_exact(&mut self.row).map_err(|e| {
            if e.kind() == ErrorKind::UnexpectedEof {
                DataError::Corrupt(format!("spill file ends {} rows early", self.remaining))
            } else {
                DataError::Io(e)
            }
        })?;
        self.remaining -= 1;
        self.records_read.inc();
        self.bytes_read.add(self.row.len() as u64);
        Ok(Some(&self.row))
    }
}

/// A buffer's handles on the `data.spill.*` counters, looked up once when
/// the buffer is made.
struct SpillCounters {
    records_written: Counter,
    bytes_written: Counter,
    records_read: Counter,
    bytes_read: Counter,
    spill_events: Counter,
}

impl SpillCounters {
    fn new(metrics: &Registry) -> Self {
        SpillCounters {
            records_written: metrics.counter("data.spill.records_written"),
            bytes_written: metrics.counter("data.spill.bytes_written"),
            records_read: metrics.counter("data.spill.records_read"),
            bytes_read: metrics.counter("data.spill.bytes_read"),
            spill_events: metrics.counter("data.spill.spill_events"),
        }
    }

    fn written(&self, n: u64, bytes: u64) {
        self.records_written.add(n);
        self.bytes_written.add(bytes);
    }
}

/// A container of records that spills to a temporary file once it exceeds a
/// configured in-memory budget. The temporary file is deleted on drop.
pub struct SpillBuffer {
    schema: Arc<Schema>,
    layout: RowLayout,
    mem_budget: usize,
    /// The in-memory prefix: at most `mem_budget` rows, back to back.
    in_mem: Vec<u8>,
    spill: Option<SpillFile>,
    dir: Option<PathBuf>,
    counters: SpillCounters,
}

impl SpillBuffer {
    /// Create a buffer holding at most `mem_budget` records in memory,
    /// spilling to [`std::env::temp_dir`] and counting into `metrics`. A
    /// budget of 0 spills every record.
    pub fn new(schema: Arc<Schema>, mem_budget: usize, metrics: &Registry) -> Self {
        Self::new_in(schema, mem_budget, metrics, None)
    }

    /// Like [`SpillBuffer::new`] but spilling into `dir` when given
    /// (`None` keeps the [`std::env::temp_dir`] default).
    pub fn new_in(
        schema: Arc<Schema>,
        mem_budget: usize,
        metrics: &Registry,
        dir: Option<PathBuf>,
    ) -> Self {
        SpillBuffer {
            layout: RowLayout::new(&schema),
            schema,
            mem_budget,
            in_mem: Vec::new(),
            spill: None,
            dir,
            counters: SpillCounters::new(metrics),
        }
    }

    /// Total records held (in memory + spilled).
    pub fn len(&self) -> u64 {
        self.in_mem_len() as u64 + self.spilled_len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records in the spill file.
    pub fn spilled_len(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.n_records)
    }

    fn in_mem_len(&self) -> usize {
        self.in_mem.len() / self.layout.width()
    }

    /// The schema of the buffered records.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn spill_dir(&self) -> PathBuf {
        self.dir.clone().unwrap_or_else(std::env::temp_dir)
    }

    /// Append one encoded row. The row must pass [`RowLayout::check`], or
    /// the buffer refuses it with [`DataError::Corrupt`].
    pub fn push_row(&mut self, row: &[u8]) -> Result<()> {
        self.layout.check(row)?;
        let at = self.in_mem.len();
        self.in_mem.extend_from_slice(row);
        self.settle(at)
    }

    /// Keep the row just appended to `in_mem` at byte `at` while the
    /// in-memory prefix is under budget; otherwise move it to the spill
    /// file. Either way, on return the row is in exactly one tier, or in
    /// none on an error.
    fn settle(&mut self, at: usize) -> Result<()> {
        if at / self.layout.width() < self.mem_budget {
            return Ok(());
        }
        let written = self.write_spilled(at);
        self.in_mem.truncate(at);
        written
    }

    /// Append the row at byte `at` of `in_mem` to the spill file, creating
    /// the file on the first overflow.
    fn write_spilled(&mut self, at: usize) -> Result<()> {
        if self.spill.is_none() {
            self.spill = Some(SpillFile::create(&self.spill_dir())?);
            self.counters.spill_events.inc();
        }
        let spill = self.spill.as_mut().expect("created above");
        spill.write(&self.in_mem[at..])?;
        spill.n_records += 1;
        self.counters.written(1, self.layout.width() as u64);
        Ok(())
    }

    /// Hand every row to `visit`, checked by [`RowLayout::check`]: the
    /// in-memory prefix first, then the spilled suffix read back in file
    /// order. A truncated or corrupt spill file is [`DataError::Corrupt`].
    pub fn for_each_row(&mut self, mut visit: impl FnMut(EncodedRow<'_>)) -> Result<()> {
        for row in self.in_mem.chunks_exact(self.layout.width()) {
            // In-memory rows were checked on the way in.
            visit(EncodedRow::checked(&self.layout, row));
        }
        self.for_each_spilled(visit)
    }

    /// Append every row's bytes to `out`, in the order and with the checks
    /// of [`SpillBuffer::for_each_row`].
    pub fn append_rows(&mut self, out: &mut Vec<u8>) -> Result<()> {
        out.reserve(self.len() as usize * self.layout.width());
        self.for_each_row(|row| out.extend_from_slice(row.bytes()))
    }

    /// Hand every spilled row, checked by [`RowLayout::check`], to `visit`
    /// in file order.
    fn for_each_spilled(&mut self, mut visit: impl FnMut(EncodedRow<'_>)) -> Result<()> {
        let Some(s) = self.spill.as_mut() else {
            return Ok(());
        };
        let mut rows = s.rows(self.layout.width(), &self.counters)?;
        while let Some(row) = rows.next_row()? {
            visit(EncodedRow::new(&self.layout, row)?);
        }
        Ok(())
    }

    /// Replace the spill file with `rows`, written once.
    fn rewrite_spilled(&mut self, rows: &[u8]) -> Result<()> {
        self.spill = None; // drops + deletes the old file
        if rows.is_empty() {
            return Ok(());
        }
        let mut fresh = SpillFile::create(&self.spill_dir())?;
        fresh.write(rows)?;
        fresh.n_records = (rows.len() / self.layout.width()) as u64;
        self.counters.written(fresh.n_records, rows.len() as u64);
        self.spill = Some(fresh);
        Ok(())
    }

    /// Remove one stored row per row of `targets`, the rows back to back
    /// (multiset semantics: a row listed twice is removed twice, if present
    /// twice). Returns how many rows were actually removed.
    ///
    /// Rows are compared field by field ([`RowLayout::matches`], so `0.0`
    /// matches a stored `-0.0`). A matching in-memory row is taken first;
    /// otherwise the first matching spilled row. The removed row's place is
    /// taken by the last row of its tier (a swap-remove), so the result —
    /// contents and order — is that of one-target calls made in sequence.
    ///
    /// This is the batched form incremental *deletions* go through: a
    /// maintain cycle with `D` deletes would otherwise rewrite the spill
    /// file `D` times (O(D·n) I/O); `remove_many` reads the spilled tier
    /// at most once and rewrites it at most once, regardless of `D`.
    pub fn remove_many(&mut self, targets: &[u8]) -> Result<u64> {
        let width = self.layout.width();
        let mut removed = 0u64;
        // The spilled tier, read on first need.
        let mut spilled: Option<Vec<u8>> = None;
        let mut spilled_dirty = false;
        for target in targets.chunks_exact(width) {
            if let Some(pos) = self.position(&self.in_mem, target) {
                swap_remove_row(&mut self.in_mem, pos, width);
                removed += 1;
                continue;
            }
            if self.spill.is_none() {
                continue;
            }
            if spilled.is_none() {
                let mut rows = Vec::with_capacity(self.spilled_len() as usize * width);
                self.for_each_spilled(|row| rows.extend_from_slice(row.bytes()))?;
                spilled = Some(rows);
            }
            let tier = spilled.as_mut().expect("read above");
            if let Some(pos) = self.position(tier, target) {
                swap_remove_row(tier, pos, width);
                removed += 1;
                spilled_dirty = true;
            }
        }
        if spilled_dirty {
            let tier = spilled.expect("dirty implies read");
            self.rewrite_spilled(&tier)?;
        }
        Ok(removed)
    }

    /// The index of the first row of `rows` that matches `target`.
    fn position(&self, rows: &[u8], target: &[u8]) -> Option<usize> {
        rows.chunks_exact(self.layout.width())
            .position(|row| self.layout.matches(row, target))
    }

    /// Whether [`SpillBuffer::remove_many`] of `targets` would remove every
    /// one of them: each target must match more stored rows than earlier
    /// targets match it, so a row listed twice must be stored twice, and a
    /// row holding NaN (which matches nothing) is never held. Reads the
    /// spilled tier once and mutates nothing; incremental deletions check a
    /// whole batch this way before anything in the tree changes.
    pub fn contains_all(&mut self, targets: &[u8]) -> Result<bool> {
        let targets: Vec<&[u8]> = targets.chunks_exact(self.layout.width()).collect();
        let mut copies = vec![0u64; targets.len()];
        self.for_each_row(|row| {
            for (n, target) in copies.iter_mut().zip(&targets) {
                *n += u64::from(row.matches(target));
            }
        })?;
        Ok(targets
            .iter()
            .zip(&copies)
            .enumerate()
            .all(|(t, (target, &n))| {
                let earlier = targets[..t]
                    .iter()
                    .filter(|e| self.layout.matches(e, target));
                n > earlier.count() as u64
            }))
    }

    /// Drop all contents (and the temporary file, if any).
    pub fn clear(&mut self) {
        self.in_mem.clear();
        self.spill = None;
    }
}

/// Move the last `width`-byte row of `rows` into row `pos` and drop the
/// last row, as [`Vec::swap_remove`] does for one element.
fn swap_remove_row(rows: &mut Vec<u8>, pos: usize, width: usize) {
    let last = rows.len() - width;
    rows.copy_within(last.., pos * width);
    rows.truncate(last);
}

impl std::fmt::Debug for SpillBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillBuffer")
            .field("len", &self.len())
            .field("in_mem", &self.in_mem_len())
            .field("spilled", &self.spilled_len())
            .field("budget", &self.mem_budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::record::{Field, Record};
    use crate::schema::Attribute;
    use crate::IoSnapshot;

    /// Pushing a record as its encoded row.
    trait PushRecord {
        fn push(&mut self, record: &Record) -> Result<()>;
    }

    impl PushRecord for SpillBuffer {
        fn push(&mut self, record: &Record) -> Result<()> {
            let row = codec::encode(&self.schema, record)?;
            self.push_row(&row)
        }
    }

    /// `records` encoded as rows back to back.
    fn rows(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            codec::encode_into(&schema(), r, &mut out).unwrap();
        }
        out
    }

    /// Every record of `b`, decoded, in buffer order.
    fn records(b: &mut SpillBuffer) -> Result<Vec<Record>> {
        let layout = b.layout.clone();
        let mut out = Vec::new();
        b.for_each_row(|row| out.push(layout.decode(row.bytes())))?;
        out.into_iter().collect()
    }

    /// The `data.spill.*` counters of `metrics` now.
    fn spill_io(metrics: &Registry) -> IoSnapshot {
        IoSnapshot::spill(&metrics.snapshot())
    }

    fn schema() -> Arc<Schema> {
        Schema::shared(vec![Attribute::numeric("x")], 2).unwrap()
    }

    fn rec(x: f64) -> Record {
        Record::new(vec![Field::Num(x)], if x as i64 % 2 == 0 { 0 } else { 1 })
    }

    #[test]
    fn stays_in_memory_under_budget() {
        let mut b = SpillBuffer::new(schema(), 10, &Registry::new());
        for i in 0..10 {
            b.push(&rec(i as f64)).unwrap();
        }
        assert_eq!(b.len(), 10);
        assert_eq!(b.spilled_len(), 0);
        let v = records(&mut b).unwrap();
        assert_eq!(v.len(), 10);
        assert_eq!(v[3], rec(3.0));
    }

    #[test]
    fn spills_beyond_budget_and_preserves_order() {
        let mut b = SpillBuffer::new(schema(), 4, &Registry::new());
        for i in 0..20 {
            b.push(&rec(i as f64)).unwrap();
        }
        assert_eq!(b.len(), 20);
        assert_eq!(b.spilled_len(), 16);
        let v = records(&mut b).unwrap();
        let xs: Vec<f64> = v.iter().map(|r| r.num(0)).collect();
        assert_eq!(xs, (0..20).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn order_survives_a_long_spill() {
        let n = 3 * 256 + 17;
        let mut b = SpillBuffer::new(schema(), 2, &Registry::new());
        for i in 0..n {
            b.push(&rec(i as f64)).unwrap();
        }
        let xs: Vec<f64> = records(&mut b).unwrap().iter().map(|r| r.num(0)).collect();
        assert_eq!(xs, (0..n).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn budget_zero_spills_everything() {
        let mut b = SpillBuffer::new(schema(), 0, &Registry::new());
        for i in 0..5 {
            b.push(&rec(i as f64)).unwrap();
        }
        assert_eq!(b.spilled_len(), 5);
        assert_eq!(records(&mut b).unwrap().len(), 5);
    }

    #[test]
    fn iterate_push_iterate_again() {
        let mut b = SpillBuffer::new(schema(), 2, &Registry::new());
        for i in 0..4 {
            b.push(&rec(i as f64)).unwrap();
        }
        assert_eq!(records(&mut b).unwrap().len(), 4);
        b.push(&rec(99.0)).unwrap();
        let v = records(&mut b).unwrap();
        assert_eq!(v.len(), 5);
        assert_eq!(v.last().unwrap().num(0), 99.0);
    }

    #[test]
    fn remove_one_target_from_memory_and_disk() {
        let mut b = SpillBuffer::new(schema(), 2, &Registry::new());
        for i in 0..6 {
            b.push(&rec(i as f64)).unwrap();
        }
        // in_mem = [0,1], spilled = [2,3,4,5]
        assert_eq!(b.remove_many(&rows(&[rec(1.0)])).unwrap(), 1);
        assert_eq!(b.remove_many(&rows(&[rec(4.0)])).unwrap(), 1);
        assert_eq!(b.remove_many(&rows(&[rec(42.0)])).unwrap(), 0);
        let mut xs: Vec<i64> = records(&mut b)
            .unwrap()
            .iter()
            .map(|r| r.num(0) as i64)
            .collect();
        xs.sort_unstable();
        assert_eq!(xs, vec![0, 2, 3, 5]);
    }

    #[test]
    fn one_target_removes_only_one_duplicate() {
        let mut b = SpillBuffer::new(schema(), 1, &Registry::new());
        b.push(&rec(7.0)).unwrap();
        b.push(&rec(7.0)).unwrap();
        b.push(&rec(7.0)).unwrap();
        assert_eq!(b.remove_many(&rows(&[rec(7.0)])).unwrap(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn remove_many_matches_sequential_one_target_calls() {
        let targets: Vec<Record> = [9.0, 2.0, 9.0, 77.0, 0.0, 5.0].map(rec).to_vec();
        let mut batched = SpillBuffer::new(schema(), 3, &Registry::new());
        let mut serial = SpillBuffer::new(schema(), 3, &Registry::new());
        for i in 0..12 {
            batched.push(&rec(i as f64)).unwrap();
            serial.push(&rec(i as f64)).unwrap();
        }
        batched.push(&rec(9.0)).unwrap(); // a duplicate, so 9.0 exists twice
        serial.push(&rec(9.0)).unwrap();
        let n = batched.remove_many(&rows(&targets)).unwrap();
        let mut m = 0;
        for t in &targets {
            m += serial.remove_many(&rows(std::slice::from_ref(t))).unwrap();
        }
        assert_eq!(n, m);
        assert_eq!(n, 5, "77.0 is absent, everything else present");
        assert_eq!(
            records(&mut batched).unwrap(),
            records(&mut serial).unwrap(),
            "batched removal must leave the identical buffer (order included)"
        );
    }

    #[test]
    fn removal_swap_removes_within_each_tier() {
        let mut b = SpillBuffer::new(schema(), 3, &Registry::new());
        for i in 0..8 {
            b.push(&rec(i as f64)).unwrap();
        }
        // in_mem = [0,1,2], spilled = [3,4,5,6,7]: each removed row's place
        // is taken by the last row of its tier.
        assert_eq!(b.remove_many(&rows(&[rec(1.0), rec(4.0)])).unwrap(), 2);
        let xs: Vec<f64> = records(&mut b).unwrap().iter().map(|r| r.num(0)).collect();
        assert_eq!(xs, [0.0, 2.0, 3.0, 7.0, 5.0, 6.0]);
        // The in-memory tier refills before the file grows.
        b.push(&rec(8.0)).unwrap();
        assert_eq!(b.spilled_len(), 4);
        let xs: Vec<f64> = records(&mut b).unwrap().iter().map(|r| r.num(0)).collect();
        assert_eq!(xs, [0.0, 2.0, 8.0, 3.0, 7.0, 5.0, 6.0]);
    }

    #[test]
    fn remove_many_rewrites_once() {
        let metrics = Registry::new();
        let mut b = SpillBuffer::new(schema(), 0, &metrics);
        for i in 0..40 {
            b.push(&rec(i as f64)).unwrap();
        }
        let before = metrics.snapshot();
        let targets: Vec<Record> = (0..8).map(|i| rec(i as f64 * 4.0)).collect();
        assert_eq!(b.remove_many(&rows(&targets)).unwrap(), 8);
        let delta = IoSnapshot::spill(&metrics.snapshot().since(&before));
        // One read (40 rows) + one rewrite of the 32 survivors; eight
        // one-target calls would have rewritten 39+38+…+32 records.
        assert_eq!(delta.records_read, 40);
        assert_eq!(delta.records_written, 32);
        assert_eq!(b.len(), 32);
    }

    #[test]
    fn remove_many_in_memory_only_does_no_io() {
        let metrics = Registry::new();
        let mut b = SpillBuffer::new(schema(), 10, &metrics);
        for i in 0..5 {
            b.push(&rec(i as f64)).unwrap();
        }
        assert_eq!(b.remove_many(&rows(&[rec(1.0), rec(3.0)])).unwrap(), 2);
        let snap = spill_io(&metrics);
        assert_eq!(snap.records_read + snap.records_written, 0);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn contains_all_counts_copies_across_tiers() {
        let mut b = SpillBuffer::new(schema(), 1, &Registry::new());
        b.push(&rec(7.0)).unwrap(); // in_mem
        b.push(&rec(7.0)).unwrap(); // spilled
        b.push(&rec(3.0)).unwrap();
        b.push(&rec(7.0)).unwrap();
        for (targets, held) in [
            (vec![rec(7.0), rec(3.0), rec(7.0), rec(7.0)], true),
            (
                vec![rec(7.0), rec(3.0), rec(7.0), rec(7.0), rec(7.0)],
                false,
            ),
            (vec![rec(3.0), rec(3.0)], false),
            (vec![rec(42.0)], false),
            (vec![], true),
        ] {
            assert_eq!(
                b.contains_all(&rows(&targets)).unwrap(),
                held,
                "{targets:?}"
            );
        }
        assert_eq!(b.len(), 4, "checking must not mutate");
    }

    #[test]
    fn contains_all_reads_the_spilled_tier_once() {
        let metrics = Registry::new();
        let mut b = SpillBuffer::new(schema(), 2, &metrics);
        for i in 0..10 {
            b.push(&rec(i as f64)).unwrap();
        }
        let before = spill_io(&metrics).records_read;
        let targets: Vec<Record> = (0..10).map(|i| rec(i as f64)).collect();
        assert!(b.contains_all(&rows(&targets)).unwrap());
        assert_eq!(
            spill_io(&metrics).records_read - before,
            8,
            "one pass over 8 spilled rows"
        );
    }

    #[test]
    fn a_row_holding_nan_is_never_contained() {
        let mut b = SpillBuffer::new(schema(), 4, &Registry::new());
        b.push(&rec(f64::NAN)).unwrap();
        assert!(!b.contains_all(&rows(&[rec(f64::NAN)])).unwrap());
        assert_eq!(b.remove_many(&rows(&[rec(f64::NAN)])).unwrap(), 0);
    }

    #[test]
    fn clear_removes_everything() {
        let mut b = SpillBuffer::new(schema(), 1, &Registry::new());
        for i in 0..5 {
            b.push(&rec(i as f64)).unwrap();
        }
        let spill_path = b.spill.as_ref().unwrap().path.clone();
        assert!(spill_path.exists());
        b.clear();
        assert!(b.is_empty());
        assert!(!spill_path.exists(), "clear must delete the temp file");
    }

    #[test]
    fn drop_deletes_temp_file() {
        let path;
        {
            let mut b = SpillBuffer::new(schema(), 0, &Registry::new());
            b.push(&rec(1.0)).unwrap();
            path = b.spill.as_ref().unwrap().path.clone();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn spill_io_is_counted() {
        let metrics = Registry::new();
        let mut b = SpillBuffer::new(schema(), 0, &metrics);
        for i in 0..3 {
            b.push(&rec(i as f64)).unwrap();
        }
        records(&mut b).unwrap();
        let snap = spill_io(&metrics);
        assert_eq!(snap.records_written, 3);
        assert_eq!(snap.records_read, 3);
        // Plain 10-byte rows: no header, the file is rows only.
        assert_eq!(snap.bytes_written, 30);
        assert_eq!(snap.bytes_read, 30);
        let path = &b.spill.as_ref().unwrap().path;
        assert_eq!(std::fs::metadata(path).unwrap().len(), 30);
        assert_eq!(snap.spill_events, 1, "one spill file opened");
    }

    #[test]
    fn in_memory_buffer_records_no_spill_event() {
        let metrics = Registry::new();
        let mut b = SpillBuffer::new(schema(), 16, &metrics);
        for i in 0..8 {
            b.push(&rec(i as f64)).unwrap();
        }
        assert_eq!(spill_io(&metrics).spill_events, 0);
    }

    #[test]
    fn contains_all_is_non_destructive() {
        let mut b = SpillBuffer::new(schema(), 2, &Registry::new());
        for i in 0..6 {
            b.push(&rec(i as f64)).unwrap();
        }
        // in_mem = [0,1], spilled = [2,3,4,5]
        assert!(b.contains_all(&rows(&[rec(1.0), rec(4.0)])).unwrap());
        assert!(!b.contains_all(&rows(&[rec(1.0), rec(42.0)])).unwrap());
        assert_eq!(b.len(), 6, "contains_all must not remove anything");
        // Buffer still fully usable after probing the spilled region.
        b.push(&rec(6.0)).unwrap();
        assert_eq!(records(&mut b).unwrap().len(), 7);
    }

    /// A schema with a categorical field, and a buffer of `n` rows of it,
    /// every one spilled.
    fn spilled_cat_rows(n: u32) -> SpillBuffer {
        let schema = Schema::shared(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 4)],
            3,
        )
        .unwrap();
        let mut b = SpillBuffer::new(schema, 0, &Registry::new());
        for i in 0..n {
            let r = Record::new(
                vec![Field::Num(f64::from(i)), Field::Cat(i % 4)],
                (i % 3) as u16,
            );
            b.push(&r).unwrap();
        }
        b
    }

    /// `b`'s spill file, flushed and opened for writing.
    fn open_spill_file(b: &mut SpillBuffer) -> File {
        let spill = b.spill.as_mut().unwrap();
        spill.writer.as_mut().unwrap().flush().unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&spill.path)
            .unwrap()
    }

    /// Overwrite `bytes` at `offset` of `b`'s spill file.
    fn patch_spill_file(b: &mut SpillBuffer, offset: u64, bytes: &[u8]) {
        use std::io::{Seek, SeekFrom};
        let mut f = open_spill_file(b);
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(bytes).unwrap();
    }

    fn assert_corrupt(b: &mut SpillBuffer, what: &str) {
        assert!(
            matches!(records(b), Err(DataError::Corrupt(_))),
            "{what}: for_each_row"
        );
        let probe = Record::new(vec![Field::Num(0.0), Field::Cat(0)], 0);
        let probe = codec::encode(&b.schema, &probe).unwrap();
        assert!(
            matches!(b.contains_all(&probe), Err(DataError::Corrupt(_))),
            "{what}: contains_all"
        );
        assert!(
            matches!(b.remove_many(&probe), Err(DataError::Corrupt(_))),
            "{what}: remove_many"
        );
    }

    #[test]
    fn truncated_spill_file_is_corrupt() {
        let mut b = spilled_cat_rows(5);
        let width = b.layout.width() as u64;
        let f = open_spill_file(&mut b);
        f.set_len(4 * width + 3).unwrap(); // cut the last row mid-row
        assert_corrupt(&mut b, "cut mid-row");
    }

    #[test]
    fn out_of_range_spilled_label_or_code_is_corrupt() {
        // Row layout: x (8 bytes), c (4 bytes), label (2 bytes).
        let mut b = spilled_cat_rows(3);
        patch_spill_file(&mut b, 14 + 12, &3u16.to_le_bytes());
        assert_corrupt(&mut b, "label 3 of 3 classes");

        let mut b = spilled_cat_rows(3);
        patch_spill_file(&mut b, 14 + 8, &4u32.to_le_bytes());
        assert_corrupt(&mut b, "code 4 of cardinality 4");
    }

    #[test]
    fn push_row_refuses_rows_that_do_not_fit_the_schema() {
        for budget in [0, 4] {
            let mut b = spilled_cat_rows(0);
            b.mem_budget = budget;
            let mut row = [0u8; 14];
            row[8..12].copy_from_slice(&4u32.to_le_bytes());
            assert!(matches!(b.push_row(&row), Err(DataError::Corrupt(_))));
            let mut row = [0u8; 14];
            row[12..].copy_from_slice(&3u16.to_le_bytes());
            assert!(matches!(b.push_row(&row), Err(DataError::Corrupt(_))));
            assert!(matches!(b.push_row(&[0u8; 13]), Err(DataError::Corrupt(_))));
            assert!(b.is_empty(), "a refused record leaves no bytes behind");
            assert_eq!(b.in_mem.len(), 0);
        }
    }

    #[test]
    fn deleting_zero_removes_a_stored_negative_zero() {
        for budget in [0, 8] {
            let mut b = SpillBuffer::new(schema(), budget, &Registry::new());
            b.push(&rec(-0.0)).unwrap();
            b.push(&rec(1.0)).unwrap();
            assert!(b.contains_all(&rows(&[rec(0.0)])).unwrap());
            assert_eq!(
                b.remove_many(&rows(&[rec(0.0)])).unwrap(),
                1,
                "budget {budget}"
            );
            assert_eq!(records(&mut b).unwrap(), vec![rec(1.0)]);
        }
    }

    #[test]
    fn spill_dir_is_honored() {
        let dir = std::env::temp_dir().join("boat-spill-dir-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = SpillBuffer::new_in(schema(), 0, &Registry::new(), Some(dir.clone()));
        b.push(&rec(1.0)).unwrap();
        let path = b.spill.as_ref().unwrap().path.clone();
        assert_eq!(path.parent().unwrap(), dir.as_path());
        drop(b);
        assert!(!path.exists());
    }

    #[test]
    fn sweep_removes_only_dead_pid_temp_files() {
        let dir = std::env::temp_dir().join("boat-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let me = std::process::id();
        // Linux pids cannot exceed 2^22, so u32::MAX is reliably dead.
        let dead = u32::MAX;
        let keep_mine = dir.join(format!("boat-spill-{me}-0.tmp"));
        let keep_other = dir.join("not-a-spill-file.tmp");
        let keep_garbled = dir.join("boat-spill-garbled.tmp");
        let keep_live_wal = dir.join(format!("boat-wal-{me}-0.wal"));
        let gone_spill = dir.join(format!("boat-spill-{dead}-1.tmp"));
        let gone_rebuild = dir.join(format!("boat-rebuild-{dead}-2.boat"));
        let gone_wal = dir.join(format!("boat-wal-{dead}-3.wal"));
        for p in [
            &keep_mine,
            &keep_other,
            &keep_garbled,
            &keep_live_wal,
            &gone_spill,
            &gone_rebuild,
            &gone_wal,
        ] {
            std::fs::write(p, b"x").unwrap();
        }
        let removed = sweep_stale_spill_files(&dir);
        if cfg!(target_os = "linux") {
            assert_eq!(removed, 3);
            assert!(!gone_spill.exists() && !gone_rebuild.exists() && !gone_wal.exists());
        } else {
            assert_eq!(removed, 0, "sweep is disabled off Linux");
        }
        assert!(keep_mine.exists() && keep_other.exists() && keep_garbled.exists());
        assert!(keep_live_wal.exists(), "live-pid WAL segments survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_spill_in_a_directory_sweeps_it() {
        let dir = std::env::temp_dir().join("boat-sweep-on-startup-test");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join(format!("boat-spill-{}-9.tmp", u32::MAX));
        std::fs::write(&stale, b"orphan").unwrap();
        let mut b = SpillBuffer::new_in(schema(), 0, &Registry::new(), Some(dir.clone()));
        b.push(&rec(1.0)).unwrap();
        if cfg!(target_os = "linux") {
            assert!(!stale.exists(), "creating a spill file must sweep orphans");
        }
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

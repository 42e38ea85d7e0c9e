//! Streaming record sources.
//!
//! Everything BOAT and the baselines do with the training database goes
//! through [`RecordSource::scan`]: a resettable, sequential, *counted* scan.
//! Two concrete sources live here — [`MemoryDataset`] (samples, tests) and
//! [`FileDataset`] (the on-disk training database) — and other crates add
//! more (the synthetic generator).
//!
//! Each source counts its I/O into its own [`boat_obs::Registry`], returned
//! by [`RecordSource::metrics`]: scans started and records and bytes read
//! (through [`ScanCounters`]), and for a file made by a
//! [`FileDatasetWriter`], the records and bytes written. Two sources never
//! share counters unless a writer is handed one registry on purpose
//! ([`FileDatasetWriter::create_with_metrics`]); clones of one source do.
//! A phase's I/O is the delta of two snapshots of that registry, read as
//! plain numbers by [`IoSnapshot::input`].

use crate::codec;
use crate::record::Record;
use crate::schema::{AttrType, Attribute, Schema};
use crate::{DataError, Result};
use boat_obs::{Counter, Registry, Snapshot};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A streaming scan over records. The blanket impl makes any
/// `Iterator<Item = Result<Record>>` a scan.
pub trait RecordScan: Iterator<Item = Result<Record>> {}
impl<T: Iterator<Item = Result<Record>>> RecordScan for T {}

/// A dataset that can be sequentially scanned any number of times.
pub trait RecordSource {
    /// The schema all records conform to.
    fn schema(&self) -> &Arc<Schema>;

    /// Begin a fresh sequential scan. Each call increments the source's
    /// scan counter.
    fn scan(&self) -> Result<Box<dyn RecordScan + '_>>;

    /// Number of records.
    fn len(&self) -> u64;

    /// Whether the source has no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registry this source counts its I/O into, under `data.input.*`
    /// (see [`ScanCounters`]).
    fn metrics(&self) -> &Registry;

    /// Collect every record into memory. Intended for small sources (node
    /// families below the in-memory threshold, samples, tests).
    fn collect_records(&self) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for r in self.scan()? {
            out.push(r?);
        }
        Ok(out)
    }

    /// Begin a fresh scan delivered as fixed-size [`RecordChunk`]s of
    /// encoded rows (the last chunk may be short). Chunks carry their
    /// scan-order `index` (0, 1, 2, …) so consumers that process them out of
    /// order — e.g. a parallel cleanup scan — can still apply
    /// order-sensitive state deterministically. Rows are not checked: a
    /// consumer runs [`codec::RowLayout::check`] on each before reading it.
    ///
    /// The default implementation encodes [`RecordSource::scan`]; sources
    /// with a natural chunk structure (or tests that want to permute
    /// delivery order) may override it. Counts as one scan.
    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        Ok(Box::new(Chunks::new(
            self.scan()?,
            self.schema().clone(),
            chunk_size,
        )))
    }
}

// ---------------------------------------------------------------------------
// I/O counters
// ---------------------------------------------------------------------------

/// Handles on a source's read counters, looked up once per scan.
#[derive(Debug, Clone)]
pub struct ScanCounters {
    records: Counter,
    bytes: Counter,
}

impl ScanCounters {
    /// Count one scan starting in `metrics` (`data.input.scans`) and return
    /// the handles its reads count through (`data.input.records_read`,
    /// `data.input.bytes_read`).
    pub fn start(metrics: &Registry) -> Self {
        metrics.counter("data.input.scans").inc();
        ScanCounters {
            records: metrics.counter("data.input.records_read"),
            bytes: metrics.counter("data.input.bytes_read"),
        }
    }

    /// Count `n` records, `bytes` bytes in all, read.
    pub fn read(&self, n: u64, bytes: u64) {
        self.records.add(n);
        self.bytes.add(bytes);
    }
}

/// The I/O counters under one prefix of a metrics snapshot, as plain
/// numbers: a source's `data.input.*` or the spill buffers' `data.spill.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Sequential scans started.
    pub scans: u64,
    /// Records read.
    pub records_read: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Records written.
    pub records_written: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Buffers that overflowed their memory budget to a temporary file.
    pub spill_events: u64,
}

impl IoSnapshot {
    /// The source counters of `snapshot`: `data.input.scans`,
    /// `data.input.records_read`, … (a counter it lacks reads 0). Pass a
    /// [`Snapshot::since`] delta to measure one phase.
    pub fn input(snapshot: &Snapshot) -> Self {
        Self::read(snapshot, "data.input")
    }

    /// The spill-buffer counters of `snapshot`: `data.spill.records_written`,
    /// … (see [`crate::spill`]).
    pub fn spill(snapshot: &Snapshot) -> Self {
        Self::read(snapshot, "data.spill")
    }

    fn read(snapshot: &Snapshot, prefix: &str) -> Self {
        let counter = |name: &str| snapshot.counter(&format!("{prefix}.{name}"));
        IoSnapshot {
            scans: counter("scans"),
            records_read: counter("records_read"),
            bytes_read: counter("bytes_read"),
            records_written: counter("records_written"),
            bytes_written: counter("bytes_written"),
            spill_events: counter("spill_events"),
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked scans
// ---------------------------------------------------------------------------

/// A contiguous run of rows from a chunked scan, tagged with its position
/// so out-of-order consumers can restore scan order. The rows sit back to
/// back in the fixed-width [`codec`] layout.
#[derive(Debug, Clone)]
pub struct RecordChunk {
    /// 0-based position of this chunk in scan order.
    pub index: usize,
    /// The encoded rows, in scan order.
    pub bytes: Vec<u8>,
    width: usize,
}

impl RecordChunk {
    /// A chunk of `bytes` holding rows of `width` bytes each.
    pub fn new(index: usize, width: usize, bytes: Vec<u8>) -> Self {
        RecordChunk {
            index,
            bytes,
            width: width.max(1),
        }
    }

    /// Bytes per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// Whether the chunk holds no rows (never produced by [`Chunks`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The rows, one `width`-byte slice each.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, u8> {
        self.bytes.chunks_exact(self.width)
    }

    /// Check that the chunk holds whole rows of `width` bytes, the width of
    /// the schema's [`codec::RowLayout`]; [`DataError::Corrupt`] otherwise.
    pub fn check_width(&self, width: usize) -> Result<()> {
        if self.width != width || !self.bytes.len().is_multiple_of(width) {
            return Err(DataError::Corrupt(format!(
                "chunk {} holds {} bytes of {}-byte rows, expected {width}-byte rows",
                self.index,
                self.bytes.len(),
                self.width,
            )));
        }
        Ok(())
    }
}

/// A streaming scan over chunks. The blanket impl makes any
/// `Iterator<Item = Result<RecordChunk>>` a chunk scan.
pub trait ChunkScan: Iterator<Item = Result<RecordChunk>> {}
impl<T: Iterator<Item = Result<RecordChunk>>> ChunkScan for T {}

/// Adapter encoding any [`RecordScan`] into fixed-size [`RecordChunk`]s;
/// backs the default [`RecordSource::scan_chunks`].
pub struct Chunks<'a> {
    inner: Box<dyn RecordScan + 'a>,
    schema: Arc<Schema>,
    chunk_size: usize,
    index: usize,
    done: bool,
}

impl<'a> Chunks<'a> {
    /// Wrap `scan`, whose records conform to `schema`. `chunk_size` is
    /// clamped to at least 1.
    pub fn new(scan: Box<dyn RecordScan + 'a>, schema: Arc<Schema>, chunk_size: usize) -> Self {
        Chunks {
            inner: scan,
            schema,
            chunk_size: chunk_size.max(1),
            index: 0,
            done: false,
        }
    }
}

impl Iterator for Chunks<'_> {
    type Item = Result<RecordChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let width = self.schema.record_width();
        let rows = match self.inner.size_hint().1 {
            Some(left) => left.min(self.chunk_size),
            None => self.chunk_size,
        };
        let mut bytes = Vec::with_capacity(rows.saturating_mul(width));
        for _ in 0..self.chunk_size {
            let encoded = match self.inner.next() {
                None => {
                    self.done = true;
                    break;
                }
                Some(r) => r.and_then(|r| codec::encode_into(&self.schema, &r, &mut bytes)),
            };
            if let Err(e) = encoded {
                self.done = true;
                return Some(Err(e));
            }
        }
        if bytes.is_empty() {
            return None;
        }
        let chunk = RecordChunk::new(self.index, width, bytes);
        self.index += 1;
        Some(Ok(chunk))
    }
}

// ---------------------------------------------------------------------------
// In-memory dataset
// ---------------------------------------------------------------------------

/// A fully in-memory dataset. Scans are counted like file scans so that
/// algorithms behave identically regardless of backing store.
#[derive(Debug, Clone)]
pub struct MemoryDataset {
    schema: Arc<Schema>,
    records: Vec<Record>,
    metrics: Registry,
}

impl MemoryDataset {
    /// Wrap records (assumed schema-conformant) in a dataset.
    pub fn new(schema: Arc<Schema>, records: Vec<Record>) -> Self {
        MemoryDataset {
            schema,
            records,
            metrics: Registry::new(),
        }
    }

    /// Validate every record against the schema, then wrap.
    pub fn validated(schema: Arc<Schema>, records: Vec<Record>) -> Result<Self> {
        for r in &records {
            r.validate(&schema)?;
        }
        Ok(Self::new(schema, records))
    }

    /// Direct slice access (no scan accounting); for in-memory algorithms.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consume the dataset, returning its records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

impl RecordSource for MemoryDataset {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        let counters = ScanCounters::start(&self.metrics);
        let width = self.schema.record_width() as u64;
        Ok(Box::new(self.records.iter().map(move |r| {
            counters.read(1, width);
            Ok(r.clone())
        })))
    }

    fn len(&self) -> u64 {
        self.records.len() as u64
    }

    fn metrics(&self) -> &Registry {
        &self.metrics
    }
}

// ---------------------------------------------------------------------------
// On-disk dataset
// ---------------------------------------------------------------------------

const MAGIC: &[u8; 8] = b"BOATDS01";

/// Largest attribute count the header format round-trips. The writer and
/// reader share this bound: anything the writer accepts, the reader accepts
/// back. (It also keeps a corrupt header from provoking a giant allocation.)
const MAX_HEADER_ATTRS: usize = 1 << 20;

fn write_schema(w: &mut impl Write, schema: &Schema) -> Result<()> {
    // Validate every narrowing cast *before* writing a byte: a silently
    // truncated count or length produces a header that misparses on
    // read-back (the length prefixes double as field delimiters).
    if schema.n_classes() > u16::MAX as usize {
        return Err(DataError::Invalid(format!(
            "cannot serialize schema: {} classes exceeds the u16 header field",
            schema.n_classes()
        )));
    }
    if schema.n_attributes() > MAX_HEADER_ATTRS {
        return Err(DataError::Invalid(format!(
            "cannot serialize schema: {} attributes exceeds the header limit of {MAX_HEADER_ATTRS}",
            schema.n_attributes()
        )));
    }
    w.write_all(&(schema.n_classes() as u16).to_le_bytes())?;
    w.write_all(&(schema.n_attributes() as u32).to_le_bytes())?;
    for attr in schema.attributes() {
        match attr.ty() {
            AttrType::Numeric => {
                w.write_all(&[0u8])?;
                w.write_all(&0u32.to_le_bytes())?;
            }
            AttrType::Categorical { cardinality } => {
                w.write_all(&[1u8])?;
                w.write_all(&cardinality.to_le_bytes())?;
            }
        }
        let name = attr.name().as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(DataError::Invalid(format!(
                "cannot serialize schema: attribute name {:?}… is {} bytes, limit {}",
                &attr.name()[..16.min(attr.name().len())],
                name.len(),
                u16::MAX
            )));
        }
        w.write_all(&(name.len() as u16).to_le_bytes())?;
        w.write_all(name)?;
    }
    Ok(())
}

fn read_exact_buf<const N: usize>(r: &mut impl Read) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_schema(r: &mut impl Read) -> Result<Schema> {
    let n_classes = u16::from_le_bytes(read_exact_buf::<2>(r)?);
    let n_attrs = u32::from_le_bytes(read_exact_buf::<4>(r)?);
    if n_attrs as usize > MAX_HEADER_ATTRS {
        return Err(DataError::Corrupt(format!(
            "implausible attribute count {n_attrs}"
        )));
    }
    let mut attrs = Vec::with_capacity(n_attrs as usize);
    for _ in 0..n_attrs {
        let tag = read_exact_buf::<1>(r)?[0];
        let cardinality = u32::from_le_bytes(read_exact_buf::<4>(r)?);
        let name_len = u16::from_le_bytes(read_exact_buf::<2>(r)?) as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| DataError::Corrupt("attribute name is not UTF-8".into()))?;
        attrs.push(match tag {
            0 => Attribute::numeric(name),
            1 => Attribute::categorical(name, cardinality),
            t => return Err(DataError::Corrupt(format!("unknown attribute tag {t}"))),
        });
    }
    Schema::new(attrs, n_classes)
}

/// A fixed-width binary dataset file:
/// `magic | schema | record-count | records…`.
#[derive(Debug, Clone)]
pub struct FileDataset {
    path: PathBuf,
    schema: Arc<Schema>,
    n_records: u64,
    data_offset: u64,
    metrics: Registry,
}

impl FileDataset {
    /// Open an existing dataset file, counting into a registry of its own.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_metrics(path, Registry::new())
    }

    /// Open an existing dataset file that counts into `metrics`.
    fn open_with_metrics(path: impl AsRef<Path>, metrics: Registry) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut reader = BufReader::new(File::open(&path)?);
        let magic = read_exact_buf::<8>(&mut reader)?;
        if &magic != MAGIC {
            return Err(DataError::Corrupt(format!(
                "bad magic in {}: expected BOATDS01",
                path.display()
            )));
        }
        let schema = Arc::new(read_schema(&mut reader)?);
        let n_records = u64::from_le_bytes(read_exact_buf::<8>(&mut reader)?);
        let data_offset = reader.stream_position()?;
        let expected = n_records
            .checked_mul(schema.record_width() as u64)
            .and_then(|bytes| bytes.checked_add(data_offset))
            .ok_or_else(|| {
                DataError::Corrupt(format!(
                    "{}: header record count {n_records} overflows the file size",
                    path.display()
                ))
            })?;
        let actual = std::fs::metadata(&path)?.len();
        if actual != expected {
            return Err(DataError::Corrupt(format!(
                "{}: file is {actual} bytes, header implies {expected}",
                path.display()
            )));
        }
        Ok(FileDataset {
            path,
            schema,
            n_records,
            data_offset,
            metrics,
        })
    }

    /// Materialize any source into a new dataset file at `path`.
    pub fn create_from(path: impl AsRef<Path>, source: &dyn RecordSource) -> Result<Self> {
        let mut writer = FileDatasetWriter::create(path, source.schema().clone())?;
        for r in source.scan()? {
            writer.append(&r?)?;
        }
        writer.finish()
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl RecordSource for FileDataset {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        let counters = ScanCounters::start(&self.metrics);
        let mut reader = BufReader::with_capacity(1 << 18, File::open(&self.path)?);
        reader.seek(SeekFrom::Start(self.data_offset))?;
        Ok(Box::new(FileScan {
            reader,
            layout: codec::RowLayout::new(&self.schema),
            remaining: self.n_records,
            buf: vec![0u8; self.schema.record_width()],
            counters,
        }))
    }

    fn len(&self) -> u64 {
        self.n_records
    }

    fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// One `read_exact` per chunk straight into its row buffer, with no
    /// per-row decode; the I/O counters move once per chunk.
    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        let counters = ScanCounters::start(&self.metrics);
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.data_offset))?;
        let width = self.schema.record_width();
        let chunk_size = chunk_size.max(1) as u64;
        let mut remaining = self.n_records;
        let mut index = 0usize;
        Ok(Box::new(std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let n = remaining.min(chunk_size);
            let mut bytes = vec![0u8; n as usize * width];
            if let Err(e) = file.read_exact(&mut bytes) {
                remaining = 0;
                return Some(Err(e.into()));
            }
            remaining -= n;
            counters.read(n, bytes.len() as u64);
            let chunk = RecordChunk::new(index, width, bytes);
            index += 1;
            Some(Ok(chunk))
        })))
    }
}

struct FileScan {
    reader: BufReader<File>,
    layout: codec::RowLayout,
    remaining: u64,
    buf: Vec<u8>,
    counters: ScanCounters,
}

impl Iterator for FileScan {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if let Err(e) = self.reader.read_exact(&mut self.buf) {
            self.remaining = 0;
            return Some(Err(e.into()));
        }
        self.counters.read(1, self.buf.len() as u64);
        Some(self.layout.decode(&self.buf))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// Incremental writer for [`FileDataset`] files.
pub struct FileDatasetWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    schema: Arc<Schema>,
    n_records: u64,
    count_offset: u64,
    buf: Vec<u8>,
    metrics: Registry,
    records_written: Counter,
    bytes_written: Counter,
}

impl FileDatasetWriter {
    /// Create (truncating) a dataset file at `path`. The writer counts the
    /// records and bytes it writes (`data.input.records_written`,
    /// `data.input.bytes_written`) into a registry of its own, which the
    /// dataset [`FileDatasetWriter::finish`] returns keeps counting into.
    pub fn create(path: impl AsRef<Path>, schema: Arc<Schema>) -> Result<Self> {
        Self::create_with_metrics(path, schema, Registry::new())
    }

    /// Like [`FileDatasetWriter::create`], but counting into `metrics`, so
    /// files written with one registry share their counters (a run's
    /// temporary partition files). `metrics` must not be the registry of a
    /// `Boat` that fits the dataset: a fit folds its input's counters into
    /// its own registry, and would count them twice.
    pub fn create_with_metrics(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        metrics: Registry,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut writer = BufWriter::with_capacity(1 << 18, File::create(&path)?);
        writer.write_all(MAGIC)?;
        write_schema(&mut writer, &schema)?;
        let count_offset = writer.stream_position()?;
        writer.write_all(&0u64.to_le_bytes())?; // patched by finish()
        Ok(FileDatasetWriter {
            path,
            writer,
            schema,
            n_records: 0,
            count_offset,
            buf: Vec::new(),
            records_written: metrics.counter("data.input.records_written"),
            bytes_written: metrics.counter("data.input.bytes_written"),
            metrics,
        })
    }

    /// The schema records must conform to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Append one record.
    pub fn append(&mut self, record: &Record) -> Result<()> {
        self.buf.clear();
        codec::encode_into(&self.schema, record, &mut self.buf)?;
        self.writer.write_all(&self.buf)?;
        self.n_records += 1;
        self.records_written.inc();
        self.bytes_written.add(self.buf.len() as u64);
        Ok(())
    }

    /// Records appended so far.
    pub fn len(&self) -> u64 {
        self.n_records
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Patch the record count into the header and open the finished dataset.
    pub fn finish(mut self) -> Result<FileDataset> {
        self.writer.flush()?;
        let mut file = self
            .writer
            .into_inner()
            .map_err(|e| DataError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(self.count_offset))?;
        file.write_all(&self.n_records.to_le_bytes())?;
        file.sync_data()?;
        drop(file);
        FileDataset::open_with_metrics(&self.path, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Field;

    fn schema() -> Arc<Schema> {
        Schema::shared(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 4)],
            2,
        )
        .unwrap()
    }

    /// The `data.input.*` counters of `ds` now.
    fn io(ds: &dyn RecordSource) -> IoSnapshot {
        IoSnapshot::input(&ds.metrics().snapshot())
    }

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(
                    vec![Field::Num(i as f64 * 0.5), Field::Cat((i % 4) as u32)],
                    (i % 2) as u16,
                )
            })
            .collect()
    }

    #[test]
    fn memory_dataset_scan_roundtrip_and_counts() {
        let ds = MemoryDataset::new(schema(), records(10));
        assert_eq!(ds.len(), 10);
        let collected = ds.collect_records().unwrap();
        assert_eq!(collected, records(10));
        let snap = io(&ds);
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.records_read, 10);
    }

    #[test]
    fn two_sources_do_not_share_counters() {
        let a = MemoryDataset::new(schema(), records(4));
        let b = MemoryDataset::new(schema(), records(4));
        a.collect_records().unwrap();
        assert_eq!(io(&a).scans, 1);
        assert_eq!(io(&b), IoSnapshot::default());
    }

    #[test]
    fn clones_of_a_source_share_counters() {
        let a = MemoryDataset::new(schema(), records(4));
        let b = a.clone();
        b.collect_records().unwrap();
        b.collect_records().unwrap();
        assert_eq!(io(&a).scans, 2);
        assert_eq!(io(&a).records_read, 8);
    }

    #[test]
    fn a_snapshot_delta_measures_one_phase() {
        let ds = MemoryDataset::new(schema(), records(5));
        ds.collect_records().unwrap();
        let before = ds.metrics().snapshot();
        ds.collect_records().unwrap();
        let delta = IoSnapshot::input(&ds.metrics().snapshot().since(&before));
        assert_eq!(delta.scans, 1);
        assert_eq!(delta.records_read, 5);
        assert_eq!(delta.bytes_read, 5 * ds.schema().record_width() as u64);
        assert_eq!(io(&ds).scans, 2);
    }

    #[test]
    fn memory_dataset_validated_rejects_bad_records() {
        let bad = vec![Record::new(vec![Field::Num(1.0), Field::Cat(9)], 0)];
        assert!(MemoryDataset::validated(schema(), bad).is_err());
    }

    #[test]
    fn file_dataset_roundtrip() {
        let dir = std::env::temp_dir().join("boat-data-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.boat");
        let mut w = FileDatasetWriter::create(&path, schema()).unwrap();
        for r in records(100) {
            w.append(&r).unwrap();
        }
        let ds = w.finish().unwrap();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.collect_records().unwrap(), records(100));
        // one scan; 100 records of width 14 read; the writer's counts
        // reach the finished dataset
        let snap = io(&ds);
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.records_read, 100);
        assert_eq!(snap.bytes_read, 100 * ds.schema().record_width() as u64);
        assert_eq!(snap.records_written, 100);
        assert_eq!(snap.bytes_written, snap.bytes_read);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writers_given_one_registry_share_it() {
        let dir = std::env::temp_dir().join("boat-data-test-shared-writers");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = Registry::new();
        let mut files = Vec::new();
        for (name, n) in [("a.boat", 3), ("b.boat", 4)] {
            let path = dir.join(name);
            let mut w =
                FileDatasetWriter::create_with_metrics(&path, schema(), metrics.clone()).unwrap();
            for r in records(n) {
                w.append(&r).unwrap();
            }
            files.push(w.finish().unwrap());
        }
        for f in &files {
            f.collect_records().unwrap();
        }
        let snap = IoSnapshot::input(&metrics.snapshot());
        assert_eq!(snap.records_written, 7);
        assert_eq!(snap.scans, 2);
        assert_eq!(snap.records_read, 7);
        for f in &files {
            std::fs::remove_file(f.path()).unwrap();
        }
    }

    #[test]
    fn file_dataset_rescan_restarts() {
        let dir = std::env::temp_dir().join("boat-data-test-rescan");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.boat");
        let mut w = FileDatasetWriter::create(&path, schema()).unwrap();
        for r in records(5) {
            w.append(&r).unwrap();
        }
        let ds = w.finish().unwrap();
        for _ in 0..3 {
            assert_eq!(ds.collect_records().unwrap().len(), 5);
        }
        assert_eq!(io(&ds).scans, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_bad_magic() {
        let dir = std::env::temp_dir().join("boat-data-test-magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.boat");
        std::fs::write(&path, b"NOTBOAT!rest").unwrap();
        assert!(FileDataset::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncated_file() {
        let dir = std::env::temp_dir().join("boat-data-test-trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.boat");
        let mut w = FileDatasetWriter::create(&path, schema()).unwrap();
        for r in records(8) {
            w.append(&r).unwrap();
        }
        let ds = w.finish().unwrap();
        let full = std::fs::metadata(ds.path()).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        assert!(FileDataset::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_a_record_count_that_overflows() {
        let dir = std::env::temp_dir().join("boat-data-test-count-overflow");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("c{}.boat", std::process::id()));
        let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
        assert_eq!(schema.record_width(), 10);
        let mut w = FileDatasetWriter::create(&path, schema).unwrap();
        w.append(&Record::new(vec![Field::Num(1.0)], 1)).unwrap();
        let len = std::fs::metadata(w.finish().unwrap().path()).unwrap().len();
        // The count sits just before the one 10-byte row. 2^63 + 1 rows of
        // 10 bytes wrap to exactly 10 bytes in u64 arithmetic.
        for count in [u64::MAX, (1u64 << 63) + 1] {
            let mut bytes = std::fs::read(&path).unwrap();
            let at = (len - 10 - 8) as usize;
            bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(FileDataset::open(&path), Err(DataError::Corrupt(_))),
                "count {count}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_from_materializes_a_source() {
        let dir = std::env::temp_dir().join("boat-data-test-createfrom");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("copy.boat");
        let mem = MemoryDataset::new(schema(), records(17));
        let ds = FileDataset::create_from(&path, &mem).unwrap();
        assert_eq!(ds.len(), 17);
        assert_eq!(ds.collect_records().unwrap(), records(17));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_dataset_is_valid() {
        let dir = std::env::temp_dir().join("boat-data-test-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.boat");
        let w = FileDatasetWriter::create(&path, schema()).unwrap();
        assert!(w.is_empty());
        let ds = w.finish().unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.collect_records().unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    fn decode_chunks(schema: &Schema, chunks: &[RecordChunk]) -> Vec<Record> {
        let layout = codec::RowLayout::new(schema);
        chunks
            .iter()
            .flat_map(|c| c.rows())
            .map(|row| layout.decode(row).unwrap())
            .collect()
    }

    #[test]
    fn chunked_scan_covers_source_in_order() {
        let ds = MemoryDataset::new(schema(), records(10));
        let chunks: Vec<_> = ds
            .scan_chunks(3)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(chunks.len(), 4);
        assert_eq!(
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
            vec![3, 3, 3, 1]
        );
        assert_eq!(
            chunks.iter().map(|c| c.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(decode_chunks(ds.schema(), &chunks), records(10));
        // One scan counted, same as a plain scan.
        assert_eq!(io(&ds).scans, 1);
    }

    #[test]
    fn chunked_scans_count_the_same_io_as_plain_scans() {
        let mem = MemoryDataset::new(schema(), records(7));
        let dir = std::env::temp_dir().join("boat-data-test-chunk-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("io.boat");
        let file = FileDataset::create_from(&path, &mem).unwrap();
        for ds in [&mem as &dyn RecordSource, &file] {
            let delta =
                |before: &Snapshot| IoSnapshot::input(&ds.metrics().snapshot().since(before));
            let before = ds.metrics().snapshot();
            ds.collect_records().unwrap();
            let plain = delta(&before);
            let before = ds.metrics().snapshot();
            let chunks: Vec<_> = ds
                .scan_chunks(4)
                .unwrap()
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let chunked = delta(&before);
            assert_eq!(chunks.len(), 2);
            assert_eq!(chunked.scans, 1);
            assert_eq!(chunked.records_read, plain.records_read);
            assert_eq!(chunked.bytes_read, plain.bytes_read);
            assert_eq!(chunked.bytes_read, 7 * ds.schema().record_width() as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_scan_on_file_dataset_matches_memory() {
        let dir = std::env::temp_dir().join("boat-data-test-chunks");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.boat");
        let mut w = FileDatasetWriter::create(&path, schema()).unwrap();
        for r in records(25) {
            w.append(&r).unwrap();
        }
        let ds = w.finish().unwrap();
        let chunks: Vec<_> = ds
            .scan_chunks(8)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(
            chunks
                .iter()
                .map(|c| (c.index, c.len()))
                .collect::<Vec<_>>(),
            vec![(0, 8), (1, 8), (2, 8), (3, 1)]
        );
        let mem: Vec<_> = MemoryDataset::new(schema(), records(25))
            .scan_chunks(8)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        for (f, m) in chunks.iter().zip(&mem) {
            assert_eq!(f.bytes, m.bytes, "chunk {}", f.index);
        }
        assert_eq!(decode_chunks(ds.schema(), &chunks), records(25));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_scan_of_empty_source_yields_no_chunks() {
        let ds = MemoryDataset::new(schema(), vec![]);
        assert_eq!(ds.scan_chunks(4).unwrap().count(), 0);
    }

    #[test]
    fn chunk_size_zero_is_clamped() {
        let ds = MemoryDataset::new(schema(), records(3));
        let chunks: Vec<_> = ds
            .scan_chunks(0)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn writer_rejects_overlong_attribute_name_with_typed_error() {
        // Regression: the name length used to be cast to u16 after an
        // untyped check; an oversized name must fail creation with
        // DataError::Invalid, not write a misparsing header.
        let long = "n".repeat(u16::MAX as usize + 1);
        let schema = Schema::shared(vec![Attribute::numeric(long)], 2).unwrap();
        let dir = std::env::temp_dir().join("boat-data-test-longname");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ln.boat");
        match FileDatasetWriter::create(&path, schema) {
            Err(DataError::Invalid(msg)) => assert!(msg.contains("name")),
            Err(other) => panic!("expected DataError::Invalid, got {other:?}"),
            Ok(_) => panic!("expected DataError::Invalid, got Ok"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_roundtrips_maximum_length_attribute_name() {
        // The boundary case must keep working: exactly u16::MAX bytes.
        let name = "m".repeat(u16::MAX as usize);
        let schema = Schema::shared(vec![Attribute::numeric(name)], 2).unwrap();
        let dir = std::env::temp_dir().join("boat-data-test-maxname");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mx.boat");
        let w = FileDatasetWriter::create(&path, schema.clone()).unwrap();
        let ds = w.finish().unwrap();
        assert_eq!(**ds.schema(), *schema);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_implausible_attribute_count() {
        // Everything write_schema accepts, read_schema must accept back:
        // the writer enforces the reader's MAX_HEADER_ATTRS cap up front.
        let attrs: Vec<Attribute> = (0..MAX_HEADER_ATTRS + 1)
            .map(|i| Attribute::numeric(format!("a{i}")))
            .collect();
        let schema = Schema::shared(attrs, 2).unwrap();
        let mut sink = Vec::new();
        match write_schema(&mut sink, &schema) {
            Err(DataError::Invalid(msg)) => assert!(msg.contains("attributes")),
            other => panic!("expected DataError::Invalid, got {other:?}"),
        }
    }

    #[test]
    fn schema_header_roundtrips_exotic_names() {
        let schema = Schema::shared(
            vec![
                Attribute::numeric("日本語 name"),
                Attribute::categorical("c-2", 64),
            ],
            7,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("boat-data-test-names");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("n.boat");
        let w = FileDatasetWriter::create(&path, schema.clone()).unwrap();
        let ds = w.finish().unwrap();
        assert_eq!(**ds.schema(), *schema);
        std::fs::remove_file(&path).unwrap();
    }
}

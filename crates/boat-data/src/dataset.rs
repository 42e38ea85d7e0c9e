//! Streaming record sources.
//!
//! Everything BOAT and the baselines do with the training database goes
//! through [`RecordSource::scan`]: a resettable, sequential, *counted* scan.
//! Two concrete sources live here — [`MemoryDataset`] (samples, tests) and
//! [`FileDataset`] (the on-disk training database) — and other crates add
//! more (the synthetic generator).

use crate::codec;
use crate::iostats::IoStats;
use crate::record::Record;
use crate::schema::{AttrType, Attribute, Schema};
use crate::{DataError, Result};
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

    /// The I/O counter handle this source reports into.
    fn stats(&self) -> &IoStats;

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
    stats: IoStats,
}

impl MemoryDataset {
    /// Wrap records (assumed schema-conformant) in a dataset.
    pub fn new(schema: Arc<Schema>, records: Vec<Record>) -> Self {
        MemoryDataset {
            schema,
            records,
            stats: IoStats::new(),
        }
    }

    /// Like [`MemoryDataset::new`] but reporting into an existing counter
    /// handle.
    pub fn with_stats(schema: Arc<Schema>, records: Vec<Record>, stats: IoStats) -> Self {
        MemoryDataset {
            schema,
            records,
            stats,
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
        self.stats.record_scan();
        let width = self.schema.record_width() as u64;
        let stats = self.stats.clone();
        Ok(Box::new(self.records.iter().map(move |r| {
            stats.record_read(1, width);
            Ok(r.clone())
        })))
    }

    fn len(&self) -> u64 {
        self.records.len() as u64
    }

    fn stats(&self) -> &IoStats {
        &self.stats
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
    stats: IoStats,
}

impl FileDataset {
    /// Open an existing dataset file.
    pub fn open(path: impl AsRef<Path>, stats: IoStats) -> Result<Self> {
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
            stats,
        })
    }

    /// Materialize any source into a new dataset file at `path`.
    pub fn create_from(
        path: impl AsRef<Path>,
        source: &dyn RecordSource,
        stats: IoStats,
    ) -> Result<Self> {
        let mut writer = FileDatasetWriter::create(path, source.schema().clone(), stats)?;
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
        self.stats.record_scan();
        let mut reader = BufReader::with_capacity(1 << 18, File::open(&self.path)?);
        reader.seek(SeekFrom::Start(self.data_offset))?;
        Ok(Box::new(FileScan {
            reader,
            layout: codec::RowLayout::new(&self.schema),
            remaining: self.n_records,
            buf: vec![0u8; self.schema.record_width()],
            stats: self.stats.clone(),
        }))
    }

    fn len(&self) -> u64 {
        self.n_records
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// One `read_exact` per chunk straight into its row buffer, with no
    /// per-row decode; the I/O counters move once per chunk.
    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        self.stats.record_scan();
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.data_offset))?;
        let width = self.schema.record_width();
        let chunk_size = chunk_size.max(1) as u64;
        let mut remaining = self.n_records;
        let mut index = 0usize;
        let stats = self.stats.clone();
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
            stats.record_read(n, bytes.len() as u64);
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
    stats: IoStats,
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
        self.stats.record_read(1, self.buf.len() as u64);
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
    stats: IoStats,
}

impl FileDatasetWriter {
    /// Create (truncating) a dataset file at `path`.
    pub fn create(path: impl AsRef<Path>, schema: Arc<Schema>, stats: IoStats) -> Result<Self> {
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
            stats,
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
        self.stats.record_write(1, self.buf.len() as u64);
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
        FileDataset::open(&self.path, self.stats)
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
        let snap = ds.stats().snapshot();
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.records_read, 10);
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
        let stats = IoStats::new();
        let mut w = FileDatasetWriter::create(&path, schema(), stats.clone()).unwrap();
        for r in records(100) {
            w.append(&r).unwrap();
        }
        let ds = w.finish().unwrap();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.collect_records().unwrap(), records(100));
        // one scan; 100 records of width 14 read
        let snap = stats.snapshot();
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.records_read, 100);
        assert_eq!(snap.bytes_read, 100 * ds.schema().record_width() as u64);
        assert_eq!(snap.records_written, 100);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_dataset_rescan_restarts() {
        let dir = std::env::temp_dir().join("boat-data-test-rescan");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.boat");
        let mut w = FileDatasetWriter::create(&path, schema(), IoStats::new()).unwrap();
        for r in records(5) {
            w.append(&r).unwrap();
        }
        let ds = w.finish().unwrap();
        for _ in 0..3 {
            assert_eq!(ds.collect_records().unwrap().len(), 5);
        }
        assert_eq!(ds.stats().snapshot().scans, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_bad_magic() {
        let dir = std::env::temp_dir().join("boat-data-test-magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.boat");
        std::fs::write(&path, b"NOTBOAT!rest").unwrap();
        assert!(FileDataset::open(&path, IoStats::new()).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncated_file() {
        let dir = std::env::temp_dir().join("boat-data-test-trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.boat");
        let mut w = FileDatasetWriter::create(&path, schema(), IoStats::new()).unwrap();
        for r in records(8) {
            w.append(&r).unwrap();
        }
        let ds = w.finish().unwrap();
        let full = std::fs::metadata(ds.path()).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        assert!(FileDataset::open(&path, IoStats::new()).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_a_record_count_that_overflows() {
        let dir = std::env::temp_dir().join("boat-data-test-count-overflow");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("c{}.boat", std::process::id()));
        let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
        assert_eq!(schema.record_width(), 10);
        let mut w = FileDatasetWriter::create(&path, schema, IoStats::new()).unwrap();
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
                matches!(
                    FileDataset::open(&path, IoStats::new()),
                    Err(DataError::Corrupt(_))
                ),
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
        let ds = FileDataset::create_from(&path, &mem, IoStats::new()).unwrap();
        assert_eq!(ds.len(), 17);
        assert_eq!(ds.collect_records().unwrap(), records(17));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_dataset_is_valid() {
        let dir = std::env::temp_dir().join("boat-data-test-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.boat");
        let w = FileDatasetWriter::create(&path, schema(), IoStats::new()).unwrap();
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
        assert_eq!(ds.stats().snapshot().scans, 1);
    }

    #[test]
    fn chunked_scans_count_the_same_io_as_plain_scans() {
        let mem = MemoryDataset::new(schema(), records(7));
        let dir = std::env::temp_dir().join("boat-data-test-chunk-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("io.boat");
        let file = FileDataset::create_from(&path, &mem, IoStats::new()).unwrap();
        for ds in [&mem as &dyn RecordSource, &file] {
            let before = ds.stats().snapshot();
            ds.collect_records().unwrap();
            let plain = ds.stats().snapshot() - before;
            let chunks: Vec<_> = ds
                .scan_chunks(4)
                .unwrap()
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let chunked = ds.stats().snapshot() - before - plain;
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
        let mut w = FileDatasetWriter::create(&path, schema(), IoStats::new()).unwrap();
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
        match FileDatasetWriter::create(&path, schema, IoStats::new()) {
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
        let w = FileDatasetWriter::create(&path, schema.clone(), IoStats::new()).unwrap();
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
        let w = FileDatasetWriter::create(&path, schema.clone(), IoStats::new()).unwrap();
        let ds = w.finish().unwrap();
        assert_eq!(**ds.schema(), *schema);
        std::fs::remove_file(&path).unwrap();
    }
}

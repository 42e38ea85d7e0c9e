//! Threaded stress test for the parallel cleanup scan.
//!
//! Repeated parallel fits must be bit-for-bit reproducible even when the
//! *delivery order* of chunks to workers is adversarial: a wrapper source
//! hands out the scan's chunks in a freshly shuffled order on every scan,
//! and every fit must still serialize ([`boat_tree::Tree::to_bytes`]) to
//! the same bytes as the serial run — the merge is order-independent and
//! the deposit application restores chunk order by index. Further wrappers
//! corrupt rows of the chunked scan only (an out-of-range label or category
//! code): the fit must return `DataError::Corrupt` for the first bad row in
//! scan order, at every thread count, and must neither panic nor hang; a
//! chunked scan that skips an index fails with `DataError::Invalid`.

use boat_core::{Boat, BoatConfig};
use boat_data::dataset::{ChunkScan, RecordScan, RecordSource};
use boat_data::{AttrType, DataError, MemoryDataset, RecordChunk, Result, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_obs::Registry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::Cell;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A [`RecordSource`] whose `scan_chunks` yields the inner dataset's chunks
/// in a different shuffled order on every call. The sample scan reads
/// `SAMPLE_CHUNK_ROWS`-row chunks, a single chunk for the datasets here, so
/// the sampling phase is identical across fits; only the cleanup workers
/// see the adversarial ordering.
struct ShuffledChunkSource {
    inner: MemoryDataset,
    /// Bumped per scan so each shuffle differs.
    epoch: Cell<u64>,
}

impl ShuffledChunkSource {
    fn new(inner: MemoryDataset) -> Self {
        ShuffledChunkSource {
            inner,
            epoch: Cell::new(0),
        }
    }
}

impl RecordSource for ShuffledChunkSource {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        self.inner.scan()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn metrics(&self) -> &Registry {
        self.inner.metrics()
    }

    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        let mut chunks: Vec<Result<RecordChunk>> = self.inner.scan_chunks(chunk_size)?.collect();
        let epoch = self.epoch.get();
        self.epoch.set(epoch + 1);
        let mut rng = StdRng::seed_from_u64(0x5EED ^ epoch.wrapping_mul(0x9E37_79B9));
        chunks.shuffle(&mut rng);
        Ok(Box::new(chunks.into_iter()))
    }
}

fn stress_config(seed: u64) -> BoatConfig {
    BoatConfig {
        sample_size: 1_500,
        bootstrap_reps: 12,
        bootstrap_sample_size: 600,
        in_memory_threshold: 400,
        spill_budget: 64,
        cleanup_chunk_size: 128, // many small chunks → many orderings
        seed,
        ..BoatConfig::default()
    }
}

fn dataset(function: LabelFunction, seed: u64, n: usize) -> MemoryDataset {
    let gen = GeneratorConfig::new(function).with_seed(seed);
    MemoryDataset::new(gen.schema(), gen.generate_vec(n))
}

#[test]
fn shuffled_chunk_orders_yield_byte_identical_models() {
    let source = ShuffledChunkSource::new(dataset(LabelFunction::F6, 31, 6_000));

    // Serial baseline: chunk order is irrelevant at 1 thread.
    let serial = Boat::new(stress_config(3_100).with_cleanup_threads(1))
        .fit(&source)
        .unwrap();
    let baseline = serial.tree.to_bytes();

    // Repeated parallel fits, each seeing a different chunk delivery order.
    for rep in 0..6 {
        for threads in [2, 4, 8] {
            let fit = Boat::new(stress_config(3_100).with_cleanup_threads(threads))
                .fit(&source)
                .unwrap();
            assert_eq!(
                fit.tree.to_bytes(),
                baseline,
                "rep {rep} at {threads} threads produced a different serialized model"
            );
        }
    }
}

#[test]
fn shuffled_orders_with_immediate_spilling_stay_identical() {
    // Zero spill budget: every parked/family record hits a spill file in
    // push order. The model does not depend on that order, so deposit
    // order itself is pinned by the unit oracle
    // `parallel_cleanup_state_matches_serial_exactly`, which compares the
    // buffers record by record.
    let source = ShuffledChunkSource::new(dataset(LabelFunction::F1, 32, 5_000));
    let mut cfg = stress_config(3_200);
    cfg.spill_budget = 0;

    let serial = Boat::new(cfg.clone().with_cleanup_threads(1))
        .fit(&source)
        .unwrap();
    let baseline = serial.tree.to_bytes();
    for rep in 0..4 {
        let fit = Boat::new(cfg.clone().with_cleanup_threads(4))
            .fit(&source)
            .unwrap();
        assert_eq!(
            fit.tree.to_bytes(),
            baseline,
            "rep {rep} diverged under spilling"
        );
    }
}

#[test]
fn wrapper_shuffles_are_actually_different_orders() {
    // Meta-test: make sure the stress source really produces distinct chunk
    // orders (otherwise the tests above prove nothing).
    let source = ShuffledChunkSource::new(dataset(LabelFunction::F2, 33, 2_000));
    let order = |src: &ShuffledChunkSource| -> Vec<usize> {
        src.scan_chunks(128)
            .unwrap()
            .map(|c| c.unwrap().index)
            .collect()
    };
    let a = order(&source);
    let b = order(&source);
    assert_eq!(a.len(), b.len());
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..a.len()).collect::<Vec<_>>(),
        "every chunk exactly once"
    );
    assert_ne!(a, b, "two scans should deliver different chunk orders");
}

/// Which field of a row a hostile source breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hostile {
    /// The label becomes `n_classes`.
    Label,
    /// The first categorical code becomes its attribute's cardinality.
    Category,
}

/// Break `field` of the encoded `row` of `schema`.
fn corrupt(schema: &Schema, row: &mut [u8], field: Hostile) {
    match field {
        Hostile::Label => {
            let w = row.len();
            row[w - 2..].copy_from_slice(&(schema.n_classes() as u16).to_le_bytes());
        }
        Hostile::Category => {
            let mut off = 0;
            for attr in schema.attributes() {
                match attr.ty() {
                    AttrType::Numeric => off += 8,
                    AttrType::Categorical { cardinality } => {
                        row[off..off + 4].copy_from_slice(&cardinality.to_le_bytes());
                        return;
                    }
                }
            }
            panic!("schema has no categorical attribute");
        }
    }
}

/// A [`RecordSource`] whose record scans are clean but whose chunked scan
/// breaks one row in the middle of each listed chunk (by scan-order index,
/// whatever order the inner source delivers chunks in). The sample scan
/// reads one chunk here: it either takes the bad row of chunk 0 and fails
/// typed itself, or succeeds, and the cleanup scan meets the bad rows.
struct HostileChunkSource<S> {
    inner: S,
    bad: Vec<(usize, Hostile)>,
}

impl<S: RecordSource> RecordSource for HostileChunkSource<S> {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        self.inner.scan()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn metrics(&self) -> &Registry {
        self.inner.metrics()
    }

    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        let schema = self.schema().clone();
        Ok(Box::new(self.inner.scan_chunks(chunk_size)?.map(
            move |c| {
                c.map(|mut chunk| {
                    for &(k, field) in &self.bad {
                        if chunk.index == k {
                            let (w, mid) = (chunk.width(), chunk.len() / 2);
                            corrupt(&schema, &mut chunk.bytes[mid * w..(mid + 1) * w], field);
                        }
                    }
                    chunk
                })
            },
        )))
    }
}

fn expect_corrupt(result: Result<boat_core::BoatFit>, what: &str, context: &str) {
    match result {
        Err(DataError::Corrupt(msg)) => assert!(msg.contains(what), "{context}: {msg}"),
        Err(other) => panic!("{context}: expected DataError::Corrupt, got {other:?}"),
        Ok(_) => panic!("{context}: expected DataError::Corrupt, got a model"),
    }
}

#[test]
fn hostile_rows_in_chunk_k_fail_typed_at_every_thread_count() {
    // 4 000 rows in 128-row chunks: indices 0..=31, the last one short.
    for (field, what) in [(Hostile::Label, "label"), (Hostile::Category, "category")] {
        for k in [0usize, 13, 31] {
            for threads in [1usize, 2, 4] {
                let source = HostileChunkSource {
                    inner: dataset(LabelFunction::F1, 35, 4_000),
                    bad: vec![(k, field)],
                };
                let cfg = stress_config(3_500).with_cleanup_threads(threads);
                expect_corrupt(
                    Boat::new(cfg).fit(&source),
                    what,
                    &format!("{field:?} in chunk {k} at {threads} threads"),
                );
            }
        }
    }
}

#[test]
fn first_bad_row_in_scan_order_wins_under_shuffled_delivery() {
    for (first, second, what) in [
        (Hostile::Label, Hostile::Category, "label"),
        (Hostile::Category, Hostile::Label, "category"),
    ] {
        let source = HostileChunkSource {
            inner: ShuffledChunkSource::new(dataset(LabelFunction::F6, 36, 6_000)),
            bad: vec![(20, second), (5, first)],
        };
        for rep in 0..4 {
            let cfg = stress_config(3_600).with_cleanup_threads(4);
            expect_corrupt(
                Boat::new(cfg).fit(&source),
                what,
                &format!("rep {rep}, {first:?} in chunk 5, {second:?} in chunk 20"),
            );
        }
    }
}

/// A [`RecordSource`] whose record scans and first chunked scan (the
/// sampling phase's) are clean, but whose later chunked scans relabel every
/// row with an out-of-range class: the sampling phase succeeds, then every
/// chunk the cleanup routers take is bad.
struct BadChunkSource(MemoryDataset, Cell<u32>);

impl RecordSource for BadChunkSource {
    fn schema(&self) -> &Arc<Schema> {
        self.0.schema()
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        self.0.scan()
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn metrics(&self) -> &Registry {
        self.0.metrics()
    }

    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        let scans = self.1.get();
        self.1.set(scans + 1);
        if scans == 0 {
            return self.0.scan_chunks(chunk_size);
        }
        let schema = self.0.schema().clone();
        Ok(Box::new(self.0.scan_chunks(chunk_size)?.map(move |c| {
            c.map(|mut chunk| {
                let w = chunk.width();
                for row in chunk.bytes.chunks_exact_mut(w) {
                    corrupt(&schema, row, Hostile::Label);
                }
                chunk
            })
        })))
    }
}

#[test]
fn router_panics_surface_instead_of_hanging() {
    // Far more chunks than the 2 × threads channel slots, so the scan would
    // block on a full channel if it kept producing after the routers
    // stopped. Every row's label is out of range: the fit must return the
    // typed error (a router panic would still be re-raised, not hang).
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let source = BadChunkSource(dataset(LabelFunction::F1, 34, 4_000), Cell::new(0));
        let mut cfg = stress_config(3_400).with_cleanup_threads(2);
        cfg.cleanup_chunk_size = 32;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Boat::new(cfg).fit(&source)));
        let _ = tx.send(matches!(outcome, Ok(Err(DataError::Corrupt(_)))));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(typed) => assert!(
            typed,
            "a fit whose every row has an out-of-range label must return DataError::Corrupt"
        ),
        Err(_) => panic!("fit hung on a chunked scan of bad rows"),
    }
}

/// A [`RecordSource`] whose chunked scan renumbers chunk `i` as `.1(i)`:
/// a source that breaks the chunk-index contract.
struct RenumberedChunkSource(MemoryDataset, fn(usize) -> usize);

impl RecordSource for RenumberedChunkSource {
    fn schema(&self) -> &Arc<Schema> {
        self.0.schema()
    }

    fn scan(&self) -> Result<Box<dyn RecordScan + '_>> {
        self.0.scan()
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn metrics(&self) -> &Registry {
        self.0.metrics()
    }

    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        let renumber = self.1;
        Ok(Box::new(self.0.scan_chunks(chunk_size)?.map(move |c| {
            c.map(|chunk| {
                let width = chunk.width();
                RecordChunk::new(renumber(chunk.index), width, chunk.bytes)
            })
        })))
    }
}

#[test]
fn a_chunked_scan_that_skips_an_index_fails_typed() {
    for threads in [1usize, 4] {
        // Chunks 0, 2, 4, …: the cleanup scan never sees chunk 1.
        let source = RenumberedChunkSource(dataset(LabelFunction::F1, 37, 4_000), |i| 2 * i);
        let cfg = stress_config(3_700).with_cleanup_threads(threads);
        match Boat::new(cfg).fit(&source) {
            Err(DataError::Invalid(msg)) => assert!(msg.contains("skipped chunk index 1"), "{msg}"),
            other => panic!("threads={threads}: expected DataError::Invalid, got {other:?}"),
        }
    }
}

#[test]
fn a_chunked_scan_that_repeats_an_index_fails_typed() {
    for threads in [1usize, 2, 4] {
        // Chunks 0, 1, 2, 3, 4, 4, 5, …: no gap, one index delivered twice.
        let source = RenumberedChunkSource(dataset(LabelFunction::F1, 37, 4_000), |i| {
            if i >= 5 {
                i - 1
            } else {
                i
            }
        });
        let cfg = stress_config(3_700).with_cleanup_threads(threads);
        match Boat::new(cfg).fit(&source) {
            Err(DataError::Invalid(msg)) => {
                assert!(msg.contains("repeated chunk index 4"), "{msg}")
            }
            other => panic!("threads={threads}: expected DataError::Invalid, got {other:?}"),
        }
    }
}

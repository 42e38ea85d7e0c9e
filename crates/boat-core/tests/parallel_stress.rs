//! Threaded stress test for the parallel cleanup scan.
//!
//! Repeated parallel fits must be bit-for-bit reproducible even when the
//! *delivery order* of chunks to workers is adversarial: a wrapper source
//! hands out the scan's chunks in a freshly shuffled order on every scan,
//! and every fit must still serialize ([`boat_tree::Tree::to_bytes`]) to
//! the same bytes as the serial run — the merge is order-independent and
//! the deposit application restores chunk order by index. A second wrapper
//! makes every router panic, and the fit must re-raise that panic instead
//! of hanging.

use boat_core::{Boat, BoatConfig};
use boat_data::dataset::{ChunkScan, RecordScan, RecordSource};
use boat_data::{IoStats, MemoryDataset, RecordChunk, Result, Schema};
use boat_datagen::{GeneratorConfig, LabelFunction};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::Cell;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A [`RecordSource`] whose `scan_chunks` yields the inner dataset's chunks
/// in a different shuffled order on every call. Record scans (`scan`) are
/// untouched, so the sampling phase is identical across fits; only the
/// cleanup workers see the adversarial ordering.
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

    fn stats(&self) -> &IoStats {
        self.inner.stats()
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
    // push order, so this would catch any deviation in deposit ordering.
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

/// A [`RecordSource`] whose record scans are clean but whose chunked scan
/// relabels every record with an out-of-range class: the sampling phase
/// succeeds, then every cleanup router panics on its first chunk.
struct BadChunkSource(MemoryDataset);

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

    fn stats(&self) -> &IoStats {
        self.0.stats()
    }

    fn scan_chunks(&self, chunk_size: usize) -> Result<Box<dyn ChunkScan + '_>> {
        let bad_label = self.0.schema().n_classes() as u16;
        Ok(Box::new(self.0.scan_chunks(chunk_size)?.map(move |c| {
            c.map(|mut chunk| {
                chunk.records = chunk
                    .records
                    .into_iter()
                    .map(|r| r.with_label(bad_label))
                    .collect();
                chunk
            })
        })))
    }
}

#[test]
fn router_panics_surface_instead_of_hanging() {
    // Far more chunks than the 2 × threads channel slots, so the scan would
    // block on a full channel if a dead router's receiver stayed alive.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let source = BadChunkSource(dataset(LabelFunction::F1, 34, 4_000));
        let mut cfg = stress_config(3_400).with_cleanup_threads(2);
        cfg.cleanup_chunk_size = 32;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Boat::new(cfg).fit(&source)));
        let _ = tx.send(outcome.is_err());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(panicked) => assert!(panicked, "a fit whose routers all panic must panic"),
        Err(_) => panic!("fit hung after every cleanup router panicked"),
    }
}

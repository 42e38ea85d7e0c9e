//! Completion's peak memory is one family at a time, held as encoded rows.
//!
//! A counting global allocator tracks the bytes live on the heap. The fit
//! below completes two families of about 50,000 rows each: one the cleanup
//! scan retained, one gathered by the collection scan. Its peak live heap,
//! above what was live when the fit started, must stay under a small
//! multiple of the larger family's encoded bytes.
//!
//! The bound, measured on x86-64 Linux for the fixture below (the larger
//! family is 50,000 rows of 18 B, 900,000 B encoded):
//!
//! * collecting, transposing and growing one family at a time, as encoded
//!   rows, peaks at 5.3× those bytes (4.78 MB): the rows, their columnar
//!   copy with presorted indices, the grower's per-node row lists, and the
//!   sample, coarse tree and cleanup state that live through the fit;
//! * gathering every family first, decoded into `Record`s (64 B each
//!   here), before growing any, peaked at 10.9× (9.78 MB).
//!
//! The test allows 8×.

use boat_core::{reference_tree, Boat, BoatConfig};
use boat_data::{Attribute, Field, MemoryDataset, Record, RecordSource, Schema};
use boat_tree::Gini;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments to `System` unchanged, so the
// caller's guarantees under `GlobalAlloc` carry over; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as if the block were resized in place: a moving
            // realloc briefly holds both blocks, which this leaves out.
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: u32 = 100_000;

/// `x` and `y` on a fine grid, `x` in `[0, 0.5)` and `[100, 100.5)`. For
/// `x < 0.5` the class is 0 except at three rows; for `x >= 100` it is 1
/// inside the band `0.25 < y <= 0.75`. The root splits on `x`. Its right
/// family needs growing, and the sample shows that. Its left family looks
/// pure in the sample, so the cleanup scan keeps none of it, and the three
/// rows make it a frontier that a collection scan gathers.
fn dataset() -> MemoryDataset {
    let schema = Schema::shared(vec![Attribute::numeric("x"), Attribute::numeric("y")], 2).unwrap();
    let records = (0..ROWS)
        .map(|i| {
            let left = i < ROWS / 2;
            let x = f64::from(i) / f64::from(ROWS) + if left { 0.0 } else { 99.5 };
            let y = f64::from(i.wrapping_mul(7_919) % ROWS) / f64::from(ROWS);
            let label = if left {
                u16::from(matches!(i, 11_001 | 27_003 | 43_007))
            } else {
                u16::from(y > 0.25 && y <= 0.75)
            };
            Record::new(vec![Field::Num(x), Field::Num(y)], label)
        })
        .collect();
    MemoryDataset::new(schema, records)
}

#[test]
fn completion_peak_is_one_encoded_family_at_a_time() {
    let source = dataset();
    let config = BoatConfig {
        sample_size: 2_000,
        bootstrap_reps: 10,
        bootstrap_sample_size: 1_000,
        in_memory_threshold: 60_000,
        cleanup_threads: 1,
        seed: 5,
        ..BoatConfig::default()
    };
    let boat = Boat::new(config.clone());

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let fit = boat.fit(&source).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let m = &fit.stats.metrics;
    assert_eq!(m.counter("boat.jobs.executed"), 2, "two families grow");
    assert_eq!(m.counter("boat.jobs.collection_scans"), 1);
    // The largest family: the larger child of the root.
    let tree = &fit.tree;
    let root = tree.node(tree.root());
    let (left, right) = root.children().expect("the root splits");
    let largest = tree
        .node(left)
        .n_records()
        .max(tree.node(right).n_records());
    let family_bytes = largest as usize * source.schema().record_width();
    let ratio = peak as f64 / family_bytes as f64;
    println!(
        "peak live heap {peak} B = {ratio:.2} x the largest family's {family_bytes} encoded bytes"
    );
    assert!(
        ratio < 8.0,
        "peak live heap {peak} B is {ratio:.2} x the largest family's encoded bytes"
    );
    assert_eq!(
        fit.tree,
        reference_tree(&source, Gini, config.limits).unwrap()
    );
}

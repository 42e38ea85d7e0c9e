//! Sampling primitives.
//!
//! BOAT's sampling phase needs (1) a uniform random sample `D' ⊂ D` obtained
//! in a single sequential scan — *reservoir sampling* — and (2) *bootstrap
//! resamples*: samples drawn with replacement from the in-memory sample `D'`
//! (paper §3.2).
//!
//! The reservoir is Li's Algorithm L ("Reservoir-sampling algorithms of
//! time complexity O(n(1 + log(N/n)))", 1994) over the source's chunked
//! scan. After the first `k` rows fill it, the sampler draws how many rows
//! to skip before the next one it takes, so it touches about
//! `k·(1 + ln(n/k))` of the `n` rows and draws three random numbers per
//! row it takes instead of one per row read. The reservoir holds the taken
//! rows in the fixed-width [`codec`](crate::codec) layout; a replacement is
//! one row copy, and only rows the sampler takes are checked
//! ([`RowLayout::check`]). Rows it skips are not validated here: a fit's
//! cleanup scan checks every row of `D`.

use crate::codec::{EncodedRow, RowLayout};
use crate::dataset::RecordSource;
use crate::record::Record;
use crate::Result;
use rand::Rng;

/// Rows per chunk of the sample scan. A constant, so the sample a seed
/// draws does not depend on any cleanup-scan setting.
pub const SAMPLE_CHUNK_ROWS: usize = 8_192;

/// A reservoir sample held as encoded rows: up to `k` rows of one schema's
/// [`RowLayout`], back to back, each checked when it was taken.
#[derive(Debug, Clone)]
pub struct EncodedSample {
    layout: RowLayout,
    bytes: Vec<u8>,
}

impl EncodedSample {
    /// Number of sampled rows.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.layout.width()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The sampled rows, read in place.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = EncodedRow<'_>> + '_ {
        self.bytes
            .chunks_exact(self.layout.width())
            .map(|bytes| EncodedRow::checked(&self.layout, bytes))
    }

    /// Decode every sampled row into a [`Record`].
    pub fn decode(&self) -> Result<Vec<Record>> {
        self.bytes
            .chunks_exact(self.layout.width())
            .map(|row| self.layout.decode(row))
            .collect()
    }
}

/// One uniform draw from `(0, 1]`: never 0, so its logarithm is finite.
#[inline]
fn unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    1.0 - rng.random::<f64>()
}

/// Draw a uniform random sample of up to `k` rows from `source` in one
/// sequential scan of `chunk_size`-row chunks (Li's Algorithm L). If the
/// source holds fewer than `k` rows, all of them are returned, in scan
/// order. Row order within the sample is not meaningful otherwise.
///
/// Every chunk of the scan is read, so the call counts one scan of the
/// source and fails on an I/O error in any chunk, also one after the last
/// row taken. A taken row that fails [`RowLayout::check`] fails the call
/// with [`DataError::Corrupt`](crate::DataError::Corrupt); rows the sampler
/// skips are not checked. `k == 0` returns an empty sample without a scan.
pub fn reservoir_rows<R: Rng + ?Sized>(
    source: &dyn RecordSource,
    k: usize,
    chunk_size: usize,
    rng: &mut R,
) -> Result<EncodedSample> {
    let layout = RowLayout::new(source.schema());
    let width = layout.width();
    let mut bytes = Vec::with_capacity(k.min(source.len() as usize).saturating_mul(width));
    if k == 0 {
        return Ok(EncodedSample { layout, bytes });
    }
    // `next` is the scan index of the next row to take: each of the first
    // `k` rows, then the row after each skip. `w` is Algorithm L's running
    // maximum of `k` uniform keys once the reservoir is full.
    let full = k.saturating_mul(width);
    let mut w = 1.0f64;
    let mut next = 0u64;
    let mut seen = 0u64;
    for chunk in source.scan_chunks(chunk_size)? {
        let chunk = chunk?;
        chunk.check_width(width)?;
        let end = seen + chunk.len() as u64;
        while next < end {
            let row = &chunk.bytes[(next - seen) as usize * width..][..width];
            layout.check(row)?;
            if bytes.len() < full {
                bytes.extend_from_slice(row);
                if bytes.len() < full {
                    next += 1;
                    continue;
                }
            } else {
                let slot = rng.random_range(0..k);
                bytes[slot * width..][..width].copy_from_slice(row);
            }
            w *= max_key(k, rng);
            next += 1;
            skip(&mut next, w, rng);
        }
        seen = end;
    }
    Ok(EncodedSample { layout, bytes })
}

/// The largest of `k` uniform keys from `[0, 1)`, drawn as `u^(1/k)`.
#[inline]
fn max_key<R: Rng + ?Sized>(k: usize, rng: &mut R) -> f64 {
    (unit(rng).ln() / k as f64).exp()
}

/// Advance `next` past the rows Algorithm L skips: a geometric count with
/// success probability `w`. `ln_1p(-w)` keeps its precision for small `w`,
/// and the float-to-integer cast saturates when the skip leaves the scan.
#[inline]
fn skip<R: Rng + ?Sized>(next: &mut u64, w: f64, rng: &mut R) {
    let rows = (unit(rng).ln() / (-w).ln_1p()).floor();
    *next = next.saturating_add(rows as u64);
}

/// Draw a uniform random sample of up to `k` records from `source` in one
/// sequential scan: [`reservoir_rows`] over [`SAMPLE_CHUNK_ROWS`]-row
/// chunks, decoded. If the source holds fewer than `k` records, all of
/// them are returned. Order of the returned records is not meaningful.
///
/// Only the rows the sampler takes are checked; rows it skips are left to
/// whoever scans the source next (in a fit, the cleanup scan, which checks
/// every row).
pub fn reservoir_sample<R: Rng + ?Sized>(
    source: &dyn RecordSource,
    k: usize,
    rng: &mut R,
) -> Result<Vec<Record>> {
    reservoir_rows(source, k, SAMPLE_CHUNK_ROWS, rng)?.decode()
}

/// Draw `size` records *with replacement* from `sample` (a bootstrap
/// resample, paper §3.2). Panics if `sample` is empty and `size > 0`.
pub fn bootstrap_resample<R: Rng + ?Sized>(
    sample: &[Record],
    size: usize,
    rng: &mut R,
) -> Vec<Record> {
    assert!(
        size == 0 || !sample.is_empty(),
        "cannot resample from an empty sample"
    );
    (0..size)
        .map(|_| sample[rng.random_range(0..sample.len())].clone())
        .collect()
}

/// Multiplicity-vector form of [`bootstrap_resample`]: draw `size` row
/// indices with replacement from `0..len` and return how many times each
/// row was drawn (`Vec<u32>` of length `len`).
///
/// The rng call sequence is *identical* to [`bootstrap_resample`] — one
/// `random_range(0..len)` per draw — so under the same seeded rng the
/// multiset of drawn rows is exactly the multiset of cloned records, and
/// any code downstream of the rng sees unchanged outputs. This is the
/// zero-copy substrate of the columnar sample engine: a bootstrap tree is
/// grown over (shared columns, weights) instead of `size` cloned records.
///
/// Panics if `len == 0` and `size > 0`.
pub fn bootstrap_multiplicities<R: Rng + ?Sized>(len: usize, size: usize, rng: &mut R) -> Vec<u32> {
    assert!(size == 0 || len > 0, "cannot resample from an empty sample");
    let mut multiplicities = vec![0u32; len];
    for _ in 0..size {
        multiplicities[rng.random_range(0..len)] += 1;
    }
    multiplicities
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::MemoryDataset;
    use crate::record::{Field, Fields};
    use crate::schema::{Attribute, Schema};
    use crate::DataError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize) -> MemoryDataset {
        let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
        let records = (0..n)
            .map(|i| Record::new(vec![Field::Num(i as f64)], (i % 2) as u16))
            .collect();
        MemoryDataset::new(schema, records)
    }

    #[test]
    fn reservoir_returns_k_distinct_source_records() {
        let ds = dataset(1000);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = reservoir_sample(&ds, 100, &mut rng).unwrap();
        assert_eq!(sample.len(), 100);
        let mut vals: Vec<i64> = sample.iter().map(|r| r.num(0) as i64).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(
            vals.len(),
            100,
            "reservoir sample without replacement must be distinct"
        );
        assert!(vals.iter().all(|&v| (0..1000).contains(&v)));
    }

    #[test]
    fn reservoir_smaller_source_returns_everything() {
        let ds = dataset(7);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = reservoir_sample(&ds, 100, &mut rng).unwrap();
        assert_eq!(sample.len(), 7);
    }

    #[test]
    fn reservoir_k_zero_is_empty() {
        let ds = dataset(10);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(reservoir_sample(&ds, 0, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn reservoir_uses_exactly_one_scan() {
        let ds = dataset(50);
        let mut rng = StdRng::seed_from_u64(4);
        reservoir_sample(&ds, 10, &mut rng).unwrap();
        assert_eq!(ds.metrics().snapshot().counter("data.input.scans"), 1);
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Sample 1 element from 10, many times; each element should appear
        // about 10% of the time. With 4000 trials, sd ≈ 0.47%, so ±2.5%
        // is a > 5-sigma band — effectively deterministic for a fixed seed.
        let ds = dataset(10);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..4000 {
            let s = reservoir_sample(&ds, 1, &mut rng).unwrap();
            counts[s[0].num(0) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 4000.0;
            assert!(
                (frac - 0.1).abs() < 0.025,
                "frequency {frac} too far from uniform"
            );
        }
    }

    /// The dataset indices (attribute values) of an encoded sample.
    fn taken(sample: &EncodedSample) -> Vec<usize> {
        sample.rows().map(|row| row.num(0) as usize).collect()
    }

    #[test]
    fn reservoir_inclusion_is_uniform_for_k_above_one() {
        // Every index of 50 enters a 5-row sample with probability 0.1. Over
        // 20 000 trials a count has sd sqrt(20 000 · 0.1 · 0.9) ≈ 42.4; the
        // band is 5 sd, at chunk sizes that put the fill/skip boundary
        // inside, at and across chunks.
        let (n, k, trials) = (50usize, 5usize, 20_000u32);
        let ds = dataset(n);
        let p = k as f64 / n as f64;
        let band = 5.0 * (trials as f64 * p * (1.0 - p)).sqrt();
        for chunk_size in [1usize, 7, 64] {
            let mut rng = StdRng::seed_from_u64(11 + chunk_size as u64);
            let mut counts = vec![0u32; n];
            for _ in 0..trials {
                let sample = reservoir_rows(&ds, k, chunk_size, &mut rng).unwrap();
                let mut idx = taken(&sample);
                assert_eq!(idx.len(), k);
                idx.sort_unstable();
                idx.dedup();
                assert_eq!(idx.len(), k, "rows are taken without replacement");
                for i in idx {
                    counts[i] += 1;
                }
            }
            for (i, &c) in counts.iter().enumerate() {
                let expected = trials as f64 * p;
                assert!(
                    (c as f64 - expected).abs() < band,
                    "chunk size {chunk_size}: index {i} taken {c} times, expected {expected} ± {band}"
                );
            }
        }
    }

    #[test]
    fn reservoir_edge_sizes() {
        let k = 6;
        for n in [0usize, k - 2, k, k + 1] {
            let ds = dataset(n);
            let mut rng = StdRng::seed_from_u64(20 + n as u64);
            let sample = reservoir_rows(&ds, k, 4, &mut rng).unwrap();
            assert_eq!(
                ds.metrics().snapshot().counter("data.input.scans"),
                1,
                "n = {n}"
            );
            let mut idx = taken(&sample);
            assert_eq!(sample.len(), n.min(k), "n = {n}");
            assert_eq!(sample.is_empty(), n == 0);
            if n <= k {
                assert_eq!(idx, (0..n).collect::<Vec<_>>(), "all rows, in scan order");
            }
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), n.min(k), "n = {n}: distinct rows");
            assert!(idx.iter().all(|&i| i < n));
            assert_eq!(sample.decode().unwrap().len(), n.min(k));
        }
        let ds = dataset(10);
        let mut rng = StdRng::seed_from_u64(30);
        assert!(reservoir_rows(&ds, 0, 4, &mut rng).unwrap().is_empty());
        assert_eq!(
            ds.metrics().snapshot().counter("data.input.scans"),
            0,
            "k = 0 reads nothing"
        );
    }

    /// A source whose chunked scan delivers the first row with its bytes
    /// from `.1`, overwritten at offset `.2`.
    struct CorruptFirstRow(MemoryDataset, Vec<u8>, usize);

    impl RecordSource for CorruptFirstRow {
        fn schema(&self) -> &std::sync::Arc<Schema> {
            self.0.schema()
        }
        fn scan(&self) -> Result<Box<dyn crate::dataset::RecordScan + '_>> {
            Err(DataError::Invalid("record scan".into()))
        }
        fn scan_chunks(
            &self,
            chunk_size: usize,
        ) -> Result<Box<dyn crate::dataset::ChunkScan + '_>> {
            Ok(Box::new(self.0.scan_chunks(chunk_size)?.map(|c| {
                c.map(|mut chunk| {
                    if chunk.index == 0 {
                        let at = self.2;
                        chunk.bytes[at..at + self.1.len()].copy_from_slice(&self.1);
                    }
                    chunk
                })
            })))
        }
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn metrics(&self) -> &boat_obs::Registry {
            self.0.metrics()
        }
    }

    #[test]
    fn corrupt_taken_row_is_typed() {
        // The first row of a scan is always taken. Row layout: x (8
        // bytes), c (4 bytes), label (2 bytes).
        let schema = Schema::shared(
            vec![Attribute::numeric("x"), Attribute::categorical("c", 3)],
            2,
        )
        .unwrap();
        let good = |i: usize| Record::new(vec![Field::Num(i as f64), Field::Cat(1)], 0);
        let records: Vec<Record> = (0..20).map(good).collect();
        let bad_label = (2u16.to_le_bytes().to_vec(), 12);
        let bad_cat = (3u32.to_le_bytes().to_vec(), 8);
        for ((bytes, at), what) in [(bad_label, "label"), (bad_cat, "category")] {
            let ds = CorruptFirstRow(
                MemoryDataset::new(schema.clone(), records.clone()),
                bytes,
                at,
            );
            let mut rng = StdRng::seed_from_u64(40);
            match reservoir_sample(&ds, 3, &mut rng) {
                Err(DataError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("expected DataError::Corrupt, got {other:?}"),
            }
        }
    }

    /// A source whose chunked scan fails after its last record, and whose
    /// record scan, which the sampler must not use, fails outright.
    struct FailingTail(MemoryDataset);

    impl RecordSource for FailingTail {
        fn schema(&self) -> &std::sync::Arc<Schema> {
            self.0.schema()
        }
        fn scan(&self) -> Result<Box<dyn crate::dataset::RecordScan + '_>> {
            Err(DataError::Invalid("record scan".into()))
        }
        fn scan_chunks(
            &self,
            chunk_size: usize,
        ) -> Result<Box<dyn crate::dataset::ChunkScan + '_>> {
            let tail = std::iter::once(Err(DataError::Io(std::io::Error::other("tail lost"))));
            Ok(Box::new(self.0.scan_chunks(chunk_size)?.chain(tail)))
        }
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn metrics(&self) -> &boat_obs::Registry {
            self.0.metrics()
        }
    }

    #[test]
    fn io_error_after_the_last_taken_row_fails_the_call() {
        // Two of 500 rows: the error comes long after the last row taken,
        // after the last chunk.
        for chunk_size in [1usize, 7, 500] {
            let source = FailingTail(dataset(500));
            let mut rng = StdRng::seed_from_u64(50);
            match reservoir_rows(&source, 2, chunk_size, &mut rng) {
                Err(e) => assert!(e.to_string().contains("tail lost"), "{e}"),
                Ok(_) => panic!("chunk size {chunk_size}: the scan's error was dropped"),
            }
        }
    }

    #[test]
    fn bootstrap_resample_draws_with_replacement() {
        let ds = dataset(5);
        let sample = ds.records().to_vec();
        let mut rng = StdRng::seed_from_u64(6);
        let boot = bootstrap_resample(&sample, 200, &mut rng);
        assert_eq!(boot.len(), 200);
        // With 200 draws from 5 records, duplicates are certain.
        let mut vals: Vec<i64> = boot.iter().map(|r| r.num(0) as i64).collect();
        vals.sort_unstable();
        vals.dedup();
        assert!(vals.len() <= 5);
        assert!(
            vals.len() >= 2,
            "seeded resample should touch several records"
        );
    }

    #[test]
    fn bootstrap_multiplicities_agree_with_resample_under_same_seed() {
        // Same seed => same rng call sequence => identical multiset of
        // drawn rows. The dataset's attribute value *is* the row index, so
        // counting resampled values recovers the drawn-index multiset.
        let ds = dataset(17);
        let sample = ds.records().to_vec();
        let mut rng_a = StdRng::seed_from_u64(42);
        let boot = bootstrap_resample(&sample, 300, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(42);
        let mult = bootstrap_multiplicities(sample.len(), 300, &mut rng_b);
        assert_eq!(mult.len(), sample.len());
        assert_eq!(mult.iter().map(|&m| m as usize).sum::<usize>(), 300);
        let mut counted = vec![0u32; sample.len()];
        for r in &boot {
            counted[r.num(0) as usize] += 1;
        }
        assert_eq!(counted, mult);
        // And the rngs are left in the same state (same number of draws).
        assert_eq!(
            rng_a.random_range(0..u64::MAX),
            rng_b.random_range(0..u64::MAX)
        );
    }

    #[test]
    fn bootstrap_multiplicities_empty_size_zero_ok() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(bootstrap_multiplicities(0, 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn bootstrap_multiplicities_empty_nonzero_panics() {
        let mut rng = StdRng::seed_from_u64(10);
        bootstrap_multiplicities(0, 1, &mut rng);
    }

    #[test]
    fn bootstrap_resample_empty_size_zero_ok() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(bootstrap_resample(&[], 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn bootstrap_resample_empty_nonzero_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        bootstrap_resample(&[], 1, &mut rng);
    }
}

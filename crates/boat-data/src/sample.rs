//! Sampling primitives.
//!
//! BOAT's sampling phase needs (1) a uniform random sample `D' ⊂ D` obtained
//! in a single sequential scan — classic *reservoir sampling* — and (2)
//! *bootstrap resamples*: samples drawn with replacement from the in-memory
//! sample `D'` (paper §3.2).

use crate::dataset::RecordSource;
use crate::record::Record;
use crate::Result;
use rand::Rng;

/// Draw a uniform random sample of up to `k` records from `source` in one
/// sequential scan (Vitter's Algorithm R). If the source holds fewer than
/// `k` records, all of them are returned. Order of the returned records is
/// not meaningful.
pub fn reservoir_sample<R: Rng + ?Sized>(
    source: &dyn RecordSource,
    k: usize,
    rng: &mut R,
) -> Result<Vec<Record>> {
    if k == 0 {
        // Still consume nothing; an empty sample is valid.
        return Ok(Vec::new());
    }
    let mut reservoir: Vec<Record> = Vec::with_capacity(k.min(source.len() as usize));
    for (i, r) in source.scan()?.enumerate() {
        let r = r?;
        let seen = i as u64 + 1;
        if reservoir.len() < k {
            reservoir.push(r);
        } else {
            let j = rng.random_range(0..seen);
            if (j as usize) < k {
                reservoir[j as usize] = r;
            }
        }
    }
    Ok(reservoir)
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
    use crate::record::Field;
    use crate::schema::{Attribute, Schema};
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
        assert_eq!(ds.stats().snapshot().scans, 1);
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

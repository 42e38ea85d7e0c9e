//! Property-based tests for the storage substrate: codec round-trips over
//! arbitrary schema-conformant records, spill-buffer transparency, and
//! reservoir-sampling invariants.

use boat_data::codec::{self, RowLayout};
use boat_data::spill::SpillBuffer;
use boat_data::{Attribute, Field, IoStats, MemoryDataset, Record, Schema};
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary schema with 1..=5 attributes and 2..=6 classes.
fn arb_schema() -> impl Strategy<Value = Arc<Schema>> {
    (
        prop::collection::vec(prop_oneof![Just(None), (2u32..=16).prop_map(Some)], 1..=5),
        2u16..=6,
    )
        .prop_map(|(kinds, classes)| {
            let attrs = kinds
                .into_iter()
                .enumerate()
                .map(|(i, card)| match card {
                    None => Attribute::numeric(format!("n{i}")),
                    Some(c) => Attribute::categorical(format!("c{i}"), c),
                })
                .collect();
            Schema::shared(attrs, classes).expect("generated schema is valid")
        })
}

/// Records conforming to `schema`.
fn arb_records(schema: Arc<Schema>, max: usize) -> impl Strategy<Value = Vec<Record>> {
    let field_strategies: Vec<_> = schema
        .attributes()
        .iter()
        .map(|a| match a.ty() {
            boat_data::AttrType::Numeric => (-1e9f64..1e9).prop_map(Field::Num).boxed(),
            boat_data::AttrType::Categorical { cardinality } => {
                (0..cardinality).prop_map(Field::Cat).boxed()
            }
        })
        .collect();
    let n_classes = schema.n_classes() as u16;
    prop::collection::vec(
        (field_strategies, 0..n_classes).prop_map(|(fields, label)| Record::new(fields, label)),
        0..=max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrips_any_record(
        (schema, records) in arb_schema()
            .prop_flat_map(|s| (Just(s.clone()), arb_records(s, 8)))
    ) {
        let layout = RowLayout::new(&schema);
        for r in &records {
            r.validate(&schema).unwrap();
            let bytes = codec::encode(&schema, r).unwrap();
            prop_assert_eq!(bytes.len(), schema.record_width());
            let back = layout.decode(&bytes).unwrap();
            // Bitwise equality for floats (total fidelity).
            prop_assert_eq!(back.label(), r.label());
            for (a, b) in back.fields().iter().zip(r.fields()) {
                match (a, b) {
                    (Field::Num(x), Field::Num(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                    (Field::Cat(x), Field::Cat(y)) => prop_assert_eq!(x, y),
                    _ => prop_assert!(false, "field type changed in roundtrip"),
                }
            }
        }
    }

    #[test]
    fn spill_buffer_is_a_transparent_vec(
        (schema, records) in arb_schema()
            .prop_flat_map(|s| (Just(s.clone()), arb_records(s, 40))),
        budget in 0usize..8,
    ) {
        // One buffer fed encoded rows, as the cleanup scan routes them, and
        // one fed the records those rows decode to.
        let mut rows = SpillBuffer::new(schema.clone(), budget, IoStats::new());
        let mut decoded = SpillBuffer::new(schema.clone(), budget, IoStats::new());
        let layout = RowLayout::new(&schema);
        for r in &records {
            let row = codec::encode(&schema, r).unwrap();
            rows.push_row(&row).unwrap();
            decoded.push(&layout.decode(&row).unwrap()).unwrap();
        }
        prop_assert_eq!(rows.len(), records.len() as u64);
        prop_assert_eq!(rows.spilled_len(), decoded.spilled_len());
        let out = rows.to_vec().unwrap();
        prop_assert_eq!(&out, &records);
        // Bit for bit: the two buffers hold the same rows.
        let bits = |rs: &[Record]| -> Vec<Vec<u8>> {
            rs.iter().map(|r| codec::encode(&schema, r).unwrap()).collect()
        };
        prop_assert_eq!(bits(&decoded.to_vec().unwrap()), bits(&out));
    }

    #[test]
    fn spill_buffer_one_target_removal_matches_vec_semantics(
        (schema, records) in arb_schema()
            .prop_flat_map(|s| (Just(s.clone()), arb_records(s, 20))),
        budget in 0usize..4,
        victim in 0usize..20,
    ) {
        prop_assume!(!records.is_empty());
        let victim = &records[victim % records.len()];
        let mut buf = SpillBuffer::new(schema, budget, IoStats::new());
        for r in &records {
            buf.push(r).unwrap();
        }
        prop_assert_eq!(buf.remove_many(std::slice::from_ref(victim)).unwrap(), 1);
        prop_assert_eq!(buf.len(), records.len() as u64 - 1);
        // Multiset equality with a Vec that had one matching element removed.
        let mut expect = records.clone();
        let pos = expect.iter().position(|r| r == victim).unwrap();
        expect.remove(pos);
        let mut got = buf.to_vec().unwrap();
        // Order is not part of the contract after removal; compare as
        // multisets via codec bytes.
        let key = |r: &Record| format!("{r}");
        let mut a: Vec<String> = expect.iter().map(key).collect();
        let mut b: Vec<String> = got.drain(..).map(|r| key(&r)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reservoir_sample_is_a_subset_without_replacement(
        n in 0usize..200,
        k in 0usize..50,
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let schema = Schema::shared(vec![Attribute::numeric("x")], 2).unwrap();
        let records: Vec<Record> =
            (0..n).map(|i| Record::new(vec![Field::Num(i as f64)], 0)).collect();
        let ds = MemoryDataset::new(schema, records);
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = boat_data::sample::reservoir_sample(&ds, k, &mut rng).unwrap();
        prop_assert_eq!(sample.len(), k.min(n));
        let mut ids: Vec<i64> = sample.iter().map(|r| r.num(0) as i64).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "reservoir must sample without replacement");
        prop_assert!(ids.iter().all(|&v| (v as usize) < n));
    }
}

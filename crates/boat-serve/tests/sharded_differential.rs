//! Differential oracle for the **sharded serve engine**: predictions
//! that flow through submit → shard ring → worker → snapshot reader →
//! columnar batch scorer must be byte-identical to compiled scalar
//! `CompiledTree::predict` and to interpreted `Tree::predict`, for
//! random schemas (NaN/±inf numerics, unseen category codes), random
//! batch shapes, and every worker count the battery exercises.

use boat_core::reference_tree;
use boat_data::{AttrType, Attribute, Field, MemoryDataset, Record, Schema};
use boat_serve::{compile, ModelHandle, ServeConfig, ServeEngine, Ticket};
use boat_tree::{Gini, GrowthLimits};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a record conforming to `schema` from one numeric value, one raw
/// category code, and a label; `cat_mod` bounds the codes actually used.
fn record_for(schema: &Schema, x: f64, c: u32, label: u16, cat_mod: u32) -> Record {
    let fields: Vec<Field> = schema
        .attributes()
        .iter()
        .map(|a| match a.ty() {
            AttrType::Numeric => Field::Num(x),
            AttrType::Categorical { cardinality } => Field::Cat(c % cat_mod.min(cardinality)),
        })
        .collect();
    Record::new(fields, label)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random schema, training data, probes, batch shapes, and worker
    /// count: engine output == compiled scalar == interpreted tree.
    #[test]
    fn engine_matches_scalar_and_interpreted(
        kinds in prop::collection::vec(
            prop_oneof![Just(None), (3u32..=8).prop_map(Some)],
            1..=4,
        ),
        classes in 2u16..=4,
        seen in 2u32..=3,
        train in prop::collection::vec((0i64..24, 0u32..8, 0u16..4), 20..200),
        probes in prop::collection::vec((-40i64..40, 0u32..8, 0u8..4), 1..160),
        sizes in prop::collection::vec(0usize..48, 1..6),
        workers in 1usize..=4,
        depth in 2u32..=6,
    ) {
        let attrs: Vec<Attribute> = kinds
            .iter()
            .enumerate()
            .map(|(i, card)| match card {
                None => Attribute::numeric(format!("n{i}")),
                Some(c) => Attribute::categorical(format!("c{i}"), *c),
            })
            .collect();
        let schema = Schema::shared(attrs, classes).unwrap();
        let records: Vec<Record> = train
            .iter()
            .map(|&(x, c, l)| record_for(&schema, x as f64, c, l % classes, seen))
            .collect();
        let ds = MemoryDataset::new(schema.clone(), records);
        let limits = GrowthLimits { max_depth: Some(depth), ..GrowthLimits::default() };
        let tree = reference_tree(&ds, Gini, limits).unwrap();
        let compiled = compile(&tree);

        // Probes range over the whole declared category universe
        // (training only saw codes mod `seen`) and cycle NaN/±inf
        // through the numerics.
        let probe_records: Arc<Vec<Record>> = Arc::new(
            probes
                .iter()
                .enumerate()
                .map(|(i, &(x, c, edge))| {
                    let v = match edge {
                        0 => x as f64 + 0.5,
                        1 => f64::NAN,
                        2 => f64::NEG_INFINITY,
                        _ => f64::INFINITY,
                    };
                    record_for(&schema, v, c, (i % classes as usize) as u16, u32::MAX)
                })
                .collect(),
        );

        let oracle: Vec<u16> = probe_records.iter().map(|r| tree.predict(r)).collect();
        let scalar: Vec<u16> = probe_records.iter().map(|r| compiled.predict(r)).collect();
        prop_assert_eq!(&scalar, &oracle, "compiled scalar diverges from interpreted");

        let engine = ServeEngine::start(
            ModelHandle::new(compiled),
            schema.clone(),
            ServeConfig { workers, queue_depth: 8 },
        );
        // Submit both owned batches and zero-copy shared ranges; the
        // concatenated ticket results must reproduce the oracle exactly.
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut start = 0usize;
        let mut i = 0usize;
        while start < probe_records.len() {
            let take = (1 + sizes[i % sizes.len()]).min(probe_records.len() - start);
            if i.is_multiple_of(2) {
                tickets.push(
                    engine
                        .submit_shared(Arc::clone(&probe_records), start..start + take)
                        .unwrap(),
                );
            } else {
                tickets.push(engine.submit(probe_records[start..start + take].to_vec()).unwrap());
            }
            start += take;
            i += 1;
        }
        let mut served: Vec<u16> = Vec::with_capacity(oracle.len());
        for t in tickets {
            served.extend(t.wait());
        }
        engine.shutdown();
        prop_assert_eq!(&served, &oracle, "sharded engine diverges from interpreted");
    }
}

/// A BOAT-fitted, noise-deepened tree scored through the engine at 1, 2
/// and 4 workers in zero-copy `submit_shared` ranges: every worker count
/// reproduces interpreted output exactly.
#[test]
fn engine_matches_interpreted_at_one_two_and_four_workers() {
    use boat_core::{Boat, BoatConfig};
    use boat_datagen::{GeneratorConfig, LabelFunction};

    let gen = GeneratorConfig::new(LabelFunction::F1)
        .with_seed(4_242)
        .with_noise(0.08);
    let schema = gen.schema();
    let data = MemoryDataset::new(schema.clone(), gen.generate_vec(4_000));
    let config = BoatConfig {
        limits: GrowthLimits::default(),
        ..BoatConfig::scaled_for(4_000).with_seed(4_243)
    };
    let (mut model, _) = Boat::new(config).fit_model(&data).unwrap();
    let tree = model.tree().unwrap().clone();
    let probes: Arc<Vec<Record>> = Arc::new(
        GeneratorConfig::new(LabelFunction::F1)
            .with_seed(4_244)
            .generate_vec(3_000),
    );
    let oracle: Vec<u16> = probes.iter().map(|r| tree.predict(r)).collect();

    let handle = ModelHandle::new(compile(&tree));
    for workers in [1, 2, 4] {
        let engine = ServeEngine::start(
            handle.clone(),
            schema.clone(),
            ServeConfig {
                workers,
                queue_depth: 64,
            },
        );
        let tickets: Vec<Ticket> = (0..probes.len())
            .step_by(500)
            .map(|start| {
                let end = (start + 500).min(probes.len());
                engine
                    .submit_shared(Arc::clone(&probes), start..end)
                    .unwrap()
            })
            .collect();
        let served: Vec<u16> = tickets.into_iter().flat_map(|t| t.wait()).collect();
        engine.shutdown();
        assert_eq!(
            served, oracle,
            "serve engine ({workers} workers) diverges from interpreted"
        );
    }
}

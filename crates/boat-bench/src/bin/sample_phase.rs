//! Sampling-phase comparison: the reference coarse builder (materialized
//! bootstrap resamples + per-node re-sorting, `reference_coarse_tree`) vs
//! the columnar engine (presorted attribute indices + weighted bootstrap)
//! vs the columnar engine with the confidence-gated subsampled split
//! search (the shipped default), across a `sample size × numeric
//! attributes × bootstrap reps` grid plus the adversarial datagen
//! scenarios (heavy ties, high-cardinality categoricals, skewed class
//! priors, wide schemas).
//!
//! All three builds are required to produce **identical coarse trees**
//! for the same seed (the columnar determinism and gate exactness
//! contracts); any mismatch makes the run exit non-zero, so CI's smoke
//! invocation is a differential test as well as a perf gate.
//! `--min-speedup X` turns the largest-config subsample-vs-reference
//! speedup into a hard assertion and `--min-columnar-speedup Y` does the
//! same for the gate-off columnar engine.
//!
//! ```sh
//! cargo run --release -p boat-bench --bin sample_phase
//! cargo run --release -p boat-bench --bin sample_phase -- \
//!     --sizes 4000,16000 --attrs 4,10 --boot-reps 20 \
//!     --min-speedup 1.8 --min-columnar-speedup 1.0
//! ```

use boat_bench::obs::json_array;
use boat_bench::table::fmt_duration;
use boat_bench::{print_metrics_summary, Args, BenchReport, Table};
use boat_core::coarse::{build_coarse_tree, reference_coarse_tree, CoarseTree};
use boat_core::BoatConfig;
use boat_data::{Attribute, Field, Record, Schema};
use boat_datagen::adversarial;
use boat_obs::Registry;
use boat_tree::{Gini, ImpuritySelector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A synthetic sample with `n_attrs` numeric attributes (coarse value
/// grids, so duplicate values and tie paths are common) plus two
/// categorical attributes, labeled by a two-attribute threshold concept
/// with a noisy band — deep enough trees to make the grow phase dominate.
fn make_sample(n: usize, n_attrs: usize, seed: u64) -> (Schema, Vec<Record>) {
    let mut attrs: Vec<Attribute> = (0..n_attrs)
        .map(|a| Attribute::numeric(format!("x{a}")))
        .collect();
    attrs.push(Attribute::categorical("c0", 4));
    attrs.push(Attribute::categorical("c1", 8));
    let schema = Schema::new(attrs, 2).expect("valid schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let records = (0..n)
        .map(|_| {
            let mut fields: Vec<Field> = (0..n_attrs)
                .map(|_| Field::Num(rng.random_range(0..200u32) as f64 * 0.25))
                .collect();
            fields.push(Field::Cat(rng.random_range(0..4u32)));
            fields.push(Field::Cat(rng.random_range(0..8u32)));
            let (x0, x1) = match (&fields[0], &fields[1 % n_attrs.max(1)]) {
                (Field::Num(a), Field::Num(b)) => (*a, *b),
                _ => unreachable!("first attributes are numeric"),
            };
            let noisy = rng.random_range(0..20u32) == 0;
            let label = if noisy {
                rng.random_range(0..2u32) as u16
            } else {
                u16::from(x0 + 0.5 * x1 >= 37.5)
            };
            Record::new(fields, label)
        })
        .collect();
    (schema, records)
}

struct Row {
    scenario: &'static str,
    size: usize,
    attrs: usize,
    boot_reps: usize,
    rows_time: Duration,
    columnar_time: Duration,
    subsample_time: Duration,
    speedup: f64,
    subsample_speedup: f64,
    coarse_nodes: usize,
}

/// One benchmark configuration: a dataset plus the grid coordinates it
/// reports under. `attrs` is the attribute-count key used to pick the
/// "largest" configuration, so the wide-schema scenario — the gate's
/// target shape — is the acceptance-gated config on the default grid.
struct Config {
    scenario: &'static str,
    schema: Schema,
    sample: Vec<Record>,
    size: usize,
    attrs: usize,
    boot_reps: usize,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let sizes: Vec<usize> = args
        .get_list("sizes", &[4_000, 16_000])
        .into_iter()
        .map(|v| v as usize)
        .collect();
    let attr_counts: Vec<usize> = args
        .get_list("attrs", &[4, 10])
        .into_iter()
        .map(|v| v as usize)
        .collect();
    let boot_reps_list: Vec<usize> = args
        .get_list("boot-reps", &[20])
        .into_iter()
        .map(|v| v as usize)
        .collect();
    let reps = args.get::<usize>("reps", 3);
    let seed = args.get::<u64>("seed", 42_007);
    let min_speedup = args.get::<f64>("min-speedup", 0.0);
    let min_columnar_speedup = args.get::<f64>("min-columnar-speedup", 0.0);
    let wide_attrs = args.get::<usize>("wide-attrs", 24);
    let no_scenarios = args.flag("no-scenarios");
    let out = args.get_str("out", "BENCH_sample_phase.json");
    let csv = args.flag("csv");

    println!(
        "# Sampling phase — reference (rows) vs Columnar vs Columnar+subsample, best of {reps}, seed {seed}\n\
         # grid: sizes={sizes:?} numeric attrs={attr_counts:?} bootstrap reps={boot_reps_list:?}\n\
         # adversarial scenarios: {}\n",
        if no_scenarios { "off" } else { "ties / high-card / skew / wide" }
    );

    let max_size = sizes.iter().copied().max().unwrap_or(4_000);
    let max_boot = boot_reps_list.iter().copied().max().unwrap_or(20);
    let mut configs: Vec<Config> = Vec::new();
    for &size in &sizes {
        for &n_attrs in &attr_counts {
            let (schema, sample) = make_sample(size, n_attrs, seed ^ (size as u64) << 8);
            for &boot in &boot_reps_list {
                configs.push(Config {
                    scenario: "grid",
                    schema: schema.clone(),
                    sample: sample.clone(),
                    size,
                    attrs: n_attrs,
                    boot_reps: boot,
                });
            }
        }
    }
    if !no_scenarios {
        let scenarios: [(&'static str, (Schema, Vec<Record>)); 4] = [
            ("heavy_ties", adversarial::heavy_ties(max_size, seed ^ 0xA1)),
            (
                "high_cardinality",
                adversarial::high_cardinality(max_size, seed ^ 0xA2),
            ),
            (
                "skewed_priors",
                adversarial::skewed_priors(max_size, seed ^ 0xA3),
            ),
            (
                "wide_schema",
                adversarial::wide_schema(max_size, wide_attrs, seed ^ 0xA4),
            ),
        ];
        for (name, (schema, sample)) in scenarios {
            let attrs = schema.n_attributes();
            configs.push(Config {
                scenario: name,
                schema,
                sample,
                size: max_size,
                attrs,
                boot_reps: max_boot,
            });
        }
    }

    let selector = ImpuritySelector::new(Gini);
    let mut rows: Vec<Row> = Vec::new();
    for c in &configs {
        let config = BoatConfig {
            sample_size: c.size,
            bootstrap_reps: c.boot_reps,
            bootstrap_sample_size: (c.size / 4).max(500),
            // Deep bootstrap trees: the scaled stop threshold stays
            // small relative to the resample.
            in_memory_threshold: 500,
            ..BoatConfig::default()
        };
        let full_size = (c.size as u64) * 20;
        let time_of = |build: &dyn Fn(&mut StdRng) -> CoarseTree| {
            let mut best: Option<(Duration, CoarseTree)> = None;
            for _ in 0..reps {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC0A5);
                let t0 = Instant::now();
                let coarse = build(&mut rng);
                let dt = t0.elapsed();
                if best.as_ref().is_none_or(|(b, _)| dt < *b) {
                    best = Some((dt, coarse));
                }
            }
            best.expect("reps >= 1")
        };
        let columnar_of = |cfg: BoatConfig| {
            time_of(&|rng: &mut StdRng| {
                build_coarse_tree(
                    &c.schema,
                    &c.sample,
                    &selector,
                    &cfg,
                    full_size,
                    rng,
                    Registry::global(),
                )
                .unwrap()
            })
        };
        let (rows_time, rows_coarse) = time_of(&|rng: &mut StdRng| {
            reference_coarse_tree(&c.schema, &c.sample, &selector, &config, full_size, rng)
        });
        // Gate off: the pure columnar engine.
        let (columnar_time, columnar_coarse) =
            columnar_of(config.clone().with_split_subsample(0.0));
        // Gate on: the shipped default.
        let (subsample_time, subsample_coarse) = columnar_of(config.clone());
        assert_eq!(
            rows_coarse, columnar_coarse,
            "ENGINE MISMATCH ({}, size={}, attrs={}, boot={}): \
             reference vs columnar coarse trees differ",
            c.scenario, c.size, c.attrs, c.boot_reps
        );
        assert_eq!(
            rows_coarse, subsample_coarse,
            "GATE MISMATCH ({}, size={}, attrs={}, boot={}): \
             the subsampled search must be invisible",
            c.scenario, c.size, c.attrs, c.boot_reps
        );
        rows.push(Row {
            scenario: c.scenario,
            size: c.size,
            attrs: c.attrs,
            boot_reps: c.boot_reps,
            rows_time,
            columnar_time,
            subsample_time,
            speedup: rows_time.as_secs_f64() / columnar_time.as_secs_f64(),
            subsample_speedup: rows_time.as_secs_f64() / subsample_time.as_secs_f64(),
            coarse_nodes: rows_coarse.len(),
        });
    }

    let mut table = Table::new(&[
        "scenario",
        "sample",
        "attrs",
        "boot reps",
        "rows",
        "columnar",
        "subsample",
        "col x",
        "sub x",
        "coarse nodes",
    ]);
    for r in &rows {
        table.row(vec![
            r.scenario.to_string(),
            r.size.to_string(),
            r.attrs.to_string(),
            r.boot_reps.to_string(),
            fmt_duration(r.rows_time),
            fmt_duration(r.columnar_time),
            fmt_duration(r.subsample_time),
            format!("{:.2}x", r.speedup),
            format!("{:.2}x", r.subsample_speedup),
            r.coarse_nodes.to_string(),
        ]);
    }
    table.print(csv);

    // Whole-process metrics: every columnar build at every grid point
    // recorded into the global registry, so the boat.sample.* spans and
    // counters (and the subsample gate's swept/pruned/fallback counts)
    // appear in the JSON artifact.
    let snapshot = Registry::global().snapshot();
    print_metrics_summary(&snapshot);

    // The acceptance gate runs on the *largest* configuration (most
    // attributes, biggest sample, most bootstrap reps) — on the default
    // grid that is the wide-schema scenario, the shape the subsampled
    // search targets.
    let largest = rows
        .iter()
        .max_by_key(|r| (r.attrs, r.size, r.boot_reps))
        .expect("non-empty grid");
    println!(
        "\nlargest config: {} ({} x {} attrs x {} reps) -> columnar {:.2}x, subsample {:.2}x",
        largest.scenario,
        largest.size,
        largest.attrs,
        largest.boot_reps,
        largest.speedup,
        largest.subsample_speedup
    );

    let results: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"scenario\": \"{}\", \"sample_size\": {}, \"numeric_attrs\": {}, \
                 \"bootstrap_reps\": {}, \"rows_seconds\": {:.6}, \
                 \"columnar_seconds\": {:.6}, \"subsample_seconds\": {:.6}, \
                 \"speedup\": {:.3}, \"subsample_speedup\": {:.3}, \
                 \"coarse_nodes\": {}, \"identical\": true}}",
                r.scenario,
                r.size,
                r.attrs,
                r.boot_reps,
                r.rows_time.as_secs_f64(),
                r.columnar_time.as_secs_f64(),
                r.subsample_time.as_secs_f64(),
                r.speedup,
                r.subsample_speedup,
                r.coarse_nodes,
            )
        })
        .collect();
    let mut report = BenchReport::new("sample_phase");
    report
        .field_u64("reps", reps as u64)
        .field_u64("seed", seed)
        .field_f64("largest_config_speedup", largest.speedup)
        .field_f64(
            "largest_config_subsample_speedup",
            largest.subsample_speedup,
        )
        .field_str("largest_config_scenario", largest.scenario)
        .field_u64("largest_config_numeric_attrs", largest.attrs as u64)
        .field_u64("largest_config_sample_size", largest.size as u64)
        .field_u64("largest_config_bootstrap_reps", largest.boot_reps as u64)
        .field_bool("identical_coarse_trees_asserted", true)
        .field_u64(
            "subsample_swept",
            snapshot.counter("boat.sample.subsample.swept"),
        )
        .field_u64(
            "subsample_pruned",
            snapshot.counter("boat.sample.subsample.pruned"),
        )
        .field_u64(
            "subsample_fallbacks",
            snapshot.counter("boat.sample.subsample.fallbacks"),
        )
        .field_u64(
            "subsample_exact_points",
            snapshot.counter("boat.sample.subsample.exact_points"),
        )
        .field_raw("results", json_array(&results))
        .metrics(&snapshot);
    report.write(&out)?;

    let mut failed = false;
    if min_speedup > 0.0 && largest.subsample_speedup < min_speedup {
        eprintln!(
            "FAIL: largest-config subsample speedup {:.2}x below required {min_speedup:.2}x",
            largest.subsample_speedup
        );
        failed = true;
    }
    if min_columnar_speedup > 0.0 && largest.speedup < min_columnar_speedup {
        eprintln!(
            "FAIL: largest-config columnar speedup {:.2}x below required {min_columnar_speedup:.2}x",
            largest.speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    Ok(())
}

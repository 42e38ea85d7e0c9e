//! Figures 13–15: maintaining the tree in a dynamic environment (paper
//! §5.3).
//!
//! * `--mode same-dist` (Figure 13): chunks from the unchanged distribution
//!   (with 10 % label noise, as in the paper) are incorporated
//!   incrementally; cumulative update time is compared against repeated
//!   re-builds (charged, as the paper does, only for the new cumulative
//!   dataset — "we assumed the size of the original dataset to be zero").
//! * `--mode drift` (Figure 14): chunks whose distribution changed in part
//!   of the attribute space; the incremental algorithm rebuilds the
//!   affected subtrees yet still beats repeated re-builds.
//! * `--mode chunk-size` (Figure 15): the same cumulative data arriving in
//!   small vs large chunks — the two cumulative-cost curves are nearly
//!   identical.
//!
//! After every update the maintained tree is verified identical to a full
//! rebuild (disable with `--no-verify`).
//!
//! ```sh
//! cargo run --release -p boat-bench --bin dynamic -- --mode same-dist
//! ```

use boat_bench::obs::json_array;
use boat_bench::table::fmt_duration;
use boat_bench::{bench_dir, print_metrics_summary, Args, BenchReport, Table};
use boat_core::{reference_tree, Boat, BoatConfig};
use boat_data::{FileDataset, FileDatasetWriter, RecordSource};
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_rainforest::{RainForest, RfConfig, RfVariant};
use boat_tree::{Gini, GrowthLimits};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let mode = args.get_str("mode", "same-dist");
    let base_n = args.get::<u64>("base", 20_000);
    let chunk_n = args.get::<u64>("chunk", 20_000);
    let chunks = args.get::<u64>("chunks", 4);
    let seed = args.get::<u64>("seed", 131_313);
    let csv = args.flag("csv");
    let verify = !args.flag("no-verify");
    let out = args.get_str("out", "BENCH_dynamic.json");

    match mode.as_str() {
        "same-dist" => run_updates(
            "Figure 13: same distribution",
            LabelFunction::F1,
            base_n,
            chunk_n,
            chunks,
            seed,
            csv,
            verify,
            &out,
        ),
        "drift" => run_updates(
            "Figure 14: distribution change",
            LabelFunction::F1Drift,
            base_n,
            chunk_n,
            chunks,
            seed,
            csv,
            verify,
            &out,
        ),
        "chunk-size" => run_chunk_size(base_n, chunk_n, chunks, seed, csv, &out),
        other => panic!("--mode must be same-dist | drift | chunk-size, got {other}"),
    }
}

/// Finish a dynamic-mode report: metrics summary + JSON artifact.
fn finish_report(
    mode: &str,
    rows_json: Vec<String>,
    out: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let snapshot = boat_obs::Registry::global().snapshot();
    print_metrics_summary(&snapshot);
    let mut report = BenchReport::new("dynamic");
    report
        .field_str("mode", mode)
        .field_bool("identical_trees_asserted", true)
        .field_raw("results", json_array(&rows_json))
        .metrics(&snapshot);
    report.write(out)?;
    Ok(())
}

/// The stopping rule shared by the dynamic experiments (15 % of the final
/// cumulative size, like the static sweeps).
fn limits_for(total: u64) -> GrowthLimits {
    GrowthLimits {
        stop_family_size: Some((total * 3 / 20).max(500)),
        ..GrowthLimits::default()
    }
}

fn chunk_file(gen: &GeneratorConfig, n: u64, key: &str) -> boat_data::Result<FileDataset> {
    let path = bench_dir().join(format!("dyn-{key}-{n}.boat"));
    let _ = std::fs::remove_file(&path);
    gen.materialize(&path, n)
}

/// The next cumulative database: `prev` followed by `chunk`, written to a
/// new file at `path`. Both inputs are removed once copied.
fn append_chunk(
    prev: FileDataset,
    chunk: FileDataset,
    path: &std::path::Path,
) -> boat_data::Result<FileDataset> {
    let mut writer = FileDatasetWriter::create(path, prev.schema().clone())?;
    for source in [&prev, &chunk] {
        for r in source.scan()? {
            writer.append(&r?)?;
        }
        std::fs::remove_file(source.path())?;
    }
    writer.finish()
}

#[allow(clippy::too_many_arguments)]
fn run_updates(
    title: &str,
    chunk_fn: LabelFunction,
    base_n: u64,
    chunk_n: u64,
    chunks: u64,
    seed: u64,
    csv: bool,
    verify: bool,
    out: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let total = base_n + chunks * chunk_n;
    let limits = limits_for(total);
    println!(
        "# {title} — base {base_n} (F1), {chunks} chunks of {chunk_n} ({chunk_fn:?}, 10% noise), \
         stop at {}\n",
        limits.stop_family_size.unwrap()
    );

    let base_gen = GeneratorConfig::new(LabelFunction::F1).with_seed(seed);
    let base = chunk_file(&base_gen, base_n, &format!("base-{seed}"))?;

    let mut config = BoatConfig::scaled_for(total).with_seed(seed);
    config.limits = limits;
    config.in_memory_threshold = limits.stop_family_size.unwrap();
    let algo = Boat::new(config.clone()).with_metrics(boat_obs::Registry::global().clone());
    let t = Instant::now();
    let (mut model, _) = algo.fit_model(&base)?;
    println!(
        "initial model on {base_n} tuples: {} ({} nodes)\n",
        fmt_duration(t.elapsed()),
        model.tree()?.n_nodes()
    );

    // The current database for the rebuild baselines: one file holding
    // every record so far, rebuilt outside the timed regions per chunk.
    let mut cumulative_db = base;

    let mut table = Table::new(&[
        "cumulative",
        "update",
        "cum update",
        "BOAT rebuild",
        "cum BOAT rebuild",
        "RF-Hybrid rebuild",
        "cum RF rebuild",
        "failed subtrees",
    ]);
    let (mut cum_update, mut cum_boat, mut cum_rf) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut rows_json: Vec<String> = Vec::new();
    for i in 0..chunks {
        let gen = GeneratorConfig::new(chunk_fn)
            .with_seed(seed ^ (1000 + i))
            .with_noise(0.10);
        let chunk = chunk_file(&gen, chunk_n, &format!("chunk-{seed}-{i}"))?;
        let cumulative = base_n + (i + 1) * chunk_n;

        // Incremental update: stream the chunk, then materialize the tree
        // (verification + regrowth of any failed subtree).
        let report = model.insert(&chunk)?;
        let maintenance = model.maintain()?;
        let update_time = report.time + maintenance.time;
        cum_update += update_time;
        cumulative_db = append_chunk(
            cumulative_db,
            chunk,
            &bench_dir().join(format!("dyn-cumulative-{seed}-{i}.boat")),
        )?;

        // Re-build baselines over the current cumulative database.
        let t = Instant::now();
        let rebuilt = algo.fit(&cumulative_db)?;
        let boat_rebuild = t.elapsed();
        cum_boat += boat_rebuild;
        let rf = RainForest::new(
            RfVariant::Hybrid,
            RfConfig {
                avc_budget_entries: boat_bench::rf_budgets(cumulative, 0).0,
                in_memory_threshold: limits.stop_family_size.unwrap(),
                limits,
            },
        );
        let t = Instant::now();
        let rf_fit = rf.fit(&cumulative_db)?;
        let rf_rebuild = t.elapsed();
        cum_rf += rf_rebuild;

        assert_eq!(
            model.tree()?,
            &rebuilt.tree,
            "incremental must equal BOAT rebuild"
        );
        assert_eq!(
            model.tree()?,
            &rf_fit.tree,
            "incremental must equal RF rebuild"
        );
        if verify {
            let reference = reference_tree(&cumulative_db, Gini, limits)?;
            assert_eq!(
                model.tree()?,
                &reference,
                "incremental must equal the reference"
            );
        }

        table.row(vec![
            cumulative.to_string(),
            fmt_duration(update_time),
            fmt_duration(cum_update),
            fmt_duration(boat_rebuild),
            fmt_duration(cum_boat),
            fmt_duration(rf_rebuild),
            fmt_duration(cum_rf),
            maintenance.failed_nodes.to_string(),
        ]);
        rows_json.push(format!(
            "{{\"cumulative_tuples\": {cumulative}, \"update_seconds\": {:.6}, \
             \"cum_update_seconds\": {:.6}, \"boat_rebuild_seconds\": {:.6}, \
             \"rf_rebuild_seconds\": {:.6}, \"failed_subtrees\": {}}}",
            update_time.as_secs_f64(),
            cum_update.as_secs_f64(),
            boat_rebuild.as_secs_f64(),
            rf_rebuild.as_secs_f64(),
            maintenance.failed_nodes,
        ));
    }
    std::fs::remove_file(cumulative_db.path())?;
    table.print(csv);
    println!(
        "\npaper shape: cumulative update time grows far slower than cumulative re-build \
         time{}; trees verified identical after every chunk.",
        if chunk_fn == LabelFunction::F1Drift {
            " even though drift forces partial rebuilds"
        } else {
            ", and updates never rescan the original data"
        }
    );
    finish_report(
        if chunk_fn == LabelFunction::F1Drift {
            "drift"
        } else {
            "same-dist"
        },
        rows_json,
        out,
    )
}

fn run_chunk_size(
    base_n: u64,
    big_chunk: u64,
    chunks: u64,
    seed: u64,
    csv: bool,
    out: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let total = base_n + chunks * big_chunk;
    let limits = limits_for(total);
    let small_chunk = big_chunk / 2;
    println!(
        "# Figure 15: small updates — {} tuples arriving as {}x{} vs {}x{} chunks\n",
        chunks * big_chunk,
        chunks,
        big_chunk,
        chunks * 2,
        small_chunk
    );

    let mut table = Table::new(&[
        "arrived",
        "cum update (big chunks)",
        "cum update (small chunks)",
    ]);
    let mut cum: Vec<Duration> = vec![Duration::ZERO, Duration::ZERO];
    let mut models = Vec::new();
    for _ in 0..2 {
        let base_gen = GeneratorConfig::new(LabelFunction::F1).with_seed(seed);
        let base = chunk_file(
            &base_gen,
            base_n,
            &format!("base15-{seed}-{}", models.len()),
        )?;
        let mut config = BoatConfig::scaled_for(total).with_seed(seed);
        config.limits = limits;
        config.in_memory_threshold = limits.stop_family_size.unwrap();
        let (model, _) = Boat::new(config)
            .with_metrics(boat_obs::Registry::global().clone())
            .fit_model(&base)?;
        models.push(model);
    }
    let mut rows_json: Vec<String> = Vec::new();

    for i in 0..chunks {
        let gen = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(seed ^ (2000 + i))
            .with_noise(0.10);
        // Big-chunk model gets one chunk; small-chunk model gets the same
        // records as two half-chunks.
        let all = gen.generate_vec(big_chunk as usize);
        let schema = gen.schema();
        let big = boat_data::MemoryDataset::new(schema.clone(), all.clone());
        let report = models[0].insert(&big)?;
        cum[0] += report.time + models[0].maintain()?.time;

        let first =
            boat_data::MemoryDataset::new(schema.clone(), all[..small_chunk as usize].to_vec());
        let second =
            boat_data::MemoryDataset::new(schema.clone(), all[small_chunk as usize..].to_vec());
        let r1 = models[1].insert(&first)?;
        let r2 = models[1].insert(&second)?;
        cum[1] += r1.time + r2.time + models[1].maintain()?.time;

        let (a, b) = models.split_at_mut(1);
        assert_eq!(
            a[0].tree()?,
            b[0].tree()?,
            "chunk granularity must not change the tree"
        );
        table.row(vec![
            ((i + 1) * big_chunk).to_string(),
            fmt_duration(cum[0]),
            fmt_duration(cum[1]),
        ]);
        rows_json.push(format!(
            "{{\"arrived_tuples\": {}, \"cum_update_seconds_big\": {:.6}, \
             \"cum_update_seconds_small\": {:.6}}}",
            (i + 1) * big_chunk,
            cum[0].as_secs_f64(),
            cum[1].as_secs_f64(),
        ));
    }
    table.print(csv);
    println!("\npaper shape: the two cumulative curves are nearly identical.");
    finish_report("chunk-size", rows_json, out)
}

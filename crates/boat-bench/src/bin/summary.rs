//! One-command digest of the whole evaluation: a compact version of every
//! figure (smaller sizes than the dedicated binaries), printed as a single
//! report with the paper-shape verdicts. Useful as a smoke test that the
//! reproduction still holds end to end.
//!
//! ```sh
//! cargo run --release -p boat-bench --bin summary
//! ```

use boat_bench::obs::json_array;
use boat_bench::run::paper_limits;
use boat_bench::table::fmt_duration;
use boat_bench::{
    materialize_cached, print_metrics_summary, rf_budgets, run_boat, run_rf_hybrid,
    run_rf_vertical, Args, BenchReport, Table,
};
use boat_core::{Boat, BoatConfig, StalenessBound, StreamConfig};
use boat_data::dataset::RecordSource;
use boat_data::wal::{replay_segments, WalConfig, WalKind};
use boat_data::MemoryDataset;
use boat_datagen::{GeneratorConfig, LabelFunction};
use boat_serve::spawn_streaming;
use std::time::{Duration, Instant};

/// Minimal reader for the flat JSON that [`BenchReport`] writes: one
/// `"key": value` scalar per line. Nested values (the `metrics` object,
/// `results` arrays) are skipped — the summary aggregates headlines, not
/// raw data. Returns `(key, raw_json_value)` pairs in file order, or
/// `None` when the file has no recognizable scalar fields.
fn read_flat_report(path: &std::path::Path) -> Option<Vec<(String, String)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut fields = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim();
        if !(key.starts_with('"') && key.ends_with('"')) {
            continue;
        }
        let value = value.trim();
        if value.is_empty() || value.starts_with('{') || value.starts_with('[') {
            continue;
        }
        fields.push((key.trim_matches('"').to_string(), value.to_string()));
    }
    if fields.is_empty() {
        None
    } else {
        Some(fields)
    }
}

/// One-line human digest of a sibling bench report. Known benches get a
/// purpose-built headline; anything else still shows up with its `bench`
/// tag and field count — **no report is silently skipped**.
fn report_headline(bench: &str, fields: &[(String, String)]) -> String {
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.trim_matches('"').to_string())
    };
    let fmt1 = |v: Option<String>| {
        v.and_then(|s| s.parse::<f64>().ok())
            .map(|x| format!("{x:.2}"))
            .unwrap_or_else(|| "?".into())
    };
    match bench {
        "sample_phase" => {
            let mut line = format!(
                "columnar sample phase {}x at the largest config",
                fmt1(get("largest_config_speedup")),
            );
            // Newer reports carry the subsample gate's numbers too; older
            // artifacts on disk simply lack the fields and keep the short
            // headline.
            if let Some(sub) = get("largest_config_subsample_speedup") {
                line.push_str(&format!(
                    ", subsampled {}x (fallbacks {})",
                    fmt1(Some(sub)),
                    get("subsample_fallbacks").unwrap_or_else(|| "?".into()),
                ));
            }
            line
        }
        "parallel_cleanup_scan" => format!(
            "{} tuples at machine parallelism {}",
            get("tuples").unwrap_or_else(|| "?".into()),
            get("machine_parallelism").unwrap_or_else(|| "?".into()),
        ),
        "summary" => format!("full digest in {}s", fmt1(get("total_seconds")),),
        _ => format!("{} scalar fields", fields.len()),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let n = args.get::<u64>("n", 40_000);
    let seed = args.get::<u64>("seed", 515_151);
    let out = args.get_str("out", "BENCH_summary.json");
    let limits = paper_limits(n);
    let t0 = Instant::now();
    let mut rows_json: Vec<String> = Vec::new();

    println!(
        "# BOAT reproduction summary (n = {n}, stop at {})\n",
        limits.stop_family_size.unwrap()
    );

    // --- Figures 4-6 digest: one size, three functions, three algorithms.
    println!("## Scalability digest (Figures 4-6)\n");
    let mut table = Table::new(&[
        "function",
        "algo",
        "time",
        "scans",
        "input reads",
        "failures",
    ]);
    for (f, func) in [
        (1u32, LabelFunction::F1),
        (6, LabelFunction::F6),
        (7, LabelFunction::F7),
    ] {
        let gen = GeneratorConfig::new(func).with_seed(seed);
        let data = materialize_cached(&gen, n, &format!("summary-f{f}-{seed}"))?;
        let (hb, vb) = rf_budgets(n, 0);
        let results = [
            run_boat(&data, limits, seed ^ f as u64)?,
            run_rf_hybrid(&data, limits, hb)?,
            run_rf_vertical(&data, limits, vb)?,
        ];
        for pair in results.windows(2) {
            assert_eq!(pair[0].tree, pair[1].tree, "F{f}: trees must be identical");
        }
        for r in &results {
            table.row(vec![
                format!("F{f}"),
                r.algo.to_string(),
                fmt_duration(r.time),
                r.scans.to_string(),
                r.input_reads.to_string(),
                r.failed_nodes.to_string(),
            ]);
            rows_json.push(format!(
                "{{\"digest\": \"scalability\", \"function\": \"F{f}\", \"algo\": \"{}\", \
                 \"seconds\": {:.6}, \"scans\": {}, \"input_reads\": {}, \"failures\": {}}}",
                r.algo,
                r.time.as_secs_f64(),
                r.scans,
                r.input_reads,
                r.failed_nodes,
            ));
        }
    }
    table.print(false);

    // --- Noise digest (Figures 7-9): BOAT at the two noise extremes.
    println!("\n## Noise digest (Figures 7-9): BOAT at 2% vs 10% noise (F1)\n");
    for pct in [2u64, 10] {
        let gen = GeneratorConfig::new(LabelFunction::F1)
            .with_seed(seed)
            .with_noise(pct as f64 / 100.0);
        let data = materialize_cached(&gen, n, &format!("summary-noise-{pct}-{seed}"))?;
        let r = run_boat(&data, limits, seed ^ pct)?;
        println!(
            "  noise {pct:>2}%: {} | {} scans | {} input reads",
            fmt_duration(r.time),
            r.scans,
            r.input_reads
        );
        rows_json.push(format!(
            "{{\"digest\": \"noise\", \"noise_pct\": {pct}, \"algo\": \"BOAT\", \
             \"seconds\": {:.6}, \"scans\": {}, \"input_reads\": {}}}",
            r.time.as_secs_f64(),
            r.scans,
            r.input_reads,
        ));
    }

    // --- Instability digest (Figure 12).
    println!("\n## Instability digest (Figure 12)\n");
    let unstable = boat_datagen::instability::two_minima_dataset(400, 8);
    let mut cfg = BoatConfig::scaled_for(unstable.len()).with_seed(seed);
    cfg.in_memory_threshold = unstable.len() / 10;
    let fit = Boat::new(cfg.clone())
        .with_metrics(boat_obs::Registry::global().clone())
        .fit(&unstable)?;
    let reference = boat_core::reference_tree(&unstable, boat_tree::Gini, cfg.limits)?;
    assert_eq!(fit.tree, reference);
    println!("  two-minima data: {} (exact tree: yes)", fit.stats);
    rows_json.push(format!(
        "{{\"digest\": \"instability\", \"scans\": {}, \"failed_nodes\": {}, \"exact\": true}}",
        fit.stats.scans_over_input, fit.stats.failed_nodes,
    ));

    // --- Dynamic digest (Figures 13-15): repeated chunks, cumulative
    //     update cost vs re-building at every arrival (the paper's
    //     comparison).
    println!("\n## Dynamic digest (Figures 13-15)\n");
    let gen = GeneratorConfig::new(LabelFunction::F1).with_seed(seed ^ 77);
    let schema = gen.schema();
    let chunks = 4u64;
    let chunk_n = n / 2;
    let total = n + chunks * chunk_n;
    let all = gen.generate_vec(total as usize);
    let base = MemoryDataset::new(schema.clone(), all[..n as usize].to_vec());
    let mut config = BoatConfig::scaled_for(total).with_seed(seed ^ 78);
    config.limits = paper_limits(total);
    config.in_memory_threshold = config.limits.stop_family_size.unwrap();
    let algo = Boat::new(config.clone()).with_metrics(boat_obs::Registry::global().clone());
    let (mut model, _) = algo.fit_model(&base)?;
    let mut cum_update = std::time::Duration::ZERO;
    let mut cum_rebuild = std::time::Duration::ZERO;
    for i in 0..chunks {
        let start = (n + i * chunk_n) as usize;
        let end = start + chunk_n as usize;
        let chunk = MemoryDataset::new(schema.clone(), all[start..end].to_vec());
        let t = Instant::now();
        model.insert(&chunk)?;
        model.maintain()?;
        cum_update += t.elapsed();
        let cumulative = MemoryDataset::new(schema.clone(), all[..end].to_vec());
        let t = Instant::now();
        let rebuilt = algo.fit(&cumulative)?;
        cum_rebuild += t.elapsed();
        assert_eq!(
            model.tree()?,
            &rebuilt.tree,
            "incremental must equal rebuild"
        );
    }
    println!(
        "  {chunks} chunks of +{chunk_n}: cumulative incremental {} vs cumulative re-builds {} \
         (identical trees at every step)",
        fmt_duration(cum_update),
        fmt_duration(cum_rebuild)
    );
    rows_json.push(format!(
        "{{\"digest\": \"dynamic\", \"chunks\": {chunks}, \"chunk_tuples\": {chunk_n}, \
         \"cum_update_seconds\": {:.6}, \"cum_rebuild_seconds\": {:.6}}}",
        cum_update.as_secs_f64(),
        cum_rebuild.as_secs_f64(),
    ));

    // --- Streaming digest (§4 write path): a short concurrent WAL stream
    //     through the maintenance daemon, gated on quiesce exactness
    //     against a synchronous replay in the recorded WAL order. Runs
    //     against the global registry so the WAL durability counters land
    //     in this report's embedded snapshot.
    println!("\n## Streaming digest (concurrent WAL ingest, trigger-driven maintains)\n");
    let gen = GeneratorConfig::new(LabelFunction::F2).with_seed(seed ^ 99);
    let schema = gen.schema();
    let stream_base = (n / 4).max(2_000);
    let stream_n = (n / 4).max(2_000);
    let all = gen.generate_vec((stream_base + stream_n) as usize);
    let base_ds = MemoryDataset::new(schema.clone(), all[..stream_base as usize].to_vec());
    let mut scfg = BoatConfig::scaled_for(stream_base + stream_n).with_seed(seed ^ 100);
    scfg.limits = paper_limits(stream_base + stream_n);
    let stream_algo = Boat::new(scfg.clone()).with_metrics(boat_obs::Registry::global().clone());
    let (smodel, _) = stream_algo.fit_model(&base_ds)?;
    let streaming = spawn_streaming(
        smodel,
        StreamConfig {
            staleness: StalenessBound {
                max_records: (stream_n / 4).max(500),
                max_age: Some(Duration::from_secs(1)),
            },
            wal: WalConfig {
                keep_segments: true, // replayed below as the exactness oracle
                ..WalConfig::default()
            },
            ..StreamConfig::default()
        },
    )?;
    let t_stream = Instant::now();
    let chunk_len = (stream_n as usize / 8).max(1);
    std::thread::scope(|s| {
        for p in 0..2usize {
            let writer = streaming.writer();
            let lo = (stream_base as usize) + p * (stream_n as usize / 2);
            let hi = if p == 1 {
                all.len()
            } else {
                lo + stream_n as usize / 2
            };
            let slice = &all[lo..hi];
            s.spawn(move || {
                for c in slice.chunks(chunk_len) {
                    writer.insert(c.to_vec()).expect("stream insert");
                    if p == 1 {
                        // One producer also deletes its own chunks: the
                        // per-producer FIFO keeps each delete valid.
                        writer.delete(c.to_vec()).expect("stream delete");
                    }
                }
            });
        }
    });
    let quiesced = streaming.quiesce()?;
    let stream_time = t_stream.elapsed();
    let stream_epochs = streaming.handle().epoch();
    let segments = streaming.wal_segments();
    let (_, sstats) = streaming.finish()?;
    assert_eq!(quiesced.stats.first_error, None);
    assert_eq!(sstats.bound_violations, 0, "staleness bound violated");
    let wal_ops = replay_segments(&segments, &schema, boat_obs::Registry::global())?;
    let (mut sync_model, _) = Boat::new(scfg.clone())
        .with_metrics(boat_obs::Registry::global().clone())
        .fit_model(&base_ds)?;
    for op in wal_ops {
        let chunk = MemoryDataset::new(schema.clone(), op.records);
        match op.kind {
            WalKind::Insert => sync_model.insert(&chunk)?,
            WalKind::Delete => sync_model.delete(&chunk)?,
        };
    }
    assert_eq!(
        quiesced.tree_bytes,
        sync_model.tree()?.to_bytes(),
        "streaming quiesce tree must equal the WAL-order synchronous replay"
    );
    for p in &segments {
        std::fs::remove_file(p).ok();
    }
    let wal_snap = boat_obs::Registry::global().snapshot();
    println!(
        "  {} ops over 2 producers in {}: {} maintains, {} epochs published, \
         exact WAL-order replay: yes",
        sstats.ops_absorbed,
        fmt_duration(stream_time),
        sstats.maintains,
        stream_epochs,
    );
    println!(
        "  WAL durability: {} segment(s), {} fsync batch(es), {} bytes written, \
         {} bytes replayed, {} torn tail(s)",
        wal_snap.counter("data.wal.segments"),
        wal_snap.counter("data.wal.fsync_batches"),
        wal_snap.counter("data.wal.bytes_written"),
        wal_snap.counter("data.wal.replayed_bytes"),
        wal_snap.counter("data.wal.torn_tails"),
    );
    rows_json.push(format!(
        "{{\"digest\": \"streaming\", \"ops\": {}, \"maintains\": {}, \"epochs\": {}, \
         \"bound_violations\": {}, \"stream_seconds\": {:.6}, \"wal_bytes\": {}, \"exact\": true}}",
        sstats.ops_absorbed,
        sstats.maintains,
        stream_epochs,
        sstats.bound_violations,
        stream_time.as_secs_f64(),
        wal_snap.counter("data.wal.bytes_written"),
    ));

    // --- Sibling bench reports: fold every BENCH_*.json already on disk
    //     into this summary (the dedicated binaries each write one), with
    //     a recognizable headline per known bench and a generic line for
    //     anything new — unknown reports are listed, never skipped.
    let mut report_paths: Vec<std::path::PathBuf> = std::fs::read_dir(".")?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("BENCH_") && f.ends_with(".json") && f != out)
        })
        .collect();
    report_paths.sort();
    let mut sibling_json: Vec<String> = Vec::new();
    if report_paths.is_empty() {
        println!("\n## Bench reports on disk: none (run the dedicated binaries first)");
    } else {
        println!("\n## Bench reports on disk ({})\n", report_paths.len());
        let mut reports = Table::new(&["report", "bench", "headline"]);
        for path in &report_paths {
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            let Some(fields) = read_flat_report(path) else {
                reports.row(vec![
                    file,
                    "?".into(),
                    "unparseable (not a flat report)".into(),
                ]);
                continue;
            };
            let bench = fields
                .iter()
                .find(|(k, _)| k == "bench")
                .map(|(_, v)| v.trim_matches('"').to_string())
                .unwrap_or_else(|| "?".into());
            let headline = report_headline(&bench, &fields);
            let scalars: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            sibling_json.push(format!("{{\"file\": \"{file}\", {}}}", scalars.join(", ")));
            reports.row(vec![file, bench, headline]);
        }
        reports.print(false);
    }

    println!(
        "\nAll identical-tree assertions passed. Total summary time: {}",
        fmt_duration(t0.elapsed())
    );

    let snapshot = boat_obs::Registry::global().snapshot();
    print_metrics_summary(&snapshot);
    let mut report = BenchReport::new("summary");
    report
        .field_u64("tuples", n)
        .field_u64("seed", seed)
        .field_f64("total_seconds", t0.elapsed().as_secs_f64())
        .field_bool("identical_trees_asserted", true)
        .field_raw("results", json_array(&rows_json))
        .field_raw("sibling_reports", json_array(&sibling_json))
        .metrics(&snapshot);
    report.write(&out)?;
    Ok(())
}

//! Figures 7–9: effect of label noise on construction time (paper §5.2).
//!
//! Paper setup: 5 M tuples, noise from 2 % to 10 %, growth stopped at
//! 1.5 M-tuple families. The paper's finding: BOAT's running time is *not*
//! dependent on the noise level (noise affects splits below the in-memory
//! switch, not the upper tree BOAT's machinery handles).
//!
//! ```sh
//! cargo run --release -p boat-bench --bin noise -- --function 1
//! ```

use boat_bench::obs::json_array;
use boat_bench::run::paper_limits;
use boat_bench::table::fmt_duration;
use boat_bench::{
    materialize_cached, print_metrics_summary, rf_budgets, run_boat, run_rf_hybrid,
    run_rf_vertical, Args, BenchReport, Table,
};
use boat_datagen::{GeneratorConfig, LabelFunction};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let function = args.get::<u32>("function", 1);
    let n = args.get::<u64>("n", 50_000);
    let noise_pcts = args.get_list("noise", &[2, 4, 6, 8, 10]);
    let seed = args.get::<u64>("seed", 77_777);
    let csv = args.flag("csv");
    let out = args.get_str("out", "BENCH_noise.json");
    let func = LabelFunction::from_number(function).expect("--function must be 1..=10");
    // The paper stops at the same absolute threshold as the scalability
    // sweep (1.5M at 10M max), i.e. 30% of its 5M-tuple noise datasets.
    let limits = paper_limits(n * 2);

    let fig = match function {
        1 => "Figure 7",
        6 => "Figure 8",
        7 => "Figure 9",
        _ => "(custom function)",
    };
    println!(
        "# {fig}: Noise vs Time, F{function} — n = {n}, noise {noise_pcts:?}%, stop at {}\n",
        limits.stop_family_size.unwrap()
    );

    let mut table = Table::new(&[
        "noise%",
        "algo",
        "time",
        "scans",
        "input reads",
        "spill reads",
        "nodes",
        "failures",
    ]);
    let mut rows_json: Vec<String> = Vec::new();
    for &pct in &noise_pcts {
        let gen = GeneratorConfig::new(func)
            .with_seed(seed)
            .with_noise(pct as f64 / 100.0);
        let data = materialize_cached(&gen, n, &format!("noise-f{function}-{seed}-{pct}"))?;
        let (hybrid_budget, vertical_budget) = rf_budgets(n, 0);
        let results = [
            run_boat(&data, limits, seed ^ pct)?,
            run_rf_hybrid(&data, limits, hybrid_budget)?,
            run_rf_vertical(&data, limits, vertical_budget)?,
        ];
        for pair in results.windows(2) {
            assert_eq!(
                pair[0].tree, pair[1].tree,
                "algorithms must build the same tree"
            );
        }
        for r in &results {
            table.row(vec![
                pct.to_string(),
                r.algo.to_string(),
                fmt_duration(r.time),
                r.scans.to_string(),
                r.input_reads.to_string(),
                r.spill_reads.to_string(),
                r.tree.n_nodes().to_string(),
                r.failed_nodes.to_string(),
            ]);
            rows_json.push(format!(
                "{{\"noise_pct\": {pct}, \"algo\": \"{}\", \"seconds\": {:.6}, \"scans\": {}, \
                 \"input_reads\": {}, \"spill_reads\": {}, \"tree_nodes\": {}, \"failures\": {}}}",
                r.algo,
                r.time.as_secs_f64(),
                r.scans,
                r.input_reads,
                r.spill_reads,
                r.tree.n_nodes(),
                r.failed_nodes,
            ));
        }
    }
    table.print(csv);
    println!("\npaper shape: BOAT's time (and scan count) is flat in the noise level.");

    let snapshot = boat_obs::Registry::global().snapshot();
    print_metrics_summary(&snapshot);
    let mut report = BenchReport::new("noise");
    report
        .field_str("function", &format!("F{function}"))
        .field_u64("tuples", n)
        .field_u64("seed", seed)
        .field_bool("identical_trees_asserted", true)
        .field_raw("results", json_array(&rows_json))
        .metrics(&snapshot);
    report.write(&out)?;
    Ok(())
}

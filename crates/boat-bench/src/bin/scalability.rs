//! Figures 4–6: overall construction time as the training database grows,
//! BOAT vs RF-Hybrid vs RF-Vertical, for Functions 1, 6 and 7.
//!
//! Paper setup (§5.2): 2–10 M tuples, growth stopped at 1.5 M-tuple
//! families, RF buffers of 3 M / 1.8 M AVC entries. Default here: 1/100
//! scale (20–100 k tuples, stop at 15 k), budgets scaled the same way.
//!
//! ```sh
//! cargo run --release -p boat-bench --bin scalability -- --function 1
//! cargo run --release -p boat-bench --bin scalability -- --function 6 --sizes 50000,100000
//! ```

use boat_bench::obs::json_array;
use boat_bench::run::paper_limits;
use boat_bench::table::fmt_duration;
use boat_bench::{
    materialize_cached, print_metrics_summary, rf_budgets, run_boat, run_rf_hybrid,
    run_rf_vertical, run_rf_write, Args, BenchReport, Table,
};
use boat_datagen::{GeneratorConfig, LabelFunction};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let function = args.get::<u32>("function", 1);
    let sizes = args.get_list("sizes", &[20_000, 40_000, 60_000, 80_000, 100_000]);
    let seed = args.get::<u64>("seed", 424_242);
    let csv = args.flag("csv");
    let out = args.get_str("out", "BENCH_scalability.json");
    let func = LabelFunction::from_number(function).expect("--function must be 1..=10");
    let max_n = *sizes.iter().max().expect("at least one size");
    let limits = paper_limits(max_n);

    let fig = match function {
        1 => "Figure 4",
        6 => "Figure 5",
        7 => "Figure 6",
        _ => "(custom function)",
    };
    println!(
        "# {fig}: Overall Time, F{function} — sizes {sizes:?}, growth stopped at \
         families <= {}\n",
        limits.stop_family_size.unwrap()
    );

    let mut table = Table::new(&[
        "tuples",
        "algo",
        "time",
        "scans",
        "input reads",
        "spill reads",
        "nodes",
        "failures",
    ]);
    let mut rows_json: Vec<String> = Vec::new();
    for &n in &sizes {
        let gen = GeneratorConfig::new(func).with_seed(seed);
        let data = materialize_cached(&gen, n, &format!("scal-f{function}-{seed}"))?;
        let (hybrid_budget, vertical_budget) = rf_budgets(n, 0);

        let mut results = vec![
            run_boat(&data, limits, seed ^ n)?,
            run_rf_hybrid(&data, limits, hybrid_budget)?,
            run_rf_vertical(&data, limits, vertical_budget)?,
        ];
        if args.flag("rf-write") {
            results.push(run_rf_write(&data, limits, hybrid_budget)?);
        }
        for pair in results.windows(2) {
            assert_eq!(
                pair[0].tree, pair[1].tree,
                "algorithms must build the same tree"
            );
        }
        for r in &results {
            table.row(vec![
                n.to_string(),
                r.algo.to_string(),
                fmt_duration(r.time),
                r.scans.to_string(),
                r.input_reads.to_string(),
                r.spill_reads.to_string(),
                r.tree.n_nodes().to_string(),
                r.failed_nodes.to_string(),
            ]);
            rows_json.push(format!(
                "{{\"tuples\": {n}, \"algo\": \"{}\", \"seconds\": {:.6}, \"scans\": {}, \
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
    println!(
        "\npaper shape: BOAT ~2-3x faster than RF-Hybrid, RF-Vertical slowest; the gap \
         widens with size; identical trees throughout (asserted)."
    );

    let snapshot = boat_obs::Registry::global().snapshot();
    print_metrics_summary(&snapshot);
    let mut report = BenchReport::new("scalability");
    report
        .field_str("function", &format!("F{function}"))
        .field_raw(
            "sizes",
            format!(
                "[{}]",
                sizes
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .field_u64("seed", seed)
        .field_bool("identical_trees_asserted", true)
        .field_raw("results", json_array(&rows_json))
        .metrics(&snapshot);
    report.write(&out)?;
    Ok(())
}

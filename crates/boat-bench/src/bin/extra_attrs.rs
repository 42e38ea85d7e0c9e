//! Figures 10–11: effect of adding random (predictively useless) attributes
//! (paper §5.2).
//!
//! Extra attributes increase the work per tuple — every algorithm must
//! process them — but never change the final tree (the split selection
//! never picks them). The paper reports a roughly linear scale-up for BOAT.
//!
//! ```sh
//! cargo run --release -p boat-bench --bin extra_attrs -- --function 1
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
    let extras = args.get_list("extras", &[0, 2, 4, 6, 8]);
    let seed = args.get::<u64>("seed", 88_888);
    let csv = args.flag("csv");
    let out = args.get_str("out", "BENCH_extra_attrs.json");
    let func = LabelFunction::from_number(function).expect("--function must be 1..=10");
    let limits = paper_limits(n * 2);

    let fig = match function {
        1 => "Figure 10",
        6 => "Figure 11",
        _ => "(custom function)",
    };
    println!("# {fig}: Extra Attributes vs Time, F{function} — n = {n}, extras {extras:?}\n");

    let mut table = Table::new(&[
        "extras",
        "algo",
        "time",
        "scans",
        "input reads",
        "spill reads",
        "nodes",
        "failures",
    ]);
    let mut base_nodes: Option<usize> = None;
    let mut rows_json: Vec<String> = Vec::new();
    for &k in &extras {
        let gen = GeneratorConfig::new(func)
            .with_seed(seed)
            .with_extra_attrs(k as usize);
        let data = materialize_cached(&gen, n, &format!("extra-f{function}-{seed}-{k}"))?;
        let (hybrid_budget, vertical_budget) = rf_budgets(n, k as usize);
        let results = [
            run_boat(&data, limits, seed ^ k)?,
            run_rf_hybrid(&data, limits, hybrid_budget)?,
            run_rf_vertical(&data, limits, vertical_budget)?,
        ];
        for pair in results.windows(2) {
            assert_eq!(
                pair[0].tree, pair[1].tree,
                "algorithms must build the same tree"
            );
        }
        // Extra attributes must not change the tree *shape* (they are
        // never selected), only the cost.
        match base_nodes {
            None => base_nodes = Some(results[0].tree.n_nodes()),
            Some(b) => assert_eq!(
                results[0].tree.n_nodes(),
                b,
                "random attributes must not change the tree"
            ),
        }
        for r in &results {
            table.row(vec![
                k.to_string(),
                r.algo.to_string(),
                fmt_duration(r.time),
                r.scans.to_string(),
                r.input_reads.to_string(),
                r.spill_reads.to_string(),
                r.tree.n_nodes().to_string(),
                r.failed_nodes.to_string(),
            ]);
            rows_json.push(format!(
                "{{\"extras\": {k}, \"algo\": \"{}\", \"seconds\": {:.6}, \"scans\": {}, \
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
    println!("\npaper shape: roughly linear scale-up in the number of extra attributes.");

    let snapshot = boat_obs::Registry::global().snapshot();
    print_metrics_summary(&snapshot);
    let mut report = BenchReport::new("extra_attrs");
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

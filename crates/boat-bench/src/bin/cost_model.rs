//! Cost-model check: one clean BOAT fit on a materialized on-disk dataset,
//! with the paper's cost claims asserted directly against the run's
//! `boat-obs` metrics snapshot rather than eyeballed from a table:
//!
//! 1. **Two scans** (paper §3.4): a clean fit makes exactly 2 sequential
//!    scans over the input — sampling + cleanup — with no failed node;
//!    `BoatRunStats::scans_over_input` must equal the `data.input.scans`
//!    I/O counter.
//! 2. **Bounded spill**: the cleanup phase writes only parked/frontier
//!    tuples to temporary files, so spill traffic is bounded by the input
//!    traffic (`data.spill.bytes_written <= data.input.bytes_read`).
//! 3. **Span coverage**: the per-phase wall-time spans
//!    (`boat.phase.*`) account for 90–100 % of the measured fit wall
//!    time — the instrumentation sees where the time goes, and no phase
//!    is counted twice.
//! 4. **One read per spilled tuple**: on a fit without failed nodes, every
//!    spilled parked or family tuple is read back once (verification reads
//!    each parked set once and routes the same records on), so
//!    `data.spill.records_read <= data.spill.records_written`.
//!
//! Exits non-zero if any invariant fails; writes `BENCH_cost_model.json`
//! with the checked values and the full metrics snapshot.
//!
//! ```sh
//! cargo run --release -p boat-bench --bin cost_model -- --tuples 100000
//! ```

use boat_bench::run::{paper_limits, run_boat};
use boat_bench::table::fmt_duration;
use boat_bench::{materialize_cached, print_metrics_summary, Args, BenchReport};
use boat_datagen::{GeneratorConfig, LabelFunction};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let n = args.get::<u64>("tuples", 100_000);
    let function = args.get::<u32>("function", 1);
    let seed = args.get::<u64>("seed", 606_060);
    let out = args.get_str("out", "BENCH_cost_model.json");
    let func = LabelFunction::from_number(function).expect("--function must be 1..=10");
    let limits = paper_limits(n);

    println!(
        "# Cost-model check — F{function}, {n} tuples, stop at {}\n",
        { limits.stop_family_size.unwrap() }
    );

    let gen = GeneratorConfig::new(func).with_seed(seed);
    let data = materialize_cached(&gen, n, &format!("costmodel-f{function}-{seed}"))?;
    let r = run_boat(&data, limits, seed)?;
    let m = &r.metrics;

    let mut ok = true;
    let mut check = |name: &str, passed: bool, detail: String| {
        ok &= passed;
        println!(
            "[{}] {name}: {detail}",
            if passed { "PASS" } else { "FAIL" }
        );
        passed
    };

    // 1. Exactly two sequential scans over the input for a clean fit.
    let input_scans = m.counter("data.input.scans");
    check(
        "two-scan construction",
        r.failed_nodes == 0 && r.scans == input_scans && input_scans == 2,
        format!(
            "stats.scans_over_input={} data.input.scans={input_scans} failed_nodes={} \
             (want 2/2 with 0 failures)",
            r.scans, r.failed_nodes
        ),
    );

    // 2. Spill stays within budget: temporary-file writes are a subset of
    //    the tuples the cleanup scan saw, so spill bytes written must not
    //    exceed input bytes read.
    let input_bytes = m.counter("data.input.bytes_read");
    let spill_bytes = m.counter("data.spill.bytes_written");
    check(
        "bounded spill",
        spill_bytes <= input_bytes && input_bytes > 0,
        format!("data.spill.bytes_written={spill_bytes} <= data.input.bytes_read={input_bytes}"),
    );

    // 3. Phase spans cover 90–100% of the measured fit wall time. The
    //    phases run one after another and do not nest, so their sum cannot
    //    exceed the wall time; more than 100% means a phase counted twice.
    let phase_ns = m.histogram_sum_by_prefix("boat.phase.");
    let wall_ns = r.time.as_nanos() as u64;
    let coverage = phase_ns as f64 / wall_ns as f64;
    check(
        "phase-span coverage",
        (0.90..=1.00).contains(&coverage),
        format!(
            "boat.phase.* spans sum to {} of {} fit wall time ({:.1}% in [90%, 100%])",
            fmt_duration(std::time::Duration::from_nanos(phase_ns)),
            fmt_duration(r.time),
            coverage * 100.0
        ),
    );

    // 4. Spilled tuples are read back at most once on a clean fit.
    let spill_read = m.counter("data.spill.records_read");
    let spill_written = m.counter("data.spill.records_written");
    check(
        "one read per spilled tuple",
        r.failed_nodes > 0 || spill_read <= spill_written,
        format!(
            "data.spill.records_read={spill_read} <= data.spill.records_written={spill_written} \
             (checked when failed_nodes=0; failed_nodes={})",
            r.failed_nodes
        ),
    );

    let prepare_ms = m
        .histogram("boat.phase.prepare")
        .map_or(0.0, |h| h.sum as f64 / 1e6);

    print_metrics_summary(m);

    let mut report = BenchReport::new("cost_model");
    report
        .field_str("function", &format!("F{function}"))
        .field_u64("tuples", n)
        .field_u64("seed", seed)
        .field_f64("fit_seconds", r.time.as_secs_f64())
        .field_u64("scans_over_input", r.scans)
        .field_u64("failed_nodes", r.failed_nodes)
        .field_u64("input_bytes_read", input_bytes)
        .field_u64("spill_bytes_written", spill_bytes)
        .field_u64("spill_records_read", spill_read)
        .field_u64("spill_records_written", spill_written)
        .field_f64("prepare_ms", prepare_ms)
        .field_f64("phase_span_coverage", coverage)
        .field_bool("all_invariants_hold", ok)
        .metrics(m);
    report.write(&out)?;

    if !ok {
        eprintln!("\ncost-model invariant violated — see FAIL lines above");
        std::process::exit(1);
    }
    println!("\nall cost-model invariants hold.");
    Ok(())
}

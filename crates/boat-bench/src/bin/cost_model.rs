//! Cost-model check: one clean BOAT fit on a materialized on-disk dataset,
//! with the paper's cost claims asserted directly against the run's
//! `boat-obs` metrics snapshot rather than eyeballed from a table:
//!
//! 1. **Two scans** (paper §3.4): a clean fit makes exactly 2 sequential
//!    scans over the input — sampling + cleanup — checked three ways
//!    (`BoatRunStats::scans_over_input`, the `boat.fit.input_scans`
//!    counter, and the `data.input.scans` I/O counter all agree).
//! 2. **Bounded spill**: the cleanup phase writes only parked/frontier
//!    tuples to temporary files, so spill traffic is bounded by the input
//!    traffic (`data.spill.bytes_written <= data.input.bytes_read`).
//! 3. **Span coverage**: the per-phase wall-time spans
//!    (`boat.phase.*`) account for at least 90 % of the measured fit wall
//!    time — the instrumentation sees where the time goes.
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
use boat_data::IoStats;
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
    let data = materialize_cached(
        &gen,
        n,
        &format!("costmodel-f{function}-{seed}"),
        IoStats::new(),
    )?;
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
    let fit_scans = m.counter("boat.fit.input_scans");
    check(
        "two-scan construction",
        r.failed_nodes == 0 && r.scans == 2 && input_scans == 2 && fit_scans == 2,
        format!(
            "stats.scans={} boat.fit.input_scans={fit_scans} data.input.scans={input_scans} \
             failed_nodes={} (want 2/2/2 with 0 failures)",
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

    // 3. Phase spans cover >= 90% of the measured fit wall time. (Recursive
    //    sub-runs record into the same registry, so coverage can exceed
    //    100% — this is a floor, not an identity.)
    let phase_ns = m.histogram_sum_by_prefix("boat.phase.");
    let wall_ns = r.time.as_nanos() as u64;
    let coverage = phase_ns as f64 / wall_ns as f64;
    check(
        "phase-span coverage",
        coverage >= 0.90,
        format!(
            "boat.phase.* spans sum to {} of {} fit wall time ({:.1}% >= 90%)",
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

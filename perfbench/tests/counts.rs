//! Fixed-seed checks of the three workloads at a small scale: every run is
//! correct, the counts the cost model promises hold, and every count a
//! traced run reports repeats exactly between two runs.

use perfbench::fit::FitParams;
use perfbench::report::{Outcome, PER_LAYER};
use perfbench::rundir::RunDir;
use perfbench::serve::ServeParams;
use perfbench::stream::StreamParams;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A scratch root per test, inside the checkout.
fn root(test: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.perfbench_tmp")
        .join(format!("test-{test}"))
}

fn traced(test: &str, run: impl Fn(&Path) -> Outcome) -> Outcome {
    let dir = RunDir::create(&root(test)).expect("run directory");
    let out = run(dir.path());
    drop(dir);
    std::fs::remove_dir(root(test)).ok();
    assert!(
        out.correct(),
        "{test}: {} of {} failed: {:?}",
        out.failed,
        out.attempted,
        out.errors()
    );
    out
}

/// Metrics that count work rather than time it. The WAL's fsync count is
/// left out: the appender batches fsyncs over whatever arrived together,
/// which depends on timing.
fn counts() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .filter(|d| matches!(d.unit, "count" | "MB" | "KB" | "bytes" | "ratio"))
        .map(|d| d.name)
        .filter(|n| *n != "data.wal_fsyncs")
}

fn assert_counts_repeat(a: &Outcome, b: &Outcome) {
    for name in counts() {
        assert_eq!(a.get(name), b.get(name), "{name} differs between two runs");
    }
}

fn small_fit() -> FitParams {
    FitParams {
        rows: 60_000,
        sample: 4_000,
        bootstrap_reps: 10,
        bootstrap_size: 1_000,
        seconds: 0.0,
    }
}

#[test]
fn fit_scans_its_input_twice_and_repeats_its_counts() {
    let run = |dir: &Path| perfbench::fit::run(&small_fit(), 7, true, dir).expect("fit");
    let a = traced("fit", run);
    let b = traced("fit", run);
    assert_eq!(a.get("data.input_scans"), Some(2.0));
    assert_eq!(a.attempted, b.attempted);
    assert_counts_repeat(&a, &b);
}

fn small_stream() -> StreamParams {
    StreamParams {
        base: 4_000,
        chunk: 200,
        models: 2,
        open_ops: 6,
        drain_ops: 3,
    }
}

#[test]
fn stream_maintains_once_per_op_and_repeats_its_counts() {
    let run = |dir: &Path| perfbench::stream::run(&small_stream(), 11, true, dir).expect("stream");
    let a = traced("stream", run);
    let b = traced("stream", run);
    assert_eq!(a.get("core.maintains"), Some(18.0));
    assert_counts_repeat(&a, &b);
}

#[test]
fn stream_reports_every_end_to_end_metric() {
    let dir = RunDir::create(&root("stream-e2e")).expect("run directory");
    let out = perfbench::stream::run(&small_stream(), 3, false, dir.path()).expect("stream");
    drop(dir);
    std::fs::remove_dir(root("stream-e2e")).ok();
    assert!(out.correct(), "{:?}", out.errors());
    let line = out
        .to_json(false)
        .expect("every end-to-end metric measured");
    assert!(line.contains("\"records_per_s\""));
}

fn small_serve() -> ServeParams {
    ServeParams {
        train: 8_000,
        probes: 2_000,
        large: 500,
        open: Duration::from_millis(200),
        batch: Duration::from_millis(100),
        proof: Duration::from_millis(100),
    }
}

#[test]
fn serve_checks_every_label_and_proof_and_repeats_its_counts() {
    let run = |dir: &Path| perfbench::serve::run(&small_serve(), 5, true, dir).expect("serve");
    let a = traced("serve", run);
    let b = traced("serve", run);
    assert!(a.get("serve.tree_nodes").is_some_and(|n| n > 100.0));
    assert!(a.get("proof.request_p50_ms").is_some_and(|t| t > 0.0));
    assert_counts_repeat(&a, &b);
}

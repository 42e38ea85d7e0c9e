//! End-to-end and per-layer benchmark of the BOAT workspace.
//!
//! Three workloads, one per end-to-end path of the system (see README.md):
//! [`fit`] (out-of-core two-scan construction), [`stream`] (append to
//! visible under a staleness bound) and [`serve`] (online and batch
//! scoring). The benchmark drives only public calls of boat-data,
//! boat-tree, boat-core, boat-serve and boat-proof; boat-datagen makes the
//! inputs during set-up.

pub mod fit;
pub mod probes;
pub mod report;
pub mod rundir;
pub mod serve;
pub mod stats;
pub mod stream;

use std::time::{Duration, Instant};

/// Set-ups per run: at least this many…
const MIN_SETUPS: usize = 3;
/// …and more, up to [`MAX_SETUPS`], until they have taken this long.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MAX_SETUPS: usize = 9;

/// Run a workload's set-up several times and keep the last result; returns
/// the median set-up wall time in seconds. Each earlier result is dropped
/// before the next set-up starts, so set-ups never overlap in memory.
pub fn repeat_setup<T, E>(mut setup: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), last.expect("at least one set-up")))
}

/// Sleep until `due` (never spin: a spinning load generator would take a
/// core from the program on a small machine). Returns how late the caller
/// got back, which is zero or more.
pub fn sleep_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

//! Run statistics reported by BOAT.
//!
//! The paper's claims are about scan counts and where the time goes;
//! [`BoatRunStats`] captures both for every `fit` and incremental update so
//! the bench harness can print them next to wall time.

use boat_data::IoSnapshot;
use boat_obs::Snapshot;
use std::time::Duration;

/// Statistics of one BOAT construction (or incremental maintenance) run.
#[derive(Debug, Clone, Default)]
pub struct BoatRunStats {
    /// Sequential scans made over the *input* training database (sampling
    /// scan + cleanup scan + any collection scan), read from the input's
    /// I/O counters (`io.scans`, `data.input.scans`). The paper's headline:
    /// typically 2.
    pub scans_over_input: u64,
    /// Records actually drawn into the in-memory sample `D'`.
    pub sample_records: u64,
    /// Nodes of the coarse tree produced by bootstrapping (internal +
    /// frontier).
    pub coarse_nodes: u64,
    /// Coarse internal nodes whose criterion was verified correct.
    pub verified_nodes: u64,
    /// Coarse nodes whose criterion failed verification (paper: rare).
    pub failed_nodes: u64,
    /// Tuples parked in confidence-interval buffers (`Σ|S_n|`).
    pub parked_tuples: u64,
    /// Parked/frontier tuples that overflowed to temporary files.
    pub spilled_tuples: u64,
    /// Families finished with the in-memory builder: the whole input on
    /// the small-input fast path, or each completion job's family.
    pub inmem_builds: u64,
    /// Completion jobs actually executed (subtrees grown or regrown in
    /// memory) — reusable jobs whose grown subtree is provably unchanged
    /// are skipped and not counted.
    pub jobs_executed: u64,
    /// Wall time of the sampling + bootstrap phase.
    pub sampling_time: Duration,
    /// Wall time of the cleanup scan.
    pub cleanup_time: Duration,
    /// Wall time of verification + finishing work.
    pub postprocess_time: Duration,
    /// I/O over the *input* training database: the run's delta of the
    /// source's `data.input.*` counters.
    pub io: IoSnapshot,
    /// I/O over temporary files (parked sets `S_n`, retained families):
    /// the `data.spill.*` counters of `metrics`.
    pub spill_io: IoSnapshot,
    /// Full observability snapshot of the run: the delta of the owning
    /// `Boat`'s metric registry over this fit (phase spans, verification
    /// verdicts, cleanup-shard timers, input/spill I/O counters). Lets
    /// tests assert cost-model invariants — "exactly 2 full scans",
    /// "spilled bytes ≤ budget" — instead of only tree equality.
    pub metrics: Snapshot,
}

impl BoatRunStats {
    /// Total wall time across phases.
    pub fn total_time(&self) -> Duration {
        self.sampling_time + self.cleanup_time + self.postprocess_time
    }
}

impl std::fmt::Display for BoatRunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scans={} coarse={} verified={} failed={} parked={} spilled={} \
             inmem={} time={:?}",
            self.scans_over_input,
            self.coarse_nodes,
            self.verified_nodes,
            self.failed_nodes,
            self.parked_tuples,
            self.spilled_tuples,
            self.inmem_builds,
            self.total_time()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_scans() {
        let s = BoatRunStats {
            scans_over_input: 2,
            ..Default::default()
        };
        assert!(s.to_string().contains("scans=2"));
    }
}

//! BOAT configuration.

use boat_tree::GrowthLimits;

/// How discretization buckets are laid out for the lower-bound checks
/// (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiscretizeStrategy {
    /// Equi-depth buckets: boundaries at sample quantiles. Simple and
    /// robust; an ablation baseline.
    EquiDepth {
        /// Number of buckets.
        buckets: usize,
    },
    /// The paper's adaptive scheme: walk the sample's attribute values in
    /// order and close a bucket as soon as its corner lower bound falls
    /// within `slack` of the node's estimated minimum impurity — fine
    /// buckets where the impurity curve flirts with the minimum, coarse
    /// buckets elsewhere.
    Adaptive {
        /// Upper limit on buckets per (node, attribute).
        max_buckets: usize,
        /// Relative slack over the estimated minimum impurity below which a
        /// bucket is considered "too close to the minimum" and closed.
        slack: f64,
    },
}

impl Default for DiscretizeStrategy {
    fn default() -> Self {
        // 256 buckets ≈ 4 KiB per (node, attribute, 2 classes): still tiny
        // next to an AVC-set, and fine enough that flat impurity valleys
        // (e.g. the paper's Function 7) do not trip false alarms.
        DiscretizeStrategy::Adaptive {
            max_buckets: 256,
            slack: 0.20,
        }
    }
}

/// How the bootstrap trees must agree for a coarse criterion to be kept
/// (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgreementRule {
    /// The paper's rule: all `b` bootstrap trees must agree on the
    /// splitting attribute (and, for categorical attributes, the exact
    /// subset). Appropriate when resamples are large (the paper used
    /// 50 000-tuple resamples).
    Unanimous,
    /// Keep the criterion when at least `quorum` (a fraction of the trees
    /// still under consideration) share the modal choice; dissenting trees
    /// are dropped from the subtree. Strictly safe — the cleanup-phase
    /// verification, not the agreement rule, is what guarantees the exact
    /// tree — and far more robust at small sample sizes, where even a
    /// clearly-best split flips in a few percent of resamples.
    Majority {
        /// Required fraction of agreeing trees in `(0.5, 1.0]`.
        quorum: f64,
    },
}

impl Default for AgreementRule {
    fn default() -> Self {
        AgreementRule::Majority { quorum: 0.6 }
    }
}

/// Tuning parameters of the BOAT algorithm (paper §3, defaults mirror the
/// §5.1 experimental setup at a configurable scale).
#[derive(Debug, Clone)]
pub struct BoatConfig {
    /// Size of the in-memory sample `D'` drawn in the sampling scan.
    /// The paper uses 200 000 of 2–10 M tuples.
    pub sample_size: usize,
    /// Number of bootstrap repetitions `b` (paper: 20).
    pub bootstrap_reps: usize,
    /// Size of each bootstrap resample (paper: 50 000 = ¼ of the sample).
    pub bootstrap_sample_size: usize,
    /// Fraction of the `b` bootstrap split points trimmed from *each* end
    /// before taking the confidence interval (0.0 = the full min..max
    /// range). Wider intervals park more tuples but fail less often.
    pub confidence_trim: f64,
    /// The in-memory switch (§3.5), in tuples. It has two uses: an input
    /// of at most this many tuples is fit in memory in one scan, and the
    /// bootstrap stops growing the coarse tree at families this small.
    /// Completion families are gathered in memory, so they always finish
    /// with the in-memory builder whatever their size, in a fit and in a
    /// maintained model alike.
    pub in_memory_threshold: u64,
    /// Per-node in-memory budget (records) for parked-tuple buffers before
    /// they spill to temporary files.
    pub spill_budget: usize,
    /// Discretization strategy for the lower-bound checks.
    pub discretize: DiscretizeStrategy,
    /// Bootstrap agreement rule.
    pub agreement: AgreementRule,
    /// Stopping rules, shared verbatim with the reference builder.
    pub limits: GrowthLimits,
    /// Seed for sampling and bootstrapping.
    pub seed: u64,
    /// Worker threads for the cleanup scan. `0` means "use the machine's
    /// available parallelism"; `1` runs the same fan-out with one router.
    /// The output is bit-identical at every thread count (the shard merge
    /// is exact), so this is purely a performance knob.
    pub cleanup_threads: usize,
    /// Records per chunk handed to a cleanup worker. Large enough to
    /// amortize channel traffic, small enough to keep all workers busy.
    pub cleanup_chunk_size: usize,
    /// Directory for spill temporary files (parked sets and retained
    /// families). `None` (default) uses [`std::env::temp_dir`]. The first
    /// spill into a directory also sweeps temp files orphaned there by dead
    /// processes.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Fraction of a node's rows the columnar engine's confidence-gated
    /// split search sub-samples as exact boundary candidates before corner
    /// bounds (Lemma 3.1) prune the gaps between them (see
    /// `boat_tree::subsample`). `0.0` disables the gate; any enabled value
    /// yields **bit-identical trees** (the gate only prunes candidates it
    /// *proves* lose, and falls back to the exact sweep otherwise), so this
    /// is purely a performance knob.
    pub split_subsample: f64,
    /// Nodes with fewer member rows than this skip the subsampled search
    /// and run the exact sweep directly (small nodes are cheap; the gate's
    /// counting pass would be pure overhead).
    pub split_subsample_min_node: usize,
}

impl Default for BoatConfig {
    fn default() -> Self {
        BoatConfig {
            sample_size: 20_000,
            bootstrap_reps: 20,
            bootstrap_sample_size: 5_000,
            confidence_trim: 0.0,
            in_memory_threshold: 10_000,
            spill_budget: 4_096,
            discretize: DiscretizeStrategy::default(),
            agreement: AgreementRule::default(),
            limits: GrowthLimits::default(),
            seed: 0xB0A7,
            cleanup_threads: 0,
            cleanup_chunk_size: 8_192,
            spill_dir: None,
            split_subsample: 1.0 / 16.0,
            split_subsample_min_node: 256,
        }
    }
}

impl BoatConfig {
    /// Scale the sampling parameters the way the paper's §5.1 setup relates
    /// to its dataset sizes: an in-memory sample of ~5 % of `n` (the paper
    /// used 200 k of up to 10 M — as much as memory allowed), 20 bootstrap
    /// repetitions of a quarter-sample, and the in-memory switch at 15 % of
    /// `n`. Small datasets get floors that keep the bootstrap stable.
    pub fn scaled_for(n: u64) -> Self {
        // A tenth of the data (capped at 4 Mi records). Proportionally more
        // than the paper's 2 % — at laptop scale, *absolute* per-node
        // sample counts are what keep bootstrap agreement and verification
        // failure rates at the paper's levels, and the paper's 200 k sample
        // had far larger absolute counts at every node.
        let sample = ((n / 10).max(4_000) as usize).min(1 << 22);
        BoatConfig {
            sample_size: sample,
            bootstrap_sample_size: (sample / 4).max(2_000),
            in_memory_threshold: (n * 3 / 20).max(1_000),
            ..Self::default()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style limits override.
    pub fn with_limits(mut self, limits: GrowthLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Builder-style cleanup-thread override (`0` = auto-detect).
    pub fn with_cleanup_threads(mut self, threads: usize) -> Self {
        self.cleanup_threads = threads;
        self
    }

    /// Builder-style spill-directory override.
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builder-style subsample-fraction override (`0.0` = gate off).
    pub fn with_split_subsample(mut self, fraction: f64) -> Self {
        self.split_subsample = fraction;
        self
    }

    /// Builder-style subsample minimum-node-size override.
    pub fn with_split_subsample_min_node(mut self, min_node: usize) -> Self {
        self.split_subsample_min_node = min_node;
        self
    }

    /// The subsample gate parameters this config denotes, or `None` when
    /// the gate is disabled.
    pub fn subsample_params(&self) -> Option<boat_tree::SubsampleParams> {
        (self.split_subsample > 0.0).then_some(boat_tree::SubsampleParams {
            fraction: self.split_subsample,
            min_node: self.split_subsample_min_node,
        })
    }

    /// The worker count the cleanup scan will actually use: the configured
    /// `cleanup_threads`, with `0` resolved to the machine's available
    /// parallelism (and `1` if even that is unknown).
    pub fn effective_cleanup_threads(&self) -> usize {
        match self.cleanup_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            t => t,
        }
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.sample_size == 0 {
            return Err("sample_size must be positive".into());
        }
        if self.bootstrap_reps < 2 {
            return Err("bootstrap_reps must be at least 2".into());
        }
        if self.bootstrap_sample_size == 0 {
            return Err("bootstrap_sample_size must be positive".into());
        }
        if !(0.0..0.5).contains(&self.confidence_trim) {
            return Err("confidence_trim must be in [0, 0.5)".into());
        }
        if let AgreementRule::Majority { quorum } = self.agreement {
            if !(quorum > 0.5 && quorum <= 1.0) {
                return Err("Majority quorum must be in (0.5, 1.0]".into());
            }
        }
        match self.discretize {
            DiscretizeStrategy::EquiDepth { buckets: 0 } => {
                return Err("EquiDepth needs at least one bucket".into())
            }
            DiscretizeStrategy::EquiDepth { .. } => {}
            DiscretizeStrategy::Adaptive { max_buckets, slack } => {
                if max_buckets == 0 {
                    return Err("Adaptive needs max_buckets > 0".into());
                }
                if !slack.is_finite() || slack < 0.0 {
                    return Err("Adaptive slack must be finite and non-negative".into());
                }
            }
        }
        if self.cleanup_chunk_size == 0 {
            return Err("cleanup_chunk_size must be positive".into());
        }
        if !self.split_subsample.is_finite() || !(0.0..=1.0).contains(&self.split_subsample) {
            return Err("split_subsample must be a finite fraction in [0, 1]".into());
        }
        if self.split_subsample > 0.0 && self.split_subsample_min_node < 2 {
            return Err("split_subsample_min_node must be at least 2 when the gate is on".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        BoatConfig::default().validate().unwrap();
    }

    #[test]
    fn scaled_parameters_track_n() {
        let c = BoatConfig::scaled_for(1_000_000);
        assert_eq!(c.sample_size, 100_000);
        assert_eq!(c.bootstrap_sample_size, 25_000);
        assert_eq!(c.in_memory_threshold, 150_000);
        c.validate().unwrap();
        let small = BoatConfig::scaled_for(100);
        assert_eq!(small.sample_size, 4_000);
        small.validate().unwrap();
    }

    #[test]
    fn validation_rejects_nonsense() {
        let cases: Vec<BoatConfig> = vec![
            BoatConfig {
                sample_size: 0,
                ..Default::default()
            },
            BoatConfig {
                bootstrap_reps: 1,
                ..Default::default()
            },
            BoatConfig {
                confidence_trim: 0.5,
                ..Default::default()
            },
            BoatConfig {
                discretize: DiscretizeStrategy::EquiDepth { buckets: 0 },
                ..Default::default()
            },
            BoatConfig {
                discretize: DiscretizeStrategy::Adaptive {
                    max_buckets: 8,
                    slack: -1.0,
                },
                ..Default::default()
            },
            BoatConfig {
                agreement: AgreementRule::Majority { quorum: 0.5 },
                ..Default::default()
            },
            BoatConfig {
                cleanup_chunk_size: 0,
                ..Default::default()
            },
            BoatConfig {
                split_subsample: -0.1,
                ..Default::default()
            },
            BoatConfig {
                split_subsample: f64::NAN,
                ..Default::default()
            },
            BoatConfig {
                split_subsample: 1.5,
                ..Default::default()
            },
            BoatConfig {
                split_subsample_min_node: 1,
                ..Default::default()
            },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
        let full_quorum = BoatConfig {
            agreement: AgreementRule::Majority { quorum: 1.0 },
            ..Default::default()
        };
        assert!(full_quorum.validate().is_ok());
    }

    #[test]
    fn spill_dir_defaults_to_temp_and_builds() {
        assert!(BoatConfig::default().spill_dir.is_none());
        let c = BoatConfig::default().with_spill_dir("/tmp/boat-spills");
        assert_eq!(
            c.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/boat-spills"))
        );
        c.validate().unwrap();
    }

    #[test]
    fn subsample_gate_is_on_by_default_and_can_be_disabled() {
        let c = BoatConfig::default();
        assert_eq!(c.split_subsample, 1.0 / 16.0);
        assert_eq!(c.split_subsample_min_node, 256);
        let params = c.subsample_params().expect("gate on by default");
        assert_eq!(params.fraction, 1.0 / 16.0);
        assert_eq!(params.min_node, 256);
        let off = BoatConfig::default().with_split_subsample(0.0);
        assert!(off.subsample_params().is_none());
        off.validate().unwrap();
        // min_node is unchecked while the gate is off.
        let off_tiny = BoatConfig::default()
            .with_split_subsample(0.0)
            .with_split_subsample_min_node(0);
        off_tiny.validate().unwrap();
        let custom = BoatConfig::default()
            .with_split_subsample(0.25)
            .with_split_subsample_min_node(64);
        custom.validate().unwrap();
        assert_eq!(custom.subsample_params().unwrap().min_node, 64);
    }

    #[test]
    fn effective_cleanup_threads_resolves_auto() {
        let auto = BoatConfig::default();
        assert_eq!(auto.cleanup_threads, 0, "default is auto-detect");
        assert!(auto.effective_cleanup_threads() >= 1);
        let fixed = BoatConfig::default().with_cleanup_threads(4);
        assert_eq!(fixed.effective_cleanup_threads(), 4);
    }
}

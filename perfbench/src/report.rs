//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints every declared metric of its kind: all end-to-end
//! metrics with `--trace 0`, all per-layer metrics with `--trace 1`. The
//! end-to-end names are workload-neutral, so each one is measured on every
//! workload's own path (see README.md). A per-layer metric whose layer a
//! workload never enters reads 0: that layer did no work there.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Decl] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("p50_ms", "ms"),
    higher("records_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Decl] = &[
    // boat-data
    lower("data.scan_ms", "ms"),
    lower("data.input_scans", "count"),
    lower("data.input_mb", "MB"),
    lower("data.spill_write_mb", "MB"),
    lower("data.spill_read_mb", "MB"),
    lower("data.wal_append_us", "us"),
    lower("data.wal_fsyncs", "count"),
    lower("data.wal_mb", "MB"),
    // boat-tree
    lower("tree.columnar_build_ms", "ms"),
    lower("tree.nodes", "count"),
    // boat-core
    lower("core.coarse_ms", "ms"),
    lower("core.sampling_ms", "ms"),
    lower("core.cleanup_ms", "ms"),
    lower("core.postprocess_ms", "ms"),
    lower("core.parked_tuples", "count"),
    lower("core.spilled_tuples", "count"),
    lower("core.failed_nodes", "count"),
    lower("core.jobs_executed", "count"),
    lower("core.append_to_absorb_ms", "ms"),
    lower("core.absorb_to_visible_ms", "ms"),
    lower("core.insert_ms", "ms"),
    lower("core.delete_ms", "ms"),
    lower("core.maintain_p50_ms", "ms"),
    lower("core.maintain_p90_ms", "ms"),
    lower("core.maintains", "count"),
    lower("core.regrown_subtrees", "count"),
    lower("core.maintain_failed_share", "ratio"),
    // boat-serve
    lower("serve.compile_ms", "ms"),
    lower("serve.publish_us", "us"),
    lower("serve.transpose_us_64", "us"),
    lower("serve.score_us_64", "us"),
    lower("serve.transpose_us_4000", "us"),
    lower("serve.score_us_4000", "us"),
    lower("serve.engine_overhead_us", "us"),
    lower("serve.tree_nodes", "count"),
    lower("serve.compiled_kb", "KB"),
    // boat-proof
    lower("proof.commit_ms", "ms"),
    lower("proof.prove_us", "us"),
    lower("proof.verify_us", "us"),
    lower("proof.bytes", "bytes"),
    lower("proof.request_p50_ms", "ms"),
    // Load-generator health (not program metrics).
    lower("stream.generator_late_ms", "ms"),
    lower("serve.generator_late_ms", "ms"),
    // The workload's p50_ms as measured inside the traced run; its ratio
    // to the untraced p50_ms is the tracing overhead.
    lower("trace.p50_ms", "ms"),
    // The same operations' p90. Not an end-to-end metric: on a shared
    // 2-vCPU host a neighbour's burst moves the open-loop p90 thirtyfold.
    lower("trace.p90_ms", "ms"),
];

fn declared(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run measured and how many of its operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    errors: Vec<String>,
}

impl Outcome {
    /// Record a metric. Panics on a name missing from the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(declared(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail_unless(ok, what);
    }

    /// Count a failure (without an attempt) unless `ok`: a correctness
    /// check on operations already counted.
    pub fn fail_unless(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// The first few failure descriptions.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line. Fails if an end-to-end metric is missing, or any
    /// value is not a finite number.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let decls = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(decls.len());
        for d in decls {
            let value = match self.metrics.get(d.name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", d.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", d.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = text.split_whitespace().collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, d.better
            );
            assert!(
                compact.contains(&entry),
                "{} missing from BENCHMARK.json",
                d.name
            );
        }
        let declared = compact.matches("\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut o = Outcome::default();
        o.attempt(true, String::new);
        for d in END_TO_END {
            o.set(d.name, 1.25);
        }
        let line = o.to_json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        // Per-layer metrics a workload never measured read zero.
        let traced = o.to_json(true).unwrap();
        assert!(traced.contains("\"data.wal_fsyncs\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(!traced.contains("setup_s"));

        let mut missing = Outcome::default();
        missing.set("setup_s", 1.0);
        assert!(missing.to_json(false).is_err());
        missing.attempt(false, || "boom".into());
        assert!(!missing.correct());
        assert_eq!(missing.errors(), ["boom"]);
    }
}

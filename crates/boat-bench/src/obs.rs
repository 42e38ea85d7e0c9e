//! `BENCH_*.json` reports with embedded metric snapshots.
//!
//! Every experiment binary ends by writing a small JSON artifact (the
//! tables stay on stdout) that embeds the full `boat-obs` snapshot of the
//! process-global registry. A release bench run therefore leaves
//! machine-checkable evidence of the paper's cost model — scan counts,
//! spill volume, per-phase wall-time spans — next to the headline numbers.
//! JSON is hand-rolled: the workspace deliberately carries no serde.

use crate::Table;
use boat_obs::Snapshot;
use std::fmt::Write as _;
use std::path::Path;

/// Builder for one benchmark's JSON report: ordered `name -> raw JSON
/// value` fields, serialized as a flat object with one field per line.
#[derive(Debug, Clone)]
pub struct BenchReport {
    fields: Vec<(String, String)>,
}

impl BenchReport {
    /// Start a report; `bench` becomes the leading `"bench"` field.
    pub fn new(bench: &str) -> BenchReport {
        let mut report = BenchReport { fields: Vec::new() };
        report.field_str("bench", bench);
        report
    }

    /// Add a field whose value is already-valid JSON (object, array, …).
    pub fn field_raw(&mut self, name: &str, raw: impl Into<String>) -> &mut Self {
        self.fields.push((name.to_string(), raw.into()));
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.field_raw(name, json_str(value))
    }

    /// Add an integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.field_raw(name, value.to_string())
    }

    /// Add a float field (6 decimal places — seconds resolution to µs).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.field_raw(name, format!("{value:.6}"))
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.field_raw(name, value.to_string())
    }

    /// Embed a metrics snapshot as the `"metrics"` field.
    pub fn metrics(&mut self, snap: &Snapshot) -> &mut Self {
        self.field_raw("metrics", snap.to_json())
    }

    /// Serialize the report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.fields.iter().enumerate() {
            let _ = write!(out, "  {}: {}", json_str(name), value);
            out.push_str(if i + 1 == self.fields.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Write the report to `path` and announce it on stdout.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json())?;
        println!("\nwrote {}", path.display());
        Ok(())
    }
}

/// Render a `Vec` of already-serialized JSON values as a multi-line array
/// (the shape the bench artifacts use for their per-row results).
pub fn json_array(items: &[String]) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        let _ = write!(out, "    {item}");
        out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]");
    out
}

/// JSON string literal (quotes included), escaping per RFC 8259.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print the headline cost-model metrics of a snapshot as a human table:
/// input/spill I/O counters, verification verdicts, job counts, and the
/// totals of every `boat.phase.*`, `boat.sample.*` and `boat.cleanup.*`
/// histogram (the cleanup routers' walk and count passes among them). This
/// is the at-a-glance view; the full snapshot goes into the JSON artifact.
pub fn print_metrics_summary(snap: &Snapshot) {
    println!("\n## metrics summary (boat-obs registry)\n");
    let mut table = Table::new(&["metric", "value"]);
    let counter = |name: &str| (name.to_string(), snap.counter(name));
    for (name, value) in [
        counter("boat.fit.runs"),
        counter("data.input.scans"),
        counter("data.input.records_read"),
        counter("data.input.bytes_read"),
        counter("data.spill.records_written"),
        counter("data.spill.bytes_written"),
        counter("data.spill.spill_events"),
        counter("boat.cleanup.records_routed"),
        counter("boat.verify.pass"),
        counter("boat.verify.fail"),
        counter("boat.jobs.executed"),
        counter("boat.jobs.reused"),
        counter("boat.jobs.collection_scans"),
    ] {
        table.row(vec![name, value.to_string()]);
    }
    for (name, hist) in &snap.histograms {
        if !["boat.phase.", "boat.sample.", "boat.cleanup."]
            .iter()
            .any(|prefix| name.starts_with(prefix))
        {
            continue;
        }
        table.row(vec![
            name.clone(),
            format!("{:.1}ms over {} span(s)", hist.sum as f64 / 1e6, hist.count),
        ]);
    }
    // Sampling-engine counters, shown only when a sampling phase ran.
    for name in [
        "boat.sample.columnar_builds",
        "boat.sample.subsample.swept",
        "boat.sample.subsample.pruned",
        "boat.sample.subsample.fallbacks",
        "boat.sample.subsample.exact_points",
    ] {
        let v = snap.counter(name);
        if v > 0 {
            table.row(vec![name.to_string(), v.to_string()]);
        }
    }
    // Serving-path counters/gauges, shown only when a serve ran.
    for name in [
        "serve.records",
        "serve.batches",
        "serve.batches_submitted",
        "serve.snapshot_swaps",
        "serve.rejected",
    ] {
        let v = snap.counter(name);
        if v > 0 {
            table.row(vec![name.to_string(), v.to_string()]);
        }
    }
    for name in [
        "serve.epoch",
        "serve.model_bytes",
        "serve.workers",
        "serve.models",
        "serve.queue_depth",
        "serve.shard.depth_max",
    ] {
        if let Some(v) = snap.gauge(name) {
            table.row(vec![name.to_string(), v.to_string()]);
        }
    }
    // Provenance counters, shown only when commitments or proofs were
    // produced (`boat.proof.commit_ns` prints with the histograms below).
    for name in [
        "boat.proof.commits",
        "boat.proof.commit_errors",
        "boat.proof.nodes_reused",
        "boat.proof.proofs",
        "boat.proof.proof_bytes",
        "boat.proof.proof_failures",
    ] {
        let v = snap.counter(name);
        if v > 0 {
            table.row(vec![name.to_string(), v.to_string()]);
        }
    }
    // Streaming write-path counters/gauges, shown only when a WAL or the
    // maintenance daemon ran.
    for name in [
        "data.wal.segments",
        "data.wal.fsync_batches",
        "data.wal.bytes_written",
        "data.wal.ops_appended",
        "data.wal.records_appended",
        "data.wal.forwarded_ops",
        "data.wal.replayed_ops",
        "data.wal.replayed_bytes",
        "data.wal.torn_tails",
        "boat.stream.trigger_fires",
        "boat.stream.bound_violations",
        "boat.stream.ingest_errors",
    ] {
        let v = snap.counter(name);
        if v > 0 {
            table.row(vec![name.to_string(), v.to_string()]);
        }
    }
    for name in [
        "boat.stream.ingest_depth",
        "boat.stream.staleness_records",
        "boat.stream.wal_bytes",
    ] {
        if let Some(v) = snap.gauge(name) {
            table.row(vec![name.to_string(), v.to_string()]);
        }
    }
    for (name, hist) in &snap.histograms {
        if !(name.starts_with("serve.")
            || name.starts_with("boat.stream.")
            || name.starts_with("boat.proof."))
            || hist.count == 0
        {
            continue;
        }
        // Nanosecond-valued histograms print as total milliseconds; the
        // rest (batch sizes) print as a mean per observation.
        let value = if name.ends_with("_ns") || name == "serve.compile" {
            format!("{:.1}ms over {} span(s)", hist.sum as f64 / 1e6, hist.count)
        } else {
            format!(
                "mean {:.1} over {} obs",
                hist.sum as f64 / hist.count as f64,
                hist.count
            )
        };
        table.row(vec![name.clone(), value]);
    }
    table.row(vec![
        "boat.phase.* total".to_string(),
        format!(
            "{:.1}ms",
            snap.histogram_sum_by_prefix("boat.phase.") as f64 / 1e6
        ),
    ]);
    table.print(false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_fields_in_order() {
        let mut r = BenchReport::new("demo");
        r.field_u64("tuples", 100)
            .field_f64("seconds", 0.25)
            .field_bool("ok", true)
            .field_str("label", "a\"b")
            .field_raw("results", "[1,2]");
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"demo\",\n"));
        assert!(json.contains("\"tuples\": 100"));
        assert!(json.contains("\"seconds\": 0.250000"));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"label\": \"a\\\"b\""));
        assert!(json.contains("\"results\": [1,2]"));
        assert!(json.ends_with("}\n"));
        // The final field carries no trailing comma.
        assert!(!json.contains("[1,2],"));
    }

    #[test]
    fn report_embeds_metrics_snapshot() {
        let reg = boat_obs::Registry::new();
        reg.counter("boat.fit.runs").inc();
        let mut r = BenchReport::new("demo");
        r.metrics(&reg.snapshot());
        let json = r.to_json();
        assert!(json.contains("\"metrics\": {\"counters\":{\"boat.fit.runs\":1}"));
    }

    #[test]
    fn json_array_lines_up() {
        assert_eq!(json_array(&[]), "[]");
        let arr = json_array(&["{\"a\":1}".into(), "{\"a\":2}".into()]);
        assert_eq!(arr, "[\n    {\"a\":1},\n    {\"a\":2}\n  ]");
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn summary_prints_phase_rows() {
        // Smoke: must not panic on an empty snapshot or one with phases.
        print_metrics_summary(&Snapshot::default());
        let reg = boat_obs::Registry::new();
        reg.span("boat.phase.sample").finish();
        print_metrics_summary(&reg.snapshot());
    }
}

//! Named metric registry with a process-global default.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{duration_bounds_ns, Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::span::Span;

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A named collection of [`Counter`]s, [`Gauge`]s and [`Histogram`]s.
///
/// `Registry` is a cheap `Arc` handle: clone it freely into worker threads,
/// sub-builders, or bench harnesses — all clones observe the same metrics.
/// `Registry::new()` creates a private scope (one per `Boat`, so parallel
/// tests never share counters); [`Registry::global`] is the process-wide
/// default for binaries that want one flat namespace.
///
/// Metric names are dotted paths (`"boat.phase.cleanup"`,
/// `"data.input.bytes_read"`). Lookup takes a short `Mutex` on the name map;
/// the returned handles update lock-free, so hot paths should hold on to a
/// handle instead of re-looking it up per event.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Create a fresh, empty, private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide default registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name` with default duration
    /// (nanosecond) bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &duration_bounds_ns())
    }

    /// Get or create the histogram named `name`.
    ///
    /// `bounds` only applies on first creation; later callers get the
    /// existing histogram with its frozen layout.
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Start an RAII timer recording into the duration histogram `name` when
    /// dropped.
    pub fn span(&self, name: &str) -> Span {
        Span::new(self.histogram(name))
    }

    /// Add every counter of `delta` to the counter of the same name here:
    /// how one component's per-run delta (say, an input source's reads)
    /// joins the registry of the run that caused it.
    pub fn add_counters(&self, delta: &Snapshot) {
        let mut map = self.inner.counters.lock().unwrap();
        for (name, &v) in &delta.counters {
            map.entry(name.clone()).or_default().add(v);
        }
    }

    /// Take a point-in-time copy of every metric in this registry.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds: v.bounds().to_vec(),
                        counts: v.bucket_counts(),
                        sum: v.sum(),
                        count: v.count(),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").add(2);
        assert_eq!(reg.counter("a").get(), 3);
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let reg2 = reg.clone();
        reg.counter("shared").inc();
        assert_eq!(reg2.counter("shared").get(), 1);
    }

    #[test]
    fn private_registries_are_isolated() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("x").inc();
        assert_eq!(b.counter("x").get(), 0);
    }

    #[test]
    fn histogram_bounds_frozen_on_first_creation() {
        let reg = Registry::new();
        let h1 = reg.histogram_with("h", &[1, 2, 3]);
        let h2 = reg.histogram_with("h", &[100]);
        assert_eq!(h1.bounds(), h2.bounds());
        assert_eq!(h1.bounds(), &[1, 2, 3]);
    }

    #[test]
    fn span_records_into_named_histogram() {
        let reg = Registry::new();
        {
            let _span = reg.span("timed");
        }
        let snap = reg.snapshot();
        let h = snap.histogram("timed").expect("histogram exists");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn global_is_a_singleton() {
        let before = Registry::global().counter("global.test.events").get();
        Registry::global().counter("global.test.events").inc();
        assert_eq!(
            Registry::global().counter("global.test.events").get(),
            before + 1
        );
    }

    #[test]
    fn add_counters_folds_a_delta_by_name() {
        let source = Registry::new();
        source.counter("data.input.scans").add(3);
        let before = source.snapshot();
        source.counter("data.input.scans").add(2);
        source.counter("data.input.records_read").add(7);
        let run = Registry::new();
        run.counter("data.input.scans").inc();
        run.add_counters(&source.snapshot().since(&before));
        let snap = run.snapshot();
        assert_eq!(snap.counter("data.input.scans"), 3);
        assert_eq!(snap.counter("data.input.records_read"), 7);
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_copies_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(9);
        reg.histogram_with("h", &[10]).record(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.gauge("g"), Some(9));
        assert_eq!(snap.histogram("h").unwrap().sum, 4);
    }
}

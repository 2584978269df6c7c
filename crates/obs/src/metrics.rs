//! Lock-free metrics registry: named atomic counters and gauges.
//!
//! The registry is built single-threaded (the engine registers every
//! metric before spawning workers), then shared immutably; the hot
//! path touches only `AtomicU64`s. The intended discipline — and the
//! one `cbm-store` follows — is coarser still: workers accumulate in
//! plain locals and [`Counter::add`] **deltas** at deterministic drain
//! rendezvous, so steady-state op execution performs no shared-memory
//! traffic at all. Histograms follow the same pattern via
//! [`crate::AtomicHistogram`] (local record, merge at drains).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::AtomicHistogram;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins / running-max atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Raise the gauge to `v` if `v` is larger (running peak).
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named metrics. Registration happens single-threaded;
/// afterwards the registry is shared behind `&`/`Arc` and every
/// operation on the handles is lock-free.
///
/// Registering a name twice returns the same underlying metric, so
/// independent components can share a series.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(&'static str, Arc<Counter>)>,
    gauges: Vec<(&'static str, Arc<Gauge>)>,
    histograms: Vec<(&'static str, Arc<AtomicHistogram>)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &'static str) -> Arc<Counter> {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        self.counters.push((name, Arc::clone(&c)));
        c
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &'static str) -> Arc<Gauge> {
        if let Some((_, g)) = self.gauges.iter().find(|(n, _)| *n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        self.gauges.push((name, Arc::clone(&g)));
        g
    }

    /// Register (or look up) an atomic histogram.
    pub fn histogram(&mut self, name: &'static str) -> Arc<AtomicHistogram> {
        if let Some((_, h)) = self.histograms.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(AtomicHistogram::new());
        self.histograms.push((name, Arc::clone(&h)));
        h
    }

    /// Snapshot every counter and gauge (registration order), then
    /// each histogram expanded into `name.count` / `name.p50` /
    /// `name.p99` / `name.p999` / `name.max` rows.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, c) in &self.counters {
            out.push(((*name).to_string(), c.get()));
        }
        for (name, g) in &self.gauges {
            out.push(((*name).to_string(), g.get()));
        }
        for (name, h) in &self.histograms {
            let snap = h.snapshot();
            out.push((format!("{name}.count"), snap.count()));
            out.push((format!("{name}.p50"), snap.quantile(0.50)));
            out.push((format!("{name}.p99"), snap.quantile(0.99)));
            out.push((format!("{name}.p999"), snap.quantile(0.999)));
            out.push((format!("{name}.max"), snap.max()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("ops_total");
        let b = r.counter("ops_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(r.snapshot(), vec![("ops_total".to_string(), 7)]);
    }

    #[test]
    fn gauge_raise_keeps_peak() {
        let g = Gauge::default();
        g.raise(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_rows_appear_in_snapshot() {
        let mut r = Registry::new();
        let h = r.histogram("op_latency_ns");
        let mut local = LatencyHistogram::new();
        local.record(10);
        local.record(20);
        h.merge_from(&local);
        let snap = r.snapshot();
        assert!(snap.contains(&("op_latency_ns.count".to_string(), 2)));
        assert!(snap.contains(&("op_latency_ns.max".to_string(), 20)));
    }

    #[test]
    fn concurrent_counter_adds_sum() {
        let mut r = Registry::new();
        let c = r.counter("x");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}

//! The metrics registry: span statistics, counters and gauges, all behind
//! plain `Mutex<BTreeMap>`s.
//!
//! `BTreeMap` (not `HashMap`) is deliberate: snapshots iterate in sorted
//! key order, which is what makes rendered reports byte-stable across
//! same-seed runs.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregated statistics for one span path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total seconds across all entries.
    pub total_s: f64,
    /// Shortest single entry (seconds).
    pub min_s: f64,
    /// Longest single entry (seconds).
    pub max_s: f64,
}

impl SpanStat {
    /// Mean seconds per entry.
    pub fn mean_s(&self) -> f64 {
        self.total_s / self.count.max(1) as f64
    }
}

/// Everything collected so far, in sorted-key order.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Span path → aggregated timing.
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Level gauges.
    pub gauges: BTreeMap<String, f64>,
}

/// Thread-safe store behind the crate's free-function API. Usable
/// standalone in tests; production code goes through [`crate::registry`].
#[derive(Default)]
pub struct Registry {
    spans: Mutex<BTreeMap<String, SpanStat>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

// Lock discipline: each map has its own mutex, every method locks exactly
// one of them, and poisoning is absorbed (telemetry must never take down
// the run it is observing).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one span exit into the aggregate for its path.
    pub fn record_span(&self, path: &str, secs: f64) {
        let mut spans = lock(&self.spans);
        match spans.get_mut(path) {
            Some(s) => {
                s.count += 1;
                s.total_s += secs;
                s.min_s = s.min_s.min(secs);
                s.max_s = s.max_s.max(secs);
            }
            None => {
                spans.insert(
                    path.to_string(),
                    SpanStat { count: 1, total_s: secs, min_s: secs, max_s: secs },
                );
            }
        }
    }

    /// Add to a monotone counter.
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut counters = lock(&self.counters);
        match counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                counters.insert(name.to_string(), v);
            }
        }
    }

    /// Set a gauge level.
    pub fn gauge_set(&self, name: &str, v: f64) {
        lock(&self.gauges).insert(name.to_string(), v);
    }

    /// Raise a gauge to `v` if larger.
    pub fn gauge_max(&self, name: &str, v: f64) {
        let mut gauges = lock(&self.gauges);
        match gauges.get_mut(name) {
            Some(g) => *g = g.max(v),
            None => {
                gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Copy out everything collected so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: lock(&self.spans).clone(),
            counters: lock(&self.counters).clone(),
            gauges: lock(&self.gauges).clone(),
        }
    }

    /// Drop every recorded value.
    pub fn clear(&self) {
        lock(&self.spans).clear();
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_aggregation() {
        let r = Registry::new();
        r.record_span("a", 1.0);
        r.record_span("a", 3.0);
        r.record_span("b", 0.5);
        let s = r.snapshot();
        let a = &s.spans["a"];
        assert_eq!(a.count, 2);
        assert_eq!(a.total_s, 4.0);
        assert_eq!(a.min_s, 1.0);
        assert_eq!(a.max_s, 3.0);
        assert_eq!(a.mean_s(), 2.0);
        assert_eq!(s.spans["b"].count, 1);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 1);
        r.counter_add("m", 1);
        let snap = r.snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(keys, ["a", "m", "z"]);
    }

    #[test]
    fn clear_empties_everything() {
        let r = Registry::new();
        r.record_span("s", 1.0);
        r.counter_add("c", 1);
        r.gauge_set("g", 1.0);
        r.clear();
        let s = r.snapshot();
        assert!(s.spans.is_empty() && s.counters.is_empty() && s.gauges.is_empty());
    }
}

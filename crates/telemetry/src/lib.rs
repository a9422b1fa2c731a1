//! # fc_telemetry — unified telemetry for FastCHGNet-rs
//!
//! The paper evaluates every optimization through per-phase iteration
//! time, launched kernels, and device memory (Fig. 8), plus per-rank load
//! balance (Fig. 9) and exposed all-reduce time (Fig. 10). This crate is
//! the one place all of those measurements flow through:
//!
//! * **Spans** — RAII scoped timers with a thread-aware hierarchy
//!   ([`span!`] / [`span()`]): `epoch` → `evaluate`, `train_step` →
//!   `allreduce` / `optimizer`, `rank_step` → `forward` / `backward`.
//!   Nested spans build `/`-joined paths per thread.
//! * **Metrics registry** — named [counters](counter_add) and
//!   [gauges](gauge_set).
//! * **Run reports** — a [`RunReport`] is written as a schema-versioned
//!   JSONL event stream ([`RunReport::write_jsonl`], the format behind
//!   `reports/BENCH_*.json`) and read back line by line with
//!   [`parse_json_line`]. [`write_report_file`] writes every report file
//!   into [`reports_dir`].
//! * **Profiler bridge** — [`bridge`] folds the kernel/memory/FLOP/byte
//!   counters of [`fc_tensor::Profiler`] into the registry per span, and
//!   derives arithmetic intensity and achieved GFLOP/s.
//! * **Flight recorder** — [`trace`] keeps a per-thread ring buffer of
//!   timestamped begin/end/instant/counter events (every [`span`] is also
//!   a timeline event while tracing is on), with *lane* attribution for
//!   simulated cluster ranks, exported as Chrome trace-event JSON
//!   (`reports/TRACE_*.json`). [`analysis`] reads a trace back and
//!   computes critical path, per-op self-time, per-rank busy/idle, and the
//!   memory high-water timeline.
//!
//! Telemetry is **disabled by default** and zero-cost when disabled: every
//! entry point checks one relaxed atomic and returns an inert guard or
//! no-ops. There is no `unsafe` and no `static mut` anywhere; global state
//! lives in a `OnceLock<Collector>` guarded by `Mutex`es.
//!
//! Determinism contract: the registry and reports record no wall-clock
//! *timestamps* — only measured *durations* (always in keys/fields ending
//! in `_s`). A run that records only deterministic quantities into
//! counters and gauges therefore produces byte-identical
//! non-`_s` report fields across same-seed runs. The [`trace`] module is
//! the deliberate exception: timelines are wall-clock artifacts and
//! `TRACE_*.json` files are never byte-compared.
//!
//! ```
//! use fc_telemetry as tel;
//!
//! tel::reset();
//! tel::set_enabled(true);
//! {
//!     let _outer = tel::span("epoch");
//!     let _inner = tel::span("forward");
//!     tel::counter_add("kernels", 42);
//! }
//! let snap = tel::snapshot();
//! assert_eq!(snap.spans["epoch/forward"].count, 1);
//! assert_eq!(snap.counters["kernels"], 42);
//! tel::set_enabled(false);
//! ```

pub mod analysis;
pub mod bridge;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use registry::{Registry, SpanStat, TelemetrySnapshot};
pub use report::{
    parse_json_line, render_jsonl, reports_dir, write_report_file, RunReport, Value, SCHEMA_VERSION,
};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Global collector: the enabled flag plus the metrics registry.
pub(crate) struct Collector {
    enabled: AtomicBool,
    registry: Registry,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR
        .get_or_init(|| Collector { enabled: AtomicBool::new(false), registry: Registry::new() })
}

/// Is telemetry collection currently enabled?
#[inline]
pub fn enabled() -> bool {
    collector().enabled.load(Ordering::Relaxed)
}

/// Turn telemetry collection on or off (off is the zero-cost default).
pub fn set_enabled(on: bool) {
    collector().enabled.store(on, Ordering::Relaxed);
}

/// Clear every span statistic and metric (the enabled flag is untouched).
pub fn reset() {
    collector().registry.clear();
}

/// The global registry (records regardless of the enabled flag; the
/// free-function helpers below are the gated fast path).
pub fn registry() -> &'static Registry {
    &collector().registry
}

/// Add to a named monotone counter. No-op while disabled.
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if enabled() {
        registry().counter_add(name, v);
    }
}

/// Increment a named counter by one. No-op while disabled.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Set a named gauge to a level. No-op while disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        registry().gauge_set(name, v);
    }
}

/// Raise a named gauge to `v` if `v` is larger (peak tracking). No-op
/// while disabled.
#[inline]
pub fn gauge_max(name: &str, v: f64) {
    if enabled() {
        registry().gauge_max(name, v);
    }
}

/// Snapshot every span statistic and metric collected so far.
pub fn snapshot() -> TelemetrySnapshot {
    registry().snapshot()
}

/// Open a scoped span (sugar for [`span()`], mirroring the `span!("epoch")`
/// spelling used throughout the instrumented crates).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global, so tests that depend on exact global
    // contents serialize behind one lock.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = test_lock();
        reset();
        set_enabled(false);
        {
            let _g = span("epoch");
            counter_add("c", 5);
            gauge_set("g", 1.0);
        }
        let s = snapshot();
        assert!(s.spans.is_empty());
        assert!(s.counters.is_empty());
        assert!(s.gauges.is_empty());
    }

    #[test]
    fn spans_nest_into_paths() {
        let _l = test_lock();
        reset();
        set_enabled(true);
        {
            let _a = span("epoch");
            for _ in 0..3 {
                let _b = span("forward");
            }
        }
        {
            let _c = span("forward"); // top level this time
        }
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.spans["epoch"].count, 1);
        assert_eq!(s.spans["epoch/forward"].count, 3);
        assert_eq!(s.spans["forward"].count, 1);
        assert!(s.spans["epoch"].total_s >= s.spans["epoch/forward"].total_s);
    }

    #[test]
    fn span_hierarchy_is_per_thread() {
        let _l = test_lock();
        reset();
        set_enabled(true);
        let _outer = span("main_thread");
        std::thread::spawn(|| {
            let _g = span("worker");
        })
        .join()
        .unwrap();
        drop(_outer);
        let s = snapshot();
        set_enabled(false);
        // The worker's span must NOT be nested under the main thread's.
        assert!(s.spans.contains_key("worker"), "{:?}", s.spans.keys());
        assert!(!s.spans.contains_key("main_thread/worker"));
    }

    #[test]
    fn counters_gauges_roundtrip() {
        let _l = test_lock();
        reset();
        set_enabled(true);
        counter_add("k", 2);
        counter_inc("k");
        gauge_set("lvl", 3.5);
        gauge_max("peak", 1.0);
        gauge_max("peak", 9.0);
        gauge_max("peak", 4.0);
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.counters["k"], 3);
        assert_eq!(s.gauges["lvl"], 3.5);
        assert_eq!(s.gauges["peak"], 9.0);
    }
}

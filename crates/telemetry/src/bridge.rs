//! Bridge from the tensor engine's [`Profiler`] into the metrics registry.
//!
//! The tape's profiler counts launched kernels, live/peak buffer bytes
//! (the paper's Fig. 8 axes), and FLOP/byte roofline totals. This module
//! folds those counters into the global registry under a caller-chosen
//! prefix, so a span like `forward` can carry `tensor.forward.kernels` /
//! `tensor.forward.bytes_peak` / `tensor.forward.flops` alongside its
//! duration — plus the derived `intensity_flop_per_byte` and (being a
//! wall-clock-derived quantity, suffixed `_s` per the determinism
//! contract) `gflops_s` gauges.

use crate::span::SpanGuard;
use fc_tensor::{ProfileSnapshot, Profiler};
use std::time::Instant;

/// Record a profile snapshot under `prefix`: kernel/FLOP/byte counts go to
/// monotone counters (pass a [`ProfileSnapshot::since`] delta for
/// per-phase numbers), byte levels go to gauges (`bytes_peak` keeps the
/// maximum seen, `bytes_live` the latest level), and arithmetic intensity
/// is derived when traffic was recorded.
pub fn record_profile(prefix: &str, snap: &ProfileSnapshot) {
    if !crate::enabled() {
        return;
    }
    crate::counter_add(&format!("{prefix}.kernels"), snap.kernels);
    crate::counter_add(&format!("{prefix}.fused_kernels"), snap.fused_kernels);
    crate::counter_add(&format!("{prefix}.flops"), snap.flops);
    crate::counter_add(&format!("{prefix}.bytes_moved"), snap.bytes_moved);
    crate::gauge_max(&format!("{prefix}.bytes_peak"), snap.bytes_peak as f64);
    crate::gauge_set(&format!("{prefix}.bytes_live"), snap.bytes_live as f64);
    // Buffer-pool recycling counters.
    crate::counter_add(&format!("{prefix}.pool_hits"), snap.pool_hits);
    crate::counter_add(&format!("{prefix}.pool_misses"), snap.pool_misses);
    crate::counter_add(&format!("{prefix}.bytes_recycled"), snap.bytes_recycled);
    crate::gauge_set(&format!("{prefix}.bytes_pooled"), snap.bytes_pooled as f64);
    if snap.bytes_moved > 0 {
        crate::gauge_set(&format!("{prefix}.intensity_flop_per_byte"), snap.arithmetic_intensity());
    }
}

/// A span that also bridges the profiler counters accumulated while it
/// was open: on drop, records the kernel/FLOP/byte delta and byte levels
/// under `tensor.<name>.*`, derives achieved GFLOP/s from the span's own
/// elapsed time, and (when the flight recorder is on) samples the live
/// and peak byte levels as `tensor.bytes_live` / `tensor.bytes_peak`
/// counter events for the memory high-water timeline.
#[must_use = "a profiled span records on drop; binding to `_` drops immediately"]
pub struct ProfiledSpan<'p> {
    profiler: Option<&'p Profiler>,
    before: ProfileSnapshot,
    start: Instant,
    name: &'static str,
    // Declared last: the timing guard closes after the profile is recorded.
    _guard: SpanGuard,
}

/// Open a [`ProfiledSpan`] over `profiler` (typically `tape.profiler()`).
/// Inert while telemetry is disabled.
pub fn profiled_span<'p>(name: &'static str, profiler: &'p Profiler) -> ProfiledSpan<'p> {
    let enabled = crate::enabled();
    ProfiledSpan {
        profiler: enabled.then_some(profiler),
        before: if enabled { profiler.snapshot() } else { ProfileSnapshot::default() },
        start: Instant::now(),
        name,
        _guard: crate::span(name),
    }
}

impl Drop for ProfiledSpan<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.profiler.take() {
            let snap = p.snapshot();
            let delta = snap.since(&self.before);
            record_profile(&format!("tensor.{}", self.name), &delta);
            let secs = self.start.elapsed().as_secs_f64();
            if secs > 0.0 && delta.flops > 0 {
                // Wall-clock derived, hence the `_s`-family suffix.
                crate::gauge_set(
                    &format!("tensor.{}.gflops_s", self.name),
                    delta.flops as f64 / secs / 1e9,
                );
            }
            crate::trace::counter("tensor.bytes_live", snap.bytes_live as f64);
            crate::trace::counter("tensor.bytes_peak", snap.bytes_peak as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tensor::OpCost;

    #[test]
    fn profiled_span_bridges_kernel_deltas() {
        let _l = crate::tests::test_lock();
        crate::reset();
        crate::set_enabled(true);
        let p = Profiler::new();
        p.record_kernel(false); // before the span: must not be counted
        p.record_cost(OpCost { kind: "matmul", flops: 999, bytes: 10 });
        p.alloc(64);
        {
            let _s = profiled_span("forward", &p);
            p.record_kernel(true);
            p.record_kernel(false);
            p.record_cost(OpCost { kind: "matmul", flops: 1000, bytes: 500 });
            p.alloc(192);
        }
        let snap = crate::snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.counters["tensor.forward.kernels"], 2);
        assert_eq!(snap.counters["tensor.forward.fused_kernels"], 1);
        assert_eq!(snap.counters["tensor.forward.flops"], 1000);
        assert_eq!(snap.counters["tensor.forward.bytes_moved"], 500);
        assert_eq!(snap.gauges["tensor.forward.bytes_peak"], 256.0);
        assert_eq!(snap.gauges["tensor.forward.intensity_flop_per_byte"], 2.0);
        assert!(snap.gauges["tensor.forward.gflops_s"] > 0.0);
        assert_eq!(snap.spans["forward"].count, 1);
    }

    #[test]
    fn record_profile_exports_pool_and_planner_metrics() {
        let _l = crate::tests::test_lock();
        crate::reset();
        crate::set_enabled(true);
        let p = Profiler::new();
        p.record_pool(6, 2, 1024, 4096);
        p.alloc(100);
        p.free(60);
        record_profile("tensor.step", &p.snapshot());
        let snap = crate::snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.counters["tensor.step.pool_hits"], 6);
        assert_eq!(snap.counters["tensor.step.pool_misses"], 2);
        assert_eq!(snap.counters["tensor.step.bytes_recycled"], 1024);
        assert_eq!(snap.gauges["tensor.step.bytes_pooled"], 4096.0);
        assert_eq!(snap.gauges["tensor.step.bytes_peak"], 100.0);
        assert_eq!(snap.gauges["tensor.step.bytes_live"], 40.0);
    }

    #[test]
    fn profiled_span_samples_memory_timeline_when_tracing() {
        let _l = crate::tests::test_lock();
        crate::reset();
        crate::set_enabled(true);
        crate::trace::set_tracing(true);
        crate::trace::clear();
        let p = Profiler::new();
        {
            let _s = profiled_span("forward", &p);
            p.alloc(4096);
            p.free(1024);
        }
        let trace = crate::trace::snapshot();
        crate::trace::set_tracing(false);
        crate::set_enabled(false);
        let find = |name: &str| {
            trace
                .threads
                .iter()
                .flat_map(|t| &t.events)
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("missing {name} sample"))
                .clone()
        };
        assert_eq!(find("tensor.bytes_live").kind, crate::trace::EventKind::Counter(3072.0));
        assert_eq!(find("tensor.bytes_peak").kind, crate::trace::EventKind::Counter(4096.0));
    }

    #[test]
    fn disabled_bridge_records_nothing() {
        let _l = crate::tests::test_lock();
        crate::reset();
        crate::set_enabled(false);
        let p = Profiler::new();
        {
            let _s = profiled_span("forward", &p);
            p.record_kernel(false);
        }
        record_profile("tensor.x", &p.snapshot());
        let snap = crate::snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }
}

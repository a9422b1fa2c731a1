//! RAII scoped spans with a thread-aware hierarchy.
//!
//! Each thread keeps its own stack of open span names; opening a span
//! pushes onto the stack and records the full `/`-joined path, so the
//! training loop's `epoch` → `forward` nesting and a cluster rank worker's
//! independent `rank_step` both land under honest paths without any
//! cross-thread locking on the hot open path.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`span()`]: records the elapsed duration under the
/// span's hierarchical path when dropped. Inert (and free) while
/// telemetry is disabled.
#[must_use = "a span records its duration when dropped; binding to `_` drops immediately"]
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    path: String,
    start: Instant,
}

/// Open a scoped span. While telemetry is disabled this is one relaxed
/// atomic load and returns an inert guard. When the flight recorder is on
/// ([`crate::trace::set_tracing`]), the open/close moments are also
/// recorded as timeline begin/end events.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { inner: None };
    }
    let path = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    crate::trace::begin(name);
    SpanGuard { inner: Some(OpenSpan { name, path, start: Instant::now() }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.inner.take() {
            let secs = open.start.elapsed().as_secs_f64();
            crate::trace::end(open.name);
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            crate::registry().record_span(&open.path, secs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let _l = crate::tests::test_lock();
        crate::set_enabled(false);
        let g = span("anything");
        assert!(g.inner.is_none());
    }

    #[test]
    fn drop_order_unwinds_stack() {
        let _l = crate::tests::test_lock();
        crate::reset();
        crate::set_enabled(true);
        let a = span("a");
        let b = span("b");
        drop(b);
        let c = span("c");
        drop(c);
        drop(a);
        let s = crate::snapshot();
        crate::set_enabled(false);
        assert!(s.spans.contains_key("a/b"));
        assert!(s.spans.contains_key("a/c"));
        assert!(s.spans.contains_key("a"));
    }
}

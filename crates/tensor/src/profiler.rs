//! Kernel-launch, memory, and FLOP/byte accounting.
//!
//! The paper evaluates its system optimizations by three metrics
//! (Fig. 8): average iteration time, number of launched kernels, and GPU
//! memory usage. This profiler reproduces the latter two on the simulated
//! device: every tape node executed counts as one launched kernel, and
//! every live node buffer counts toward device memory, including the
//! first-order gradient graph retained by `create_graph` backward passes
//! (which is exactly the memory the Force/Stress heads eliminate).
//!
//! On top of that it keeps roofline accounting: every kernel is charged
//! FLOPs and minimum bytes moved (see [`crate::cost`]), both in total and
//! per op kind, so arithmetic intensity (FLOP/byte) and achieved GFLOP/s
//! can be reported per phase and per op.
//!
//! Per-op wall time is measured only inside [`with_op_timing`], on the
//! thread that runs it: the clock is read twice per kernel there and never
//! elsewhere, so untimed runs pay one thread-local flag read per kernel.

use crate::cost::OpCost;
use std::cell::{Cell, RefCell};
use std::time::Instant;

thread_local! {
    static OP_TIMING: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with per-op wall timing on for this thread: every kernel a tape
/// executes on this thread inside `f` adds its wall time to
/// [`OpTotals::nanos`]. Other threads (and their tapes) are unaffected.
pub fn with_op_timing<R>(f: impl FnOnce() -> R) -> R {
    crate::with_local(&OP_TIMING, true, f)
}

/// Per-device profiler. Cheap `Cell` counters; the tape is single-threaded
/// per simulated device.
#[derive(Debug, Default)]
pub struct Profiler {
    kernels: Cell<u64>,
    bytes_live: Cell<u64>,
    bytes_peak: Cell<u64>,
    fused_kernels: Cell<u64>,
    flops: Cell<u64>,
    bytes_moved: Cell<u64>,
    pool_hits: Cell<u64>,
    pool_misses: Cell<u64>,
    bytes_recycled: Cell<u64>,
    bytes_pooled: Cell<u64>,
    /// Per-op-kind totals in first-seen order ([`Profiler::per_op`] sorts).
    per_op: RefCell<Vec<(&'static str, OpTotals)>>,
    /// Start of the kernel now running, when op timing is on.
    kernel_start: Cell<Option<Instant>>,
}

/// Accumulated launches/FLOPs/traffic/time of one op kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpTotals {
    /// Kernel launches of this kind.
    pub count: u64,
    /// FLOPs executed by this kind.
    pub flops: u64,
    /// Bytes moved by this kind.
    pub bytes: u64,
    /// Wall nanoseconds spent in this kind's kernels while op timing was
    /// on ([`with_op_timing`]); 0 for kernels run untimed.
    pub nanos: u64,
}

/// A snapshot of profiler counters, used to report per-iteration deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Total kernels launched so far.
    pub kernels: u64,
    /// Kernels that were fused ops.
    pub fused_kernels: u64,
    /// Live buffer bytes.
    pub bytes_live: u64,
    /// Peak live bytes observed.
    pub bytes_peak: u64,
    /// Total FLOPs executed.
    pub flops: u64,
    /// Total bytes moved (minimum kernel traffic, see [`crate::cost`]).
    pub bytes_moved: u64,
    /// Buffer-pool acquires served from a free list.
    pub pool_hits: u64,
    /// Buffer-pool acquires that fell through to the allocator.
    pub pool_misses: u64,
    /// Bytes handed out by the pool on hits.
    pub bytes_recycled: u64,
    /// Bytes cached in the pool's free lists (level).
    pub bytes_pooled: u64,
}

impl Profiler {
    /// Fresh profiler with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one kernel launch.
    #[inline]
    pub fn record_kernel(&self, fused: bool) {
        self.kernels.set(self.kernels.get() + 1);
        if fused {
            self.fused_kernels.set(self.fused_kernels.get() + 1);
        }
    }

    /// Mark the start of a kernel. When op timing is on for this thread,
    /// the next [`Profiler::record_cost`] charges the time since this call
    /// to its op kind.
    #[inline]
    pub fn start_kernel(&self) {
        if OP_TIMING.with(Cell::get) {
            self.kernel_start.set(Some(Instant::now()));
        }
    }

    /// Charge one kernel's FLOP/byte cost, in total and to its op kind,
    /// plus its wall time if [`Profiler::start_kernel`] timed it.
    #[inline]
    pub fn record_cost(&self, cost: OpCost) {
        let nanos = self.kernel_start.take().map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.flops.set(self.flops.get() + cost.flops);
        self.bytes_moved.set(self.bytes_moved.get() + cost.bytes);
        let mut per_op = self.per_op.borrow_mut();
        let t = totals_of(&mut per_op, cost.kind);
        t.count += 1;
        t.flops += cost.flops;
        t.bytes += cost.bytes;
        t.nanos += nanos;
    }

    /// Record allocation of a node buffer.
    #[inline]
    pub fn alloc(&self, bytes: u64) {
        let live = self.bytes_live.get() + bytes;
        self.bytes_live.set(live);
        if live > self.bytes_peak.get() {
            self.bytes_peak.set(live);
        }
    }

    /// Record release of a node buffer.
    #[inline]
    pub fn free(&self, bytes: u64) {
        self.bytes_live.set(self.bytes_live.get().saturating_sub(bytes));
    }

    /// Fold a buffer-pool activity delta (counters) and the current pooled
    /// level into this profiler. The tape calls this on the thread that
    /// owns the pool.
    #[inline]
    pub fn record_pool(&self, hits: u64, misses: u64, bytes_recycled: u64, bytes_pooled: u64) {
        self.pool_hits.set(self.pool_hits.get() + hits);
        self.pool_misses.set(self.pool_misses.get() + misses);
        self.bytes_recycled.set(self.bytes_recycled.get() + bytes_recycled);
        self.bytes_pooled.set(bytes_pooled);
    }

    /// Current counters.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            kernels: self.kernels.get(),
            fused_kernels: self.fused_kernels.get(),
            bytes_live: self.bytes_live.get(),
            bytes_peak: self.bytes_peak.get(),
            flops: self.flops.get(),
            bytes_moved: self.bytes_moved.get(),
            pool_hits: self.pool_hits.get(),
            pool_misses: self.pool_misses.get(),
            bytes_recycled: self.bytes_recycled.get(),
            bytes_pooled: self.bytes_pooled.get(),
        }
    }

    /// Copy of the per-op-kind accounting table, in sorted kind order.
    pub fn per_op(&self) -> Vec<(&'static str, OpTotals)> {
        let mut rows = self.per_op.borrow().clone();
        rows.sort_unstable_by_key(|&(k, _)| k);
        rows
    }

    /// Fold another profiler's counters into this one. This is the
    /// cross-thread aggregation path: each cluster rank runs its own tape
    /// (and therefore its own profiler) on its own worker thread, and the
    /// coordinator absorbs them after the join to get cluster-wide kernel,
    /// FLOP, and traffic totals. Monotone counters add; the byte *levels*
    /// add too (`bytes_live` of a fleet is the sum of per-device live
    /// bytes), which makes the absorbed `bytes_peak` an upper bound on the
    /// true simultaneous peak — per-device peaks need not coincide in time.
    pub fn absorb(&self, other: &Profiler) {
        let s = other.snapshot();
        self.kernels.set(self.kernels.get() + s.kernels);
        self.fused_kernels.set(self.fused_kernels.get() + s.fused_kernels);
        self.flops.set(self.flops.get() + s.flops);
        self.bytes_moved.set(self.bytes_moved.get() + s.bytes_moved);
        self.bytes_live.set(self.bytes_live.get() + s.bytes_live);
        self.bytes_peak.set(self.bytes_peak.get() + s.bytes_peak);
        self.pool_hits.set(self.pool_hits.get() + s.pool_hits);
        self.pool_misses.set(self.pool_misses.get() + s.pool_misses);
        self.bytes_recycled.set(self.bytes_recycled.get() + s.bytes_recycled);
        self.bytes_pooled.set(self.bytes_pooled.get() + s.bytes_pooled);
        let mut per_op = self.per_op.borrow_mut();
        for &(kind, totals) in other.per_op.borrow().iter() {
            let t = totals_of(&mut per_op, kind);
            t.count += totals.count;
            t.flops += totals.flops;
            t.bytes += totals.bytes;
            t.nanos += totals.nanos;
        }
    }

    /// Reset the peak-tracking to the current live level (e.g. at the start
    /// of an iteration) without touching kernel counts.
    #[cfg(test)]
    pub(crate) fn reset_peak(&self) {
        self.bytes_peak.set(self.bytes_live.get());
    }

    /// Zero every counter.
    #[cfg(test)]
    fn reset(&self) {
        self.kernels.set(0);
        self.fused_kernels.set(0);
        self.bytes_live.set(0);
        self.bytes_peak.set(0);
        self.flops.set(0);
        self.bytes_moved.set(0);
        self.pool_hits.set(0);
        self.pool_misses.set(0);
        self.bytes_recycled.set(0);
        self.bytes_pooled.set(0);
        self.per_op.borrow_mut().clear();
    }
}

/// The totals row of `kind` in `rows`, appended when new. Kinds are
/// string literals, so the same kind almost always has the same address:
/// the address is compared first, the text only when no address matches.
fn totals_of<'a>(
    rows: &'a mut Vec<(&'static str, OpTotals)>,
    kind: &'static str,
) -> &'a mut OpTotals {
    let i = rows
        .iter()
        .position(|(k, _)| std::ptr::eq(*k, kind))
        .or_else(|| rows.iter().position(|(k, _)| *k == kind))
        .unwrap_or_else(|| {
            rows.push((kind, OpTotals::default()));
            rows.len() - 1
        });
    &mut rows[i].1
}

impl ProfileSnapshot {
    /// Change since `earlier`, with mixed semantics by counter class:
    ///
    /// * **Monotone counters** (`kernels`, `fused_kernels`, `flops`,
    ///   `bytes_moved`) are true deltas `self - earlier` — the work that
    ///   happened in between.
    /// * **Level gauges** (`bytes_live`, `bytes_peak`) are *not* deltas:
    ///   they pass through `self`'s values unchanged, because "live bytes
    ///   now" and "peak bytes observed" are instantaneous levels whose
    ///   difference has no physical meaning (use
    ///   [`Profiler::reset_peak`] to scope the peak to an interval).
    pub fn since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            kernels: self.kernels - earlier.kernels,
            fused_kernels: self.fused_kernels - earlier.fused_kernels,
            bytes_live: self.bytes_live,
            bytes_peak: self.bytes_peak,
            flops: self.flops - earlier.flops,
            bytes_moved: self.bytes_moved - earlier.bytes_moved,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            bytes_recycled: self.bytes_recycled - earlier.bytes_recycled,
            bytes_pooled: self.bytes_pooled,
        }
    }

    /// Arithmetic intensity in FLOP/byte (the roofline x-axis); 0 when no
    /// traffic was recorded.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes_moved == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes_moved as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_counting() {
        let p = Profiler::new();
        p.record_kernel(false);
        p.record_kernel(true);
        p.record_kernel(true);
        let s = p.snapshot();
        assert_eq!(s.kernels, 3);
        assert_eq!(s.fused_kernels, 2);
    }

    #[test]
    fn memory_tracking() {
        let p = Profiler::new();
        p.alloc(100);
        p.alloc(50);
        assert_eq!(p.snapshot().bytes_peak, 150);
        p.free(100);
        assert_eq!(p.snapshot().bytes_live, 50);
        assert_eq!(p.snapshot().bytes_peak, 150);
        p.reset_peak();
        assert_eq!(p.snapshot().bytes_peak, 50);
        p.alloc(10);
        assert_eq!(p.snapshot().bytes_peak, 60);
    }

    #[test]
    fn reset_peak_resets_to_live_not_zero() {
        // Contract: after reset_peak the peak equals the *current live*
        // level — never zero while buffers remain allocated — so that a
        // per-interval peak is meaningful when taken mid-run.
        let p = Profiler::new();
        p.alloc(200);
        p.free(80);
        assert_eq!(p.snapshot().bytes_peak, 200);
        p.reset_peak();
        assert_eq!(p.snapshot().bytes_peak, 120, "peak re-anchors to live, not zero");
        assert_eq!(p.snapshot().bytes_live, 120);
        p.alloc(30);
        assert_eq!(p.snapshot().bytes_peak, 150, "new peak grows from the live base");
        // Degenerate case: everything freed, then reset — peak is 0 only
        // because live is 0.
        p.free(150);
        p.reset_peak();
        assert_eq!(p.snapshot().bytes_peak, 0);
        p.alloc(5);
        assert_eq!(p.snapshot().bytes_peak, 5);
    }

    #[test]
    fn free_saturates() {
        let p = Profiler::new();
        p.alloc(10);
        p.free(100);
        assert_eq!(p.snapshot().bytes_live, 0);
    }

    #[test]
    fn snapshot_since() {
        let p = Profiler::new();
        p.record_kernel(false);
        let a = p.snapshot();
        p.record_kernel(false);
        p.record_kernel(true);
        let b = p.snapshot();
        let d = b.since(&a);
        assert_eq!(d.kernels, 2);
        assert_eq!(d.fused_kernels, 1);
    }

    #[test]
    fn since_passes_levels_through_undelta() {
        // Regression: `since` must delta the monotone counters but pass the
        // byte *levels* through from the later snapshot unchanged — it must
        // never report `bytes_live`/`bytes_peak` differences.
        let p = Profiler::new();
        p.alloc(300);
        let a = p.snapshot();
        p.record_kernel(false);
        p.alloc(100);
        p.free(250);
        let b = p.snapshot();
        let d = b.since(&a);
        assert_eq!(d.kernels, 1);
        assert_eq!(d.bytes_live, b.bytes_live, "live is a level, not a delta");
        assert_eq!(d.bytes_peak, b.bytes_peak, "peak is a level, not a delta");
        assert_eq!(d.bytes_live, 150);
        assert_eq!(d.bytes_peak, 400);
    }

    #[test]
    fn absorb_merges_counters_and_per_op_tables() {
        let agg = Profiler::new();
        agg.record_kernel(false);
        agg.record_cost(OpCost { kind: "matmul", flops: 10, bytes: 4 });
        agg.alloc(100);

        // Two "rank" profilers, as the threaded cluster produces — one per
        // worker thread, merged on the coordinator after the join.
        let r0 = Profiler::new();
        r0.record_kernel(true);
        r0.record_cost(OpCost { kind: "matmul", flops: 5, bytes: 2 });
        r0.alloc(30);
        let r1 = Profiler::new();
        r1.record_kernel(false);
        r1.record_cost(OpCost { kind: "un.exp", flops: 8, bytes: 8 });
        r1.alloc(70);
        r1.free(50);

        agg.absorb(&r0);
        agg.absorb(&r1);
        let s = agg.snapshot();
        assert_eq!(s.kernels, 3);
        assert_eq!(s.fused_kernels, 1);
        assert_eq!(s.flops, 23);
        assert_eq!(s.bytes_moved, 14);
        assert_eq!(s.bytes_live, 100 + 30 + 20, "fleet live = sum of device live");
        assert_eq!(s.bytes_peak, 100 + 30 + 70, "absorbed peak is the sum of device peaks");
        let per_op = agg.per_op();
        let mm = per_op.iter().find(|(k, _)| *k == "matmul").unwrap().1;
        assert_eq!(mm, OpTotals { count: 2, flops: 15, bytes: 6, nanos: 0 });
        let ex = per_op.iter().find(|(k, _)| *k == "un.exp").unwrap().1;
        assert_eq!(ex, OpTotals { count: 1, flops: 8, bytes: 8, nanos: 0 });
    }

    #[test]
    fn per_op_rows_merge_by_kind_text_and_come_out_sorted() {
        // The same kind text at another address is the same row.
        let matmul: &'static str = Box::leak(String::from("matmul").into_boxed_str());
        let p = Profiler::new();
        p.record_cost(OpCost { kind: "un.exp", flops: 1, bytes: 1 });
        p.record_cost(OpCost { kind: "matmul", flops: 2, bytes: 2 });
        p.record_cost(OpCost { kind: matmul, flops: 3, bytes: 3 });
        p.record_cost(OpCost { kind: "bin.add", flops: 4, bytes: 4 });
        let kinds: Vec<&str> = p.per_op().iter().map(|&(k, _)| k).collect();
        assert_eq!(kinds, ["bin.add", "matmul", "un.exp"]);
        assert_eq!(p.per_op()[1].1, OpTotals { count: 2, flops: 5, bytes: 5, nanos: 0 });
        let agg = Profiler::new();
        agg.record_cost(OpCost { kind: matmul, flops: 1, bytes: 0 });
        agg.absorb(&p);
        assert_eq!(agg.per_op()[1].1, OpTotals { count: 3, flops: 6, bytes: 5, nanos: 0 });
        assert_eq!(agg.per_op().len(), 3);
    }

    #[test]
    fn pool_counters_accumulate_and_level_overwrites() {
        let p = Profiler::new();
        p.record_pool(2, 1, 800, 4096);
        p.record_pool(3, 0, 1200, 2048);
        let s = p.snapshot();
        assert_eq!(s.pool_hits, 5);
        assert_eq!(s.pool_misses, 1);
        assert_eq!(s.bytes_recycled, 2000);
        assert_eq!(s.bytes_pooled, 2048, "pooled bytes is a level, not a sum");
        // since() deltas the monotone pool counters, passes the level.
        let d = p.snapshot().since(&s);
        assert_eq!(d.pool_hits, 0);
        assert_eq!(d.bytes_recycled, 0);
        assert_eq!(d.bytes_pooled, 2048);
    }

    #[test]
    fn cost_accumulates_in_total_and_per_op() {
        let p = Profiler::new();
        p.record_cost(OpCost { kind: "matmul", flops: 100, bytes: 40 });
        p.record_cost(OpCost { kind: "matmul", flops: 50, bytes: 20 });
        p.record_cost(OpCost { kind: "un.exp", flops: 8, bytes: 8 });
        let s = p.snapshot();
        assert_eq!(s.flops, 158);
        assert_eq!(s.bytes_moved, 68);
        let per_op = p.per_op();
        assert_eq!(per_op.len(), 2);
        let mm = per_op.iter().find(|(k, _)| *k == "matmul").unwrap().1;
        assert_eq!(mm, OpTotals { count: 2, flops: 150, bytes: 60, nanos: 0 });
        // since() deltas the monotone FLOP/byte counters.
        let d = p.snapshot().since(&s);
        assert_eq!(d.flops, 0);
        p.record_cost(OpCost { kind: "un.exp", flops: 8, bytes: 8 });
        assert_eq!(p.snapshot().since(&s).flops, 8);
        // Intensity = flops / bytes.
        assert!((s.arithmetic_intensity() - 158.0 / 68.0).abs() < 1e-12);
        p.reset();
        assert!(p.per_op().is_empty());
        assert_eq!(p.snapshot().flops, 0);
    }
}

//! Bitwise intra-op parallelism: a large kernel splits its output rows
//! into chunks that the calling thread and a persistent helper pool fill
//! together.
//!
//! Every output element is still computed by exactly one thread, with the
//! same operations in the same order as the serial loop, so a split kernel
//! is bitwise equal to the unsplit one whatever the width, the chunking or
//! the order in which chunks finish.
//!
//! * **Width** is a thread-scoped budget ([`with_width`]), not a global
//!   knob: a thread may use at most [`width`] threads per kernel, itself
//!   included. Cluster rank workers and the helpers themselves run at
//!   width 1.
//! * **Helpers.** `available_parallelism() - 1` helper threads start on the
//!   first split and live for the process. There is one job slot: a caller
//!   that finds it taken (another thread is splitting) runs its kernel
//!   alone, so there is no deadlock and no oversubscription.
//! * **Buffers** all come from the caller's pool before the split. Chunks
//!   write into disjoint parts of them; helpers never touch a thread-local
//!   pool or profiler.
//! * **Panics** in a chunk are caught and re-raised on the caller with
//!   `resume_unwind`. Kernels validate their inputs on the caller before
//!   splitting, so their panic messages do not depend on the width.

use std::any::Any;
use std::cell::Cell;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Work below which a kernel runs on the calling thread alone.
///
/// Work is counted in output elements of `bin.add` (0.2–0.5 ns each on
/// the 2-vCPU Xeon of EXPERIMENTS.md); each kernel scales its element
/// count by its per-element cost relative to that, as read off the per-op
/// time tables of an md-nve64 forward and a train-dp4 rank step
/// (EXPERIMENTS.md "Intra-op parallelism"; "Blocked GEMM" for `matmul`;
/// "Bitwise vector expf" for the `exp` tier; "Fused final-sweep VJPs" for
/// the row-lane LayerNorm and the VJPs; "AVX-512 tier" for that tier's
/// weights; "A pool that stops growing" for the scalar libm unaries):
/// copies 1/2, `matmul` (and `matmul_at`) `k/12` (`k/16` on
/// `Tier::Avx512`), `fused.layer_norm` 2, `fused.ln_vjp` 4, `arccos`,
/// `ln` and `tanh` 32, other unaries up to 2, sigmoid and SiLU 3 on
/// `Tier::Avx2` (7 on `Tier::Scalar`, 2 on `Tier::Avx512`), `fused.gate`
/// 5 (16 on `Scalar`, 3 on `Avx512`), `fused.gate_vjp` 6 (18 on `Scalar`,
/// 4 on `Avx512`) and the fused bases 10. The `Scalar` weights are those
/// the scalar libm calls had before the vector ports.
///
/// The threshold comes from two measurements (EXPERIMENTS.md "A pool that
/// stops growing"). `examples/op_profile`'s "split break-even" table:
/// waking the helper and handing chunks over costs 3-4 µs on that host,
/// and an add loop over cache-resident elements starts to gain from a
/// split between 65,536 and 131,072 elements. Inside the md-nve64 forward,
/// where the operands are colder, kernels of 32,768 to 65,536 units
/// still gained from a split: at `1 << 16` md-nve64 `step_p50_ms`
/// lost 4.8% over 10 alternating pairs, at `1 << 15` it did not, and
/// relax-screen's small kernels gained against `1 << 14` at both.
pub const SPLIT_WORK: usize = 1 << 15;

/// Chunks per participating thread (see [`chunks`]).
const CHUNKS_PER_THREAD: usize = 4;

thread_local! {
    static WIDTH: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Threads a kernel called on this thread may use, itself included: the
/// thread's budget capped by the host's available parallelism.
pub fn width() -> usize {
    WIDTH.with(Cell::get).min(max_width())
}

/// Run `f` with this thread's width budget narrowed to `w` (at least 1),
/// restoring the previous budget afterwards, also on panic.
pub fn with_width<R>(w: usize, f: impl FnOnce() -> R) -> R {
    crate::with_local(&WIDTH, w.clamp(1, WIDTH.with(Cell::get)), f)
}

fn max_width() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of chunks a kernel of `work` over `rows` output rows splits into
/// on this thread: 1 (run serially) below [`SPLIT_WORK`] or at width 1,
/// else a few per thread, so a helper that wakes late still finds chunks
/// left to claim.
pub(crate) fn chunks(work: usize, rows: usize) -> usize {
    let w = width();
    if w == 1 || work < SPLIT_WORK {
        return 1;
    }
    (w * CHUNKS_PER_THREAD).min(rows).max(1)
}

/// Apply `f(range, part)` to contiguous ranges of `items`, `part` the
/// items of `range`: split across the helpers like a kernel of `work`
/// ([`SPLIT_WORK`] units) at this thread's width, else one call on the
/// calling thread. For work outside this crate that fills one slot per
/// item; its one caller is `examples/op_profile.rs`'s split break-even
/// table, which [`SPLIT_WORK`] is set from.
pub fn for_each_chunk<T: Send>(
    items: &mut [T],
    work: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let n = items.len();
    for_row_chunks(items, n, 1, chunks(work, n), f)
}

/// Apply `f(rows, part)` to `n_chunks` contiguous row ranges of the
/// row-major `rows × cols` buffer `data`, where `part` is exactly the
/// elements of `rows`. With one chunk this is `f(0..rows, data)`; the
/// chunks run on the calling thread and the helpers, or on the calling
/// thread alone while another thread holds the helpers.
pub(crate) fn for_row_chunks<T: Send>(
    data: &mut [T],
    rows: usize,
    cols: usize,
    n_chunks: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    for_row_chunks_n([data], rows, [cols], n_chunks, |r, [part]| f(r, part));
}

/// [`for_row_chunks`] over `N` row-major buffers of `rows` rows each, buffer
/// `i` with `cols[i]` columns: `f(rows, parts)` gets the elements of `rows`
/// of every buffer.
pub(crate) fn for_row_chunks_n<T: Send, const N: usize>(
    data: [&mut [T]; N],
    rows: usize,
    cols: [usize; N],
    n_chunks: usize,
    f: impl Fn(Range<usize>, [&mut [T]; N]) + Sync,
) {
    for (d, c) in data.iter().zip(cols) {
        debug_assert_eq!(d.len(), rows * c);
    }
    let pool = match pool() {
        Some(pool) if n_chunks > 1 && rows > 1 && cols.iter().all(|&c| c > 0) => pool,
        _ => return f(0..rows, data),
    };
    #[cfg(test)]
    tests::SPLITS.with(|c| c.set(c.get() + 1));
    let chunk_rows = rows.div_ceil(n_chunks);
    let mut bufs = data.into_iter().zip(cols).map(|(d, c)| d.chunks_mut(chunk_rows * c));
    let bufs: [_; N] = std::array::from_fn(|_| bufs.next().expect("one chunk iterator per buffer"));
    let parts = Mutex::new((bufs, (0..rows).step_by(chunk_rows)));
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || loop {
        let (part, r0) = {
            let mut guard = lock(&parts);
            let (bufs, starts) = &mut *guard;
            let Some(r0) = starts.next() else { break };
            (bufs.each_mut().map(|b| b.next().expect("a chunk per row range")), r0)
        };
        let r1 = (r0 + chunk_rows).min(rows);
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| f(r0..r1, part))) {
            lock(&panicked).get_or_insert(p);
        }
    };
    if !pool.run(&work) {
        work();
    }
    if let Some(p) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic::resume_unwind(p);
    }
}

/// Fill the empty buffer `out` (capacity at least `rows * cols`) with a
/// `rows × cols` row-major result: `body(rows, w)` writes exactly the
/// elements of `rows` through `w`, in order. No zero-fill pass runs first.
///
/// # Panics
/// Re-raises a panic of `body`; panics when a chunk leaves elements
/// unwritten.
pub(crate) fn fill_rows(
    out: &mut Vec<f32>,
    rows: usize,
    cols: usize,
    n_chunks: usize,
    body: impl Fn(Range<usize>, &mut Rows<'_>) + Sync,
) {
    fill_rows_n([out], rows, [cols], n_chunks, |r, [w]| body(r, w));
}

/// [`fill_rows`] into `N` buffers of `rows` rows each, buffer `i` with
/// `cols[i]` columns: `body(rows, ws)` writes exactly the elements of
/// `rows` of buffer `i` through `ws[i]`.
pub(crate) fn fill_rows_n<const N: usize>(
    mut outs: [&mut Vec<f32>; N],
    rows: usize,
    cols: [usize; N],
    n_chunks: usize,
    body: impl Fn(Range<usize>, [&mut Rows<'_>; N]) + Sync,
) {
    let mut spare = outs.iter_mut().zip(cols).map(|(out, c)| {
        assert!(out.is_empty(), "fill_rows needs an empty buffer");
        &mut out.spare_capacity_mut()[..rows * c]
    });
    let spare: [_; N] = std::array::from_fn(|_| spare.next().expect("one buffer per width"));
    for_row_chunks_n(spare, rows, cols, n_chunks, |r, dst| {
        let mut ws = dst.map(|dst| Rows { dst, pos: 0 });
        body(r, ws.each_mut());
        for w in &ws {
            assert_eq!(w.pos, w.dst.len(), "kernel chunk left output elements unwritten");
        }
    });
    for (out, c) in outs.iter_mut().zip(cols) {
        // SAFETY: every chunk wrote all of its elements of every buffer
        // (asserted above, and a failed assertion or any other chunk panic
        // unwinds out of `for_row_chunks_n` before this line), and the
        // chunks cover `..rows * c`.
        unsafe { out.set_len(rows * c) };
    }
}

/// Sequential writer over one chunk of a [`fill_rows`] output.
pub(crate) struct Rows<'a> {
    dst: &'a mut [MaybeUninit<f32>],
    pos: usize,
}

impl Rows<'_> {
    /// Append every value of `it`.
    #[inline]
    pub(crate) fn extend<I>(&mut self, it: I)
    where
        I: IntoIterator<Item = f32>,
        I::IntoIter: ExactSizeIterator,
    {
        let it = it.into_iter();
        let n = it.len();
        let mut written = 0;
        for (d, v) in self.dst[self.pos..self.pos + n].iter_mut().zip(it) {
            d.write(v);
            written += 1;
        }
        self.pos += written;
    }

    /// Append `v`.
    #[inline]
    pub(crate) fn push(&mut self, v: f32) {
        self.dst[self.pos].write(v);
        self.pos += 1;
    }

    /// Append a copy of `s`.
    #[inline]
    pub(crate) fn extend_from_slice(&mut self, s: &[f32]) {
        self.dst[self.pos..self.pos + s.len()].write_copy_of_slice(s);
        self.pos += s.len();
    }
}

/// The helper pool: one job slot served by `available_parallelism() - 1`
/// persistent helpers.
struct Pool {
    state: Mutex<State>,
    /// Signals helpers that a job was posted.
    posted: Condvar,
    /// Signals the caller that the last helper left its job.
    left: Condvar,
}

struct State {
    /// Held from posting a job until its last helper has left it.
    busy: bool,
    /// The posted job, while helpers may still join it.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Bumped per posted job, so a helper joins each job at most once.
    generation: u64,
    /// Helpers currently running the posted (or just retracted) job.
    inside: usize,
}

/// `None` on a single-thread host: nothing to split over.
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let helpers = max_width() - 1;
        if helpers == 0 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State { busy: false, job: None, generation: 0, inside: 0 }),
            posted: Condvar::new(),
            left: Condvar::new(),
        }));
        for i in 0..helpers {
            std::thread::Builder::new()
                .name(format!("fc-par-{i}"))
                .spawn(move || pool.serve())
                .expect("spawn kernel helper");
        }
        Some(pool)
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    /// Helper loop: join each posted job once, run it, leave.
    fn serve(&self) {
        WIDTH.with(|w| w.set(1));
        let mut seen = 0;
        let mut st = lock(&self.state);
        loop {
            st = self
                .posted
                .wait_while(st, |s| s.job.is_none() || s.generation == seen)
                .unwrap_or_else(|e| e.into_inner());
            seen = st.generation;
            let job = st.job.expect("posted job");
            st.inside += 1;
            drop(st);
            job();
            st = lock(&self.state);
            st.inside -= 1;
            if st.inside == 0 {
                self.left.notify_one();
            }
        }
    }

    /// Run `job` on the calling thread and on every helper that wakes in
    /// time, returning once no helper is inside it; `false`, without
    /// running it, when another thread holds the job slot. `job` must not
    /// panic (callers catch chunk panics inside it).
    fn run(&'static self, job: &(dyn Fn() + Sync)) -> bool {
        /// Retracts the job, waits for the helpers inside it to leave and
        /// frees the slot — also when the caller unwinds.
        struct Retract(&'static Pool);
        impl Drop for Retract {
            fn drop(&mut self) {
                let mut st = lock(&self.0.state);
                st.job = None;
                while st.inside > 0 {
                    st = self.0.left.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                st.busy = false;
            }
        }
        // SAFETY: helpers see `job` only through `State::job`. It is posted
        // below and retracted by `Retract`, whose drop (on return and on
        // unwind alike) also waits until `inside == 0`, i.e. until every
        // helper that joined has returned from `job` and will not call it
        // again (it joins each generation once, and only while the job is
        // posted). So no helper uses the reference after this function
        // returns, and the `'static` lifetime is never relied on past the
        // borrow of `job`.
        let job_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut st = lock(&self.state);
            if st.busy {
                return false;
            }
            st.busy = true;
            st.job = Some(job_static);
            st.generation += 1;
        }
        let _retract = Retract(self);
        self.posted.notify_all();
        job();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{
        bits, elementwise as ew, fused, gather as gk, matmul as mk, segment as sk, test_value,
    };
    use crate::shape::{Bcast, Shape};
    use crate::tensor::Tensor;
    use crate::{BinKind, SrbfCfg, UnKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

    thread_local! {
        /// Kernels this thread has split into chunks (which the helpers
        /// join unless another thread holds them).
        pub(super) static SPLITS: Cell<usize> = const { Cell::new(0) };
    }

    fn draw(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(
            Shape::new(rows, cols),
            (0..rows * cols).map(|_| test_value(rng)).collect(),
        )
    }

    fn ids(rng: &mut StdRng, len: usize, bound: usize) -> Arc<[u32]> {
        (0..len).map(|_| rng.gen_range(0..bound.max(1)) as u32).collect()
    }

    /// Every split kernel on seeded `rows × cols` inputs, as named closures.
    #[allow(clippy::type_complexity)]
    fn kernels(
        seed: u64,
        rows: usize,
        cols: usize,
    ) -> Vec<(&'static str, Box<dyn Fn() -> Tensor>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = draw(&mut rng, rows, cols);
        let b = draw(&mut rng, rows, cols);
        let row = draw(&mut rng, 1, cols);
        let col = draw(&mut rng, rows, 1);
        let w = draw(&mut rng, cols, 33);
        let w66 = draw(&mut rng, cols + 1, 66);
        let a3 = draw(&mut rng, rows, 3);
        let blocks = draw(&mut rng, 3 * 5, 3);
        let (gamma, beta) = (draw(&mut rng, 1, cols), draw(&mut rng, 1, cols));
        let gather_idx = ids(&mut rng, rows + rows / 2, rows);
        let block_seg = ids(&mut rng, rows, 5);
        let seg = ids(&mut rng, rows, 301);
        let (g, g33) = (draw(&mut rng, rows, cols), draw(&mut rng, rows, 33));
        let shape = a.shape();
        let cfg = SrbfCfg::new(16, 5.0, 8);
        let (hc, ln) = (draw(&mut rng, rows, cols), [(); 4].map(|_| draw(&mut rng, 1, cols)));
        let src = draw(&mut rng, rows, cols);
        vec![
            (
                "matmul_at",
                Box::new({
                    let (a, g33) = (a.clone(), g33.clone());
                    move || mk::matmul_at(&a, &g33)
                }),
            ),
            ("matmul", Box::new(move || mk::matmul(&a, &w))),
            (
                "un.silu",
                Box::new({
                    let a = b.clone();
                    move || ew::unary(UnKind::Silu, &a)
                }),
            ),
            (
                "un.scale",
                Box::new({
                    let a = b.clone();
                    move || ew::unary(UnKind::Scale(0.5), &a)
                }),
            ),
            (
                "bin.add full",
                Box::new({
                    let (a, b) = (b.clone(), col.clone());
                    let b = Tensor::from_vec(
                        a.shape(),
                        (0..a.len()).map(|i| b.data()[i % b.len().max(1)]).collect(),
                    );
                    move || ew::binary(BinKind::Add, &a, Bcast::Full, &b, Bcast::Full, shape)
                }),
            ),
            (
                "bin.mul row",
                Box::new({
                    let (a, row) = (b.clone(), row.clone());
                    move || ew::binary(BinKind::Mul, &a, Bcast::Full, &row, Bcast::Row, shape)
                }),
            ),
            (
                "bin.div col",
                Box::new({
                    let (a, col) = (b.clone(), col.clone());
                    move || ew::binary(BinKind::Div, &col, Bcast::Col, &a, Bcast::Full, shape)
                }),
            ),
            (
                "bin.sub col x row",
                Box::new({
                    let (col, row) = (col.clone(), row.clone());
                    move || ew::binary(BinKind::Sub, &col, Bcast::Col, &row, Bcast::Row, shape)
                }),
            ),
            (
                "fused.gate",
                Box::new({
                    let (a, c) = (b.clone(), b.clone());
                    move || fused::fused_gate(&a, &c)
                }),
            ),
            (
                "fused.layer_norm",
                Box::new({
                    let (a, gamma) = (b.clone(), gamma.clone());
                    move || fused::fused_layer_norm(&a, &gamma, &beta, 1e-5)
                }),
            ),
            (
                "fused.ln_vjp dx",
                Box::new({
                    let (x, gamma, g) = (b.clone(), gamma.clone(), g.clone());
                    move || fused::layer_norm_vjp(&x, &gamma, &g, 1e-5).0
                }),
            ),
            (
                "fused.ln_vjp dgamma",
                Box::new({
                    let (x, gamma, g) = (b.clone(), gamma.clone(), g.clone());
                    move || fused::layer_norm_vjp(&x, &gamma, &g, 1e-5).1
                }),
            ),
            (
                "fused.gate_vjp",
                Box::new({
                    let (x, y) = (b.clone(), col.clone());
                    let y = Tensor::from_vec(
                        x.shape(),
                        (0..x.len()).map(|i| y.data()[i % y.len().max(1)]).collect(),
                    );
                    move || {
                        let [ga, gb] = crate::kernels::exp::gate_vjp(x.data(), y.data(), g.data());
                        Tensor::from_vec(Shape::new(2, x.len()), [ga, gb].concat())
                    }
                }),
            ),
            (
                "fused.srbf 0",
                Box::new({
                    let c = col.clone();
                    move || fused::fused_srbf(&c, cfg, 0)
                }),
            ),
            (
                "fused.srbf 1",
                Box::new({
                    let c = col.clone();
                    move || fused::fused_srbf(&c, cfg, 1)
                }),
            ),
            (
                "fused.fourier",
                Box::new({
                    let c = col.clone();
                    move || fused::fused_fourier(&c, 7, 1)
                }),
            ),
            (
                "gather",
                Box::new({
                    let (a, idx) = (b.clone(), gather_idx.clone());
                    move || gk::gather_rows(&a, &idx)
                }),
            ),
            (
                "concat_cols",
                Box::new({
                    let (a, c) = (b.clone(), col.clone());
                    move || gk::concat_cols(&[&a, &c, &a])
                }),
            ),
            (
                "slice_cols",
                Box::new({
                    let a = b.clone();
                    move || gk::slice_cols(&a, cols.min(1), cols.saturating_sub(2))
                }),
            ),
            (
                "block_diag_mm",
                Box::new({
                    let (a3, blocks, seg) = (a3.clone(), blocks.clone(), block_seg.clone());
                    move || mk::block_diag_matmul(&a3, &blocks, &seg)
                }),
            ),
            (
                "block_diag_mm_tb",
                Box::new(move || mk::block_diag_matmul_tb(&a3, &blocks, &block_seg)),
            ),
            (
                "segment_sum",
                Box::new({
                    let (a, seg) = (b.clone(), seg.clone());
                    move || sk::segment_sum(&a, &seg, 301)
                }),
            ),
            (
                "linear_split",
                Box::new({
                    let (v, a, idx, w) = (b.clone(), col.clone(), gather_idx.clone(), w66.clone());
                    let bias = draw(&mut rng, 1, 66);
                    move || {
                        let idx = &idx[..idx.len().min(v.rows())];
                        let blocks = [
                            gk::Block { src: &v, idx: Some(idx) },
                            gk::Block { src: &a, idx: None },
                        ];
                        let [lo, hi] = mk::linear_split::<2>(&blocks, v.rows(), &w, &bias);
                        Tensor::from_vec(Shape::new(2, lo.len()), [lo.data(), hi.data()].concat())
                    }
                }),
            ),
            (
                "fused.ln_gate",
                Box::new({
                    let (h, hc, ln) = (b.clone(), hc.clone(), ln.clone());
                    move || fused::ln_gate([&h, &hc], [[&ln[0], &ln[1]], [&ln[2], &ln[3]]], 1e-5)
                }),
            ),
            (
                "weighted_segment_sum",
                Box::new({
                    let (x, src, idx, seg) =
                        (b.clone(), src.clone(), gather_idx.clone(), seg.clone());
                    move || {
                        let rows = x.rows();
                        let w = [
                            gk::Block { src: &src, idx: Some(&idx[..rows]) },
                            gk::Block { src: &src, idx: Some(&idx[rows / 2..][..rows]) },
                        ];
                        sk::weighted_segment_sum(&x, &w, &seg, 301)
                    }
                }),
            ),
            (
                "matmul_at_blocks",
                Box::new({
                    let (v, idx) = (b.clone(), gather_idx.clone());
                    move || {
                        let blocks = [gk::Block { src: &v, idx: Some(&idx[..v.rows()]) }];
                        mk::matmul_at_blocks(&blocks, &g33)
                    }
                }),
            ),
        ]
    }

    #[test]
    fn split_kernels_are_bitwise_the_width_1_kernels() {
        // Rows: empty, one, a few, and counts on both sides of the split
        // threshold, which no chunk count divides; every kernel splits at
        // the largest.
        let before = SPLITS.with(Cell::get);
        let mut split = std::collections::BTreeMap::new();
        let mut case = 0;
        for rows in [0, 1, 7, 509, 512, 1031, 2053, 11003] {
            for cols in [0, 1, 16, 33] {
                case += 1;
                for (name, kernel) in kernels(case, rows, cols) {
                    let one = with_width(1, &kernel);
                    let splits = SPLITS.with(Cell::get);
                    let wide = kernel();
                    *split.entry(name).or_insert(false) |= SPLITS.with(Cell::get) > splits;
                    assert_eq!(one.shape(), wide.shape(), "{name} {rows}x{cols}");
                    assert_eq!(
                        bits(one.data()),
                        bits(wide.data()),
                        "{name} {rows}x{cols} (seed {case})"
                    );
                }
            }
        }
        if width() > 1 {
            assert!(SPLITS.with(Cell::get) > before, "no kernel split");
            let unsplit: Vec<_> = split.iter().filter(|(_, &s)| !s).map(|(n, _)| n).collect();
            assert!(unsplit.is_empty(), "kernels that never split: {unsplit:?}");
        }
    }

    #[test]
    fn concurrent_callers_both_get_bitwise_results() {
        // Two threads split large kernels at once (released together by a
        // barrier): one holds the job slot, the other runs its kernels
        // alone; both must match width 1.
        let start = Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let kernels = kernels(100 + t, 2053, 33);
                    let want: Vec<_> =
                        kernels.iter().map(|(_, k)| bits(with_width(1, k).data())).collect();
                    start.wait();
                    for _ in 0..3 {
                        for ((name, kernel), want) in kernels.iter().zip(&want) {
                            assert_eq!(&bits(kernel().data()), want, "{name} on thread {t}");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("kernel thread panicked");
        }
    }

    /// The message of a caught panic.
    fn message(p: Box<dyn Any + Send>) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn bad_indices_panic_on_the_caller_with_the_serial_message() {
        // Large enough that both kernels split at SPLIT_WORK.
        const N: usize = 16_000;
        let mut rng = StdRng::seed_from_u64(7);
        let a = draw(&mut rng, N, 16);
        let mut idx: Vec<u32> = (0..N as u32).rev().collect();
        idx[12_000] = N as u32;
        let p = panic::catch_unwind(|| gk::gather_rows(&a, &idx)).unwrap_err();
        assert_eq!(message(p), "gather index 16000 out of range (16000 rows)");
        let mut seg: Vec<u32> = (0..N as u32).map(|r| r % 64).collect();
        seg[N - 1] = 64;
        let p = panic::catch_unwind(|| sk::segment_sum(&a, &seg, 64)).unwrap_err();
        assert_eq!(message(p), "segment id 64 out of range (64 segments)");
        // The pool is free again: the next large kernels split and agree.
        idx[12_000] = 0;
        seg[N - 1] = 0;
        let before = SPLITS.with(Cell::get);
        assert_eq!(
            bits(gk::gather_rows(&a, &idx).data()),
            bits(with_width(1, || gk::gather_rows(&a, &idx)).data())
        );
        let (s, s1) =
            (sk::segment_sum(&a, &seg, 64), with_width(1, || sk::segment_sum(&a, &seg, 64)));
        assert_eq!(bits(s.data()), bits(s1.data()));
        if width() > 1 {
            assert_eq!(SPLITS.with(Cell::get) - before, 2, "both kernels split");
        }
    }

    #[test]
    fn chunk_panics_reach_the_caller_and_the_pool_survives() {
        for round in 0..3 {
            let mut data = vec![0u32; 4096];
            let p = panic::catch_unwind(AssertUnwindSafe(|| {
                for_row_chunks(&mut data, 4096, 1, 8, |r, _| {
                    if r.contains(&4000) {
                        panic!("row 4000 failed");
                    }
                })
            }))
            .unwrap_err();
            assert_eq!(message(p), "row 4000 failed", "round {round}");
            for_row_chunks(&mut data, 4096, 1, 8, |r, part| {
                for (v, i) in part.iter_mut().zip(r) {
                    *v = i as u32;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i), "round {round}");
        }
    }

    #[test]
    fn width_is_a_thread_scoped_budget() {
        std::thread::spawn(|| {
            let full = width();
            assert_eq!(full, max_width());
            with_width(1, || {
                assert_eq!(width(), 1);
                // A budget narrows; it never widens.
                with_width(8, || assert_eq!(width(), 1));
                std::thread::spawn(|| assert_eq!(width(), max_width())).join().unwrap();
            });
            assert_eq!(width(), full);
            let _ = std::panic::catch_unwind(|| with_width(1, || panic!("inside")));
            assert_eq!(width(), full, "restored after a panic");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn chunks_cover_every_row_once() {
        for rows in [0usize, 1, 2, 7, 64, 1001] {
            for n_chunks in [1usize, 2, 3, 8, 5000] {
                let mut data = vec![0u32; rows * 3];
                for_row_chunks(&mut data, rows, 3, n_chunks, |r, part| {
                    assert_eq!(part.len(), r.len() * 3);
                    for (i, v) in part.iter_mut().enumerate() {
                        *v += (r.start * 3 + i) as u32 + 1;
                    }
                });
                let want: Vec<u32> = (1..=rows as u32 * 3).collect();
                assert_eq!(data, want, "rows {rows}, chunks {n_chunks}");
            }
        }
    }
}

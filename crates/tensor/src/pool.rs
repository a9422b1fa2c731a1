//! Thread-local buffer pool with power-of-two size classes.
//!
//! The tape heap-allocates one `Vec<f32>` per node per iteration; since
//! tape shapes repeat across training steps, steady-state training can
//! recycle iteration N's buffers for iteration N+1 instead of hitting the
//! allocator thousands of times per step. Kernels *acquire* through this
//! pool unconditionally ([`zeroed`] / [`from_slice`] / [`with_capacity`]);
//! buffers are *released* back by `Tape::truncate`, the final backward
//! sweep's frees at last use and batch recycling. On a fresh pool every
//! acquire is a plain allocation.
//!
//! The pool files only buffers of the shape it hands out: a power-of-two
//! capacity, which serves every request of its class. A request whose
//! class is empty takes the smallest idle buffer of the next [`REACH`]
//! classes (up to 4× its class capacity) before it allocates, so a thread
//! whose requests shift between steps reuses what it holds instead of
//! growing every class to its own high-water mark. Any other buffer
//! ([`release`] of a plain `Vec`, a `clone()`, a `collect()`) goes back to
//! the allocator, so a loop that puts such buffers on its tapes cannot grow
//! the pool; a steady-state loop whose every tensor buffer comes from the
//! pool neither misses nor grows it.
//!
//! Contents never affect numerics: [`zeroed`] returns an all-zero buffer
//! exactly like `vec![0.0; n]`, and [`from_slice`] an exact copy.
//!
//! Each OS thread owns one [`PoolCore`] (the simulated device's caching
//! allocator). Cluster ranks run on short-lived scoped worker threads, so
//! the cluster persists each worker's core across steps with
//! [`take_core`] / [`install_core`]. A kernel split across
//! [`crate::par`]'s helper threads acquires its output on the calling
//! thread before the split; helpers only write into it and never touch a
//! pool, so every acquire and release stays on the tape's thread.

use std::cell::RefCell;

/// Retention cap per thread: releases beyond this many pooled bytes are
/// dropped to the allocator instead of being cached.
const MAX_POOLED_BYTES: u64 = 256 << 20;

/// Size classes cover capacities `2^0 ..= 2^(N_CLASSES-1)` elements.
const N_CLASSES: usize = 33;

/// How many classes above its own an acquire looks in when its class is
/// empty: a miss may take a buffer up to `2^REACH` times the capacity it
/// asked for.
const REACH: usize = 2;

/// Monotone hit/miss/recycle counters plus the pooled-bytes level of one
/// thread's pool. Snapshots are compared by the tape to attribute pool
/// activity to its profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from a free list.
    pub hits: u64,
    /// Acquires that fell through to the allocator.
    pub misses: u64,
    /// Bytes handed out on hits (requested length, not class capacity).
    pub bytes_recycled: u64,
    /// Bytes currently cached in free lists (level, by class capacity).
    pub bytes_pooled: u64,
}

/// One thread's pool state: per-class free lists plus counters. `Send`, so
/// the cluster can hand a worker's pool to the thread it spawns for that
/// worker each step.
pub struct PoolCore {
    classes: Vec<Vec<Vec<f32>>>,
    stats: PoolStats,
}

impl Default for PoolCore {
    fn default() -> Self {
        PoolCore {
            classes: (0..N_CLASSES).map(|_| Vec::new()).collect(),
            stats: PoolStats::default(),
        }
    }
}

impl PoolCore {
    /// This core's counters (what [`stats`] reads for the installed one).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

thread_local! {
    static POOL: RefCell<PoolCore> = RefCell::new(PoolCore::default());
}

/// Class index serving requests of `n` elements: ceil log2.
#[inline]
fn class_of(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// Acquire a cleared buffer (len 0) with capacity at least `n`: an idle
/// buffer of `n`'s class, else the smallest idle one of the next [`REACH`]
/// classes, else a fresh allocation of `n`'s class capacity.
fn acquire_raw(n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    let class = class_of(n);
    POOL.with(|p| {
        let mut core = p.borrow_mut();
        let top = (class + REACH).min(N_CLASSES - 1);
        if let Some((c, mut v)) = (class..=top).find_map(|c| Some((c, core.classes[c].pop()?))) {
            core.stats.hits += 1;
            core.stats.bytes_recycled += 4 * n as u64;
            core.stats.bytes_pooled = core.stats.bytes_pooled.saturating_sub(4u64 << c);
            v.clear();
            v
        } else {
            core.stats.misses += 1;
            Vec::with_capacity(1 << class)
        }
    })
}

/// A zero-filled buffer of length `n` — contents identical to
/// `vec![0.0; n]`.
pub fn zeroed(n: usize) -> Vec<f32> {
    let mut v = acquire_raw(n);
    v.resize(n, 0.0);
    v
}

/// An exact copy of `s` in a pool-acquired buffer.
pub fn from_slice(s: &[f32]) -> Vec<f32> {
    let mut v = acquire_raw(s.len());
    v.extend_from_slice(s);
    v
}

/// An empty buffer with capacity at least `n`, for callers that build the
/// contents with `extend`/`push`.
pub fn with_capacity(n: usize) -> Vec<f32> {
    acquire_raw(n)
}

/// Return a buffer to this thread's pool if it has the power-of-two
/// capacity of an acquired one, else (or past the retention cap) drop it
/// to the allocator. Un-released buffers are simply dropped.
pub fn release(v: Vec<f32>) {
    let cap = v.capacity();
    if !cap.is_power_of_two() {
        return; // not a pool buffer (and capacity 0): drop to the allocator
    }
    let class = cap.trailing_zeros() as usize;
    if class >= N_CLASSES {
        return;
    }
    POOL.with(|p| {
        let mut core = p.borrow_mut();
        let bytes = 4u64 << class;
        if core.stats.bytes_pooled + bytes > MAX_POOLED_BYTES {
            return; // drop to the allocator
        }
        core.stats.bytes_pooled += bytes;
        core.classes[class].push(v);
    });
}

/// Current thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Take this thread's pool core, leaving a fresh empty one. Used by the
/// cluster to persist a worker's pool beyond its scoped thread.
pub fn take_core() -> PoolCore {
    POOL.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Install `core` as this thread's pool (dropping the previous one).
pub fn install_core(core: PoolCore) {
    POOL.with(|p| *p.borrow_mut() = core);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_recycles_the_buffer() {
        // Run on a dedicated thread: pool state is thread-local and tests
        // share threads under the default harness.
        std::thread::spawn(|| {
            let base = stats();
            let v = zeroed(100);
            assert_eq!(v.len(), 100);
            assert!(v.iter().all(|&x| x == 0.0));
            assert_eq!(stats().misses - base.misses, 1);
            let ptr = v.as_ptr();
            release(v);
            assert!(stats().bytes_pooled > 0);
            let w = zeroed(100);
            assert_eq!(stats().hits - base.hits, 1);
            assert_eq!(w.as_ptr(), ptr, "same buffer comes back");
            assert!(w.iter().all(|&x| x == 0.0), "recycled buffer is re-zeroed");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn classes_serve_any_len_up_to_capacity() {
        std::thread::spawn(|| {
            let v = zeroed(100); // class 7 (128)
            release(v);
            let base = stats();
            let w = from_slice(&[1.0; 70]); // 70 -> class 7 too
            assert_eq!(stats().hits - base.hits, 1);
            assert_eq!(w.len(), 70);
            assert!(w.iter().all(|&x| x == 1.0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn an_empty_class_borrows_from_up_to_two_classes_above() {
        std::thread::spawn(|| {
            // One idle buffer each of 256, 512 and 1024 floats.
            for n in [256, 512, 1024] {
                release(with_capacity(n));
            }
            assert_eq!(stats().bytes_pooled, 4 * (256 + 512 + 1024));
            // 100 floats ask for class 128: two classes up is 512, so the
            // 256 goes first (the smallest), then the 512.
            let base = stats();
            let a = zeroed(100);
            assert_eq!(a.capacity(), 256);
            assert_eq!(stats().bytes_pooled, 4 * (512 + 1024), "debited by the class taken");
            let b = zeroed(100);
            assert_eq!(b.capacity(), 512);
            assert_eq!(stats().bytes_pooled, 4 * 1024);
            assert_eq!((stats().hits - base.hits, stats().misses - base.misses), (2, 0));
            // The 1024 is three classes up: out of reach, so this allocates.
            let c = zeroed(100);
            assert_eq!(c.capacity(), 128);
            assert_eq!(stats().misses - base.misses, 1);
            assert_eq!(stats().bytes_pooled, 4 * 1024, "the far buffer stays filed");
            // A borrowed buffer goes back to its own class.
            release(b);
            assert_eq!(stats().bytes_pooled, 4 * (512 + 1024));
            assert_eq!(with_capacity(300).capacity(), 512);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn buffers_of_other_capacities_go_back_to_the_allocator() {
        std::thread::spawn(|| {
            let v = vec![1.0f32; 100]; // capacity 100, not a pool buffer
            assert_eq!(v.capacity(), 100);
            release(v);
            assert_eq!(stats().bytes_pooled, 0, "a foreign buffer was filed");
            release(from_slice(&[1.0; 100])); // capacity 128
            assert_eq!(stats().bytes_pooled, 4 * 128);
            // The capacity decides, not where the buffer came from.
            release(Vec::with_capacity(8));
            assert_eq!(stats().bytes_pooled, 4 * 128 + 4 * 8);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zero_len_and_core_handoff() {
        std::thread::spawn(|| {
            let v = zeroed(0);
            assert!(v.is_empty());
            release(v); // no-op, capacity 0
            let x = zeroed(33);
            release(x);
            let core = take_core();
            assert_eq!(stats(), PoolStats::default(), "fresh core after take");
            let miss = zeroed(33); // fresh core: miss
            assert_eq!(stats().misses, 1);
            drop(miss);
            install_core(core);
            let base = stats();
            let hit = zeroed(33);
            assert_eq!(stats().hits - base.hits, 1, "restored core serves the hit");
            drop(hit);
        })
        .join()
        .unwrap();
    }
}

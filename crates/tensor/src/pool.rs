//! Thread-local buffer pool with two size classes per octave, trimmed to
//! what one unit of work needs.
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
//! **Classes.** Class `2k` holds buffers of `2^k` floats and class `2k + 1`
//! the step between, `⌈2^k·√2⌉` floats rounded up to a multiple of 16 above
//! 64, so a class capacity is at most 1.5× the smallest request it serves
//! (a power-of-two class's is 2×). The class of a request is arithmetic on
//! its length ([`class_of`]), and a class capacity serves every request of
//! its class. A request whose class is empty takes the smallest idle buffer of
//! the next [`REACH`] classes (up to 8× its class capacity) before it
//! allocates, so a thread whose requests shift between steps reuses what it
//! holds instead of growing every class to its own high-water mark. The
//! pool files only buffers whose capacity is a class capacity; any other
//! buffer ([`release`] of a plain `Vec`, a `clone()`, a `collect()`) goes
//! back to the allocator, so a loop that puts such buffers on its tapes
//! cannot grow the pool; a steady-state loop whose every tensor buffer
//! comes from the pool neither misses nor grows it.
//!
//! **Budget and trim.** Per class the pool counts the buffers checked out
//! and the most that were out at once since the last [`trim`]. A unit of
//! work (a cluster worker's step, one `Calculator::evaluate`) ends with
//! [`trim`]: the unit's need is the sum of those per-class maxima times the
//! class capacities, and the pool's budget the largest need it has seen.
//! While the idle bytes exceed the budget, `trim` drops idle buffers to the
//! allocator, largest class first, never leaving a class fewer than the
//! unit just ended used at once. Repeating a unit therefore drops nothing,
//! while buffers that only a mix of different units piled up go back.
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

/// Size classes cover capacities `2^0 ..= 2^32` elements, two per octave.
const N_CLASSES: usize = 65;

/// How many classes above its own an acquire looks in when its class is
/// empty: three octaves, so a miss may take a buffer up to 8× the capacity
/// it asked for.
const REACH: usize = 6;

/// Capacity in elements of each class: `2^k` for class `2k`, and for class
/// `2k + 1` the smallest integer above `2^k·√2` (`2·4^k` is never a
/// square), rounded up to a multiple of 16 (64 bytes) above 64. Class 1 and
/// class 2 both hold 2 floats; [`class_of`] never picks class 2.
const CAPS: [usize; N_CLASSES] = {
    let mut caps = [0; N_CLASSES];
    let mut c = 0;
    while c < N_CLASSES {
        let k = c / 2;
        caps[c] = if c % 2 == 0 {
            1 << k
        } else {
            let mid = (2u64 << (2 * k)).isqrt() as usize + 1;
            if mid > 64 {
                mid.next_multiple_of(16)
            } else {
                mid
            }
        };
        c += 1;
    }
    caps
};

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

/// One size class: its idle buffers and how many of its capacity are out.
#[derive(Default)]
struct Class {
    idle: Vec<Vec<f32>>,
    /// Buffers of this capacity handed out and not released.
    out: usize,
    /// The most `out` has been since the last trim.
    high: usize,
}

/// One thread's pool state: per-class free lists plus counters. `Send`, so
/// the cluster can hand a worker's pool to the thread it spawns for that
/// worker each step.
pub struct PoolCore {
    classes: Vec<Class>,
    /// The largest need of one unit of work seen so far (bytes).
    budget: u64,
    stats: PoolStats,
}

impl Default for PoolCore {
    fn default() -> Self {
        PoolCore {
            classes: (0..N_CLASSES).map(|_| Class::default()).collect(),
            budget: 0,
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

/// Bytes of a buffer of `cap` floats.
#[inline]
fn bytes(cap: usize) -> u64 {
    4 * cap as u64
}

/// Class serving requests of `n ≥ 1` elements: the even class of
/// `⌈log2 n⌉` or the odd class just below it, or `N_CLASSES` past the last.
#[inline]
fn class_of(n: usize) -> usize {
    let k = (usize::BITS - (n - 1).leading_zeros()) as usize;
    if 2 * k >= N_CLASSES {
        N_CLASSES
    } else if k > 0 && n <= CAPS[2 * k - 1] {
        2 * k - 1
    } else {
        2 * k
    }
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
        let core = &mut *p.borrow_mut();
        if class == N_CLASSES {
            core.stats.misses += 1;
            return Vec::with_capacity(n);
        }
        let top = (class + REACH).min(N_CLASSES - 1);
        let (c, v) = match (class..=top).find_map(|c| Some((c, core.classes[c].idle.pop()?))) {
            Some((c, mut v)) => {
                core.stats.hits += 1;
                core.stats.bytes_recycled += bytes(n);
                core.stats.bytes_pooled -= bytes(CAPS[c]);
                v.clear();
                (c, v)
            }
            None => {
                core.stats.misses += 1;
                (class, Vec::with_capacity(CAPS[class]))
            }
        };
        let k = &mut core.classes[c];
        k.out += 1;
        k.high = k.high.max(k.out);
        v
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

/// Return a buffer to this thread's pool if its capacity is a class
/// capacity, else (or past the retention cap) drop it to the allocator.
/// Un-released buffers are simply dropped.
pub fn release(v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    let class = class_of(cap);
    if class == N_CLASSES || CAPS[class] != cap {
        return; // not a pool buffer: drop to the allocator
    }
    POOL.with(|p| {
        let core = &mut *p.borrow_mut();
        let k = &mut core.classes[class];
        k.out = k.out.saturating_sub(1);
        if core.stats.bytes_pooled + bytes(cap) > MAX_POOLED_BYTES {
            return; // drop to the allocator
        }
        core.stats.bytes_pooled += bytes(cap);
        k.idle.push(v);
    });
}

/// End a unit of work on this thread's pool: raise the budget to the
/// unit's need, drop idle buffers past the budget (largest class first,
/// keeping each class what the unit used at once) and start counting the
/// next unit's need. See the module docs.
pub fn trim() {
    POOL.with(|p| {
        let core = &mut *p.borrow_mut();
        let need: u64 =
            core.classes.iter().zip(CAPS).map(|(k, cap)| bytes(cap) * k.high as u64).sum();
        core.budget = core.budget.max(need);
        for (k, cap) in core.classes.iter_mut().zip(CAPS).rev() {
            let keep = k.high.saturating_sub(k.out);
            while core.stats.bytes_pooled > core.budget && k.idle.len() > keep {
                k.idle.pop();
                core.stats.bytes_pooled -= bytes(cap);
            }
            k.high = k.out;
        }
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
            let w = from_slice(&[1.0; 70]); // class 96, empty: served by the 128
            assert_eq!(stats().hits - base.hits, 1);
            assert_eq!(w.len(), 70);
            assert!(w.iter().all(|&x| x == 1.0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn an_empty_class_borrows_from_up_to_three_octaves_above() {
        std::thread::spawn(|| {
            // One idle buffer each of 192, 512 and 1456 floats.
            for n in [192, 512, 1456] {
                release(with_capacity(n));
            }
            assert_eq!(stats().bytes_pooled, 4 * (192 + 512 + 1456));
            // 100 floats ask for class 128: three octaves up is 1024, so the
            // 192 goes first (the smallest), then the 512.
            let base = stats();
            let a = zeroed(100);
            assert_eq!(a.capacity(), 192);
            assert_eq!(stats().bytes_pooled, 4 * (512 + 1456), "debited by the class taken");
            let b = zeroed(100);
            assert_eq!(b.capacity(), 512);
            assert_eq!(stats().bytes_pooled, 4 * 1456);
            assert_eq!((stats().hits - base.hits, stats().misses - base.misses), (2, 0));
            // 1456 is seven classes up, past 8×: out of reach, so this
            // allocates.
            let c = zeroed(100);
            assert_eq!(c.capacity(), 128);
            assert_eq!(stats().misses - base.misses, 1);
            assert_eq!(stats().bytes_pooled, 4 * 1456, "the far buffer stays filed");
            // A borrowed buffer goes back to its own class.
            release(b);
            assert_eq!(stats().bytes_pooled, 4 * (512 + 1456));
            assert_eq!(with_capacity(300).capacity(), 512);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_reach_stops_at_eight_times_the_class_capacity() {
        for c in (0..N_CLASSES - REACH).filter(|&c| CAPS[c] >= 64) {
            let ratio = CAPS[c + REACH] as f64 / CAPS[c] as f64;
            assert!((7.5..=8.0).contains(&ratio), "class {c}: {ratio}");
        }
        std::thread::spawn(|| {
            // Requests of an even and an odd class; one idle buffer three
            // octaves up and one a class past that.
            for (n, far, past) in [(1024, 8192, 11600), (1456, 11600, 16384)] {
                release(with_capacity(far));
                release(with_capacity(past));
                assert_eq!(with_capacity(n).capacity(), far, "8× is in reach");
                let base = stats();
                assert_eq!(with_capacity(n).capacity(), n, "past 8× allocates");
                assert_eq!(stats().misses - base.misses, 1);
                let _ = take_core();
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn every_class_capacity_serves_its_whole_class() {
        // Strictly growing above class 2, two classes per octave, 64-byte
        // multiples above 64 floats.
        for c in 3..N_CLASSES {
            assert!(CAPS[c] > CAPS[c - 1], "class {c}");
            assert!(CAPS[c] as f64 <= CAPS[c - 1] as f64 * 1.5, "class {c}");
            if CAPS[c] > 64 {
                assert_eq!(CAPS[c] % 16, 0, "class {c}");
            }
        }
        assert_eq!(CAPS[2 * 32], 1 << 32);
        // The arithmetic class of each end of a class's range is that class.
        for c in 1..N_CLASSES {
            let (lo, hi) = (CAPS[c - 1] + 1, CAPS[c]);
            if lo <= hi {
                assert_eq!((class_of(lo), class_of(hi)), (c, c), "class {c}: {lo}..={hi}");
            }
        }
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of((1 << 32) + 1), N_CLASSES);
        std::thread::spawn(|| {
            for c in 0..2 * 16 {
                // A class capacity is filed and serves the class's largest
                // request; one float more than it is a foreign buffer.
                let before = stats().bytes_pooled;
                let v = with_capacity(CAPS[c]);
                assert_eq!(v.capacity(), CAPS[c], "class {c}");
                release(v);
                assert_eq!(stats().bytes_pooled, before + 4 * CAPS[c] as u64, "class {c}");
                if CAPS[c] + 1 < CAPS[c + 1] {
                    release(Vec::with_capacity(CAPS[c] + 1));
                    assert_eq!(stats().bytes_pooled, before + 4 * CAPS[c] as u64, "class {c}");
                }
                let _ = take_core();
            }
        })
        .join()
        .unwrap();
    }

    /// Check out buffers of `lens` at once, then release them all.
    fn unit(lens: &[usize]) {
        let held: Vec<_> = lens.iter().map(|&n| zeroed(n)).collect();
        held.into_iter().for_each(release);
    }

    #[test]
    fn trim_keeps_the_last_units_need_and_no_more_than_the_largest() {
        std::thread::spawn(|| {
            // A large unit sets the budget: its buffers all stay.
            unit(&[4096, 4096, 1024]);
            trim();
            let largest = 4 * (2 * 4096 + 1024);
            assert_eq!(stats().bytes_pooled, largest);
            // A unit of small buffers (64-float requests reach 512) adds to
            // the idle bytes; trim drops the largest class first, down to
            // the budget, and keeps what the small unit used at once.
            unit(&[64; 4]);
            assert_eq!(stats().bytes_pooled, largest + 4 * 4 * 64);
            trim();
            let kept = 4 * (4096 + 1024 + 4 * 64);
            assert_eq!(stats().bytes_pooled, kept);
            // The small unit again, then a smaller one: nothing misses and
            // nothing goes.
            let base = stats();
            unit(&[64; 4]);
            trim();
            unit(&[64]);
            trim();
            assert_eq!(stats().misses, base.misses);
            assert_eq!(stats().bytes_pooled, kept);
            // The large unit again misses the dropped 4096 once. Its
            // classes stay whole; the small class it did not use goes.
            unit(&[4096, 4096, 1024]);
            assert_eq!(stats().misses - base.misses, 1);
            trim();
            assert_eq!(stats().bytes_pooled, largest);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_unit_repeated_after_a_trim_never_misses() {
        std::thread::spawn(|| {
            // Units of varying shapes, each repeated: the repeat takes
            // every buffer from the pool and leaves it level.
            let units: [&[usize]; 4] =
                [&[1000, 1000, 300, 77, 5], &[5000, 20, 20, 20], &[700; 9], &[1000, 30, 4000, 64]];
            for lens in units {
                unit(lens);
                trim();
                let base = stats();
                unit(lens);
                trim();
                assert_eq!(stats().misses, base.misses, "{lens:?}");
                assert_eq!(stats().bytes_pooled, base.bytes_pooled, "{lens:?}");
            }
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

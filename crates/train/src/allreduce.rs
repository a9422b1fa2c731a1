//! Gradient all-reduce: the deterministic tree the cluster combines rank
//! gradients with, plus the α-β ring cost model ([`CommModel`]) that
//! [`crate::ScalingModel`] adds to projected step times.

/// Deterministic tree all-reduce over `p` equally-shaped buffers: after the
/// call every buffer holds the elementwise **sum**. The reduction order is a
/// pure function of `p` — within every element, ranks are combined pairwise
/// in a fixed gap-doubling binary tree (`buf[d] += buf[d+gap]` for
/// `gap = 1, 2, 4, …`) — so the f32 result is bitwise identical no matter in
/// which order worker threads delivered their buffers. This is the cluster's
/// combine step, which is what makes post-step parameters bitwise equal for
/// every `Threaded(n)` worker count.
pub fn tree_all_reduce(buffers: &mut [Vec<f32>]) {
    tree_all_reduce_chunked(buffers, 1);
}

/// Chunked variant of [`tree_all_reduce`]: the element range is carved into
/// `n_workers` disjoint chunks and each chunk's tree runs on its own scoped
/// thread. Chunk boundaries never change the per-element reduction tree, so
/// the output is bitwise identical to the single-threaded call for every
/// `n_workers`.
pub fn tree_all_reduce_chunked(buffers: &mut [Vec<f32>], n_workers: usize) {
    let p = buffers.len();
    if p <= 1 {
        return;
    }
    let n = buffers[0].len();
    assert!(buffers.iter().all(|b| b.len() == n), "ragged all-reduce buffers");
    if n == 0 {
        return;
    }
    let workers = n_workers.clamp(1, n);
    // chunks[c][r] is rank r's mutable slice of chunk c; the per-rank buffer
    // is split once so chunk workers hold disjoint borrows.
    let bounds: Vec<usize> = (0..=workers).map(|c| c * n / workers).collect();
    let mut chunks: Vec<Vec<&mut [f32]>> = (0..workers).map(|_| Vec::with_capacity(p)).collect();
    for buf in buffers.iter_mut() {
        let mut rest: &mut [f32] = buf;
        for c in 0..workers {
            let (head, tail) = rest.split_at_mut(bounds[c + 1] - bounds[c]);
            chunks[c].push(head);
            rest = tail;
        }
    }
    if workers == 1 {
        reduce_chunk_tree(&mut chunks[0]);
    } else {
        std::thread::scope(|s| {
            for chunk in chunks.iter_mut() {
                s.spawn(move || reduce_chunk_tree(chunk));
            }
        });
    }
}

/// In-place fixed-order pairwise tree over one chunk: gap doubling
/// (`ranks[d] += ranks[d+gap]`), then broadcast `ranks[0]` to every rank.
fn reduce_chunk_tree(ranks: &mut [&mut [f32]]) {
    let p = ranks.len();
    let mut gap = 1;
    while gap < p {
        let mut d = 0;
        while d + gap < p {
            let (left, right) = ranks.split_at_mut(d + gap);
            let dst = &mut left[d];
            let src = &right[0];
            for (y, &x) in dst.iter_mut().zip(src.iter()) {
                *y += x;
            }
            d += 2 * gap;
        }
        gap *= 2;
    }
    let (first, rest) = ranks.split_first_mut().unwrap();
    for b in rest.iter_mut() {
        b.copy_from_slice(first);
    }
}

/// A100 40 GB peak FP32 rate, 19.5 TFLOP/s (NVIDIA A100 datasheet): the
/// `P` of the counted-work projection [`crate::scaling::a100_seconds`].
pub const A100_FP32_FLOPS: f64 = 19.5e12;

/// A100 40 GB HBM2 bandwidth, 1,555 GB/s (same datasheet): its `B`.
pub const A100_HBM_BYTES_PER_S: f64 = 1.555e12;

/// Assumed launch floor per kernel, 5 µs (a CUDA launch plus per-op
/// dispatch): its `L`, the term kernel fusion and CUDA graphs shrink.
pub const KERNEL_LAUNCH_S: f64 = 5e-6;

/// α-β cost model of a ring all-reduce on the cluster interconnect, with
/// the paper's communication-overlap optimization expressed as the
/// fraction of communication hidden behind the backward pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommModel {
    /// Per-link bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-step latency in seconds (α term).
    pub latency: f64,
    /// Fraction of all-reduce time overlapped with computation (§III-C
    /// "Communication Overlap"); 0 = fully exposed, 1 = fully hidden.
    pub overlap: f64,
}

impl CommModel {
    /// Defaults loosely calibrated to an NVLink/IB fat-tree A100 cluster:
    /// 60 GB/s effective per-link bandwidth, 30 µs per ring step, 60% of
    /// communication overlapped with the tail of backward.
    pub fn a100_fat_tree() -> Self {
        CommModel { bandwidth: 60e9, latency: 30e-6, overlap: 0.6 }
    }

    /// Raw ring all-reduce time for `bytes` over `p` devices:
    /// `2 (p-1)/p · bytes / BW + 2 (p-1) · α`.
    pub fn allreduce_time(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        2.0 * (pf - 1.0) / pf * bytes as f64 / self.bandwidth + 2.0 * (pf - 1.0) * self.latency
    }

    /// Communication time left visible on the critical path after overlap.
    pub fn exposed_time(&self, bytes: usize, p: usize) -> f64 {
        self.allreduce_time(bytes, p) * (1.0 - self.overlap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_buffers(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p).map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    #[test]
    fn tree_matches_naive_sum() {
        for p in [2, 3, 4, 5, 7, 8] {
            for n in [1, 5, 16, 97, 1024] {
                let mut bufs = random_buffers(p, n, p as u64 * 101 + n as u64);
                let expect: Vec<f32> =
                    (0..n).map(|i| bufs.iter().map(|b| b[i]).sum::<f32>()).collect();
                tree_all_reduce(&mut bufs);
                for (d, b) in bufs.iter().enumerate() {
                    for i in 0..n {
                        assert!(
                            (b[i] - expect[i]).abs() < 1e-4,
                            "p={p} n={n} device {d} elem {i}: {} vs {}",
                            b[i],
                            expect[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tree_all_buffers_agree_bitwise() {
        let mut bufs = random_buffers(6, 257, 9);
        tree_all_reduce(&mut bufs);
        for b in &bufs[1..] {
            assert_eq!(b, &bufs[0], "tree all-reduce left buffers divergent");
        }
    }

    #[test]
    fn tree_chunked_is_bitwise_identical_to_serial() {
        for p in [2, 3, 4, 8] {
            for n in [1, 3, 64, 513] {
                let reference = {
                    let mut bufs = random_buffers(p, n, p as u64 * 7 + n as u64);
                    tree_all_reduce(&mut bufs);
                    bufs
                };
                for workers in [2, 3, 4, 9, n + 4] {
                    let mut bufs = random_buffers(p, n, p as u64 * 7 + n as u64);
                    tree_all_reduce_chunked(&mut bufs, workers);
                    for (d, b) in bufs.iter().enumerate() {
                        assert!(
                            b.iter().zip(&reference[d]).all(|(x, y)| x.to_bits() == y.to_bits()),
                            "p={p} n={n} workers={workers} rank {d}: chunked tree diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tree_is_deterministic_across_repeats() {
        let reference = {
            let mut bufs = random_buffers(4, 1024, 42);
            tree_all_reduce_chunked(&mut bufs, 4);
            bufs
        };
        for _ in 0..20 {
            let mut bufs = random_buffers(4, 1024, 42);
            tree_all_reduce_chunked(&mut bufs, 4);
            for (b, r) in bufs.iter().zip(&reference) {
                assert!(
                    b.iter().zip(r).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "tree all-reduce not bitwise stable across repeats"
                );
            }
        }
    }

    #[test]
    fn tree_single_device_is_noop() {
        let mut bufs = vec![vec![1.0, 2.0]];
        tree_all_reduce(&mut bufs);
        assert_eq!(bufs[0], vec![1.0, 2.0]);
    }

    #[test]
    fn comm_model_scaling() {
        let m = CommModel::a100_fat_tree();
        assert_eq!(m.allreduce_time(1 << 20, 1), 0.0);
        let t4 = m.allreduce_time(1 << 20, 4);
        let t32 = m.allreduce_time(1 << 20, 32);
        assert!(t32 > t4, "more devices, more latency terms");
        // Bandwidth term saturates at 2·bytes/BW; latency grows linearly.
        let big = m.allreduce_time(1 << 30, 1024);
        assert!(big < 2.0 * (1u64 << 30) as f64 / m.bandwidth + 2.0 * 1024.0 * m.latency);
        // Overlap reduces exposure.
        assert!(m.exposed_time(1 << 20, 8) < m.allreduce_time(1 << 20, 8));
    }

    #[test]
    fn comm_model_monotone_in_bytes() {
        let m = CommModel::a100_fat_tree();
        for p in [2, 4, 8, 32] {
            let mut prev_all = -1.0;
            let mut prev_exposed = -1.0;
            for shift in 0..24 {
                let bytes = 1usize << shift;
                let all = m.allreduce_time(bytes, p);
                let exposed = m.exposed_time(bytes, p);
                assert!(all > prev_all, "allreduce_time not monotone at p={p} bytes={bytes}");
                assert!(exposed > prev_exposed, "exposed_time not monotone at p={p} bytes={bytes}");
                prev_all = all;
                prev_exposed = exposed;
            }
        }
    }

    #[test]
    fn comm_model_single_device_is_free_and_never_negative() {
        let m = CommModel::a100_fat_tree();
        for bytes in [0, 1, 1 << 10, 1 << 30] {
            assert_eq!(m.allreduce_time(bytes, 1), 0.0);
            assert_eq!(m.exposed_time(bytes, 1), 0.0);
            assert_eq!(m.allreduce_time(bytes, 0), 0.0);
            for p in [2, 3, 17] {
                assert!(m.allreduce_time(bytes, p) >= 0.0);
                assert!(m.exposed_time(bytes, p) >= 0.0);
            }
        }
    }
}

//! Gradient combine: the deterministic tree the cluster sums rank
//! gradients with, plus the α-β ring all-reduce cost model ([`CommModel`])
//! that [`crate::ScalingModel`] adds to projected step times.

/// Deterministic tree reduction of `p` equally-shaped buffers into
/// `buffers[0]`, which ends holding the elementwise **sum**; the other
/// buffers hold partial sums. The reduction order is a pure function of
/// `p` — within every element, ranks are combined pairwise in a fixed
/// gap-doubling binary tree (`buf[d] += buf[d+gap]` for `gap = 1, 2, 4,
/// …`) — so the f32 result is bitwise identical no matter in which order
/// worker threads delivered their buffers. This is the cluster's combine
/// step, which is what makes post-step parameters bitwise equal for every
/// `Threaded(n)` worker count.
pub fn tree_reduce(buffers: &mut [Vec<f32>]) {
    let p = buffers.len();
    let n = buffers.first().map_or(0, Vec::len);
    assert!(buffers.iter().all(|b| b.len() == n), "ragged reduce buffers");
    let mut gap = 1;
    while gap < p {
        for d in (0..p - gap).step_by(2 * gap) {
            let (left, right) = buffers.split_at_mut(d + gap);
            for (y, &x) in left[d].iter_mut().zip(&right[0]) {
                *y += x;
            }
        }
        gap *= 2;
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
                tree_reduce(&mut bufs);
                for i in 0..n {
                    assert!(
                        (bufs[0][i] - expect[i]).abs() < 1e-4,
                        "p={p} n={n} elem {i}: {} vs {}",
                        bufs[0][i],
                        expect[i]
                    );
                }
            }
        }
    }

    #[test]
    fn tree_is_deterministic_across_repeats() {
        let reference = {
            let mut bufs = random_buffers(4, 1024, 42);
            tree_reduce(&mut bufs);
            bufs.swap_remove(0)
        };
        for _ in 0..20 {
            let mut bufs = random_buffers(4, 1024, 42);
            tree_reduce(&mut bufs);
            assert!(
                bufs[0].iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits()),
                "tree reduce not bitwise stable across repeats"
            );
        }
    }

    #[test]
    fn tree_single_device_is_noop() {
        let mut bufs = vec![vec![1.0, 2.0]];
        tree_reduce(&mut bufs);
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

//! Batch partitioning across devices: the default sampler and the
//! paper's Load Balance Sampler (§III-C, Fig. 4).
//!
//! The per-sample workload is the "feature number" (atoms + bonds +
//! angles). The default sampler splits the global batch into contiguous
//! chunks; the load-balance sampler sorts samples by feature number and
//! lets each device take the smallest and largest remaining samples in
//! turn, pairing heavy samples with light ones.

use fc_crystal::stats::coefficient_of_variance;

/// Partitioning strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SamplerKind {
    /// Contiguous equal-count chunks (reference data-parallel split).
    Default,
    /// Strided assignment: sample `i` goes to device `i % n_devices`.
    /// The classic `DistributedSampler` baseline the paper compares
    /// against; load-blind like `Default` but interleaved.
    RoundRobin,
    /// The paper's smallest+largest pairing (Fig. 4).
    LoadBalance,
}

/// Split `features` (workload per sample) into `n_devices` index lists.
///
/// Every sample is assigned exactly once; devices may receive different
/// counts when the batch does not divide evenly.
pub fn partition(features: &[usize], n_devices: usize, kind: SamplerKind) -> Vec<Vec<usize>> {
    assert!(n_devices > 0, "need at least one device");
    match kind {
        SamplerKind::Default => {
            // Contiguous chunks of (almost) equal sample count.
            let n = features.len();
            let base = n / n_devices;
            let extra = n % n_devices;
            let mut out = Vec::with_capacity(n_devices);
            let mut start = 0;
            for d in 0..n_devices {
                let len = base + usize::from(d < extra);
                out.push((start..start + len).collect());
                start += len;
            }
            out
        }
        SamplerKind::RoundRobin => {
            let mut out = vec![Vec::new(); n_devices];
            for i in 0..features.len() {
                out[i % n_devices].push(i);
            }
            out
        }
        SamplerKind::LoadBalance => {
            // Sort ascending by feature number, then each device takes the
            // smallest and the largest remaining sample in turn.
            let mut order: Vec<usize> = (0..features.len()).collect();
            order.sort_by_key(|&i| features[i]);
            let mut out = vec![Vec::new(); n_devices];
            let (mut lo, mut hi) = (0usize, order.len());
            let mut d = 0usize;
            while lo < hi {
                out[d].push(order[lo]);
                lo += 1;
                if lo < hi {
                    hi -= 1;
                    out[d].push(order[hi]);
                }
                d = (d + 1) % n_devices;
            }
            out
        }
    }
}

/// Per-device total feature numbers for a partition.
pub fn device_loads(features: &[usize], partition: &[Vec<usize>]) -> Vec<f64> {
    partition.iter().map(|idxs| idxs.iter().map(|&i| features[i] as f64).sum()).collect()
}

/// The paper's imbalance criterion: coefficient of variance of per-device
/// loads (Fig. 9 reports 0.186 default vs 0.064 load-balanced).
pub fn load_cov(features: &[usize], partition: &[Vec<usize>]) -> f64 {
    coefficient_of_variance(&device_loads(features, partition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn long_tail_features(n: usize, seed: u64) -> Vec<usize> {
        // Log-normal-ish long tail like Fig. 5.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.01..1.0);
                (200.0 * (-u.ln()).exp()) as usize + 50
            })
            .collect()
    }

    const ALL_KINDS: [SamplerKind; 3] =
        [SamplerKind::Default, SamplerKind::RoundRobin, SamplerKind::LoadBalance];

    #[test]
    fn every_sample_assigned_once() {
        let f = long_tail_features(37, 1);
        for kind in ALL_KINDS {
            let p = partition(&f, 4, kind);
            assert_eq!(p.len(), 4);
            let mut all: Vec<usize> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..37).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn round_robin_is_strided() {
        let f = vec![10usize; 7];
        let p = partition(&f, 3, SamplerKind::RoundRobin);
        assert_eq!(p, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn load_balance_beats_round_robin_on_long_tail() {
        // Fig. 9's comparison, with the strided baseline: averaged over
        // many long-tail batches the pairing sampler must not be worse,
        // and in practice wins clearly.
        let mut rr_cov = 0.0;
        let mut lb_cov = 0.0;
        let iters = 50;
        for seed in 0..iters {
            let f = long_tail_features(128, seed);
            rr_cov += load_cov(&f, &partition(&f, 4, SamplerKind::RoundRobin));
            lb_cov += load_cov(&f, &partition(&f, 4, SamplerKind::LoadBalance));
        }
        assert!(
            lb_cov <= rr_cov,
            "load balance cov {:.4} vs round robin {:.4}",
            lb_cov / iters as f64,
            rr_cov / iters as f64
        );
    }

    #[test]
    fn load_balance_reduces_cov() {
        // Averaged over many random batches, the load-balance sampler must
        // cut the coefficient of variance substantially (paper: ~3x).
        let mut default_cov = 0.0;
        let mut lb_cov = 0.0;
        let iters = 50;
        for seed in 0..iters {
            let f = long_tail_features(128, seed);
            default_cov += load_cov(&f, &partition(&f, 4, SamplerKind::Default));
            lb_cov += load_cov(&f, &partition(&f, 4, SamplerKind::LoadBalance));
        }
        default_cov /= iters as f64;
        lb_cov /= iters as f64;
        // The paper reports ~2.9x on MPtrj; the exact factor is
        // distribution-dependent, so demand a solid (≥ 1.4x) reduction.
        assert!(
            lb_cov < default_cov * 0.7,
            "load balance cov {lb_cov:.4} vs default {default_cov:.4}"
        );
    }

    #[test]
    fn single_device_gets_everything() {
        let f = long_tail_features(10, 3);
        for kind in [SamplerKind::Default, SamplerKind::LoadBalance] {
            let p = partition(&f, 1, kind);
            assert_eq!(p[0].len(), 10);
            assert_eq!(load_cov(&f, &p), 0.0);
        }
    }

    #[test]
    fn more_devices_than_samples() {
        let f = vec![100, 200];
        let p = partition(&f, 4, SamplerKind::LoadBalance);
        let total: usize = p.iter().map(Vec::len).sum();
        assert_eq!(total, 2);
        let p = partition(&f, 4, SamplerKind::Default);
        let total: usize = p.iter().map(Vec::len).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn pairing_puts_smallest_and_largest_together() {
        let f = vec![1, 2, 3, 4, 100, 200, 300, 400];
        let p = partition(&f, 4, SamplerKind::LoadBalance);
        // Device 0 gets the global smallest and the global largest.
        assert!(p[0].contains(&0), "{p:?}");
        assert!(p[0].contains(&7), "{p:?}");
    }

    #[test]
    fn fixed_seed_reproduces_partition() {
        // The feature generator and every sampler are deterministic, so a
        // fixed seed pins the whole partition.
        let f1 = long_tail_features(64, 9);
        let f2 = long_tail_features(64, 9);
        assert_eq!(f1, f2);
        for kind in ALL_KINDS {
            assert_eq!(partition(&f1, 4, kind), partition(&f2, 4, kind), "{kind:?}");
        }
    }

    mod properties {
        use super::*;
        use fc_verify::check_cases;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// A batch of 0..96 feature counts in 1..2000 and a device count in 1..9.
        fn random_batch(rng: &mut StdRng) -> (Vec<usize>, usize) {
            let len = rng.gen_range(0..96);
            let features = (0..len).map(|_| rng.gen_range(1usize..2000)).collect();
            (features, rng.gen_range(1usize..9))
        }

        #[test]
        fn every_sample_assigned_exactly_once() {
            check_cases(64, |rng| {
                let (features, n_devices) = random_batch(rng);
                for kind in ALL_KINDS {
                    let p = partition(&features, n_devices, kind);
                    assert_eq!(p.len(), n_devices);
                    let mut all: Vec<usize> = p.iter().flatten().copied().collect();
                    all.sort_unstable();
                    let expect: Vec<usize> = (0..features.len()).collect();
                    assert_eq!(&all, &expect, "{kind:?}");
                }
            });
        }

        #[test]
        fn partition_is_pure() {
            check_cases(64, |rng| {
                let (features, n_devices) = random_batch(rng);
                // Same input -> same partition: sort ties must break
                // identically between calls (sort_by_key is stable).
                for kind in ALL_KINDS {
                    let a = partition(&features, n_devices, kind);
                    let b = partition(&features, n_devices, kind);
                    assert_eq!(a, b, "{kind:?}");
                }
            });
        }

        #[test]
        fn sample_counts_stay_balanced() {
            check_cases(64, |rng| {
                let (features, n_devices) = random_batch(rng);
                // Count (not load) balance is a per-batch guarantee:
                // contiguous and strided splits are within one sample of
                // each other, the pairing sampler within one pair. (The
                // CoV advantage of LoadBalance holds only on average —
                // see load_balance_beats_round_robin_on_long_tail.)
                for (kind, slack) in [
                    (SamplerKind::Default, 1),
                    (SamplerKind::RoundRobin, 1),
                    (SamplerKind::LoadBalance, 2),
                ] {
                    let p = partition(&features, n_devices, kind);
                    let counts: Vec<usize> = p.iter().map(Vec::len).collect();
                    let min = *counts.iter().min().unwrap();
                    let max = *counts.iter().max().unwrap();
                    assert!(max - min <= slack, "{kind:?}: counts {counts:?}");
                }
            });
        }
    }
}

//! Epoch batching: the seeded shuffle that splits a split's indices into
//! global batches. Each rank collates its own shard of a global batch on
//! its worker thread ([`crate::Cluster::train_step`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically shuffled index batches for one epoch.
pub fn epoch_batches(n: usize, batch_size: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch size must be positive");
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order.chunks(batch_size).map(<[usize]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_all_indices() {
        let b = epoch_batches(10, 3, 1);
        assert_eq!(b.len(), 4);
        let mut all: Vec<usize> = b.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffling_is_seeded() {
        assert_eq!(epoch_batches(20, 4, 7), epoch_batches(20, 4, 7));
        assert_ne!(epoch_batches(20, 4, 7), epoch_batches(20, 4, 8));
    }
}

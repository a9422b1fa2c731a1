//! Parameter initialisation schemes.

use crate::kernels::{trig, Tier};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Xavier/Glorot uniform init: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let a = (6.0 / (rows + cols) as f64).sqrt() as f32;
    uniform(rng, rows, cols, -a, a)
}

/// Uniform init in `[lo, hi)`.
///
/// Never inlined, and filling a sized buffer: as a function of its own
/// the sampler inlines into the loop, where inlined into a caller it may
/// not (model set-up then ran 3× slower in one build). A
/// `map(..).collect()` left the loop in an out-of-line `fold` in another
/// build and a `push` loop kept the generator state in memory (each 1.2×
/// slower); over a slice the state stays in registers.
#[inline(never)]
pub fn uniform(rng: &mut StdRng, rows: usize, cols: usize, lo: f32, hi: f32) -> Tensor {
    let mut data = vec![0.0; rows * cols];
    for x in &mut data {
        *x = rng.gen_range(lo..hi);
    }
    Tensor::from_vec(Shape::new(rows, cols), data)
}

/// Normal init `N(mean, std²)` via Box-Muller: one `(u1, u2)` draw per
/// pair of elements, `r·cos t` then `r·sin t`, the pairs' sines and
/// cosines in one call of the host tier's `sin`/`cos` kernel (bitwise
/// [`trig::sincosf`]).
pub fn normal(rng: &mut StdRng, rows: usize, cols: usize, mean: f32, std: f32) -> Tensor {
    let n = rows * cols;
    let pairs = n.div_ceil(2);
    let (mut r, mut t) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for _ in 0..pairs {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        r.push((-2.0 * u1.ln()).sqrt());
        t.push(2.0 * std::f32::consts::PI * u2);
    }
    let (mut sin, mut cos) = (vec![0.0; pairs], vec![0.0; pairs]);
    trig::sin_cos(Tier::host(), &t, Some(&mut sin), Some(&mut cos));
    let data = r
        .iter()
        .zip(cos.iter().zip(&sin))
        .flat_map(|(&r, (&c, &s))| [mean + std * r * c, mean + std * r * s])
        .take(n)
        .collect();
    Tensor::from_vec(Shape::new(rows, cols), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = xavier_uniform(&mut rng, 64, 64);
        let a = (6.0f64 / 128.0).sqrt() as f32;
        assert!(t.max_abs() <= a);
        assert!(t.max_abs() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = uniform(&mut r1, 3, 3, -1.0, 1.0);
        let b = uniform(&mut r2, 3, 3, -1.0, 1.0);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = normal(&mut rng, 100, 100, 1.0, 2.0);
        let mean = t.sum() / t.len() as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        let var = t.data().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / t.len() as f64;
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn normal_odd_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = normal(&mut rng, 3, 3, 0.0, 1.0);
        assert_eq!(t.len(), 9);
        assert!(t.all_finite());
    }
}

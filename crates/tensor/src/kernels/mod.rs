//! Raw compute kernels operating on `f32` buffers.
//!
//! Each public function here corresponds to "one kernel" in the paper's
//! accounting: the tape executes exactly one kernel per node, and the
//! profiler counts node executions to reproduce Fig. 8(b)'s launched-kernel
//! metric. A kernel runs on the calling thread, except that a large one
//! splits its output rows across [`crate::par`]'s helper threads, each
//! output element computed by one thread in the serial order, so the
//! result is bitwise the same at every width. Parallelism across ranks
//! lives one level up, in the cluster's per-rank worker threads (paper
//! §III), which run their kernels at width 1.

pub mod elementwise;
pub mod exp;
pub mod fused;
pub mod gather;
pub mod matmul;
pub mod reduce;
pub mod segment;
pub mod trig;

/// Random kernel inputs for the bitwise tests: mostly uniform values in
/// `[-4, 4)`, with exact `±0.0`, NaN, `±inf` and subnormals mixed in.
#[cfg(test)]
pub(crate) fn test_value(rng: &mut rand::rngs::StdRng) -> f32 {
    use rand::Rng;
    match rng.gen_range(0..64) {
        0..=5 => 0.0,
        6..=8 => -0.0,
        9 => f32::NAN,
        10 => f32::INFINITY,
        11 => f32::NEG_INFINITY,
        12 => {
            f32::from_bits(rng.gen_range(1..0x0080_0000))
                * if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 }
        }
        _ => rng.gen_range(-4.0..4.0),
    }
}

/// A `rows × m` input for the row-wise bitwise tests: uniform values in
/// `[-4, 4)` with exact `±0.0`, `±1e30`, `±1e-30` and subnormals mixed in,
/// and (where the rows exist) row 0 all `-0.0`, row 1 constant (variance
/// 0), and a NaN, a `+inf` and a `-inf` in rows 2, 3 and 4.
#[cfg(test)]
pub(crate) fn test_rows(rng: &mut rand::rngs::StdRng, rows: usize, m: usize) -> crate::Tensor {
    use rand::Rng;
    let mut data: Vec<f32> = (0..rows * m)
        .map(|_| {
            let sign = if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
            match rng.gen_range(0..32) {
                0 => 0.0,
                1 => -0.0,
                2 => sign * 1e30,
                3 => sign * 1e-30,
                4 => sign * f32::from_bits(rng.gen_range(1..0x0080_0000)),
                _ => rng.gen_range(-4.0..4.0),
            }
        })
        .collect();
    let mut rows_of = data.chunks_exact_mut(m.max(1));
    for (row, x) in rows_of.by_ref().zip([-0.0, 0.75]) {
        row.fill(x);
    }
    for (row, x) in rows_of.zip([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]) {
        row[rng.gen_range(0..m)] = x;
    }
    crate::Tensor::from_vec(crate::Shape::new(rows, m), data)
}

/// A `1 × m` LayerNorm scale or shift for the row-wise bitwise tests:
/// uniform values in `[-2, 2)`, so that the affine step rounds (a
/// [`test_rows`] row 0 is all `-0.0`, which hides it).
#[cfg(test)]
pub(crate) fn test_param(rng: &mut rand::rngs::StdRng, m: usize) -> crate::Tensor {
    crate::init::uniform(rng, 1, m, -2.0, 2.0)
}

/// The row counts and widths of the row-wise bitwise tests: rows on both
/// sides of whole 8- and 16-row lane blocks (and one large count), and
/// widths below, at and past the lane and tile widths.
#[cfg(test)]
pub(crate) const TEST_ROWS: [usize; 13] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 4099];
/// See [`TEST_ROWS`].
#[cfg(test)]
pub(crate) const TEST_COLS: [usize; 7] = [1, 3, 4, 5, 16, 17, 64];

/// Bit patterns for the bitwise kernel tests, with every NaN mapped to one
/// pattern: Rust leaves the sign and payload of a NaN result unspecified
/// (the compiler may commute `a + b`), so only NaN-ness is comparable.
#[cfg(test)]
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

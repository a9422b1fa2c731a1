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
pub mod lanes;
pub mod matmul;
pub mod reduce;
pub mod segment;
pub mod trig;

use std::sync::OnceLock;

/// The instruction sets the kernels run on, picked from the CPU alone.
/// Every vector kernel is one lane body on [`lanes`], and a tier is the
/// width [`lanes::run_on`] gives it. Every tier gives the same bits; only
/// the speed differs (DESIGN.md §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The build target's baseline instructions (SSE2 on x86-64): the lane
    /// bodies on one `f64` and one `f32` lane (GEMM tiles one column
    /// wide, the row sums one row at a time), and the in-tree scalar
    /// ports `exp::expf` and `trig::sincosf`.
    Scalar,
    /// AVX2 and FMA on x86-64: 4 `f64` and 8 `f32` lanes: GEMM strips of
    /// 8 columns (no FMA issued), 8-row lane sums, and the `exp`, `sin`
    /// and `cos` ports and the oracle 4 wide.
    Avx2,
    /// AVX-512F, AVX2 and FMA on x86-64: 8 `f64` and 16 `f32` lanes: GEMM
    /// strips of 16 columns, 16-row LayerNorm lanes, and the `exp`, `sin`
    /// and `cos` ports and the oracle 8 wide.
    Avx512,
}

impl Tier {
    /// The widest tier this host's CPU runs, read once per process.
    pub fn host() -> Tier {
        static HOST: OnceLock<Tier> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return if is_x86_feature_detected!("avx512f") { Tier::Avx512 } else { Tier::Avx2 };
            }
            Tier::Scalar
        })
    }

    /// Whether this host has the instructions of this tier.
    pub fn runs_here(self) -> bool {
        self <= Tier::host()
    }

    /// Every tier this host runs, narrowest first: what the bitwise tests
    /// compare.
    pub fn on_host() -> impl Iterator<Item = Tier> {
        [Tier::Scalar, Tier::Avx2, Tier::Avx512].into_iter().filter(|t| t.runs_here())
    }
}

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

#[cfg(test)]
mod tests {
    /// Set in the child processes of [`kernels_pass_under_a_foreign_libm`],
    /// so that they start no children of their own.
    const CHILD: &str = "FASTCHGNET_FOREIGN_LIBM_CHILD";

    /// The `kernels::` tests again, in child processes of this test binary
    /// that glibc runs without its AVX2 and FMA builds (`GLIBC_TUNABLES`,
    /// which only the child's dynamic loader reads): libm then returns
    /// other bits at some inputs, and the kernels, whose tier comes from
    /// cpuid and whose references are the in-tree ports, must not change.
    #[test]
    fn kernels_pass_under_a_foreign_libm() {
        if std::env::var_os(CHILD).is_some() {
            return;
        }
        if !cfg!(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")) {
            println!("skipped: the foreign-libm check runs on x86-64 Linux glibc only");
            return;
        }
        let exe = std::env::current_exe().expect("the test binary's path");
        for hwcaps in ["-AVX2,-FMA", "-FMA"] {
            let out = std::process::Command::new(&exe)
                .args(["kernels::", "--quiet"])
                .env("GLIBC_TUNABLES", format!("glibc.cpu.hwcaps={hwcaps}"))
                .env(CHILD, "1")
                .output()
                .expect("run the test binary");
            assert!(
                out.status.success(),
                "kernels:: tests with glibc.cpu.hwcaps={hwcaps}: {}\n{}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

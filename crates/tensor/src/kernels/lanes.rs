//! Lanes for every vector kernel: one portable type at every width, so a
//! lane body written once runs on each [`Tier`].
//!
//! [`Lanes`] is the set of `f64` operations a lane body takes, and
//! [`LanesF32`] (its [`Lanes::F32`]) the `f32` ones; each rounds as the
//! scalar operation of the same name on every lane, so a body that spells
//! out a scalar expression's operations in its order gives that
//! expression's bits. [`run_on`] runs a [`LanePass`] on a tier's lanes:
//! one `f64` and one `f32` on [`Tier::Scalar`], 4 `f64` and 8 `f32` on
//! [`Tier::Avx2`], 8 `f64` and 16 `f32` on [`Tier::Avx512`]. Every vector
//! width is one private type, `Wide<T, N>`, whose every arithmetic
//! operation is the scalar one on each lane in plain Rust; the compiler
//! writes each tier's instructions for it when the body is inlined into
//! that tier's entry point. Four operations are x86 intrinsics, the only
//! ones in the workspace: the `f64` table gather (one hardware gather per
//! width, and for a 32-entry table at 8 lanes two `vpermt2q` and a blend,
//! which keep the table in registers), the `f32` masked load and store
//! of a short strip, and the 8×8 `f32` transpose (unpacks, shuffles and
//! lane permutes).
//!
//! The lane bodies are `fc_tensor`'s GEMM tiles ([`super::matmul`]), its
//! LayerNorm rows and their VJP ([`super::fused`]) and row sums
//! ([`super::reduce`]), its `exp`, sigmoid, SiLU, gate and gate VJP
//! ([`super::exp`]), its `sin`/`cos` ([`super::trig`]), and `fc_crystal`'s
//! `f64` ports, oracle and separation screen.

use crate::kernels::Tier;

/// The `f64` lanes of one [`Tier`], with the operations the lane bodies
/// take. Each arithmetic operation rounds as the scalar operation of the
/// same name on every lane, so a lane body that spells out a scalar
/// expression's operations in its order gives that expression's bits.
pub trait Lanes: Copy {
    /// Lanes per value.
    const N: usize;
    /// A per-lane condition.
    type Mask: Copy;
    /// The `f32` lanes of the same tier: as many as fill the same
    /// registers, so twice [`Self::N`] on a vector tier, and one on
    /// [`Tier::Scalar`].
    type F32: LanesF32;
    fn splat(x: f64) -> Self;
    /// The first [`Self::N`] elements of `x`.
    fn load(x: &[f64]) -> Self;
    /// The first [`Self::N`] elements of `x`, each converted to `f64`
    /// (exactly).
    fn load_f32(x: &[f32]) -> Self;
    /// Write the lanes to the first [`Self::N`] elements of `out`.
    fn store(self, out: &mut [f64]);
    /// Write the lanes, each rounded to `f32`, to the first [`Self::N`]
    /// elements of `out`.
    fn store_f32(self, out: &mut [f32]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    /// `self·b + c`, rounded once.
    fn mul_add(self, b: Self, c: Self) -> Self;
    fn neg(self) -> Self;
    fn abs(self) -> Self;
    /// Rounded toward zero to an integer.
    fn trunc(self) -> Self;
    /// Rounded down to an integer.
    fn floor(self) -> Self;
    /// `self`'s magnitude with `sign`'s sign.
    fn copysign(self, sign: Self) -> Self;
    /// `self` where `self < o`, else `o`.
    fn min(self, o: Self) -> Self;
    /// The smallest lane (no lane NaN).
    fn min_lane(self) -> f64;
    fn lt(self, o: Self) -> Self::Mask;
    fn le(self, o: Self) -> Self::Mask;
    /// Whether every lane's condition holds.
    fn all(m: Self::Mask) -> bool;
    /// `a` where `m` holds, else `b`.
    fn select(m: Self::Mask, a: Self, b: Self) -> Self;
    /// Whether bit `bit` of each lane's bit pattern is set.
    fn bit(self, bit: u32) -> Self::Mask;
    /// Each lane's bit pattern shifted left by `s`.
    fn shl(self, s: u32) -> Self;
    /// Each lane's bit pattern with `m` or-ed in.
    fn or_bits(self, m: u64) -> Self;
    /// The sum of the bit patterns of each lane, as integers.
    fn add_bits(self, o: Self) -> Self;
    /// `table[i % L]` for each lane's bit pattern `i`; `L` is a power of
    /// two.
    fn gather<const L: usize>(table: &[u64; L], idx: Self) -> Self;

    /// `−self` where `m` holds, else `self`.
    #[inline(always)]
    fn neg_where(self, m: Self::Mask) -> Self {
        Self::select(m, self.neg(), self)
    }
}

/// The `f32` lanes of one [`Tier`] ([`Lanes::F32`]), with the operations
/// the GEMM tiles, the LayerNorm rows and the row sums take. Each
/// arithmetic operation rounds as the scalar operation of the same name on
/// every lane. There is no `mul_add`: the kernels on these lanes round a
/// product before they add it.
pub trait LanesF32: Copy {
    /// Lanes per value.
    const N: usize;
    fn splat(x: f32) -> Self;
    /// The first [`Self::N`] elements of `x`.
    fn load(x: &[f32]) -> Self;
    /// The elements of `x` (at most [`Self::N`]) in the first lanes, and
    /// `+0.0` in the rest; nothing past `x` is read.
    fn load_part(x: &[f32]) -> Self;
    /// Write the lanes to the first [`Self::N`] elements of `out`.
    fn store(self, out: &mut [f32]);
    /// Write the first `out.len()` lanes (at most [`Self::N`]) to `out`;
    /// nothing past `out` is written.
    fn store_part(self, out: &mut [f32]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// The 8×8 block of `x` whose row `l` is `x[l·m..][..8]`, transposed:
    /// its column `c` goes to `out[c·stride..][..8]`, so that
    /// `out[c·stride + l] = x[l·m + c]`.
    fn transpose8(x: &[f32], m: usize, out: &mut [f32], stride: usize);
}

/// A body over the lanes of whichever tier [`run_on`] picks.
pub trait LanePass {
    type Out;
    /// The body on lanes `V`. Implementations are `#[inline(always)]`, so
    /// that they compile into [`run_on`]'s per-tier entry points with that
    /// tier's instructions.
    fn run<V: Lanes>(self) -> Self::Out;
}

/// `pass` on `tier`'s lanes: `f64` and `f32` on [`Tier::Scalar`] or on a
/// host without `tier`'s instructions, 4 `f64` and 8 `f32` lanes on
/// [`Tier::Avx2`], 8 and 16 on [`Tier::Avx512`]. Each pass type gets its
/// own out-of-line entry point per tier, so a kernel that wants a body
/// compiled apart from its others (the GEMM's tile shapes) makes it a pass
/// of its own.
pub fn run_on<P: LanePass>(tier: Tier, pass: P) -> P::Out {
    #[cfg(target_arch = "x86_64")]
    if tier.runs_here() {
        match tier {
            // SAFETY: the host has AVX-512F, AVX2 and FMA, checked just
            // above.
            Tier::Avx512 => return unsafe { on_avx512(pass) },
            // SAFETY: the host has AVX2 and FMA, checked just above.
            Tier::Avx2 => return unsafe { on_avx2(pass) },
            Tier::Scalar => {}
        }
    }
    pass.run::<f64>()
}

/// [`f32`] lanes per value on `tier` ([`LanesF32::N`] of the lanes
/// [`run_on`] runs there).
pub fn f32_lanes(tier: Tier) -> usize {
    struct Width;
    impl LanePass for Width {
        type Out = usize;
        #[inline(always)]
        fn run<V: Lanes>(self) -> usize {
            V::F32::N
        }
    }
    run_on(tier, Width)
}

/// [`Tier::Scalar`]: one lane, the scalar operations themselves.
impl Lanes for f64 {
    const N: usize = 1;
    type Mask = bool;
    type F32 = f32;
    fn splat(x: f64) -> f64 {
        x
    }
    fn load(x: &[f64]) -> f64 {
        x[0]
    }
    fn load_f32(x: &[f32]) -> f64 {
        x[0] as f64
    }
    fn store(self, out: &mut [f64]) {
        out[0] = self;
    }
    fn store_f32(self, out: &mut [f32]) {
        out[0] = self as f32;
    }
    fn add(self, o: f64) -> f64 {
        self + o
    }
    fn sub(self, o: f64) -> f64 {
        self - o
    }
    fn mul(self, o: f64) -> f64 {
        self * o
    }
    fn div(self, o: f64) -> f64 {
        self / o
    }
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    fn mul_add(self, b: f64, c: f64) -> f64 {
        f64::mul_add(self, b, c)
    }
    fn neg(self) -> f64 {
        -self
    }
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    fn trunc(self) -> f64 {
        f64::trunc(self)
    }
    fn floor(self) -> f64 {
        f64::floor(self)
    }
    fn copysign(self, sign: f64) -> f64 {
        f64::copysign(self, sign)
    }
    fn min(self, o: f64) -> f64 {
        if self < o {
            self
        } else {
            o
        }
    }
    fn min_lane(self) -> f64 {
        self
    }
    fn lt(self, o: f64) -> bool {
        self < o
    }
    fn le(self, o: f64) -> bool {
        self <= o
    }
    fn all(m: bool) -> bool {
        m
    }
    fn select(m: bool, a: f64, b: f64) -> f64 {
        if m {
            a
        } else {
            b
        }
    }
    fn bit(self, bit: u32) -> bool {
        self.to_bits() >> bit & 1 == 1
    }
    fn shl(self, s: u32) -> f64 {
        f64::from_bits(self.to_bits() << s)
    }
    fn or_bits(self, m: u64) -> f64 {
        f64::from_bits(self.to_bits() | m)
    }
    fn add_bits(self, o: f64) -> f64 {
        f64::from_bits(self.to_bits().wrapping_add(o.to_bits()))
    }
    fn gather<const L: usize>(table: &[u64; L], idx: f64) -> f64 {
        f64::from_bits(table[idx.to_bits() as usize % L])
    }
}

/// [`Tier::Scalar`]'s `f32` lanes: one lane, the scalar operations
/// themselves.
impl LanesF32 for f32 {
    const N: usize = 1;
    fn splat(x: f32) -> f32 {
        x
    }
    fn load(x: &[f32]) -> f32 {
        x[0]
    }
    fn load_part(x: &[f32]) -> f32 {
        assert!(x.len() <= 1, "{} elements for one lane", x.len());
        x.first().map_or(0.0, |&x| x)
    }
    fn store(self, out: &mut [f32]) {
        out[0] = self;
    }
    fn store_part(self, out: &mut [f32]) {
        assert!(out.len() <= 1, "{} elements for one lane", out.len());
        out.fill(self);
    }
    fn add(self, o: f32) -> f32 {
        self + o
    }
    fn sub(self, o: f32) -> f32 {
        self - o
    }
    fn mul(self, o: f32) -> f32 {
        self * o
    }
    fn transpose8(x: &[f32], m: usize, out: &mut [f32], stride: usize) {
        for c in 0..8 {
            for l in 0..8 {
                out[c * stride + l] = x[l * m + c];
            }
        }
    }
}

/// `pass` on 8 `f64` and 16 `f32` lanes. Never inlined, so that each pass
/// type is its own function.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline(never)]
fn on_avx512<P: LanePass>(pass: P) -> P::Out {
    pass.run::<Wide<f64, 8>>()
}

/// `pass` on 4 `f64` and 8 `f32` lanes. Never inlined, as
/// [`on_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline(never)]
fn on_avx2<P: LanePass>(pass: P) -> P::Out {
    pass.run::<Wide<f64, 4>>()
}

/// `N` lanes of `T` (`f64` or `f32`): each operation is the scalar
/// operation on each lane, in a loop that the compiler turns into the
/// instructions of the entry point ([`on_avx2`], [`on_avx512`]) the lane
/// body is inlined into. A mask lane is all ones or zero. `Wide` is
/// private to this module and only those entry points name a width, so a
/// `Wide<f64, 4>` or `Wide<f32, 8>` runs only on a host with AVX2 and FMA,
/// and a `Wide<f64, 8>` or `Wide<f32, 16>` only on one that also has
/// AVX-512F.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Wide<T, const N: usize>([T; N]);

/// The `f32` lanes of the tier whose `f64` lanes are `Self`.
#[cfg(target_arch = "x86_64")]
trait Twin {
    type F32: LanesF32;
}

#[cfg(target_arch = "x86_64")]
impl Twin for Wide<f64, 4> {
    type F32 = Wide<f32, 8>;
}

#[cfg(target_arch = "x86_64")]
impl Twin for Wide<f64, 8> {
    type F32 = Wide<f32, 16>;
}

#[cfg(target_arch = "x86_64")]
impl<const N: usize> Lanes for Wide<f64, N>
where
    Self: Twin,
{
    const N: usize = N;
    type Mask = [u64; N];
    type F32 = <Self as Twin>::F32;
    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self([x; N])
    }
    #[inline(always)]
    fn load(x: &[f64]) -> Self {
        Self(x[..N].try_into().expect("N lanes"))
    }
    #[inline(always)]
    fn load_f32(x: &[f32]) -> Self {
        let mut out = [0.0; N];
        for (o, &x) in out.iter_mut().zip(&x[..N]) {
            *o = x as f64;
        }
        Self(out)
    }
    #[inline(always)]
    fn store(self, out: &mut [f64]) {
        out[..N].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn store_f32(self, out: &mut [f32]) {
        for (o, a) in out[..N].iter_mut().zip(self.0) {
            *o = a as f32;
        }
    }
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
        self
    }
    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a -= b;
        }
        self
    }
    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a *= b;
        }
        self
    }
    #[inline(always)]
    fn div(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a /= b;
        }
        self
    }
    #[inline(always)]
    fn sqrt(mut self) -> Self {
        for a in &mut self.0 {
            *a = a.sqrt();
        }
        self
    }
    #[inline(always)]
    fn mul_add(mut self, b: Self, c: Self) -> Self {
        for ((a, b), c) in self.0.iter_mut().zip(b.0).zip(c.0) {
            *a = a.mul_add(b, c);
        }
        self
    }
    #[inline(always)]
    fn neg(mut self) -> Self {
        for a in &mut self.0 {
            *a = -*a;
        }
        self
    }
    #[inline(always)]
    fn abs(mut self) -> Self {
        for a in &mut self.0 {
            *a = a.abs();
        }
        self
    }
    #[inline(always)]
    fn trunc(mut self) -> Self {
        for a in &mut self.0 {
            *a = a.trunc();
        }
        self
    }
    #[inline(always)]
    fn floor(mut self) -> Self {
        for a in &mut self.0 {
            *a = a.floor();
        }
        self
    }
    #[inline(always)]
    fn copysign(mut self, sign: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(sign.0) {
            *a = a.copysign(b);
        }
        self
    }
    #[inline(always)]
    fn min(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a = if *a < b { *a } else { b };
        }
        self
    }
    #[inline(always)]
    fn min_lane(self) -> f64 {
        self.0.into_iter().fold(f64::INFINITY, f64::min)
    }
    #[inline(always)]
    fn lt(self, o: Self) -> [u64; N] {
        let mut m = [0; N];
        for ((m, a), b) in m.iter_mut().zip(self.0).zip(o.0) {
            *m = if a < b { !0 } else { 0 };
        }
        m
    }
    #[inline(always)]
    fn le(self, o: Self) -> [u64; N] {
        let mut m = [0; N];
        for ((m, a), b) in m.iter_mut().zip(self.0).zip(o.0) {
            *m = if a <= b { !0 } else { 0 };
        }
        m
    }
    #[inline(always)]
    fn all(m: [u64; N]) -> bool {
        m.into_iter().all(|m| m != 0)
    }
    #[inline(always)]
    fn select(m: [u64; N], mut a: Self, b: Self) -> Self {
        for ((a, b), m) in a.0.iter_mut().zip(b.0).zip(m) {
            if m == 0 {
                *a = b;
            }
        }
        a
    }
    #[inline(always)]
    fn bit(self, bit: u32) -> [u64; N] {
        let mut m = [0; N];
        for (m, a) in m.iter_mut().zip(self.0) {
            *m = (a.to_bits() >> bit & 1).wrapping_neg();
        }
        m
    }
    #[inline(always)]
    fn shl(mut self, s: u32) -> Self {
        for a in &mut self.0 {
            *a = f64::from_bits(a.to_bits() << s);
        }
        self
    }
    #[inline(always)]
    fn or_bits(mut self, m: u64) -> Self {
        for a in &mut self.0 {
            *a = f64::from_bits(a.to_bits() | m);
        }
        self
    }
    #[inline(always)]
    fn add_bits(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a = f64::from_bits(a.to_bits().wrapping_add(b.to_bits()));
        }
        self
    }
    /// One hardware gather at each width [`run_on`] runs; at 8 lanes a
    /// 32-entry table is held in four registers instead and read with two
    /// `vpermt2q` (each reads bits 0–3 of the index) and a blend on bit 4.
    #[inline(always)]
    fn gather<const L: usize>(table: &[u64; L], idx: Self) -> Self {
        use std::arch::x86_64::*;
        const { assert!(L.is_power_of_two()) };
        let (mut at, mut out) = ([0u64; N], [0.0; N]);
        for (i, x) in at.iter_mut().zip(idx.0) {
            *i = x.to_bits() & (L as u64 - 1);
        }
        let (t, i, o) = (table.as_ptr(), at.as_ptr(), out.as_mut_ptr());
        // SAFETY: a `Wide<f64, 4>` runs only on a host with AVX2 and a `Wide<f64, 8>`
        // only on one with AVX-512F (see [`Wide`]), `at` and `out` hold `N`
        // lanes, and every index is masked to `0..L`, inside `table`; the
        // 32-entry path reads `table[0..32]`.
        unsafe {
            match (N, L) {
                (4, _) => _mm256_storeu_pd(
                    o,
                    _mm256_i64gather_pd::<8>(t.cast(), _mm256_loadu_si256(i.cast())),
                ),
                (8, 32) => {
                    let [t0, t1, t2, t3] =
                        [0, 8, 16, 24].map(|k| _mm512_loadu_si512(t.add(k).cast()));
                    let i = _mm512_loadu_si512(i.cast());
                    let low = _mm512_permutex2var_epi64(t0, i, t1);
                    let high = _mm512_permutex2var_epi64(t2, i, t3);
                    let upper = _mm512_test_epi64_mask(i, _mm512_set1_epi64(16));
                    _mm512_storeu_si512(o.cast(), _mm512_mask_blend_epi64(upper, low, high));
                }
                (8, _) => _mm512_storeu_pd(
                    o,
                    _mm512_i64gather_pd::<8>(_mm512_loadu_si512(i.cast()), t.cast()),
                ),
                _ => unreachable!("only `on_avx2` and `on_avx512` run a `Wide`"),
            }
        }
        Self(out)
    }
}

#[cfg(target_arch = "x86_64")]
impl<const N: usize> LanesF32 for Wide<f32, N> {
    const N: usize = N;
    #[inline(always)]
    fn splat(x: f32) -> Self {
        Self([x; N])
    }
    #[inline(always)]
    fn load(x: &[f32]) -> Self {
        Self(x[..N].try_into().expect("N lanes"))
    }
    /// One masked load at each width [`run_on`] runs.
    #[inline(always)]
    fn load_part(x: &[f32]) -> Self {
        use std::arch::x86_64::*;
        assert!(x.len() <= N, "{} elements for {N} lanes", x.len());
        let mut out = [0.0; N];
        let (p, o) = (x.as_ptr(), out.as_mut_ptr());
        // SAFETY: a `Wide<f32, 8>` runs only on a host with AVX2 and a
        // `Wide<f32, 16>` only on one with AVX-512F (see [`Wide`]); the
        // mask holds the first `x.len()` lanes, so only elements of `x`
        // are read, and `out` holds `N` lanes.
        unsafe {
            match N {
                8 => _mm256_storeu_ps(o, _mm256_maskload_ps(p, mask8(x.len()))),
                16 => _mm512_storeu_ps(o, _mm512_maskz_loadu_ps(mask16(x.len()), p)),
                _ => unreachable!("only `on_avx2` and `on_avx512` run a `Wide`"),
            }
        }
        Self(out)
    }
    #[inline(always)]
    fn store(self, out: &mut [f32]) {
        out[..N].copy_from_slice(&self.0);
    }
    /// One masked store at each width [`run_on`] runs.
    #[inline(always)]
    fn store_part(self, out: &mut [f32]) {
        use std::arch::x86_64::*;
        assert!(out.len() <= N, "{} elements for {N} lanes", out.len());
        let (x, o) = (self.0.as_ptr(), out.as_mut_ptr());
        // SAFETY: as in `load_part`; the mask holds the first `out.len()`
        // lanes, so only elements of `out` are written.
        unsafe {
            match N {
                8 => _mm256_maskstore_ps(o, mask8(out.len()), _mm256_loadu_ps(x)),
                16 => _mm512_mask_storeu_ps(o, mask16(out.len()), _mm512_loadu_ps(x)),
                _ => unreachable!("only `on_avx2` and `on_avx512` run a `Wide`"),
            }
        }
    }
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
        self
    }
    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a -= b;
        }
        self
    }
    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a *= b;
        }
        self
    }
    /// Eight `ymm` rows: unpacks of row pairs, shuffles of those pairs,
    /// then 128-bit lane permutes, at every width [`run_on`] runs.
    #[inline(always)]
    fn transpose8(x: &[f32], m: usize, out: &mut [f32], stride: usize) {
        use std::arch::x86_64::*;
        // SAFETY: every `Wide` runs only on a host with AVX2 (see
        // [`Wide`]); each load reads a row of the block and each store
        // writes a column's 8 elements of `out`, both checked slices of 8
        // `f32`s, unaligned.
        unsafe {
            let r: [__m256; 8] = std::array::from_fn(|l| _mm256_loadu_ps(x[l * m..][..8].as_ptr()));
            // 2×2 blocks of rows 2i, 2i+1, then 4×4 blocks, then the
            // halves: `q[c]` ends up holding column `c`.
            let t: [__m256; 8] = std::array::from_fn(|i| {
                let (a, b) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
                if i % 2 == 0 {
                    _mm256_unpacklo_ps(a, b)
                } else {
                    _mm256_unpackhi_ps(a, b)
                }
            });
            let s: [__m256; 8] = std::array::from_fn(|i| {
                let (a, b) = (t[i / 4 * 4 + i / 2 % 2], t[i / 4 * 4 + i / 2 % 2 + 2]);
                if i % 2 == 0 {
                    _mm256_shuffle_ps::<0x44>(a, b)
                } else {
                    _mm256_shuffle_ps::<0xee>(a, b)
                }
            });
            for c in 0..8 {
                let q = if c < 4 {
                    _mm256_permute2f128_ps::<0x20>(s[c], s[c + 4])
                } else {
                    _mm256_permute2f128_ps::<0x31>(s[c - 4], s[c])
                };
                _mm256_storeu_ps(out[c * stride..][..8].as_mut_ptr(), q);
            }
        }
    }
}

/// The `_mm256_maskload_ps` mask of the first `len` of 8 lanes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn mask8(len: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let lanes: [i32; 8] = std::array::from_fn(|l| if l < len { -1 } else { 0 });
    // SAFETY: `lanes` is 8 readable `i32`s; `loadu` needs no alignment.
    unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
}

/// The `__mmask16` of the first `len` of 16 lanes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn mask16(len: usize) -> u16 {
    ((1u32 << len) - 1) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Elements per operand: whole chunks of every width.
    const M: usize = 64;

    /// Tables of the three sizes the bodies gather from (4 entries, the
    /// 32 that take the 8-lane permute, and 512), each entry distinct.
    fn tables() -> ([u64; 4], [u64; 32], [u64; 512]) {
        let entry = |i: usize| (i as f64 + 0.5).to_bits();
        (std::array::from_fn(entry), std::array::from_fn(entry), std::array::from_fn(entry))
    }

    /// Every operation of [`Lanes`] on operands `a`, `b`, `c` (and `f` for
    /// the `f32` load), each result's bits in a row of its own; masks as
    /// `1.0` or `0.0`; then [`f32_ops`] of [`Lanes::F32`].
    struct Ops<'a> {
        x: &'a [[f64; M]; 3],
        f: &'a [f32; M],
    }

    impl LanePass for Ops<'_> {
        type Out = Vec<Vec<u64>>;

        #[inline(always)]
        fn run<V: Lanes>(self) -> Vec<Vec<u64>> {
            let (t4, t32, t512) = tables();
            let mut rows = vec![vec![0u64; M]; 28];
            let mut f32s = [0.0f32; M];
            let (mut min, mut all) = (f64::INFINITY, [true; 2]);
            for k in (0..M).step_by(V::N) {
                let [a, b, c] = self.x.map(|x| V::load(&x[k..]));
                let m = |m: V::Mask| V::select(m, V::splat(1.0), V::splat(0.0));
                let results = [
                    a.add(b),
                    a.sub(b),
                    a.mul(b),
                    a.div(b),
                    a.abs().sqrt(),
                    a.mul_add(b, c),
                    a.neg(),
                    a.abs(),
                    a.trunc(),
                    a.floor(),
                    a.copysign(b),
                    a.min(b),
                    m(a.lt(b)),
                    m(a.le(b)),
                    V::select(a.lt(b), b, c),
                    m(a.bit(0)),
                    m(a.bit(52)),
                    m(a.bit(63)),
                    a.shl(3),
                    a.or_bits(5),
                    a.add_bits(b),
                    V::gather(&t4, a),
                    V::gather(&t32, a),
                    V::gather(&t512, a),
                    a.neg_where(b.lt(c)),
                    V::load_f32(&self.f[k..]),
                    V::splat(a.abs().min_lane()),
                    V::splat(0.5),
                ];
                for (row, r) in rows.iter_mut().zip(results) {
                    let mut out = [0.0; 8];
                    r.store(&mut out);
                    for (o, v) in row[k..k + V::N].iter_mut().zip(out) {
                        *o = if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
                    }
                }
                a.store_f32(&mut f32s[k..]);
                min = min.min(a.abs().min_lane());
                all[0] &= V::all(a.le(a.abs()));
                all[1] &= V::all(a.abs().lt(V::splat(f64::INFINITY)));
            }
            // `min_lane` of a chunk depends on the width: keep the minimum
            // over all chunks instead.
            rows[26] = vec![min.to_bits()];
            rows.push(
                f32s.iter().map(|x| if x.is_nan() { 0 } else { x.to_bits() as u64 }).collect(),
            );
            rows.push(all.map(u64::from).to_vec());
            let fb = self.x[1].map(|x| x as f32);
            rows.extend(f32_ops::<V::F32>(self.f, &fb));
            rows
        }
    }

    /// The bits of an `f32` row, every NaN as 0.
    fn f32_bits(x: &[f32]) -> Vec<u64> {
        x.iter().map(|x| if x.is_nan() { 0 } else { x.to_bits() as u64 }).collect()
    }

    /// Every operation of [`LanesF32`] on operands `a` and `b`: `mul`,
    /// `add`, `sub`, a `mul` by a `splat`, and `load` then `store`, each in
    /// a row of bits, and
    /// an 8×8 block of a 9-row, 11-column matrix from column 2 on through
    /// `transpose8`, stored 9 apart. The masked `load_part` and
    /// `store_part` are checked here, at every width from 1 to `F::N` at
    /// every chunk: the first lanes hold the elements, the rest `+0.0`,
    /// and nothing past the slice is written.
    #[inline(always)]
    fn f32_ops<F: LanesF32>(a: &[f32; M], b: &[f32; M]) -> Vec<Vec<u64>> {
        let mut rows = vec![[0.0f32; M]; 5];
        for k in (0..M).step_by(F::N) {
            let (x, y) = (F::load(&a[k..]), F::load(&b[k..]));
            for (row, r) in
                rows.iter_mut().zip([x.mul(y), x.add(y), x.sub(y), x.mul(F::splat(a[3])), x])
            {
                r.store(&mut row[k..]);
            }
            for w in 1..=F::N {
                let mut lanes = [f32::NAN; 16];
                F::load_part(&a[k..k + w]).store(&mut lanes);
                let zeros = [0.0f32; 16];
                assert_eq!(
                    f32_bits(&lanes[..w]),
                    f32_bits(&a[k..k + w]),
                    "{} lanes: load {w}",
                    F::N
                );
                assert_eq!(
                    f32_bits(&lanes[w..F::N]),
                    f32_bits(&zeros[w..F::N]),
                    "{} lanes: {w}",
                    F::N
                );
                let mut out = [7.5f32; 17];
                x.store_part(&mut out[..w]);
                assert_eq!(
                    f32_bits(&out[..w]),
                    f32_bits(&a[k..k + w]),
                    "{} lanes: store {w}",
                    F::N
                );
                assert!(out[w..].iter().all(|&o| o == 7.5), "{} lanes: store {w} wrote past", F::N);
            }
        }
        let matrix: Vec<f32> = (0..9 * 11).map(|i| a[i % M] + i as f32).collect();
        let mut block = [0.0f32; 8 * 9];
        F::transpose8(&matrix[2..], 11, &mut block, 9);
        let mut bits: Vec<Vec<u64>> = rows.iter().map(|r| f32_bits(r)).collect();
        bits.push(f32_bits(&block));
        bits
    }

    /// Operands with ties of the two zeros (`min(-0.0, 0.0)` must take the
    /// second), infinities, NaNs, subnormals, halves on both sides of zero
    /// for `trunc` and `floor`, values past the `f32` range, and random
    /// values and bit patterns.
    fn operands() -> ([[f64; M]; 3], [f32; M]) {
        let mut rng = StdRng::seed_from_u64(39);
        let specials = [
            -0.0,
            0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            -2.5,
            2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e-310,
            3.0e38,
            1.0 + f64::EPSILON,
            -7.25,
        ];
        let mut x = [[0.0; M]; 3];
        for (j, x) in x.iter_mut().enumerate() {
            for (i, v) in x.iter_mut().enumerate() {
                *v = match (i + 5 * j) % 4 {
                    _ if i < 2 && j < 2 => [-0.0, 0.0][(i + j) % 2],
                    0 => specials[(i + 3 * j) % specials.len()],
                    1 => f64::from_bits(rng.gen_range(0..u64::MAX)),
                    _ => rng.gen_range(-4.0..4.0),
                };
            }
        }
        let f = std::array::from_fn(|i| match i % 3 {
            0 => specials[i % specials.len()] as f32,
            1 => f32::from_bits(rng.gen_range(0..u32::MAX)),
            _ => rng.gen_range(-4.0f32..4.0),
        });
        (x, f)
    }

    /// On every tier the host runs, each [`Lanes`] and [`LanesF32`]
    /// operation of `Wide` is the scalar operation on each lane, bitwise.
    #[test]
    fn lanes_are_the_scalar_operations_on_every_tier() {
        let (x, f) = operands();
        let scalar = run_on(Tier::Scalar, Ops { x: &x, f: &f });
        for tier in Tier::on_host() {
            let got = run_on(tier, Ops { x: &x, f: &f });
            for (op, (g, s)) in got.iter().zip(&scalar).enumerate() {
                if let Some(i) = (0..s.len()).find(|&i| g[i] != s[i]) {
                    panic!(
                        "{tier:?} op {op} at {i}: a = {:e}, b = {:e}, c = {:e}: {:#x}, scalar {:#x}",
                        x[0][i], x[1][i], x[2][i], g[i], s[i]
                    );
                }
            }
        }
    }
}

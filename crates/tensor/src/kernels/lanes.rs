//! `f64` lanes for the transcendental kernels: one portable type at every
//! width, so a lane body written once runs on each [`Tier`].
//!
//! [`Lanes`] is the set of operations a lane body takes; each rounds as
//! the scalar operation of the same name on every lane, so a body that
//! spells out a scalar expression's operations in its order gives that
//! expression's bits. [`run_on`] runs a [`LanePass`] on a tier's lanes:
//! one `f64` on [`Tier::Scalar`], 4 on [`Tier::Avx2`] and 8 on
//! [`Tier::Avx512`]. Both vector widths are one private type, `Wide<N>`,
//! whose every operation is the scalar one on each lane in plain Rust; the
//! compiler writes each tier's instructions for it when the body is
//! inlined into that tier's entry point. Its table gather is the only x86
//! intrinsic: one hardware gather per width, and for a 32-entry table at 8
//! lanes two `vpermt2q` and a blend, which keep the table in registers.
//!
//! The lane bodies are `fc_tensor`'s `exp`, sigmoid, SiLU, gate and gate
//! VJP ([`super::exp`]), its `sin`/`cos` ([`super::trig`]), and
//! `fc_crystal`'s `f64` ports, oracle and separation screen.

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

/// A body over the lanes of whichever tier [`run_on`] picks.
pub trait LanePass {
    type Out;
    /// The body on lanes `V`. Implementations are `#[inline(always)]`, so
    /// that they compile into [`run_on`]'s per-tier entry points with that
    /// tier's instructions.
    fn run<V: Lanes>(self) -> Self::Out;
}

/// `pass` on `tier`'s lanes: `f64` on [`Tier::Scalar`] or on a host
/// without `tier`'s instructions, 4 lanes on [`Tier::Avx2`], 8 on
/// [`Tier::Avx512`].
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

/// [`Tier::Scalar`]: one lane, the scalar operations themselves.
impl Lanes for f64 {
    const N: usize = 1;
    type Mask = bool;
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

/// `pass` on 8 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn on_avx512<P: LanePass>(pass: P) -> P::Out {
    pass.run::<Wide<8>>()
}

/// `pass` on 4 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn on_avx2<P: LanePass>(pass: P) -> P::Out {
    pass.run::<Wide<4>>()
}

/// `N` lanes: each operation is the scalar operation on each lane, in a
/// loop that the compiler turns into the instructions of the entry point
/// ([`on_avx2`], [`on_avx512`]) the lane body is inlined into. A mask lane
/// is all ones or zero. `Wide` is private to this module and only those
/// entry points name a width, so a `Wide<4>` runs only on a host with AVX2
/// and FMA, and a `Wide<8>` only on one that also has AVX-512F.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Wide<const N: usize>([f64; N]);

#[cfg(target_arch = "x86_64")]
impl<const N: usize> Lanes for Wide<N> {
    const N: usize = N;
    type Mask = [u64; N];
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
        // SAFETY: a `Wide<4>` runs only on a host with AVX2 and a `Wide<8>`
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
    /// `1.0` or `0.0`.
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
            rows
        }
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

    /// On every tier the host runs, each [`Lanes`] operation of `Wide` is
    /// the scalar operation on each lane, bitwise.
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

//! `sin` and `cos` of `f32`: one scalar port of glibc's `sinf` and
//! `cosf`, and the same port in the `f64` lanes of [`Tier::Avx2`] and
//! [`Tier::Avx512`], all with the same bits.
//!
//! The port follows glibc's `sinf` and `cosf` (glibc ≥ 2.28,
//! `sysdeps/ieee754/flt-32/s_sinf.c`, `s_cosf.c` and `sincosf.h`) as GCC
//! compiles them into `__sinf_fma` and `__cosf_fma`, the variants glibc
//! itself runs on a host with AVX2 and FMA. Every element or lane takes
//! the same double-precision steps, with a fused multiply-add exactly
//! where that build has one:
//!
//! * `reduce_fast`: `xd = x as f64`, `n = ((xd·HPI_INV) as i32 + 2^23) >> 24`
//!   (`HPI_INV` is `2/π` scaled by `2^24`, so `n` is `xd·2/π` rounded to
//!   the nearest integer), then `r = fma(−n, π/2, xd)`, in `[−π/4, π/4]`;
//! * the quadrant `n` picks the sign `s = ±1` of `r` and the table: the
//!   cosine polynomial's coefficients are negated when `n & 2`, which
//!   negates its result exactly (the port flips the sign bit instead);
//! * with `r2 = r·r` and `rs = r·s`, the sine polynomial
//!   `fma(fma(r2, S3, S2), r2·r3, fma(r3, S1, rs))` with `r3 = r2·rs`, and
//!   the cosine polynomial
//!   `fma(fma(r2, C4, C3), r2·r4, fma(r4, C2, fma(r2, C1, C0)))` with
//!   `r4 = r2·r2`, each rounded once to `f32`;
//! * `sin` is the sine polynomial for even `n` and the cosine one for odd
//!   `n`, `cos` the other way round;
//! * `|x| < 2^-12` gives `x` for `sin` and `1` for `cos`; below `|x| < 0.75`
//!   glibc skips the reduction, which for those inputs gives `n = 0` and
//!   `r = xd` exactly, the same steps;
//! * finite `|x| ≥ 120` reduces with `reduce_large` instead: `|x|`'s
//!   mantissa times 4/π to 192 bits ([`INV_PIO4`]) in integer arithmetic
//!   gives `n` and `r`, and the sign of `x` joins `n` in picking `s` and
//!   the table; an infinity or a NaN gives NaN.
//!
//! [`sincosf`] takes these steps on one element with `f64::mul_add`,
//! which rounds once on every host: it is the [`Tier::Scalar`] body, the
//! vector tiers' chunk tails and their lanes with `|x| ≥ 120`, an infinity
//! or a NaN, and the reference of every test. The vector tiers run
//! `reduce_fast` and both polynomials as a [`LanePass`] body on
//! [`crate::kernels::lanes`]' `f64` lanes, 4 on `Avx2` and 8 on `Avx512`.
//! The constants are glibc 2.36's `__sincosf_table` and `__inv_pio4`,
//! read off `libm.so.6`.
//!
//! With glibc 2.36 on an AVX2+FMA CPU (where glibc runs its FMA builds)
//! every tier equals `f32::sin` and `f32::cos` at all 2³² inputs
//! (`tests::port_is_libm_at_every_input`, run by `scripts/check.sh`);
//! that comparison is informative, the in-tree port is the definition.

use crate::kernels::lanes::{run_on, LanePass, Lanes};
use crate::kernels::Tier;
use crate::par;

/// Elements per block of [`kernel`]'s stack scratch.
const BLOCK: usize = 256;

/// `sin` (`cos` when `cos` is set) of every element of `x` on the host's
/// tier, into a pool buffer: the kernel behind `unary`'s `Sin` and `Cos`.
/// A large call splits its elements across [`crate::par`]'s threads.
pub(crate) fn kernel(cos: bool, x: &[f32]) -> Vec<f32> {
    let tier = Tier::host();
    let n = x.len();
    let mut out = crate::pool::with_capacity(n);
    // Relative cost of one element in [`par::SPLIT_WORK`] units (one
    // `bin.add` element): the weight a transcendental has in `unary`, and
    // less for the vector port, whose sine and cosine share one reduction.
    let work = if tier == Tier::Scalar { 4 } else { 2 };
    par::fill_rows(&mut out, n, 1, par::chunks(n * work, n), |r, w| {
        let mut buf = [0.0f32; BLOCK];
        for x in x[r].chunks(BLOCK) {
            let buf = &mut buf[..x.len()];
            let (s, c) = if cos { (None, Some(&mut *buf)) } else { (Some(&mut *buf), None) };
            sin_cos(tier, x, s, c);
            w.extend_from_slice(buf);
        }
    });
    out
}

/// `sin` of every element of `x` into `sin` and `cos` into `cos`, each
/// `x.len()` long when given, on `tier` and the calling thread.
pub(crate) fn sin_cos(tier: Tier, x: &[f32], sin: Option<&mut [f32]>, cos: Option<&mut [f32]>) {
    for out in [&sin, &cos].into_iter().flatten() {
        assert_eq!(out.len(), x.len(), "sin_cos output length");
    }
    match tier {
        Tier::Scalar => sin_cos_scalar(x, sin, cos),
        _ => run_on(tier, SinCos { x, sin, cos }),
    }
}

/// [`sin_cos`] on [`Tier::Scalar`]: one [`sincosf`] per element. Inlined
/// into the vector tiers' tails, where its `mul_add`s compile to FMA
/// instructions.
#[inline(always)]
fn sin_cos_scalar(x: &[f32], mut sin: Option<&mut [f32]>, mut cos: Option<&mut [f32]>) {
    for (i, &x) in x.iter().enumerate() {
        let (s, c) = sincosf(x);
        if let Some(sin) = sin.as_deref_mut() {
            sin[i] = s;
        }
        if let Some(cos) = cos.as_deref_mut() {
            cos[i] = c;
        }
    }
}

/// [`sin_cos`] on the vector tiers: whole chunks in lanes, their lanes
/// with `|x| ≥ 120`, an infinity or a NaN through [`sincosf`], and the
/// rest of `x` through [`sin_cos_scalar`] (the same bits).
struct SinCos<'a> {
    x: &'a [f32],
    sin: Option<&'a mut [f32]>,
    cos: Option<&'a mut [f32]>,
}

impl LanePass for SinCos<'_> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let SinCos { x, mut sin, mut cos } = self;
        let body = x.len() / V::N * V::N;
        for k in (0..body).step_by(V::N) {
            let xd = V::load_f32(&x[k..]);
            let (s, c) = sin_cos_lanes(xd);
            if let Some(sin) = sin.as_deref_mut() {
                s.store_f32(&mut sin[k..]);
            }
            if let Some(cos) = cos.as_deref_mut() {
                c.store_f32(&mut cos[k..]);
            }
            if !V::all(xd.abs().lt(V::splat(f32::from_bits(LARGE) as f64))) {
                for i in (k..k + V::N).filter(|&i| x[i].to_bits() & 0x7fff_ffff >= LARGE) {
                    let (s, c) = (sin.as_deref_mut(), cos.as_deref_mut());
                    sin_cos_scalar(&x[i..=i], s.map(|s| &mut s[i..=i]), c.map(|c| &mut c[i..=i]));
                }
            }
        }
        sin_cos_scalar(&x[body..], sin.map(|s| &mut s[body..]), cos.map(|c| &mut c[body..]))
    }
}

/// `sin` and `cos` of `xd` on lanes, by the port's steps (module docs) for
/// `|xd| < 120`, up to their rounding to `f32`.
#[inline(always)]
fn sin_cos_lanes<V: Lanes>(xd: V) -> (V, V) {
    let c = V::splat;
    // `n = ((xd·HPI_INV) as i32 + 2^23) >> 24`, each step exact in `f64`.
    let n = xd.mul(c(HPI_INV)).trunc().add(c(8_388_608.0));
    let n = n.mul(c(1.0 / 16_777_216.0)).floor();
    let r = n.neg().mul_add(c(HPI), xd);
    // `n + 1.5·2^52` holds `n` in its low bits, two's complement.
    let q = n.add(c(6_755_399_441_055_744.0));
    let (odd, q2) = (q.bit(0), q.bit(1));
    // glibc's sign[n & 3] = [1, -1, -1, 1].
    let rs = r.neg_where(q2).neg_where(odd);
    let r2 = r.mul(r);
    let sin_poly = {
        let r3 = r2.mul(rs);
        let s1 = r2.mul_add(c(S[2]), c(S[1]));
        let r7 = r2.mul(r3);
        let s = r3.mul_add(c(S[0]), rs);
        s1.mul_add(r7, s)
    };
    let cos_poly = {
        let r4 = r2.mul(r2);
        let c1 = r2.mul_add(c(C[1]), c(C[0]));
        let c2 = r2.mul_add(c(C[4]), c(C[3]));
        let r6 = r2.mul(r4);
        c2.mul_add(r6, r4.mul_add(c(C[2]), c1)).neg_where(q2)
    };
    let tiny = xd.abs().lt(c(f32::from_bits(TINY) as f64));
    let sin = V::select(tiny, xd, V::select(odd, cos_poly, sin_poly));
    let cos = V::select(tiny, c(1.0), V::select(odd, sin_poly, cos_poly));
    (sin, cos)
}

/// `2/π · 2^24`: glibc's `hpi_inv` for a build without `roundtoint`.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
/// `π/2` rounded to `f64`.
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// `π/4 · 2^-61` rounded to `f64`: glibc's `pi63`, the weight of
/// `reduce_large`'s fixed-point remainder.
const PI63: f64 = f64::from_bits(0x3c19_21fb_5444_2d18);
/// The sine polynomial `S1, S2, S3` (both tables).
const S: [f64; 3] = [
    f64::from_bits(0xbfc5_5554_5995_a603),
    f64::from_bits(0x3f81_1076_0523_0bc4),
    f64::from_bits(0xbf29_94eb_3774_cf24),
];
/// The cosine polynomial `C0..C4` of the first table; the second holds
/// their negatives.
const C: [f64; 5] = [
    f64::from_bits(0x3ff0_0000_0000_0000),
    f64::from_bits(0xbfdf_ffff_fd0c_621c),
    f64::from_bits(0x3fa5_5553_e106_8f19),
    f64::from_bits(0xbf56_c087_e89a_359d),
    f64::from_bits(0x3ef9_9343_027b_f8c3),
];
/// The bits of 4/π (and 2/π) from the first: entry `i` holds bits
/// `8(i − 3)` to `8i + 7` after the binary point, so each entry adds 8
/// new bits (glibc's `__inv_pio4`).
const INV_PIO4: [u32; 24] = [
    0xa2, 0xa2f9, 0xa2f983, 0xa2f9836e, 0xf9836e4e, 0x836e4e44, 0x6e4e4415, 0x4e441529, 0x441529fc,
    0x1529fc27, 0x29fc2757, 0xfc2757d1, 0x2757d1f5, 0x57d1f534, 0xd1f534dd, 0xf534ddc0, 0x34ddc0db,
    0xddc0db62, 0xc0db6295, 0xdb629599, 0x6295993c, 0x95993c43, 0x993c4390, 0x3c439041,
];
/// `|x|` bits below which `sin x = x` and `cos x = 1` (`2^-12`).
const TINY: u32 = 0x3980_0000;
/// `|x|` bits from which glibc leaves `reduce_fast` (`120`).
const LARGE: u32 = 0x42f0_0000;

/// `(sin x, cos x)` by the port's steps (module docs) on one element:
/// glibc's `__sinf_fma` and `__cosf_fma` in scalar `f64` arithmetic.
#[inline(always)]
pub fn sincosf(x: f32) -> (f32, f32) {
    let abs = x.to_bits() & 0x7fff_ffff;
    if abs < TINY {
        return (x, 1.0);
    }
    if abs >= 0x7f80_0000 {
        // An infinity or a NaN: NaN, as glibc's `__math_invalidf` gives
        // (its sign and payload are not part of the contract).
        return (f32::NAN, f32::NAN);
    }
    let xd = x as f64;
    // `n` picks the polynomials; `q` picks the sign of `r` and the table.
    let (r, n, q) = if abs < LARGE {
        let n = (((xd * HPI_INV) as i32) + 0x80_0000) >> 24;
        ((-n as f64).mul_add(HPI, xd), n, n)
    } else {
        let (r, n) = reduce_large(x.to_bits());
        (r, n, n + (x.to_bits() >> 31) as i32)
    };
    // glibc's sign[q & 3] = [1, -1, -1, 1].
    let rs = r * if (q ^ (q >> 1)) & 1 == 1 { -1.0 } else { 1.0 };
    let r2 = r * r;
    let sin_poly = {
        let r3 = r2 * rs;
        let s1 = r2.mul_add(S[2], S[1]);
        let r7 = r2 * r3;
        let s = r3.mul_add(S[0], rs);
        s1.mul_add(r7, s)
    };
    let cos_poly = {
        let r4 = r2 * r2;
        let c1 = r2.mul_add(C[1], C[0]);
        let c2 = r2.mul_add(C[4], C[3]);
        let r6 = r2 * r4;
        let c = c2.mul_add(r6, r4.mul_add(C[2], c1));
        if q & 2 == 0 {
            c
        } else {
            -c
        }
    };
    let (s, c) = if n & 1 == 0 { (sin_poly, cos_poly) } else { (cos_poly, sin_poly) };
    (s as f32, c as f32)
}

/// glibc's `reduce_large`: the finite `|x|` of the bits `xi` (sign
/// ignored, `|x| ≥ 2`) as `n·π/2 + r` with `r` in `[−π/4, π/4]`, returned
/// as `(r, n mod 4)`. The 24-bit mantissa times 96 bits of 4/π from the
/// window its exponent picks gives the exact 2.62 fixed-point quotient;
/// its integer part rounds to `n` and the rest, times [`PI63`], is `r`.
fn reduce_large(xi: u32) -> (f64, i32) {
    let arr = &INV_PIO4[((xi >> 26) & 15) as usize..];
    let shift = (xi >> 23) & 7;
    let m = ((xi & 0xff_ffff) | 0x80_0000) << shift;
    let res0 = m.wrapping_mul(arr[0]) as u64;
    let res1 = m as u64 * arr[4] as u64;
    let res2 = m as u64 * arr[8] as u64;
    let res0 = ((res2 >> 32) | (res0 << 32)).wrapping_add(res1);
    let n = res0.wrapping_add(1 << 61) >> 62;
    let r = res0.wrapping_sub(n << 62) as i64 as f64;
    (r * PI63, n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::bits;
    use rand::{rngs::StdRng, SeedableRng};

    /// The constants are glibc 2.36's `__sincosf_table` and `__inv_pio4`
    /// (read off its `libm.so.6`), in decimal for the reader.
    #[test]
    fn constants_are_glibcs() {
        assert_eq!(HPI_INV, 10680707.430881744);
        assert_eq!(HPI, std::f64::consts::FRAC_PI_2);
        assert_eq!(PI63, std::f64::consts::FRAC_PI_4 / (1u64 << 61) as f64);
        assert_eq!(S, [-0.16666654943701084, 0.008332178146138854, -0.00019517298981385725]);
        assert_eq!(
            C,
            [
                1.0,
                -0.49999999725108224,
                0.041666623324344516,
                -0.001388676379437604,
                2.4390450703564542e-05
            ]
        );
        // Each entry's top 24 bits are the last entry's low 24 bits: one
        // bit string, 8 new bits per entry, starting 0.a2f983… = 2/π.
        for w in INV_PIO4.windows(2) {
            assert_eq!(w[1] >> 8, w[0] & 0x00ff_ffff, "{:#x}, {:#x}", w[0], w[1]);
        }
        let two_over_pi = (INV_PIO4[3] as f64 * 2f64.powi(32) + INV_PIO4[7] as f64) / 2f64.powi(64);
        assert_eq!(two_over_pi, std::f64::consts::FRAC_2_PI);
    }

    /// `sincosf` where a build without the FMAs first differs above 0.75,
    /// on both sides of the fast range's end, deep in `reduce_large`'s
    /// range and at the specials: glibc 2.36's `__sinf_fma` and
    /// `__cosf_fma` bits.
    #[test]
    fn sincosf_is_glibcs_fma_build_at_its_witnesses() {
        for (x, sin, cos) in [
            (0x418a_3adb, 0xbf80_0000, 0xb7b4_f770), // 17.2787...: cos needs the FMAs
            (0x4255_b0a9, 0xbc7d_08a9, 0xbf7f_f82f), // 53.4225...: sin needs the FMAs
            (0x4116_cbe4, 0xb2cc_de2e, 0xbf80_0000), // 3π: the worst cancellation
            (0x42ef_ffff, 0x3f14_a287, 0x3f50_6e74), // largest input reduced fast
            (0x42f0_0000, 0x3f14_a2ef, 0x3f50_6e2a), // 120: reduce_large
            (0xc2f0_0000, 0xbf14_a2ef, 0x3f50_6e2a), // -120
            (0x4479_8000, 0xbf5b_004a, 0x3f04_91a2), // 998
            (0xc9f4_2400, 0x3f27_dce5, 0x3f41_4847), // -2e6
            (0x7f7f_ffff, 0xbf05_99b3, 0x3f5a_5f96), // f32::MAX
            (0x8000_0000, 0x8000_0000, 0x3f80_0000), // -0
        ] {
            let (s, c) = sincosf(f32::from_bits(x));
            assert_eq!((s.to_bits(), c.to_bits()), (sin, cos), "x = {x:#x}");
        }
        for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let (s, c) = sincosf(x);
            assert!(s.is_nan() && c.is_nan(), "{x}");
        }
    }

    /// Inputs at the edges of the port: values in all four quadrants, two
    /// where a build without the FMAs is off, both ends of the range glibc
    /// reduces without its slow path, the edge of its unreduced and its
    /// tiny ranges with a neighbour on each side, `±0`, a subnormal, `±inf`
    /// and NaNs.
    const EDGES: [u32; 32] = [
        0x3f80_0000, // 1
        0xbf80_0000, // -1
        0x4000_0000, // 2
        0xc040_0000, // -3
        0x4080_0000, // 4
        0x40a0_0000, // 5
        0xc0c9_0fdb, // -2π
        0x3fc9_0fdb, // π/2
        0x4049_0fdb, // π
        0x4116_cbe4, // 3π: the worst cancellation in reduce_fast
        0x3f40_0000, // 0.75: first reduced input
        0x3f3f_ffff, // below it: unreduced
        0x3f49_0fdb, // π/4
        0x3980_0000, // 2^-12: first polynomial input
        0x397f_ffff, // below it: sin x = x, cos x = 1
        0xb980_0000, // -2^-12
        0x42ef_ffff, // largest input reduced fast
        0x42f0_0000, // 120: reduce_large
        0xc2ef_ffff, // its negative
        0x4479_8000, // 998
        0x0000_0000, // +0
        0x8000_0000, // -0
        0x0000_0001, // smallest subnormal
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // NaN
        0xffc0_1234, // NaN with sign and payload
        0x7f7f_ffff, // f32::MAX
        0x418a_3adb, // 17.2787...: cos needs the FMAs
        0x4255_b0a9, // 53.4225...: sin needs the FMAs
        0xc2a0_0000, // -80
        0x42c8_0000, // 100
    ];

    /// The inputs of the tier tests: a strided sweep of bit patterns, the
    /// edge inputs and random `test_value`s (specials included).
    fn inputs() -> Vec<f32> {
        let mut xs: Vec<f32> =
            (0..1u64 << 32).step_by(65_537).map(|b| f32::from_bits(b as u32)).collect();
        xs.extend(EDGES.map(f32::from_bits));
        let mut rng = StdRng::seed_from_u64(17);
        xs.extend((0..4099).map(|_| crate::kernels::test_value(&mut rng)));
        xs
    }

    /// `sin` and `cos` of `x` on `tier`, each into a buffer of its own.
    fn sin_cos_on(tier: Tier, x: &[f32]) -> [Vec<f32>; 2] {
        let (mut s, mut c) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        sin_cos(tier, x, Some(&mut s), Some(&mut c));
        [s, c]
    }

    /// Every vector tier the host runs against `Scalar`, the in-tree port
    /// of libm's `sinf` and `cosf`.
    #[test]
    fn vector_tiers_are_bitwise_the_scalar_port() {
        let xs = inputs();
        for tier in Tier::on_host().filter(|&t| t != Tier::Scalar) {
            for len in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4099, xs.len()] {
                // Each length at the start and at the end of the inputs;
                // the full length runs all but the last few in vector
                // lanes.
                for start in [0, xs.len() - len] {
                    let x = &xs[start..start + len];
                    let port = sin_cos_on(tier, x);
                    let scalar = sin_cos_on(Tier::Scalar, x);
                    for (name, (p, l)) in ["sin", "cos"].iter().zip(port.iter().zip(&scalar)) {
                        let (p, l) = (bits(p), bits(l));
                        assert_eq!(p.len(), len);
                        if let Some(i) = (0..len).find(|&i| p[i] != l[i]) {
                            panic!(
                                "{tier:?} {name} len {len} from {start}: x = {:#x}: {:#x}, \
                                 scalar {:#x}",
                                x[i].to_bits(),
                                p[i],
                                l[i]
                            );
                        }
                    }
                    // One output alone writes what both write.
                    let (mut s, mut c) = (vec![0.0; len], vec![0.0; len]);
                    sin_cos(tier, x, Some(&mut s), None);
                    sin_cos(tier, x, None, Some(&mut c));
                    assert_eq!((bits(&s), bits(&c)), (bits(&port[0]), bits(&port[1])));
                }
            }
        }
    }

    #[test]
    fn kernel_is_bitwise_libm_at_every_width() {
        let xs = inputs();
        for width in [1, 2] {
            for cos in [false, true] {
                let got = par::with_width(width, || kernel(cos, &xs));
                let want: Vec<f32> = xs
                    .iter()
                    .map(|&x| {
                        let (s, c) = sincosf(x);
                        if cos {
                            c
                        } else {
                            s
                        }
                    })
                    .collect();
                assert_eq!(bits(&got), bits(&want), "cos {cos}, width {width}");
            }
        }
    }

    #[test]
    fn specials_are_libms() {
        let x = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-30, -1e-30, 120.0];
        for tier in Tier::on_host() {
            let [s, c] = sin_cos_on(tier, &x);
            assert_eq!(s[1].to_bits(), (-0.0f32).to_bits());
            assert_eq!(s[5], 1e-30);
            assert_eq!(c[..2], [1.0, 1.0]);
            assert!(s[2..5].iter().chain(&c[2..5]).all(|v| v.is_nan()));
            assert_eq!((s[7], c[7]), sincosf(120.0));
        }
    }

    /// Every `f32` input, through every tier the host runs (`Scalar`
    /// included), against this host's `f32::sin` and `f32::cos`, split
    /// across the host's threads. Informative: the in-tree port is the
    /// definition, and this shows whether the host's libm agrees with it.
    /// Slow outside a release build: run by `scripts/check.sh` with
    /// `--ignored`.
    #[test]
    #[ignore = "2^32 inputs per tier: run in release"]
    fn port_is_libm_at_every_input() {
        for tier in Tier::on_host() {
            let mismatches = mismatches_at_every_input(tier);
            println!(
                "sin / cos {tier:?} vs this host's f32::sin / f32::cos over 2^32 inputs \
                 (informative): {} / {} mismatches",
                mismatches[0], mismatches[1]
            );
            assert_eq!(mismatches, [0, 0], "{tier:?}");
        }
    }

    /// The inputs where `tier` differs from `f32::sin` and from `f32::cos`,
    /// each printed.
    fn mismatches_at_every_input(tier: Tier) -> [u64; 2] {
        const BLOCK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut bad = [0; 2];
                        for block in (t..(1 << 32) / BLOCK).step_by(threads as usize) {
                            let xs: Vec<f32> = (block * BLOCK..(block + 1) * BLOCK)
                                .map(|b| f32::from_bits(b as u32))
                                .collect();
                            let port = sin_cos_on(tier, &xs);
                            let fs: [fn(f32) -> f32; 2] = [f32::sin, f32::cos];
                            for (k, (f, port)) in fs.iter().zip(&port).enumerate() {
                                for (x, y) in xs.iter().zip(port) {
                                    let want = f(*x);
                                    if y.to_bits() != want.to_bits()
                                        && !(y.is_nan() && want.is_nan())
                                    {
                                        bad[k] += 1;
                                        eprintln!(
                                            "{tier:?} {} x = {:#010x}: port {:#010x}, libm {:#010x}",
                                            ["sin", "cos"][k],
                                            x.to_bits(),
                                            y.to_bits(),
                                            want.to_bits()
                                        );
                                    }
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .fold([0; 2], |a, b| [a[0] + b[0], a[1] + b[1]])
        })
    }
}

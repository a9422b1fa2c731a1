//! `exp`, `sin`, `cos` and `tanh` of `f64` for the oracle and the dataset
//! generator: in-tree ports of glibc 2.36, so the labels do not depend on
//! the host's libm.
//!
//! Each port follows the variant glibc itself runs on a host with AVX2
//! and FMA, as GCC compiled it into `libm.so.6`, with a fused multiply-add
//! (`f64::mul_add`, which rounds once on every host) exactly where that
//! build has one:
//!
//! * [`exp`] is `__exp_fma` (`sysdeps/ieee754/dbl-64/e_exp.c`):
//!   `kd0 = fma(x, 128/ln 2, 1.5·2^52)` rounds `128x/ln 2` to an integer
//!   `k` in the low bits of `kd0`, `r = fma(kd, −ln2lo/128,
//!   fma(kd, −ln2hi/128, x))` with `kd = kd0 − 1.5·2^52`, and then
//!   `exp(x) = fma(s, q, s)`, where `s = 2^(k/128)` comes from
//!   [`EXP_TAB`] and `q = fma(r²·r², fma(r, C5, C4),
//!   fma(fma(r, C3, C2), r², r + tail))`; `|x| < 2^-54` gives `1 + x`.
//! * [`sin`] and [`cos`] are `__sin_fma` and `__cos_fma`
//!   (`sysdeps/ieee754/dbl-64/s_sin.c`): below `0.855469` they evaluate
//!   `do_sin`/`do_cos` on `x` directly, up to `2.426265` on `π/2 − x`
//!   (split in two doubles), and above that after `reduce_sincos`
//!   subtracts the nearest multiple of `π/2` in four parts; `do_sin` and
//!   `do_cos` add a short polynomial in `x − k/128` to the sine and
//!   cosine of `k/128` from [`SINCOS_TAB`], and `do_sin` takes a Taylor
//!   polynomial instead when `|x| < 0.126`. Only `0 ≤ x ≤ π` has a path
//!   (the oracle's `πr/r_c`); other inputs panic.
//! * [`tanh`] is glibc's `tanh` (`s_tanh.c`, built without FMA), which
//!   calls `__expm1_fma` (`s_expm1.c`); only `x ≥ 0` has a path (the
//!   magnetic moments' `ρ/ρ_ref`).
//!
//! The scalar functions are the definition and every test's reference.
//! [`LanePorts`] runs `exp` and `sin`/`cos` on any [`Lanes`] of
//! `fc_tensor::kernels::lanes` with the same bits: one `f64` on
//! [`Tier::Scalar`], 4 on [`Tier::Avx2`] and 8 on [`Tier::Avx512`], each
//! step the scalar one on every lane. The tables and constants are read
//! off glibc 2.36's `libm.so.6`.
//!
//! With glibc 2.36 on an AVX2+FMA CPU the ports equal the host's
//! `f64::exp`, `sin`, `cos` and `tanh` on the callers' ranges
//! (`tests::ports_match_this_hosts_libm_over_the_callers_ranges`, run by
//! `scripts/check.sh`); that comparison is informative.

use fc_tensor::kernels::lanes::{run_on, LanePass, Lanes};
use fc_tensor::kernels::Tier;

/// `0x1.71547652b82fep0 · 128`: 128/ln 2.
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `−ln 2 / 128` in two parts, the first with trailing zero bits.
const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
/// See [`NEG_LN2_HI_N`].
const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// `0x1.8p52`: adding it rounds to an integer.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `exp`'s polynomial coefficients `C2..C5` (≈ 1/2, 1/6, 1/24, 1/120).
const EXP_C: [f64; 4] = [
    f64::from_bits(0x3fdf_ffff_ffff_fdbd),
    f64::from_bits(0x3fc5_5555_5555_543c),
    f64::from_bits(0x3fa5_5555_cf17_2b91),
    f64::from_bits(0x3f81_1111_67a4_d017),
];
/// `|x|` below `2^-54` (biased exponent `0x3c9`): `exp(x)` is `1 + x`.
const EXP_TINY: f64 = f64::from_bits(0x3c90_0000_0000_0000);
/// `|x|` from 512 (biased exponent `0x408`) takes glibc's special case,
/// which the port has no path for.
const EXP_LIMIT: f64 = 512.0;

/// `big = 0x1.8p45`: `big + |x|` rounds `|x|` to a multiple of 1/128,
/// whose count sits in the low word.
const BIG: f64 = f64::from_bits(0x42c8_0000_0000_0000);
/// `π/2` in two parts: `hp0 + hp1`.
const HP0: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// See [`HP0`].
const HP1: f64 = f64::from_bits(0x3c91_a626_3314_5c07);
/// `2/π`.
const HPINV: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
/// `0x1.8p52`, as [`SHIFT`].
const TOINT: f64 = SHIFT;
/// `π/2` in four parts for `reduce_sincos`: `mp1 + mp2 + pp3 + pp4`.
const MP1: f64 = f64::from_bits(0x3ff9_21fb_5800_0000);
/// See [`MP1`].
const MP2: f64 = f64::from_bits(0xbe4d_de97_3c00_0000);
/// See [`MP1`].
const PP3: f64 = f64::from_bits(0xbc8c_b3b3_9800_0000);
/// See [`MP1`].
const PP4: f64 = f64::from_bits(0xbacd_747f_23e3_2ed7);
/// `do_sin`/`do_cos`'s `sin` coefficients `sn3`, `sn5`.
const SN: [f64; 2] = [f64::from_bits(0xbfc5_5555_5555_5515), f64::from_bits(0x3f81_1110_e829_872f)];
/// `do_sin`/`do_cos`'s `cos` coefficients `cs2`, `cs4`, `cs6`.
const CS: [f64; 3] = [
    f64::from_bits(0x3fe0_0000_0000_0000),
    f64::from_bits(0xbfa5_5555_5555_5535),
    f64::from_bits(0x3f56_c16b_edd9_e239),
];
/// `TAYLOR_SIN`'s coefficients `s1..s5` (≈ −1/3!, 1/5!, …).
const TS: [f64; 5] = [
    f64::from_bits(0xbfc5_5555_5555_5555),
    f64::from_bits(0x3f81_1111_1111_0ece),
    f64::from_bits(0xbf2a_01a0_19db_08b8),
    f64::from_bits(0x3ec7_1de2_7b9a_7ed9),
    f64::from_bits(0xbe5a_ddff_c2fc_df59),
];
/// `|x|` below 0.126: `do_sin` takes the Taylor polynomial.
const TAYLOR_EDGE: f64 = f64::from_bits(0x3fc0_20c4_9ba5_e354);
/// `sin(x)` is `x` below `2^-26` (high word `0x3e500000`).
const SIN_TINY: f64 = f64::from_bits(0x3e50_0000_0000_0000);
/// `cos(x)` is 1 below `2^-27` (high word `0x3e400000`).
const COS_TINY: f64 = f64::from_bits(0x3e40_0000_0000_0000);
/// High word `0x3feb6000` (≈ 0.855469): below it the table path runs on
/// `x` itself.
const TABLE_EDGE: f64 = f64::from_bits(0x3feb_6000_0000_0000);
/// High word `0x400368fd` (≈ 2.426265): from it `reduce_sincos` runs.
const REDUCE_EDGE: f64 = f64::from_bits(0x4003_68fd_0000_0000);

/// `exp(x)`: glibc 2.36's `__exp_fma` (module docs) for `|x| < 512`.
///
/// # Panics
/// If `|x| ≥ 512` or `x` is NaN.
pub fn exp(x: f64) -> f64 {
    if x.abs() < EXP_TINY {
        return 1.0 + x;
    }
    assert!(x.abs() < EXP_LIMIT, "exp({x}): the port covers |x| < 512");
    let kd0 = x.mul_add(INV_LN2_N, SHIFT);
    let ki = kd0.to_bits();
    let kd = kd0 - SHIFT;
    let r = kd.mul_add(NEG_LN2_LO_N, kd.mul_add(NEG_LN2_HI_N, x));
    let idx = 2 * (ki % 128) as usize;
    let tail = f64::from_bits(EXP_TAB[idx]);
    let scale = f64::from_bits(EXP_TAB[idx + 1].wrapping_add(ki << 45));
    let r2 = r * r;
    let q = EXP_C[1].mul_add(r, EXP_C[0]).mul_add(r2, r + tail);
    let q = (r2 * r2).mul_add(EXP_C[3].mul_add(r, EXP_C[2]), q);
    scale.mul_add(q, scale)
}

/// `sin(x)`: glibc 2.36's `__sin_fma` (module docs) for `0 ≤ x ≤ π`.
///
/// # Panics
/// If `x` lies outside `[0, π]`.
pub fn sin(x: f64) -> f64 {
    assert_angle(x);
    if x < SIN_TINY {
        x
    } else if x < TABLE_EDGE {
        do_sin(x, 0.0)
    } else if x < REDUCE_EDGE {
        do_cos(HP0 - x.abs(), HP1).copysign(x)
    } else {
        let (a, da, n) = reduce_sincos(x);
        quadrant(a, da, n)
    }
}

/// `cos(x)`: glibc 2.36's `__cos_fma` (module docs) for `0 ≤ x ≤ π`.
///
/// # Panics
/// If `x` lies outside `[0, π]`.
pub fn cos(x: f64) -> f64 {
    assert_angle(x);
    if x < COS_TINY {
        1.0
    } else if x < TABLE_EDGE {
        do_cos(x, 0.0)
    } else if x < REDUCE_EDGE {
        let y = HP0 - x.abs();
        let a = y + HP1;
        do_sin(a, (y - a) + HP1)
    } else {
        let (a, da, n) = reduce_sincos(x);
        quadrant(a, da, n + 1)
    }
}

/// The ports' range for `sin` and `cos`.
fn assert_angle(x: f64) {
    assert!((0.0..=std::f64::consts::PI).contains(&x), "sin/cos({x}): the port covers [0, π]");
}

/// `sin(a + da)` for quadrant `n` of `reduce_sincos`.
fn quadrant(a: f64, da: f64, n: u64) -> f64 {
    let v = if n & 1 == 1 { do_cos(a, da) } else { do_sin(a, da) };
    if n & 2 == 2 {
        -v
    } else {
        v
    }
}

/// The table entries `[sn, ssn, cs, ccs]` for `u = big + |x|`.
fn table_row(u: f64) -> [f64; 4] {
    let k = (u.to_bits() as u32 as usize) << 2;
    std::array::from_fn(|j| f64::from_bits(SINCOS_TAB[k + j]))
}

/// glibc's `do_sin`: `sin(x + dx)` for `|x| < 0.855469`.
fn do_sin(x: f64, dx: f64) -> f64 {
    if x.abs() < TAYLOR_EDGE {
        let xx = x * x;
        let p = TS[4].mul_add(xx, TS[3]).mul_add(xx, TS[2]).mul_add(xx, TS[1]).mul_add(xx, TS[0]);
        return x + xx.mul_add(p.mul_add(x, -(0.5 * dx)), dx);
    }
    let dx = if x <= 0.0 { -dx } else { dx };
    let u = BIG + x.abs();
    let xr = x.abs() - (u - BIG);
    let xx = xr * xr;
    let s = xr + (xr * xx).mul_add(xx.mul_add(SN[1], SN[0]), dx);
    let c = xr.mul_add(dx, xx * xx.mul_add(xx.mul_add(CS[2], CS[1]), CS[0]));
    let [sn, ssn, cs, ccs] = table_row(u);
    let cor = s.mul_add(cs, (-c).mul_add(sn, s.mul_add(ccs, ssn)));
    (sn + cor).copysign(x)
}

/// glibc's `do_cos`: `cos(x + dx)` for `|x| < 0.855469`.
fn do_cos(x: f64, dx: f64) -> f64 {
    let dx = if x < 0.0 { -dx } else { dx };
    let u = BIG + x.abs();
    let xr = (x.abs() - (u - BIG)) + dx;
    let xx = xr * xr;
    let s = (xr * xx).mul_add(xx.mul_add(SN[1], SN[0]), xr);
    let c = xx * xx.mul_add(xx.mul_add(CS[2], CS[1]), CS[0]);
    let [sn, ssn, cs, ccs] = table_row(u);
    let cor = (-s).mul_add(sn, (-c).mul_add(cs, (-s).mul_add(ssn, ccs)));
    cs + cor
}

/// glibc's `reduce_sincos`: `x − n·π/2` as `a + da`, and `n` (mod 4).
fn reduce_sincos(x: f64) -> (f64, f64, u64) {
    let t = x.mul_add(HPINV, TOINT);
    let xn = t - TOINT;
    let y = (-xn).mul_add(MP2, (-xn).mul_add(MP1, x));
    let t2 = (-xn).mul_add(PP3, y);
    let db = (-xn).mul_add(PP3, y - t2);
    let b = (-xn).mul_add(PP4, t2);
    let db = db + (-xn).mul_add(PP4, t2 - b);
    (b, db, t.to_bits() & 3)
}

/// `ln 2` in two parts, for `expm1`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// See [`LN2_HI`].
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1/ln 2`.
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// `expm1`'s scaled coefficients `Q1..Q5`.
const EXPM1_Q: [f64; 5] = [
    f64::from_bits(0xbfa1_1111_1111_10f4),
    f64::from_bits(0x3f5a_01a0_19fe_5585),
    f64::from_bits(0xbf14_ce19_9eaa_dbb7),
    f64::from_bits(0x3ed0_cfca_86e6_5239),
    f64::from_bits(0xbe8a_fdb7_6e09_c32d),
];

/// `tanh(x)`: glibc 2.36's `tanh` (module docs) for `x ≥ 0`.
///
/// # Panics
/// If `x` is negative, infinite or NaN.
pub fn tanh(x: f64) -> f64 {
    assert!(x >= 0.0 && x.is_finite(), "tanh({x}): the port covers finite x ≥ 0");
    let ix = (x.to_bits() >> 32) as u32;
    if x == 0.0 {
        x
    } else if ix >= 0x4036_0000 {
        // |x| ≥ 22.
        1.0 - 1.0e-300
    } else if ix < 0x3c80_0000 {
        // |x| < 2^-55.
        x * (1.0 + x)
    } else if ix >= 0x3ff0_0000 {
        let t = expm1(x + x);
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1(-2.0 * x);
        -t / (t + 2.0)
    }
}

/// `exp(x) − 1`: glibc 2.36's `__expm1_fma` for `−56·ln 2 < x < 709.78`.
fn expm1(x: f64) -> f64 {
    let hx = (x.to_bits() >> 32) as u32 & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    assert!(
        x.is_finite() && hx < 0x4086_2e42 && !(neg && hx >= 0x4043_687a),
        "expm1({x}): outside the port's range"
    );
    let (k, x, c) = if hx > 0x3fd6_2e42 {
        // |x| > ln2/2: x = k·ln 2 + (hi − lo).
        let (k, hi, lo) = if hx < 0x3ff0_a2b2 {
            if neg {
                (-1, x + LN2_HI, -LN2_LO)
            } else {
                (1, x - LN2_HI, LN2_LO)
            }
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = f64::from(k);
            (k, (-t).mul_add(LN2_HI, x), t * LN2_LO)
        };
        let xr = hi - lo;
        (k, xr, (hi - xr) - lo)
    } else if hx < 0x3c90_0000 {
        return x;
    } else {
        (0, x, 0.0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = hxs.mul_add(EXPM1_Q[0], 1.0);
    let r2 = hxs.mul_add(EXPM1_Q[2], EXPM1_Q[1]);
    let r3 = hxs.mul_add(EXPM1_Q[4], EXPM1_Q[3]);
    let h2 = hxs * hxs;
    let r1 = (h2 * h2).mul_add(r3, h2.mul_add(r2, r1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = (r1 - t) / (-x).mul_add(t, 6.0) * hxs;
    if k == 0 {
        return x - x.mul_add(e, -hxs);
    }
    let e = x.mul_add(e - c, -c) - hxs;
    // `y` with `k` added to its exponent.
    let scaled = |y: f64| f64::from_bits(y.to_bits().wrapping_add((i64::from(k) << 52) as u64));
    match k {
        -1 => 0.5f64.mul_add(x - e, -0.5),
        1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
        1 => (x - e).mul_add(2.0, 1.0),
        _ if k <= -2 || k > 56 => scaled(1.0 - (e - x)) - 1.0,
        _ if k < 20 => {
            scaled(f64::from_bits(((0x3ff0_0000 - (0x20_0000 >> k)) as u64) << 32) - (e - x))
        }
        _ => scaled((x - (e + f64::from_bits(((0x3ff - k) as u64) << 52))) + 1.0),
    }
}

/// glibc 2.36's `__exp_data.tab`: for `i` in `0..128`, entry `2i` is the
/// tail `t_i` and entry `2i + 1` is `bits(h_i) - (i << 45)`, where `h_i`
/// is `2^(i/128)` correctly rounded and `h_i·(1 + t_i)` is `2^(i/128)` to
/// about 100 bits.
#[rustfmt::skip]
const EXP_TAB: [u64; 256] = [
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// glibc 2.36's `__sincostab`: for `k` in `0..110`, entries `4k..4k + 4`
/// are `sin(k/128)` and `cos(k/128)` each as a rounded value and its
/// residual, `[sn, ssn, cs, ccs]`. The 72 zeros after them pad the table
/// to a power of two, so a lane index masked to `0..512` stays inside it.
const SINCOS_TAB: [u64; 512] = zero_padded(SINCOS_ROWS);

/// The 110 rows of [`SINCOS_TAB`].
#[rustfmt::skip]
const SINCOS_ROWS: [u64; 440] = [
    0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000,
    0x3f7fffeaaaaeeeef, 0xbc1e45e2ec67b77c, 0x3fefffc000155552, 0x3c8f4a01a0196dae,
    0x3f8fffaaaaeeeed5, 0xbc02ab639a9f0777, 0x3fefff000155549f, 0x3c828a28a03a5ef3,
    0x3f97ff7001033255, 0x3bfefe2b51527336, 0x3feffdc006bff7e6, 0x3c8ae6dae86977bd,
    0x3f9ffeaaaeeee86f, 0xbc3cd406fb224ae2, 0x3feffc00155527d3, 0xbc83b54492d89b5b,
    0x3fa3feb2b12d45d5, 0x3c34ec54203d1c11, 0x3feff9c03414a7ba, 0x3c6991f4be6c59bf,
    0x3fa7fdc01032fba9, 0xbc4599bdf46e997a, 0x3feff7006bfdf99f, 0xbc78b3b560648d5f,
    0x3fabfc6d78586dac, 0x3c18e4fd03dbf236, 0x3feff3c0c8103a31, 0x3c74856dbddc0e66,
    0x3faffaaaeeed4edb, 0xbc42d16d32684b69, 0x3feff0015549f4d3, 0x3c8328387b99426f,
    0x3fb1fc343d808bef, 0xbc5f3d32e6f3be4f, 0x3fefebc222a8ef9f, 0x3c57934934f54c77,
    0x3fb3facb12d1755b, 0xbc5921915299468c, 0x3fefe7034129ef6f, 0xbc6cbf4337c96f97,
    0x3fb5f911fd10b737, 0xbc50184f02be9102, 0x3fefe1c4c3c873eb, 0xbc35a9c9057c4a02,
    0x3fb7f701032550e4, 0x3c3afc2d1800501a, 0x3fefdc06bf7e6b9b, 0x3c831902b535f8db,
    0x3fb9f4902d55d1f9, 0x3c52696d7eac1dc1, 0x3fefd5c94b43e000, 0xbc62e768cb4f92f9,
    0x3fbbf1b78568391d, 0x3c5e91841dea4cc8, 0x3fefcf0c800e99b1, 0x3c6ea3d786d186ac,
    0x3fbdee6f16c1cce6, 0xbc450f8e2fb71673, 0x3fefc7d078d1bc88, 0x3c8075d2447db685,
    0x3fbfeaaeee86ee36, 0xbc4afcb2bcc6f03b, 0x3fefc015527d5bd3, 0x3c8b68f35094efb8,
    0x3fc0f3378ddd71d1, 0x3c6d8468724f0f9e, 0x3fefb7db2bfe0695, 0x3c821dadf4f65ab1,
    0x3fc1f0d3d7afceaf, 0xbc66ef95099769a5, 0x3fefaf22263c4bd3, 0xbc552ace133a2769,
    0x3fc2ee285e4ab88f, 0xbc6e4d0f05dee058, 0x3fefa5ea641c36f2, 0x3c404da6ed17cc7c,
    0x3fc3eb312c5d66cb, 0x3c647d666b66cb91, 0x3fef9c340a7cc428, 0x3c8c5b6b063b7462,
    0x3fc4e7ea4dc5f27b, 0x3c5949db2ac072fc, 0x3fef91ff40374d01, 0xbc67d03f4d3a9e4c,
    0x3fc5e44fcfa126f3, 0xbc66f443063f89b6, 0x3fef874c2e1eecf6, 0xbc8c6514e1332b16,
    0x3fc6e05dc05a4d4c, 0xbbd32c5c8b81c940, 0x3fef7c1afeffde24, 0xbc78f55bc47540b1,
    0x3fc7dc102fbaf2b5, 0x3c45ab50e23c97c3, 0x3fef706bdf9ece1c, 0xbc8698c80c36dcb4,
    0x3fc8d7632efaa944, 0xbc620fa262cbb953, 0x3fef643efeb82acd, 0x3c76b00ac1fe28ac,
    0x3fc9d252d0cec312, 0x3c59c43d80b1137d, 0x3fef57948cff6797, 0x3c6e3a0d3e03b1d5,
    0x3fcaccdb297a0765, 0xbc59883b57d6cdeb, 0x3fef4a6cbd1e3a79, 0x3c813df0edaebb57,
    0x3fcbc6f84edc6199, 0x3c69c1a56a7b0cab, 0x3fef3cc7c3b3d16e, 0xbc621a3ad28a3494,
    0x3fccc0a6588289a3, 0xbc6868d09bc87c6b, 0x3fef2ea5d753ffed, 0x3c8cc4215f56d583,
    0x3fcdb9e15fb5a5d0, 0xbc632e20d6cc6fc2, 0x3fef20073086649f, 0x3c7b940416c1984b,
    0x3fceb2a57f8ae5a3, 0xbc60be06af572ceb, 0x3fef10ec09c5873b, 0x3c8d9072762c1283,
    0x3fcfaaeed4f31577, 0xbc615d88508e32b8, 0x3fef01549f7deea1, 0x3c8d3c1e99e5cafd,
    0x3fd0515cbf65155c, 0xbc79b8c29dfd8ec8, 0x3feef141300d2f26, 0xbc82aa1b08ded372,
    0x3fd0cd00cef36436, 0xbc79fb0a0c93e2b5, 0x3feee0b1fbc0f11c, 0xbc4bfd2380bbc3b1,
    0x3fd14861aa94ddeb, 0xbc6be881b5b615a4, 0x3feecfa744d5efa1, 0xbc556d0a4af541d0,
    0x3fd1c37d64c6b876, 0x3c746076fe0dcff5, 0x3feebe214f76efa8, 0xbc802f9f12ba543e,
    0x3fd23e52111aaf36, 0xbc74f080334eff18, 0x3feeac2061bbaf4f, 0x3c62c1d53e94658d,
    0x3fd2b8ddc43eb49f, 0x3c61553899f2d807, 0x3fee99a4c3a7cd83, 0xbc82264b1bc53ce8,
    0x3fd3331e94049f87, 0x3c7e0cb6b40c302c, 0x3fee86aebf29a9ed, 0x3c89397afdbb58a7,
    0x3fd3ad129769d3d8, 0x3c003d5504878398, 0x3fee733ea0193d40, 0xbc86428b3546ce13,
    0x3fd426b7e69ee697, 0xbc7f09c75705c59f, 0x3fee5f54b436e9d0, 0x3c87eb0fd02fc8bc,
    0x3fd4a00c9b0f3d20, 0x3c7823ba6bb08ead, 0x3fee4af14b2a449c, 0xbc868ca02e8a6833,
    0x3fd5190ecf68a77a, 0x3c7b357155eef0f3, 0x3fee3614b680d6a5, 0xbc727793aa015237,
    0x3fd591bc9fa2f597, 0x3c67c74bac3fe0cb, 0x3fee20bf49acd6c1, 0xbc5660aec7ef636c,
    0x3fd60a1429078775, 0x3c5b1fd80ba89133, 0x3fee0af15a03dbce, 0x3c5fe8e702771ae6,
    0x3fd682138a38d7f7, 0xbc7d889202444aad, 0x3fedf4ab3ebd875e, 0xbc8e2d8a7e6736c4,
    0x3fd6f9b8e33a0255, 0x3c742bc14ee9da0d, 0x3feddded50f228d6, 0xbc6e80c8d42ba2bf,
    0x3fd7710255764214, 0xbc66ead7314bb6ce, 0x3fedc6b7eb995912, 0x3c54b364776dcd35,
    0x3fd7e7ee03c86d4e, 0xbc7b63bcdabf5af2, 0x3fedaf0b6b888e83, 0x3c8a249e2b5e5cea,
    0x3fd85e7a12826949, 0x3c78a40e9b5face0, 0x3fed96e82f71a9dc, 0x3c8ff61bd5d2039d,
    0x3fd8d4a4a774992f, 0x3c744a02ea766326, 0x3fed7e4e97e17b4a, 0xbc63b770352bed94,
    0x3fd94a6be9f546c5, 0xbc769ce13e683f58, 0x3fed653f073e4040, 0xbc876236434bec37,
    0x3fd9bfce02e80510, 0x3c709e39a320b0a4, 0x3fed4bb9e1c619e0, 0x3c8f34bb77858f61,
    0x3fda34c91cc50cca, 0xbc5a310e3b50cecd, 0x3fed31bf8d8d7c06, 0x3c7e60dd3089cbdd,
    0x3fdaa95b63a09277, 0xbc66293eb13c0381, 0x3fed1750727d94f0, 0x3c80d52b1ec1a48e,
    0x3fdb1d8305321617, 0xbc7ae242cb99f519, 0x3fecfc6cfa52ad9f, 0x3c88b5b5508f2a0d,
    0x3fdb913e30dbac43, 0xbc7e38ad2f6c3ff1, 0x3fece115909a82e5, 0x3c81f139bb31109a,
    0x3fdc048b17b140a3, 0x3c619fe6757e9fa7, 0x3fecc54aa2b2972e, 0x3c64ee162ba83a98,
    0x3fdc7767ec7fd19e, 0xbc5eb14d1a3d5826, 0x3feca90c9fc67d0b, 0xbc646a81485e3462,
    0x3fdce9d2e3d4a51f, 0xbc62fc8a12dae298, 0x3fec8c5bf8ce1a84, 0x3c7ab3d1a1590123,
    0x3fdd5bca34047661, 0x3c728a44a75fc29c, 0x3fec6f39208be53b, 0xbc8741dbfbaadb42,
    0x3fddcd4c15329c9a, 0x3c70d4c6e171fd9a, 0x3fec51a48b8b175e, 0xbc61bbb43b9aa880,
    0x3fde3e56c1582a69, 0xbc50a4821099f88f, 0x3fec339eb01ddd81, 0xbc8caaf5ee82c5c0,
    0x3fdeaee8744b05f0, 0xbc5789b43c9b027d, 0x3fec1528065b7d50, 0xbc8892111312e828,
    0x3fdf1eff6bc4f97b, 0x3c717212f8a7525c, 0x3febf641081e7536, 0x3c8b7bd71628a9a1,
    0x3fdf8e99e76abc97, 0x3c59d950af2d00a3, 0x3febd6ea310294f5, 0x3c731bbcc88c109d,
    0x3fdffdb628d2f57a, 0x3c6f4a992e905b6a, 0x3febb723fe630f32, 0x3c772bd2452d0a39,
    0x3fe0362939c69955, 0xbc82d8cd78397b01, 0x3feb96eeef58840e, 0x3c545a3cc78fade0,
    0x3fe06d3686946e5b, 0x3c83f5ae4538ff1b, 0x3feb764b84b704c2, 0xbc8f5848c21b389b,
    0x3fe0a4021e9e1001, 0xbc86f643a13914f6, 0x3feb553a410c104e, 0x3c58ff7947027a16,
    0x3fe0da8b26b5672e, 0xbc8a58def0bee909, 0x3feb33bba89c8948, 0x3c8ea6a51d1f6ca9,
    0x3fe110d0c4b69c3b, 0x3c8d918998809981, 0x3feb11d04162a4c6, 0x3c71dd561efbc0c2,
    0x3fe146d21f8b7f82, 0x3c7bf9535e2739a8, 0x3feaef78930bd275, 0xbc7f836279746f94,
    0x3fe17c8e5f2eedb0, 0x3c635e57102e2488, 0x3feaccb526f69de5, 0x3c88fb6a8dd6b6cc,
    0x3fe1b204acb02fdd, 0xbc5f190c70cbb5ff, 0x3feaa98688308913, 0xbc0b83d607cd5070,
    0x3fe1e7343236574c, 0x3c722a3fa4f41d5a, 0x3fea85ed4373e02d, 0x3c69be06385ec792,
    0x3fe21c1c1b0394cf, 0x3c5e5b324b23aa31, 0x3fea61e9e72586af, 0x3c858330e2fd453f,
    0x3fe250bb93788bbb, 0x3c7ea3d02457bcce, 0x3fea3d7d0352bdcf, 0xbc868dbaeca19669,
    0x3fe28511c917a067, 0xbc801df1d9a16b70, 0x3fea18a729aee445, 0x3c395e25736c0358,
    0x3fe2b91dea88421e, 0xbc8fa371db216ab0, 0x3fe9f368ed912f85, 0xbc81d200c5791606,
    0x3fe2ecdf279a3082, 0x3c8d3557e0e7e37e, 0x3fe9cdc2e3f25e5c, 0x3c83f99112993f62,
    0x3fe32054b148bc4f, 0x3c8f6b42095a135b, 0x3fe9a7b5a36a6514, 0x3c8722cfcc9fa7a9,
    0x3fe3537db9be0367, 0x3c6b327e7af040f0, 0x3fe98141c42e1310, 0x3c8d1ff80488f08d,
    0x3fe386597456282b, 0xbc710fada93b07a8, 0x3fe95a67e00cb1fd, 0xbc80befda21f862d,
    0x3fe3b8e715a2840a, 0xbc797653a7d2f07b, 0x3fe93328926d9e92, 0xbc8bb77003600cda,
    0x3fe3eb25d36cd53a, 0xbc5be570e1570fc0, 0x3fe90b84784ddaf7, 0xbc70feb10ab93b87,
    0x3fe41d14e4ba6790, 0x3c84608fd287ecf5, 0x3fe8e37c303d9ad1, 0xbc6463a4b53d4bf8,
    0x3fe44eb381cf386b, 0xbc83ed6c1e6a5505, 0x3fe8bb105a5dc900, 0x3c8863e03e9474c1,
    0x3fe48000e431159f, 0xbc8b194a7463ed10, 0x3fe89241985d871f, 0x3c8c48d9c413ed84,
    0x3fe4b0fc46aab761, 0x3c20da05738cc59a, 0x3fe869108d77a6c6, 0x3c7338ffe2bfe9dd,
    0x3fe4e1a4e54ed51b, 0xbc8a492f89b7c76a, 0x3fe83f7dde701ca0, 0xbc4152cf609bc6e8,
    0x3fe511f9fd7b351c, 0xbc85c0e861c48831, 0x3fe8158a31916d5d, 0xbc6de8b90b8228de,
    0x3fe541facddbb724, 0x3c7232c28520d391, 0x3fe7eb362eaa1488, 0x3c5a1d65a4a5959f,
    0x3fe571a6966d59b3, 0x3c5c843b4d0fb198, 0x3fe7c0827f09e54f, 0xbc6c73d6d72aee68,
    0x3fe5a0fc98813a12, 0xbc8d82e2b7d4227b, 0x3fe7956fcd7f6543, 0xbc8ab276e9d45ae4,
    0x3fe5cffc16bf8f0d, 0x3c896cb370eb578a, 0x3fe769fec655211f, 0xbc6827d5cf8c68c5,
    0x3fe5fea4552a9e57, 0x3c80b6cef7ee20b7, 0x3fe73e30174efba1, 0xbc65d3ae3d94ad5f,
    0x3fe62cf49921ac79, 0xbc8edd9855b6241a, 0x3fe712046fa77678, 0x3c8425b0a5029c81,
    0x3fe65aec2963e755, 0x3c8126f96b71053c, 0x3fe6e57c800cf55e, 0x3c860286dedbd0a6,
    0x3fe6888a4e134b2f, 0xbc86b7d37644d5e6, 0x3fe6b898fa9efb5d, 0x3c715ac786ccf4b2,
    0x3fe6b5ce50b7821a, 0xbc65d5158f702e0f, 0x3fe68b5a92eb6253, 0xbc89a91ad985f89c,
    0x3fe6e2b77c40bde1, 0xbc70e729857fad53, 0x3fe65dc1fdeb8cba, 0xbc597c1b47337c77,
    0x3fe70f451d0a8c40, 0x3c697ede3885770d, 0x3fe62fcff20191c7, 0x3c6d9143895756ef,
    0x3fe73b7680dea578, 0xbc72248306dc12a2, 0x3fe6018526f563df, 0x3c846ca5e0e432d0,
    0x3fe7674af6f7b524, 0x3c7e9d3f94ac84a8, 0x3fe5d2e255f1f17a, 0x3c80314104c8892b,
    0x3fe792c1d0041d52, 0xbc8abf05eeb354eb, 0x3fe5a3e839824077, 0x3c8428aa2759be62,
    0x3fe7bdda5e28b3c2, 0x3c4ad1197ccd0393, 0x3fe574978d8e83f2, 0x3c8f4714af282d23,
    0x3fe7e893f5037959, 0x3c80eefbaa650c4c, 0x3fe544f10f592ca5, 0xbc8e7ae8e6c7a62f,
    0x3fe812ede9ae4ba4, 0xbc87830adf402dda, 0x3fe514f57d7bf3da, 0x3c747a108073c259,
];

/// `t` followed by zeros.
const fn zero_padded<const N: usize, const L: usize>(t: [u64; N]) -> [u64; L] {
    let mut out = [0; L];
    let mut i = 0;
    while i < N {
        out[i] = t[i];
        i += 1;
    }
    out
}

/// [`exp`] and [`sin`]/[`cos`] on lanes: bitwise the scalar ports on
/// every lane.
pub(crate) trait LanePorts: Lanes {
    fn exp(self) -> Self;
    fn sin_cos(self) -> (Self, Self);
}

impl<V: Lanes> LanePorts for V {
    #[inline(always)]
    fn exp(self) -> V {
        exp_lanes(self)
    }

    #[inline(always)]
    fn sin_cos(self) -> (V, V) {
        sin_cos_lanes(self)
    }
}

/// `exp` of each element of `x` into `out` on `tier`'s lanes: bitwise
/// [`exp`] on every element.
pub fn exp_into(tier: Tier, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "exp_into: output length");
    let [x, mut y] = padded(x);
    struct Exp<'a>(&'a [f64], &'a mut [f64]);
    impl LanePass for Exp<'_> {
        type Out = ();
        #[inline(always)]
        fn run<V: Lanes>(self) {
            for k in (0..self.0.len()).step_by(V::N) {
                V::load(&self.0[k..]).exp().store(&mut self.1[k..]);
            }
        }
    }
    run_on(tier, Exp(&x, &mut y));
    out.copy_from_slice(&y[..out.len()]);
}

/// `sin` and `cos` of each element of `x` into `sin` and `cos` on `tier`'s
/// lanes: bitwise [`sin`] and [`cos`] on every element.
pub fn sin_cos_into(tier: Tier, x: &[f64], sin: &mut [f64], cos: &mut [f64]) {
    assert!(x.len() == sin.len() && x.len() == cos.len(), "sin_cos_into: output lengths");
    let ([x, mut s], mut c) = (padded(x), vec![0.0; x.len().div_ceil(8) * 8]);
    struct SinCos<'a>(&'a [f64], &'a mut [f64], &'a mut [f64]);
    impl LanePass for SinCos<'_> {
        type Out = ();
        #[inline(always)]
        fn run<V: Lanes>(self) {
            for k in (0..self.0.len()).step_by(V::N) {
                let (s, c) = V::load(&self.0[k..]).sin_cos();
                s.store(&mut self.1[k..]);
                c.store(&mut self.2[k..]);
            }
        }
    }
    run_on(tier, SinCos(&x, &mut s, &mut c));
    sin.copy_from_slice(&s[..sin.len()]);
    cos.copy_from_slice(&c[..cos.len()]);
}

/// `x` padded with 1.0 (inside every port's range) to whole chunks of the
/// widest lanes, and an output buffer of that length.
fn padded(x: &[f64]) -> [Vec<f64>; 2] {
    let len = x.len().div_ceil(8) * 8;
    let mut p = x.to_vec();
    p.resize(len, 1.0);
    [p, vec![0.0; len]]
}

/// [`exp`] on lanes: the scalar steps on every lane, then `1 + x` where
/// `|x| < 2^-54`.
#[inline(always)]
fn exp_lanes<V: Lanes>(x: V) -> V {
    let c = V::splat;
    assert!(V::all(x.abs().lt(c(EXP_LIMIT))), "exp: the port covers |x| < 512");
    let kd0 = x.mul_add(c(INV_LN2_N), c(SHIFT));
    let kd = kd0.sub(c(SHIFT));
    let r = kd.mul_add(c(NEG_LN2_LO_N), kd.mul_add(c(NEG_LN2_HI_N), x));
    let idx = kd0.shl(1);
    let tail = V::gather(&EXP_TAB, idx);
    let scale = V::gather(&EXP_TAB, idx.or_bits(1)).add_bits(kd0.shl(45));
    let r2 = r.mul(r);
    let q = c(EXP_C[1]).mul_add(r, c(EXP_C[0])).mul_add(r2, r.add(tail));
    let q = r2.mul(r2).mul_add(c(EXP_C[3]).mul_add(r, c(EXP_C[2])), q);
    let y = scale.mul_add(q, scale);
    V::select(x.abs().lt(c(EXP_TINY)), c(1.0).add(x), y)
}

/// [`sin`] and [`cos`] on lanes. Every lane takes one `do_sin` and one
/// `do_cos`, each on the arguments of the lane's branch:
///
/// | `x`            | `sin`                   | `cos`                   |
/// |----------------|-------------------------|-------------------------|
/// | below 0.855469 | `do_sin(x, 0)`          | `do_cos(x, 0)`          |
/// | below 2.426265 | `do_cos(π/2 − x)`       | `do_sin(π/2 − x)`       |
/// | from 2.426265  | quadrant `n` of `a + da` | quadrant `n + 1`       |
///
/// and then `x` and 1 below the tiny edges. The middle row's `do_cos` is
/// positive, so `copysign(·, x)` is its absolute value for `x ≥ 0`.
#[inline(always)]
fn sin_cos_lanes<V: Lanes>(x: V) -> (V, V) {
    let c = V::splat;
    let pi = std::f64::consts::PI;
    assert!(V::all(c(0.0).le(x)) && V::all(x.le(c(pi))), "sin/cos: the port covers [0, π]");
    let rows = [x.lt(c(TABLE_EDGE)), x.lt(c(REDUCE_EDGE))];
    // The middle row: `π/2 − x` as `y` with `dx = hp1` for `do_cos`, and
    // as the split pair `a2 + da2` for `do_sin`.
    let y = c(HP0).sub(x.abs());
    let a2 = y.add(c(HP1));
    let da2 = y.sub(a2).add(c(HP1));
    // The last row: `reduce_sincos`.
    let t = x.mul_add(c(HPINV), c(TOINT));
    let nxn = t.sub(c(TOINT)).neg();
    let yr = nxn.mul_add(c(MP2), nxn.mul_add(c(MP1), x));
    let t2 = nxn.mul_add(c(PP3), yr);
    let db = nxn.mul_add(c(PP3), yr.sub(t2));
    let b = nxn.mul_add(c(PP4), t2);
    let db = db.add(nxn.mul_add(c(PP4), t2.sub(b)));
    let vs = do_sin_lanes(by_row(rows, x, a2, b), by_row(rows, c(0.0), da2, db));
    let vc = do_cos_lanes(by_row(rows, x, y, b), by_row(rows, c(0.0), c(HP1), db));
    // Quadrant `n` takes `do_cos` when `n` is odd and is negated when bit
    // 1 of `n` is set; quadrant `n + 1` is negated when exactly one of
    // bits 0 and 1 of `n` is set.
    let (odd, two) = (t.bit(0), t.bit(1));
    let q_sin = V::select(odd, vc, vs).neg_where(two);
    let q_cos = V::select(odd, vs, vc).neg_where(two).neg_where(odd);
    let sin = V::select(x.lt(c(SIN_TINY)), x, by_row(rows, vs, vc.abs(), q_sin));
    let cos = V::select(x.lt(c(COS_TINY)), c(1.0), by_row(rows, vc, vs, q_cos));
    (sin, cos)
}

/// `d` in the lanes below [`TABLE_EDGE`] (`rows[0]`), else `m` below
/// [`REDUCE_EDGE`] (`rows[1]`), else `r`.
#[inline(always)]
fn by_row<V: Lanes>(rows: [V::Mask; 2], d: V, m: V, r: V) -> V {
    V::select(rows[0], d, V::select(rows[1], m, r))
}

/// The table entries `[sn, ssn, cs, ccs]` for `u = big + |x|` on lanes.
#[inline(always)]
fn table_row_lanes<V: Lanes>(u: V) -> [V; 4] {
    let k = u.shl(2);
    let sn = V::gather(&SINCOS_TAB, k);
    let ssn = V::gather(&SINCOS_TAB, k.or_bits(1));
    [sn, ssn, V::gather(&SINCOS_TAB, k.or_bits(2)), V::gather(&SINCOS_TAB, k.or_bits(3))]
}

/// [`do_sin`] on lanes: the Taylor polynomial where `|x| < 0.126`, the
/// table path elsewhere.
#[inline(always)]
fn do_sin_lanes<V: Lanes>(x: V, dx: V) -> V {
    let c = V::splat;
    let xx = x.mul(x);
    let p = c(TS[4]).mul_add(xx, c(TS[3])).mul_add(xx, c(TS[2]));
    let p = p.mul_add(xx, c(TS[1])).mul_add(xx, c(TS[0]));
    let taylor = x.add(xx.mul_add(p.mul_add(x, c(0.5).mul(dx).neg()), dx));
    let dx = V::select(x.le(c(0.0)), dx.neg(), dx);
    let u = c(BIG).add(x.abs());
    let xr = x.abs().sub(u.sub(c(BIG)));
    let xx = xr.mul(xr);
    let s = xr.add(xr.mul(xx).mul_add(xx.mul_add(c(SN[1]), c(SN[0])), dx));
    let cs_poly = xx.mul_add(xx.mul_add(c(CS[2]), c(CS[1])), c(CS[0]));
    let cc = xr.mul_add(dx, xx.mul(cs_poly));
    let [sn, ssn, cs, ccs] = table_row_lanes(u);
    let cor = s.mul_add(cs, cc.neg().mul_add(sn, s.mul_add(ccs, ssn)));
    V::select(x.abs().lt(c(TAYLOR_EDGE)), taylor, sn.add(cor).copysign(x))
}

/// [`do_cos`] on lanes.
#[inline(always)]
fn do_cos_lanes<V: Lanes>(x: V, dx: V) -> V {
    let c = V::splat;
    let dx = V::select(x.lt(c(0.0)), dx.neg(), dx);
    let u = c(BIG).add(x.abs());
    let xr = x.abs().sub(u.sub(c(BIG))).add(dx);
    let xx = xr.mul(xr);
    let s = xr.mul(xx).mul_add(xx.mul_add(c(SN[1]), c(SN[0])), xr);
    let cc = xx.mul(xx.mul_add(xx.mul_add(c(CS[2]), c(CS[1])), c(CS[0])));
    let [sn, ssn, cs, ccs] = table_row_lanes(u);
    let cor = s.neg().mul_add(sn, cc.neg().mul_add(cs, s.neg().mul_add(ssn, ccs)));
    cs.add(cor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Inputs where glibc 2.36's builds without FMA return other bits than
    /// its FMA builds (found by sweeping the callers' ranges with
    /// `GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`), with the FMA builds'
    /// bits: one per branch of each port.
    const WITNESSES: [(&str, u64, u64); 15] = [
        ("exp", 0xc031_472b_64ec_e4d2, 0x3e60_d4e8_72d0_0541), // -17.278
        ("exp", 0x403a_ac72_a8cd_7798, 0x4256_586c_0c4a_dde5), // 26.674
        ("sin", 0x3fcd_b73c_95f6_5f16, 0x3fcd_7316_7377_548d), // 0.232: do_sin
        ("sin", 0x4003_1847_09c6_8602, 0x3fe5_ec52_ed0c_65b3), // 2.387: do_cos(π/2 − x)
        ("sin", 0x4005_76dd_fbb1_7a3f, 0x3fdc_5461_9454_a135), // 2.683: reduced
        ("cos", 0x3fe8_57c9_98c3_fd39, 0x3fe7_2dd0_163e_e670), // 0.761: do_cos
        ("cos", 0x4000_303e_d5be_079d, 0xbfdb_ff2e_658e_df7b), // 2.024: do_sin(π/2 − x)
        ("cos", 0x4007_89b8_0c36_7731, 0xbfef_5dc4_2db2_f65c), // 2.942: reduced
        ("tanh", 0x3fbf_29e7_e8dc_1315, 0x3fbf_02ba_e089_9a03), // 0.122: expm1, k = 0
        ("tanh", 0x3fcc_37bd_cf99_5a3f, 0x3fcb_c4f3_71d5_e8ca), // 0.220: k = -1
        ("tanh", 0x3fc0_d1bb_1fee_d385, 0x3fc0_b91e_b031_acdb), // 0.131: k = 0
        ("tanh", 0x3feb_3925_12c5_91ef, 0x3fe6_2058_623d_456f), // 0.851: k ≤ -2
        ("tanh", 0x3ff3_4348_fcb2_0cb6, 0x3fea_b714_3b3e_6e05), // 1.204: k = 3
        ("tanh", 0x3ff9_39e0_e80f_7bfe, 0x3fed_60dc_d1bb_34f1), // 1.577
        ("tanh", 0x3fc7_14a8_78bf_1a66, 0x3fc6_d570_e6ba_41d4), // 0.180: k = -1
    ];

    /// The port of `name`.
    fn port(name: &str) -> fn(f64) -> f64 {
        match name {
            "exp" => exp,
            "sin" => sin,
            "cos" => cos,
            _ => tanh,
        }
    }

    /// This host's libm for `name`.
    fn host(name: &str) -> fn(f64) -> f64 {
        match name {
            "exp" => f64::exp,
            "sin" => f64::sin,
            "cos" => f64::cos,
            _ => f64::tanh,
        }
    }

    #[test]
    fn ports_are_glibcs_fma_builds_at_their_witnesses() {
        for (name, x, want) in WITNESSES {
            let got = port(name)(f64::from_bits(x));
            assert_eq!(got.to_bits(), want, "{name}({x:#x}): {:#x}", got.to_bits());
        }
    }

    /// Informative: this host's libm agrees with the ports at the
    /// witnesses, as glibc 2.36's FMA builds do. Another libm (or glibc
    /// told not to use FMA) fails here, not in the port's own tests.
    #[test]
    fn ports_equal_the_host_libm_at_the_witnesses() {
        for (name, x, _) in WITNESSES {
            let x = f64::from_bits(x);
            assert_eq!(port(name)(x).to_bits(), host(name)(x).to_bits(), "{name}({x:e})");
        }
    }

    #[test]
    fn specials_and_edges() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(1e-17), 1.0);
        assert_eq!(exp(1.0).to_bits(), std::f64::consts::E.to_bits());
        assert_eq!((sin(0.0).to_bits(), cos(0.0)), (0, 1.0));
        assert_eq!(sin(1e-300), 1e-300);
        assert_eq!(cos(1e-10), 1.0);
        assert_eq!(cos(std::f64::consts::PI), -1.0);
        assert_eq!(sin(std::f64::consts::FRAC_PI_2), 1.0);
        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(1e-20), 1e-20);
        assert_eq!(tanh(30.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "|x| < 512")]
    fn exp_outside_its_range_panics() {
        exp(600.0);
    }

    #[test]
    #[should_panic(expected = "[0, π]")]
    fn sin_outside_its_range_panics() {
        sin(-0.5);
    }

    #[test]
    #[should_panic(expected = "finite x ≥ 0")]
    fn tanh_outside_its_range_panics() {
        tanh(-1.0);
    }

    /// Every `EXP_TAB` pair stands for `2^(i/128)`: `h_i` is it correctly
    /// rounded (the double-double powers `(h_i ∓ u/2)^128`, `u` the spacing
    /// of `f64`s at `h_i`, bracket `2^i`), and `h_i·(1 + t_i)` is it within
    /// `2^-92` relative (the tail's own rounding, and the double-double
    /// powers' error, are below that).
    #[test]
    fn exp_table_is_two_to_the_i_over_128() {
        /// `(a + b)^128` as a double-double, by seven squarings.
        fn pow128(a: f64, b: f64) -> (f64, f64) {
            (0..7).fold((a, b), |(hi, lo), _| {
                let p = hi * hi;
                let e = hi.mul_add(hi, -p) + 2.0 * hi * lo;
                let s = p + e;
                (s, e - (s - p))
            })
        }
        for i in 0..128 {
            let tail = f64::from_bits(EXP_TAB[2 * i]);
            let h = f64::from_bits(EXP_TAB[2 * i + 1] + ((i as u64) << 45));
            let half_ulp = (f64::from_bits(h.to_bits() + 1) - h) / 2.0;
            let two_i = (i as f64).exp2();
            let (below, above) = (pow128(h, -half_ulp), pow128(h, half_ulp));
            assert!(below.0 - two_i + below.1 < 0.0 && above.0 - two_i + above.1 > 0.0, "h[{i}]");
            let p = pow128(h, h * tail);
            let rel = ((p.0 - two_i) + p.1) / two_i;
            assert!(rel.abs() < 2f64.powi(-92), "t[{i}]: {rel:e}");
        }
    }

    /// Every `SINCOS_TAB` row holds `sin(k/128)` and `cos(k/128)`: the
    /// first double correctly rounded and the pair within `2^-100` of a
    /// double-double Taylor sum.
    #[test]
    fn sincos_table_is_sin_and_cos_of_k_over_128() {
        /// `a + b` as a normalised double-double.
        fn add(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
            let s = a.0 + b.0;
            let v = s - a.0;
            let e = (a.0 - (s - v)) + (b.0 - v) + a.1 + b.1;
            (s + e, e - ((s + e) - s))
        }
        /// `a·m/d` as a double-double.
        fn scale(a: (f64, f64), m: f64, d: f64) -> (f64, f64) {
            let p = a.0 * m;
            let pe = a.0.mul_add(m, -p) + a.1 * m;
            let q = p / d;
            let r = ((-q).mul_add(d, p) + pe) / d;
            (q + r, r - ((q + r) - q))
        }
        for k in 0..110 {
            let x = k as f64 / 128.0;
            // Σ (−x²)^n x^{0|1} / (2n + {0|1})!
            let series = |first: f64, odd: u32| {
                let (mut term, mut sum) = ((first, 0.0), (first, 0.0));
                for n in 1..30 {
                    let d = f64::from((2 * n - 1 + odd) * (2 * n + odd));
                    term = scale(scale(term, -x, 1.0), x, d);
                    sum = add(sum, term);
                }
                sum
            };
            let row: [f64; 4] = std::array::from_fn(|j| f64::from_bits(SINCOS_TAB[4 * k + j]));
            for ((hi, lo), want) in
                [(row[0], row[1]), (row[2], row[3])].into_iter().zip([series(x, 1), series(1.0, 0)])
            {
                assert_eq!(hi, want.0, "row {k}");
                assert!(((hi - want.0) + (lo - want.1)).abs() < 2f64.powi(-100), "row {k}");
            }
        }
        assert!(SINCOS_TAB[440..].iter().all(|&v| v == 0));
    }

    /// Inputs over the callers' ranges, with every branch edge and its
    /// neighbours: `exp` on `(−40, 40)` and the tiny edge, `sin`/`cos` on
    /// `[0, π]`.
    fn inputs(angles: bool) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(37);
        let edges: &[f64] = if angles {
            &[0.0, 1e-300, SIN_TINY, COS_TINY, TAYLOR_EDGE, TABLE_EDGE, REDUCE_EDGE, 1.0, 2.0]
        } else {
            &[0.0, EXP_TINY, -EXP_TINY, 1e-300, 1.0, -1.0, 30.0, -30.0, 500.0, -500.0]
        };
        let mut xs: Vec<f64> = edges
            .iter()
            .flat_map(|&e| {
                [e, f64::from_bits(e.to_bits() + 1), f64::from_bits(e.to_bits().max(1) - 1)]
            })
            .collect();
        if angles {
            xs.extend([std::f64::consts::FRAC_PI_2, std::f64::consts::PI]);
            xs.extend((0..3000).map(|_| rng.gen_range(0.0..std::f64::consts::PI)));
        } else {
            xs.extend((0..3000).map(|_| rng.gen_range(-40.0..40.0)));
        }
        xs
    }

    /// On every tier the host runs, `exp_into` and `sin_cos_into` are the
    /// scalar ports bitwise, at lengths that leave every tail length.
    #[test]
    fn lanes_are_the_scalar_ports_on_every_tier() {
        let (xs, angles) = (inputs(false), inputs(true));
        let n = xs.len().min(angles.len());
        let mut checked = 0;
        for tier in Tier::on_host() {
            for len in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, n] {
                for start in [0, n - len] {
                    let x = &xs[start..start + len];
                    let mut out = vec![0.0; len];
                    exp_into(tier, x, &mut out);
                    for (&x, y) in x.iter().zip(&out) {
                        assert_eq!(y.to_bits(), exp(x).to_bits(), "{tier:?} exp({x:e})");
                    }
                    let x = &angles[start..start + len];
                    let (mut s, mut c) = (vec![0.0; len], vec![0.0; len]);
                    sin_cos_into(tier, x, &mut s, &mut c);
                    for ((&x, s), c) in x.iter().zip(&s).zip(&c) {
                        assert_eq!(s.to_bits(), sin(x).to_bits(), "{tier:?} sin({x:e})");
                        assert_eq!(c.to_bits(), cos(x).to_bits(), "{tier:?} cos({x:e})");
                    }
                    checked += len;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    #[should_panic(expected = "[0, π]")]
    fn lanes_outside_the_range_panic() {
        let x = [0.5, 1.0, 2.0, 3.0, 3.5];
        let (mut s, mut c) = ([0.0; 5], [0.0; 5]);
        sin_cos_into(Tier::host(), &x, &mut s, &mut c);
    }

    /// The ports against this host's `f64::exp`, `sin`, `cos` and `tanh` at
    /// 2^24 random inputs each over the callers' ranges (`exp` on
    /// `[−16, 16]`, `sin`/`cos` on `[0, π]`, `tanh` on `[0, 24]`), every
    /// mismatch printed. Informative, as
    /// [`ports_equal_the_host_libm_at_the_witnesses`]: run by
    /// `scripts/check.sh` with `--ignored`.
    #[test]
    #[ignore = "2^24 inputs per function: run in release"]
    fn ports_match_this_hosts_libm_over_the_callers_ranges() {
        let mut rng = StdRng::seed_from_u64(14);
        for (name, lo, hi) in [
            ("exp", -16.0, 16.0),
            ("sin", 0.0, std::f64::consts::PI),
            ("cos", 0.0, std::f64::consts::PI),
            ("tanh", 0.0, 24.0),
        ] {
            let mut bad = 0u64;
            for _ in 0..1 << 24 {
                let x = rng.gen_range(lo..=hi);
                let (p, h) = (port(name)(x), host(name)(x));
                if p.to_bits() != h.to_bits() {
                    bad += 1;
                    eprintln!(
                        "{name}({:#018x}): port {:#018x}, libm {:#018x}",
                        x.to_bits(),
                        p.to_bits(),
                        h.to_bits()
                    );
                }
            }
            println!(
                "{name} vs this host's libm over [{lo}, {hi}], 2^24 inputs (informative): \
                 {bad} mismatches"
            );
            assert_eq!(bad, 0, "{name}");
        }
    }
}

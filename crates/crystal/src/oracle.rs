//! The synthetic "DFT oracle".
//!
//! MPtrj's labels come from VASP GGA/GGA+U calculations that we cannot run
//! here. This oracle substitutes an analytic EAM-style classical potential
//! (pairwise Morse + embedded-density term) with per-element parameters, so
//! that every generated structure gets an energy, exact analytic forces, an
//! exact virial stress and a smooth magnetic moment. The key property the
//! paper's experiments rely on — *energy/force/stress consistency*
//! (`F = -∂E/∂x`, `σ = (1/V) ∂E/∂ε`) — holds exactly, which is what makes
//! the derivative-based reference CHGNet and the direct-head FastCHGNet
//! comparable on this data (Table I).

use crate::element::OracleParams;
use crate::graph::ATOM_CUTOFF;
use crate::math::{self, LanePorts};
use crate::neighbor::{neighbor_list, Bond};
use crate::structure::Structure;
use fc_tensor::kernels::lanes::{run_on, LanePass, Lanes};
use fc_tensor::kernels::Tier;

/// Cutoff of the oracle potential (Å): the atom-graph cutoff, so the GNN
/// sees every interaction the oracle generates and one neighbour list
/// serves both the labels and the graph.
pub const ORACLE_CUTOFF: f64 = ATOM_CUTOFF;

/// eV/Å³ to GPa.
pub const EV_PER_A3_TO_GPA: f64 = 160.217_662_08;

/// Reference density scale of the magmom oracle.
const RHO_REF: f64 = 2.0;

/// DFT-style labels for one structure.
#[derive(Clone, Debug, PartialEq)]
pub struct Labels {
    /// Total energy (eV).
    pub energy: f64,
    /// Per-atom forces (eV/Å).
    pub forces: Vec<[f64; 3]>,
    /// Virial stress tensor `σ = (1/V) ∂E/∂ε` (GPa).
    pub stress: [[f64; 3]; 3],
    /// Per-atom magnetic moments (μ_B).
    pub magmoms: Vec<f64>,
}

impl Labels {
    /// Energy per atom (eV/atom), the unit of Table I.
    pub fn energy_per_atom(&self) -> f64 {
        self.energy / self.forces.len() as f64
    }
}

/// Embedding functional `F(ρ) = -√(ρ + ε)` and derivative.
fn embed(rho: f64) -> (f64, f64) {
    let s = (rho + 1e-9).sqrt();
    (-s, -0.5 / s)
}

/// Evaluate the oracle on a structure: energy, analytic forces, analytic
/// virial stress and magnetic moments.
pub fn evaluate(s: &Structure) -> Labels {
    evaluate_on(s, &neighbor_list(s, ORACLE_CUTOFF))
}

/// [`evaluate`] on `bonds`, the [`neighbor_list`] of `s` within
/// [`ORACLE_CUTOFF`], on the host's lanes ([`evaluate_on_tier`]).
pub fn evaluate_on(s: &Structure, bonds: &[Bond]) -> Labels {
    evaluate_on_tier(Tier::host(), s, bonds)
}

/// [`evaluate_on`] on `tier`'s lanes, bitwise the same on every tier.
///
/// Per bond, with `x = πr/r_c` and the Morse and density exponentials of
/// [`math`]: the cutoff `fc = (cos x + 1)/2` and its derivative `fc'`, the
/// density term `ψ_j = A_j e^{−b_j r} fc` and its derivative, the Morse
/// energy `φ fc / 2`, and, once each atom's `F'(ρ_i)` is known, `dE/dr`
/// times the unit bond vector and the bond's virial `(dE/dr) v_a v_b / r`.
/// The first lane pass computes the per-bond terms into reused per-thread
/// columns; the second computes the force and virial terms a chunk of
/// bonds at a time and adds each chunk's into the sums before the next.
/// Every sum runs in bond order, as a per-bond loop's would.
pub(crate) fn evaluate_on_tier(tier: Tier, s: &Structure, bonds: &[Bond]) -> Labels {
    let n = s.n_atoms();
    let params = oracle_params(s);
    SCRATCH.with_borrow_mut(|cols| {
        let len = cols.fill(s, &params, bonds, true);
        let (inp, mid) = (&mut cols.inp, &mut cols.mid);
        run_on(tier, BondTerms::<true> { inp, mid, len });
        let (rho, mut energy) = embedding(&params, bonds, mid, len);
        let mut embed_p = Vec::with_capacity(n);
        for &r in &rho {
            let (e, ep) = embed(r);
            energy += e;
            embed_p.push(ep);
        }
        for (k, b) in bonds.iter().enumerate() {
            inp[EMBED_P * len + k] = embed_p[b.i as usize];
        }
        let energy = add_pair_energies(energy, bonds, mid, len);
        let mut forces = vec![[0.0f64; 3]; n];
        let mut virial = [0.0f64; 9];
        run_on(tier, BondForces { inp, mid, len, bonds, forces: &mut forces, virial: &mut virial });
        cols.trim();
        let vol = s.volume();
        let stress = std::array::from_fn(|a| {
            std::array::from_fn(|c| virial[3 * a + c] / vol * EV_PER_A3_TO_GPA)
        });
        let magmoms = rho
            .iter()
            .zip(&params)
            .map(|(&r, p)| p.mag_scale as f64 * math::tanh(r / RHO_REF))
            .collect();
        Labels { energy, forces, stress, magmoms }
    })
}

/// The energy [`evaluate_on`] gives, bitwise, summed in the same order but
/// without the forces, the virial and the magnetic moments: one lane pass
/// of each bond's `fc`, density term and Morse energy.
pub fn energy_on(s: &Structure, bonds: &[Bond]) -> f64 {
    energy_on_tier(Tier::host(), s, bonds)
}

/// [`energy_on`] on `tier`'s lanes.
pub(crate) fn energy_on_tier(tier: Tier, s: &Structure, bonds: &[Bond]) -> f64 {
    let params = oracle_params(s);
    SCRATCH.with_borrow_mut(|cols| {
        let len = cols.fill(s, &params, bonds, false);
        run_on(tier, BondTerms::<false> { inp: &cols.inp, mid: &mut cols.mid, len });
        let (rho, mut energy) = embedding(&params, bonds, &cols.mid, len);
        for &r in &rho {
            energy += embed(r).0;
        }
        let energy = add_pair_energies(energy, bonds, &cols.mid, len);
        cols.trim();
        energy
    })
}

/// Each atom's density `ρ_i`, summed over its bonds in bond order, and
/// the sum of the reference energies.
fn embedding(params: &[OracleParams], bonds: &[Bond], mid: &[f64], len: usize) -> (Vec<f64>, f64) {
    let mut rho = vec![0.0f64; params.len()];
    for (b, &psi) in bonds.iter().zip(&mid[PSI * len..]) {
        rho[b.i as usize] += psi;
    }
    (rho, reference_energy(params))
}

/// `energy` plus each bond's Morse energy `φ fc / 2`, added one at a time
/// in bond order.
fn add_pair_energies(energy: f64, bonds: &[Bond], mid: &[f64], len: usize) -> f64 {
    mid[PAIR_E * len..][..bonds.len()].iter().fold(energy, |e, &p| e + p)
}

/// Columns of the input block, one `f64` per bond, padded to whole lane
/// chunks: the bond length, `D_i D_j`, `w_i + w_j`, `r0_i + r0_j`, `A_j`,
/// `b_j`, the bond vector and `F'(ρ_i)`. The mixed parameters are formed
/// in `f32` as the per-bond expressions form them.
const R: usize = 0;
const DEPTH2: usize = 1;
const WIDTH2: usize = 2;
const R0: usize = 3;
const AMP: usize = 4;
const DECAY: usize = 5;
const VEC: usize = 6;
const EMBED_P: usize = 9;
const IN_COLS: usize = 10;
/// Columns of the first pass's output: `A_j e^{−b_j r} fc` (the density
/// term), its derivative `ψ'_j`, the Morse energy `φ fc / 2`, the pair
/// part `(φ' fc + φ fc') / 2` of `dE/dr`, and the unit bond vector.
const PSI: usize = 0;
const PSI_P: usize = 1;
const PAIR_E: usize = 2;
const PAIR_DE: usize = 3;
const UNIT: usize = 4;
const MID_COLS: usize = 7;
/// Columns of the second pass's per-chunk block: `(dE/dr)·unit` and the
/// virial `(dE/dr) v_a v_b / r`, row-major.
const FORCE: usize = 0;
const VIRIAL: usize = 3;
const OUT_COLS: usize = 12;
/// Bonds per chunk of the widest lanes; the columns are padded to it.
const CHUNK: usize = 8;
/// Padded bonds up to which the columns stay allocated after a call; a
/// larger structure's are freed when its call returns.
const KEEP_BONDS: usize = 4096;

/// The per-thread columns of the oracle's lane passes, reused across
/// calls.
#[derive(Default)]
struct Columns {
    inp: Vec<f64>,
    mid: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Columns> = std::cell::RefCell::default();
}

impl Columns {
    /// Fill the input columns for `bonds` (the bond vectors only with
    /// `vectors`), padding bonds set to 1 (inside every port's range), and
    /// size the output blocks; returns the padded column length.
    fn fill(
        &mut self,
        s: &Structure,
        params: &[OracleParams],
        bonds: &[Bond],
        vectors: bool,
    ) -> usize {
        let len = bonds.len().div_ceil(CHUNK) * CHUNK;
        self.inp.resize(IN_COLS * len, 0.0);
        self.mid.resize(MID_COLS * len, 0.0);
        let carts = if vectors { s.cart_coords() } else { Vec::new() };
        let inp = &mut self.inp;
        for (k, b) in bonds.iter().enumerate() {
            let (pi, pj) = (&params[b.i as usize], &params[b.j as usize]);
            inp[R * len + k] = b.r;
            inp[DEPTH2 * len + k] = (pi.well_depth * pj.well_depth) as f64;
            inp[WIDTH2 * len + k] = (pi.width + pj.width) as f64;
            inp[R0 * len + k] = (pi.r0 + pj.r0) as f64;
            inp[AMP * len + k] = pj.density_amp as f64;
            inp[DECAY * len + k] = pj.density_decay as f64;
            if vectors {
                for (a, v) in b.vector(&s.lattice, &carts).into_iter().enumerate() {
                    inp[(VEC + a) * len + k] = v;
                }
            }
        }
        for c in 0..IN_COLS {
            inp[c * len + bonds.len()..(c + 1) * len].fill(1.0);
        }
        len
    }

    /// Free the columns if they outgrew [`KEEP_BONDS`].
    fn trim(&mut self) {
        if self.inp.len() > IN_COLS * KEEP_BONDS {
            *self = Columns::default();
        }
    }
}

/// `V::N` lanes of column `c` of `cols` from bond `k`.
#[inline(always)]
fn lanes<V: Lanes>(cols: &[f64], len: usize, c: usize, k: usize) -> V {
    V::load(&cols[c * len + k..])
}

/// Store `v` to column `c` of `cols` from bond `k`.
#[inline(always)]
fn put<V: Lanes>(cols: &mut [f64], len: usize, c: usize, k: usize, v: V) {
    v.store(&mut cols[c * len + k..]);
}

/// The first pass: each bond's cutoff, density and Morse terms, and with
/// `FORCES` the derivatives and the unit vector, each by the expression of
/// the per-bond oracle ([`reference`] in the tests).
struct BondTerms<'a, const FORCES: bool> {
    inp: &'a [f64],
    mid: &'a mut [f64],
    len: usize,
}

impl<const FORCES: bool> LanePass for BondTerms<'_, FORCES> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let (inp, mid, len) = (self.inp, self.mid, self.len);
        let c = V::splat;
        let (pi, rc) = (std::f64::consts::PI, ORACLE_CUTOFF);
        for k in (0..len).step_by(V::N) {
            let r = lanes::<V>(inp, len, R, k);
            // fc(r) = (cos(πr/rc) + 1)/2 and fc'(r) = −π/(2rc)·sin(πr/rc)
            // below the cutoff, 0 from it.
            let inside = r.lt(c(rc));
            let (sin, cos) = V::select(inside, c(pi).mul(r).div(c(rc)), c(0.0)).sin_cos();
            let f = V::select(inside, c(0.5).mul(cos.add(c(1.0))), c(0.0));
            let fp = V::select(inside, c(-0.5 * pi / rc).mul(sin), c(0.0));
            let decay = lanes::<V>(inp, len, DECAY, k);
            let ae = lanes::<V>(inp, len, AMP, k).mul(decay.neg().mul(r).exp());
            put(mid, len, PSI, k, ae.mul(f));
            // The Morse term with mixed parameters.
            let d = lanes::<V>(inp, len, DEPTH2, k).sqrt();
            let a = c(0.5).mul(lanes(inp, len, WIDTH2, k));
            let x = a.neg().mul(r.sub(lanes(inp, len, R0, k))).exp();
            let raw = d.mul(c(1.0).sub(x).mul(c(1.0).sub(x)).sub(c(1.0)));
            put(mid, len, PAIR_E, k, c(0.5).mul(raw.mul(f)));
            if FORCES {
                let raw_p = c(2.0).mul(d).mul(a).mul(x).mul(c(1.0).sub(x));
                put(mid, len, PAIR_DE, k, c(0.5).mul(raw_p.mul(f).add(raw.mul(fp))));
                put(mid, len, PSI_P, k, ae.mul(fp.sub(decay.mul(f))));
                for a in 0..3 {
                    put(mid, len, UNIT + a, k, lanes::<V>(inp, len, VEC + a, k).div(r));
                }
            }
        }
    }
}

/// The second pass: `dE/dr = (φ' fc + φ fc')/2 + F'(ρ_i) ψ'_j`, its force
/// terms and its virial, each by the per-bond oracle's expression, into a
/// block of [`CHUNK`] bonds that is added into the forces and the virial
/// before the next chunk.
struct BondForces<'a> {
    inp: &'a [f64],
    mid: &'a [f64],
    len: usize,
    bonds: &'a [Bond],
    forces: &'a mut [[f64; 3]],
    virial: &'a mut [f64; 9],
}

impl LanePass for BondForces<'_> {
    type Out = ();

    #[inline(always)]
    fn run<V: Lanes>(self) {
        let (inp, mid, len, bonds) = (self.inp, self.mid, self.len, self.bonds);
        let (forces, virial) = (self.forces, self.virial);
        let mut out = [0.0f64; OUT_COLS * CHUNK];
        // The force on the source atom of the current run of bonds (the
        // list comes sorted by `i`) is held in `acc`, not in memory.
        let (mut src, mut acc) = (bonds.first().map_or(0, |b| b.i as usize), [0.0f64; 3]);
        for k0 in (0..len).step_by(CHUNK) {
            for k in (k0..k0 + CHUNK).step_by(V::N) {
                // dE/dr along this directed bond: half the pair term (the
                // reverse bond carries the other half) plus the source
                // atom's density term. r grows when x_j moves along +unit,
                // and F = −dE/dx; the virial is dE/dε_ab = Σ (dE/dr) v_a v_b / r.
                let psi_p = lanes::<V>(mid, len, PSI_P, k);
                let de_dr = lanes::<V>(mid, len, PAIR_DE, k)
                    .add(lanes::<V>(inp, len, EMBED_P, k).mul(psi_p));
                let r = lanes::<V>(inp, len, R, k);
                let v: [V; 3] = [
                    lanes(inp, len, VEC, k),
                    lanes(inp, len, VEC + 1, k),
                    lanes(inp, len, VEC + 2, k),
                ];
                let at = k - k0;
                for a in 0..3 {
                    put(&mut out, CHUNK, FORCE + a, at, de_dr.mul(lanes(mid, len, UNIT + a, k)));
                    for b in 0..3 {
                        let w = de_dr.mul(v[a]).mul(v[b]).div(r);
                        put(&mut out, CHUNK, VIRIAL + 3 * a + b, at, w);
                    }
                }
            }
            // Each atom's force component and each virial entry is its own
            // chain, in bond order.
            for (at, b) in bonds[k0..].iter().take(CHUNK).enumerate() {
                let (i, j) = (b.i as usize, b.j as usize);
                if i != src {
                    forces[src] = acc;
                    (src, acc) = (i, forces[i]);
                }
                for (c, a) in acc.iter_mut().enumerate() {
                    let f = out[(FORCE + c) * CHUNK + at];
                    *a += f;
                    if j == i {
                        *a -= f;
                    } else {
                        forces[j][c] -= f;
                    }
                }
                for (v, w) in virial.iter_mut().enumerate() {
                    *w += out[(VIRIAL + v) * CHUNK + at];
                }
            }
        }
        if let Some(f) = forces.get_mut(src) {
            *f = acc;
        }
    }
}

/// Per-atom oracle parameters.
fn oracle_params(s: &Structure) -> Vec<OracleParams> {
    s.species.iter().map(|e| e.oracle_params()).collect()
}

/// The sum of the atoms' reference energies, where the energy sum starts.
fn reference_energy(params: &[OracleParams]) -> f64 {
    params.iter().map(|p| p.e0 as f64).sum()
}

/// The oracle as a per-bond loop, with `fc`, `fc'`, `e^{−b_j r}` and
/// `F'(ρ_i)` recomputed per use and the scalar ports of [`math`]: the
/// bitwise reference of [`evaluate_on`] and [`energy_on`] on every tier.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    fn fc(r: f64, rc: f64) -> f64 {
        if r >= rc {
            0.0
        } else {
            0.5 * (math::cos(std::f64::consts::PI * r / rc) + 1.0)
        }
    }

    fn fc_prime(r: f64, rc: f64) -> f64 {
        if r >= rc {
            0.0
        } else {
            -0.5 * std::f64::consts::PI / rc * math::sin(std::f64::consts::PI * r / rc)
        }
    }

    fn morse(pi: &OracleParams, pj: &OracleParams, r: f64) -> (f64, f64) {
        let d = ((pi.well_depth * pj.well_depth) as f64).sqrt();
        let a = 0.5 * (pi.width + pj.width) as f64;
        let r0 = (pi.r0 + pj.r0) as f64;
        let x = math::exp(-a * (r - r0));
        let raw = d * ((1.0 - x) * (1.0 - x) - 1.0);
        let raw_p = 2.0 * d * a * x * (1.0 - x);
        let f = fc(r, ORACLE_CUTOFF);
        let fp = fc_prime(r, ORACLE_CUTOFF);
        (raw * f, raw_p * f + raw * fp)
    }

    fn psi(pj: &OracleParams, r: f64) -> (f64, f64) {
        let a = pj.density_amp as f64;
        let b = pj.density_decay as f64;
        let e = math::exp(-b * r);
        let f = fc(r, ORACLE_CUTOFF);
        let fp = fc_prime(r, ORACLE_CUTOFF);
        (a * e * f, a * e * (fp - b * f))
    }

    pub(crate) fn evaluate_on(s: &Structure, bonds: &[Bond]) -> Labels {
        let n = s.n_atoms();
        let (params, rho, mut energy) = embedding(s, bonds);

        let carts = s.cart_coords();
        let mut forces = vec![[0.0f64; 3]; n];
        let mut virial = [[0.0f64; 3]; 3];
        for b in bonds {
            let (i, j, r) = (b.i as usize, b.j as usize, b.r);
            let (phi, phi_p) = morse(&params[i], &params[j], r);
            energy += 0.5 * phi;
            let de_dr = 0.5 * phi_p + embed(rho[i]).1 * psi(&params[j], r).1;
            let v = b.vector(&s.lattice, &carts);
            let unit = [v[0] / r, v[1] / r, v[2] / r];
            for k in 0..3 {
                forces[i][k] += de_dr * unit[k];
                forces[j][k] -= de_dr * unit[k];
            }
            for (a, vrow) in virial.iter_mut().enumerate() {
                for (c, w) in vrow.iter_mut().enumerate() {
                    *w += de_dr * v[a] * v[c] / r;
                }
            }
        }

        let vol = s.volume();
        let mut stress = [[0.0f64; 3]; 3];
        for a in 0..3 {
            for c in 0..3 {
                stress[a][c] = virial[a][c] / vol * EV_PER_A3_TO_GPA;
            }
        }
        let magmoms = rho
            .iter()
            .zip(&params)
            .map(|(&r, p)| p.mag_scale as f64 * math::tanh(r / RHO_REF))
            .collect();
        Labels { energy, forces, stress, magmoms }
    }

    pub(crate) fn energy_on(s: &Structure, bonds: &[Bond]) -> f64 {
        let (params, _, mut energy) = embedding(s, bonds);
        for b in bonds {
            energy += 0.5 * morse(&params[b.i as usize], &params[b.j as usize], b.r).0;
        }
        energy
    }

    fn embedding(s: &Structure, bonds: &[Bond]) -> (Vec<OracleParams>, Vec<f64>, f64) {
        let params: Vec<OracleParams> = s.species.iter().map(|e| e.oracle_params()).collect();
        let mut rho = vec![0.0f64; s.n_atoms()];
        for b in bonds {
            rho[b.i as usize] += psi(&params[b.j as usize], b.r).0;
        }
        let mut energy: f64 = params.iter().map(|p| p.e0 as f64).sum();
        for &r in &rho {
            energy += embed(r).0;
        }
        (params, rho, energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::lattice::Lattice;

    fn test_structure() -> Structure {
        Structure::new(
            Lattice::new([4.1, 0.1, 0.0], [0.0, 4.3, 0.2], [0.1, 0.0, 4.0]),
            vec![Element::new(3), Element::new(25), Element::new(8), Element::new(8)],
            vec![[0.05, 0.1, 0.0], [0.5, 0.45, 0.5], [0.25, 0.7, 0.25], [0.75, 0.2, 0.75]],
        )
    }

    #[test]
    fn labels_shape_and_finiteness() {
        let s = test_structure();
        let l = evaluate(&s);
        assert_eq!(l.forces.len(), 4);
        assert_eq!(l.magmoms.len(), 4);
        assert!(l.energy.is_finite());
        assert!(l.forces.iter().flatten().all(|f| f.is_finite()));
        assert!(l.energy_per_atom() < 0.0, "cohesive-ish energies are negative");
    }

    #[test]
    fn forces_match_finite_difference() {
        let s = test_structure();
        let l = evaluate(&s);
        let h = 1e-5;
        for atom in 0..s.n_atoms() {
            for k in 0..3 {
                let mut disp = vec![[0.0; 3]; s.n_atoms()];
                disp[atom][k] = h;
                let mut sp = s.clone();
                sp.displace_cart(&disp);
                disp[atom][k] = -h;
                let mut sm = s.clone();
                sm.displace_cart(&disp);
                let fd = -(evaluate(&sp).energy - evaluate(&sm).energy) / (2.0 * h);
                let an = l.forces[atom][k];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "atom {atom} axis {k}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let l = evaluate(&test_structure());
        for k in 0..3 {
            let total: f64 = l.forces.iter().map(|f| f[k]).sum();
            assert!(total.abs() < 1e-9, "net force {total} along {k}");
        }
    }

    #[test]
    fn stress_matches_finite_difference() {
        let s = test_structure();
        let l = evaluate(&s);
        let h = 1e-5;
        for a in 0..3 {
            for b in 0..3 {
                let mut ep = [[0.0; 3]; 3];
                ep[a][b] = h;
                let mut em = [[0.0; 3]; 3];
                em[a][b] = -h;
                // Strain both lattice and atom positions (positions follow
                // fractional coords, so straining the lattice suffices).
                let sp = Structure::new(
                    s.lattice.strained(ep),
                    s.species.clone(),
                    s.frac_coords.clone(),
                );
                let sm = Structure::new(
                    s.lattice.strained(em),
                    s.species.clone(),
                    s.frac_coords.clone(),
                );
                let fd = (evaluate(&sp).energy - evaluate(&sm).energy) / (2.0 * h) / s.volume()
                    * EV_PER_A3_TO_GPA;
                let an = l.stress[a][b];
                assert!(
                    (fd - an).abs() < 1e-3 * (1.0 + an.abs()),
                    "stress ({a},{b}): fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn stress_is_symmetric() {
        let l = evaluate(&test_structure());
        for a in 0..3 {
            for b in 0..3 {
                assert!((l.stress[a][b] - l.stress[b][a]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn magmoms_in_physical_range() {
        let l = evaluate(&test_structure());
        for (m, e) in l.magmoms.iter().zip([3u8, 25, 8, 8]) {
            let scale = Element::new(e).oracle_params().mag_scale as f64;
            assert!(*m >= 0.0 && *m <= scale, "magmom {m} vs scale {scale}");
        }
        // The Mn site should be far more magnetic than O.
        assert!(l.magmoms[1] > l.magmoms[2] * 2.0);
    }

    #[test]
    fn translation_invariance() {
        let s = test_structure();
        let e0 = evaluate(&s).energy;
        let mut moved = s.clone();
        let shift = vec![[0.37, -0.21, 0.11]; s.n_atoms()];
        moved.displace_cart(&shift);
        let e1 = evaluate(&moved).energy;
        assert!((e0 - e1).abs() < 1e-9, "{e0} vs {e1}");
    }
}

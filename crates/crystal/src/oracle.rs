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
use crate::neighbor::{neighbor_list, Bond};
use crate::structure::Structure;

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

/// Smooth cosine cutoff `fc(r)` (1 at r=0, 0 at r=rc, C¹ everywhere) and
/// its derivative `fc'(r)`, one `cos` and one `sin`.
#[inline]
fn cutoff_pair(r: f64) -> (f64, f64) {
    let rc = ORACLE_CUTOFF;
    if r >= rc {
        return (0.0, 0.0);
    }
    let x = std::f64::consts::PI * r / rc;
    (0.5 * (x.cos() + 1.0), -0.5 * std::f64::consts::PI / rc * x.sin())
}

/// Pairwise Morse term and derivative with mixed parameters, before the
/// cutoff function.
#[inline]
fn morse_raw(pi: &OracleParams, pj: &OracleParams, r: f64) -> (f64, f64) {
    let d = ((pi.well_depth * pj.well_depth) as f64).sqrt();
    let a = 0.5 * (pi.width + pj.width) as f64;
    let r0 = (pi.r0 + pj.r0) as f64;
    let x = (-a * (r - r0)).exp();
    (d * ((1.0 - x) * (1.0 - x) - 1.0), 2.0 * d * a * x * (1.0 - x))
}

/// `A_j e^{−b_j r}`, neighbour `j`'s density contribution
/// `ψ_j(r) = A_j e^{−b_j r} fc(r)` before the cutoff function.
#[inline]
fn density(pj: &OracleParams, r: f64) -> f64 {
    pj.density_amp as f64 * (-(pj.density_decay as f64) * r).exp()
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
/// [`ORACLE_CUTOFF`]. Each bond's `fc(r)`, `fc'(r)` and `e^{−b_j r}` and
/// each atom's `F'(ρ_i)` are computed once.
pub fn evaluate_on(s: &Structure, bonds: &[Bond]) -> Labels {
    let n = s.n_atoms();
    let params = oracle_params(s);
    // Per bond: fc(r), fc'(r) and ψ'_j(r).
    let mut rho = vec![0.0f64; n];
    let mut terms = Vec::with_capacity(bonds.len());
    for b in bonds {
        let (f, fp) = cutoff_pair(b.r);
        let pj = &params[b.j as usize];
        let ae = density(pj, b.r);
        rho[b.i as usize] += ae * f;
        terms.push([f, fp, ae * (fp - pj.density_decay as f64 * f)]);
    }
    let mut energy = reference_energy(&params);
    let mut embed_p = Vec::with_capacity(n);
    for &r in &rho {
        let (e, ep) = embed(r);
        energy += e;
        embed_p.push(ep);
    }

    let carts = s.cart_coords();
    let mut forces = vec![[0.0f64; 3]; n];
    let mut virial = [[0.0f64; 3]; 3];
    for (b, &[f, fp, psi_p]) in bonds.iter().zip(&terms) {
        let (i, j, r) = (b.i as usize, b.j as usize, b.r);
        let (raw, raw_p) = morse_raw(&params[i], &params[j], r);
        energy += 0.5 * (raw * f);
        // dE/dr along this directed bond: half the pair term (the reverse
        // bond carries the other half) plus the source atom's density term.
        let de_dr = 0.5 * (raw_p * f + raw * fp) + embed_p[i] * psi_p;
        let v = b.vector(&s.lattice, &carts);
        let unit = [v[0] / r, v[1] / r, v[2] / r];
        // r grows when x_j moves along +unit; F = -dE/dx.
        for k in 0..3 {
            forces[i][k] += de_dr * unit[k];
            forces[j][k] -= de_dr * unit[k];
        }
        // Virial: dE/dε_ab = Σ (dE/dr) v_a v_b / r.
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

    let magmoms =
        rho.iter().zip(&params).map(|(&r, p)| p.mag_scale as f64 * (r / RHO_REF).tanh()).collect();

    Labels { energy, forces, stress, magmoms }
}

/// The energy [`evaluate_on`] gives, bitwise, summed in the same order but
/// without the forces, the virial and the magnetic moments: each bond's
/// `fc(r)` and `e^{−b_j r}` are computed once.
pub fn energy_on(s: &Structure, bonds: &[Bond]) -> f64 {
    let params = oracle_params(s);
    let mut rho = vec![0.0f64; s.n_atoms()];
    let mut cut = Vec::with_capacity(bonds.len());
    for b in bonds {
        let f = cutoff_pair(b.r).0;
        rho[b.i as usize] += density(&params[b.j as usize], b.r) * f;
        cut.push(f);
    }
    let mut energy = reference_energy(&params);
    for &r in &rho {
        energy += embed(r).0;
    }
    for (b, &f) in bonds.iter().zip(&cut) {
        energy += 0.5 * (morse_raw(&params[b.i as usize], &params[b.j as usize], b.r).0 * f);
    }
    energy
}

/// Per-atom oracle parameters.
fn oracle_params(s: &Structure) -> Vec<OracleParams> {
    s.species.iter().map(|e| e.oracle_params()).collect()
}

/// The sum of the atoms' reference energies, where the energy sum starts.
fn reference_energy(params: &[OracleParams]) -> f64 {
    params.iter().map(|p| p.e0 as f64).sum()
}

/// The oracle as it was before each bond's terms were computed once:
/// `fc`, `fc'`, `e^{−b_j r}` and `F'(ρ_i)` recomputed per use. Kept as the
/// bitwise reference of [`evaluate_on`] and [`energy_on`].
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    fn fc(r: f64, rc: f64) -> f64 {
        if r >= rc {
            0.0
        } else {
            0.5 * ((std::f64::consts::PI * r / rc).cos() + 1.0)
        }
    }

    fn fc_prime(r: f64, rc: f64) -> f64 {
        if r >= rc {
            0.0
        } else {
            -0.5 * std::f64::consts::PI / rc * (std::f64::consts::PI * r / rc).sin()
        }
    }

    fn morse(pi: &OracleParams, pj: &OracleParams, r: f64) -> (f64, f64) {
        let d = ((pi.well_depth * pj.well_depth) as f64).sqrt();
        let a = 0.5 * (pi.width + pj.width) as f64;
        let r0 = (pi.r0 + pj.r0) as f64;
        let x = (-a * (r - r0)).exp();
        let raw = d * ((1.0 - x) * (1.0 - x) - 1.0);
        let raw_p = 2.0 * d * a * x * (1.0 - x);
        let f = fc(r, ORACLE_CUTOFF);
        let fp = fc_prime(r, ORACLE_CUTOFF);
        (raw * f, raw_p * f + raw * fp)
    }

    fn psi(pj: &OracleParams, r: f64) -> (f64, f64) {
        let a = pj.density_amp as f64;
        let b = pj.density_decay as f64;
        let e = (-b * r).exp();
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
            .map(|(&r, p)| p.mag_scale as f64 * (r / RHO_REF).tanh())
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

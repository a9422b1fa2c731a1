//! FIRE structure relaxation.
//!
//! CHGNet's flagship application is structure relaxation (the
//! `StructOptimizer` of the reference code base): drive atoms downhill on
//! the model's potential-energy surface until forces vanish. FIRE (Fast
//! Inertial Relaxation Engine; Bitzek et al., PRL 97, 170201) is the
//! standard algorithm: velocity-Verlet dynamics with an adaptive timestep
//! and a velocity-projection trick.

use crate::field::ForceField;
use fc_crystal::Structure;

/// Initial timestep (fs). This and the FIRE constants below are the
/// standard values of the original paper.
const DT_START: f64 = 0.5;
/// Maximum timestep (fs).
const DT_MAX: f64 = 2.0;
/// Steps of downhill motion before acceleration kicks in.
const N_MIN: usize = 5;
/// Timestep growth factor.
const F_INC: f64 = 1.1;
/// Timestep shrink factor on uphill motion.
const F_DEC: f64 = 0.5;
/// Initial velocity-mixing parameter.
const ALPHA_START: f64 = 0.1;
/// Mixing decay factor.
const F_ALPHA: f64 = 0.99;
/// Cap on per-step atomic displacement (Å) for robustness.
const MAX_DISP: f64 = 0.2;

/// What a FIRE run is asked for: when to stop.
#[derive(Clone, Copy, Debug)]
pub struct FireConfig {
    /// Convergence threshold on the max force component (eV/Å).
    pub f_tol: f64,
    /// Maximum iterations.
    pub max_steps: usize,
}

impl Default for FireConfig {
    fn default() -> Self {
        FireConfig { f_tol: 0.05, max_steps: 200 }
    }
}

/// Relaxation outcome.
#[derive(Clone, Debug)]
pub struct RelaxResult {
    /// Relaxed structure.
    pub structure: Structure,
    /// Energy trajectory (eV), one entry per iteration.
    pub energies: Vec<f64>,
    /// Final max force component (eV/Å).
    pub max_force: f64,
    /// Whether `f_tol` was reached within `max_steps`.
    pub converged: bool,
    /// Iterations executed.
    pub steps: usize,
}

/// Relax atomic positions at fixed cell with FIRE.
pub fn relax<F: ForceField + ?Sized>(
    field: &F,
    initial: &Structure,
    cfg: &FireConfig,
) -> RelaxResult {
    let n = initial.n_atoms();
    let mut structure = initial.clone();
    let mut v = vec![[0.0f64; 3]; n];
    let mut dt = DT_START;
    let mut alpha = ALPHA_START;
    let mut n_pos = 0usize;

    let mut result = field.compute(&structure);
    let mut energies = vec![result.energy];
    let mut steps = 0;

    for _ in 0..cfg.max_steps {
        steps += 1;
        let f = &result.forces;
        let max_f = max_force(f);
        if !max_f.is_finite() {
            // No step can follow a non-finite force.
            return RelaxResult { structure, energies, max_force: max_f, converged: false, steps };
        }
        if max_f < cfg.f_tol {
            return RelaxResult { structure, energies, max_force: max_f, converged: true, steps };
        }

        // Power P = F · v.
        let p: f64 =
            f.iter().zip(&v).map(|(fi, vi)| fi[0] * vi[0] + fi[1] * vi[1] + fi[2] * vi[2]).sum();
        if p > 0.0 {
            // Mix velocity toward the force direction.
            let v_norm: f64 = v.iter().flatten().map(|x| x * x).sum::<f64>().sqrt();
            let f_norm: f64 = f.iter().flatten().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            for (vi, fi) in v.iter_mut().zip(f) {
                for k in 0..3 {
                    vi[k] = (1.0 - alpha) * vi[k] + alpha * v_norm * fi[k] / f_norm;
                }
            }
            n_pos += 1;
            if n_pos > N_MIN {
                dt = (dt * F_INC).min(DT_MAX);
                alpha *= F_ALPHA;
            }
        } else {
            // Uphill: freeze and shrink.
            v.fill([0.0; 3]);
            dt *= F_DEC;
            alpha = ALPHA_START;
            n_pos = 0;
        }

        // Unit-mass MD kick + drift with displacement cap.
        let mut disp = vec![[0.0f64; 3]; n];
        for i in 0..n {
            for k in 0..3 {
                v[i][k] += dt * f[i][k];
                disp[i][k] = (v[i][k] * dt).clamp(-MAX_DISP, MAX_DISP);
            }
        }
        structure.displace_cart(&disp);
        result = field.compute(&structure);
        energies.push(result.energy);
    }

    let max_force = max_force(&result.forces);
    RelaxResult { structure, energies, max_force, converged: max_force < cfg.f_tol, steps }
}

/// The largest force component magnitude, NaN when any component is NaN
/// (`f64::max` would drop a NaN, so an all-NaN field would read as force
/// free).
fn max_force(forces: &[[f64; 3]]) -> f64 {
    forces
        .iter()
        .flatten()
        .map(|x| x.abs())
        .fold(0.0, |m, x| if x > m || x.is_nan() { x } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::OracleField;
    use fc_crystal::{Element, Lattice};

    fn perturbed_rocksalt() -> Structure {
        Structure::new(
            Lattice::cubic(4.2),
            vec![Element::new(3), Element::new(8)],
            vec![[0.04, -0.03, 0.02], [0.47, 0.52, 0.49]],
        )
    }

    #[test]
    fn fire_lowers_energy_on_oracle_pes() {
        let s = perturbed_rocksalt();
        let r = relax(&OracleField, &s, &FireConfig { max_steps: 80, ..Default::default() });
        assert!(r.energies.len() >= 2);
        let first = r.energies[0];
        let last = *r.energies.last().unwrap();
        assert!(last < first, "energy went {first} -> {last}");
        // Force dropped substantially.
        let f0 =
            fc_crystal::evaluate(&s).forces.iter().flatten().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(r.max_force < f0, "force {f0} -> {}", r.max_force);
    }

    #[test]
    fn fire_converges_near_minimum() {
        // Start from an already-good geometry: should converge quickly.
        let s = perturbed_rocksalt();
        let first = relax(&OracleField, &s, &FireConfig { max_steps: 150, f_tol: 0.08 });
        if first.converged {
            let again =
                relax(&OracleField, &first.structure, &FireConfig { max_steps: 30, f_tol: 0.08 });
            assert!(again.converged);
            assert!(again.steps <= 30);
        }
    }

    /// The oracle's energy with every force component NaN.
    struct NanForces;

    impl ForceField for NanForces {
        fn compute(&self, structure: &Structure) -> crate::calculator::CalcResult {
            let mut r = OracleField.compute(structure);
            r.forces.iter_mut().flatten().for_each(|x| *x = f64::NAN);
            r
        }
    }

    #[test]
    fn nan_forces_stop_unconverged() {
        let s = perturbed_rocksalt();
        let r = relax(&NanForces, &s, &FireConfig::default());
        assert!(!r.converged, "NaN forces read as converged");
        assert!(r.max_force.is_nan(), "max_force {}", r.max_force);
        assert_eq!(r.steps, 1);
        assert_eq!(r.structure.cart_coords(), s.cart_coords(), "no step taken");
    }

    #[test]
    fn relax_respects_max_steps() {
        let s = perturbed_rocksalt();
        let r = relax(&OracleField, &s, &FireConfig { max_steps: 3, f_tol: 1e-9 });
        assert!(!r.converged);
        assert_eq!(r.steps, 3);
    }
}

//! The CHGNet / FastCHGNet model.

use crate::basis::{compute_basis, Geometry};
use crate::config::ModelConfig;
use crate::embedding::Embeddings;
use crate::heads::{derivative_outputs, EnergyHead, ForceHead, MagmomHead, StressHead};
use crate::interaction::{BlockReads, InteractionBlock};
use fc_crystal::GraphBatch;
use fc_tensor::{ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One forward pass's outputs, as tape variables. A training loss can be
/// built on them and backpropagated (through the derivative-based force
/// and stress of the reference model too) when they come from
/// [`Chgnet::forward_for_backward`]; [`Chgnet::forward`] of a
/// direct-head model frees the intermediates between them and the inputs.
pub struct Prediction {
    /// Total energy per graph `(G, 1)` eV.
    pub energy: Var,
    /// Energy per atom `(G, 1)` eV/atom (the Table I unit).
    pub energy_per_atom: Var,
    /// Forces `(N, 3)` eV/Å.
    pub forces: Var,
    /// Stress `(3G, 3)` GPa.
    pub stress: Var,
    /// Magnetic moments `(N, 1)` μ_B.
    pub magmom: Var,
    /// The differentiable geometry (positions/strain inputs, bond data).
    pub geom: Geometry,
}

/// The CHGNet family model. The [`ModelConfig::opt_level`] selects between
/// the reference implementation and FastCHGNet's optimizations; parameters
/// are shared across levels where the architecture coincides.
pub struct Chgnet {
    /// Model configuration.
    pub cfg: ModelConfig,
    embeddings: Embeddings,
    blocks: Vec<InteractionBlock>,
    energy_head: EnergyHead,
    magmom_head: MagmomHead,
    force_head: Option<ForceHead>,
    stress_head: Option<StressHead>,
    atom_ref: Option<crate::atom_ref::AtomRef>,
}

impl Chgnet {
    /// Register all parameters into `store` (seeded init).
    pub fn new(cfg: ModelConfig, store: &mut ParamStore, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let embeddings = Embeddings::new(store, &mut rng, &cfg);
        let blocks = (0..cfg.n_blocks)
            .map(|i| InteractionBlock::new(store, &mut rng, &format!("block.{i}"), &cfg))
            .collect();
        let energy_head = EnergyHead::new(store, &mut rng, &cfg);
        let magmom_head = MagmomHead::new(store, &mut rng, &cfg);
        let (force_head, stress_head) = if cfg.opt_level.decoupled_heads() {
            (
                Some(ForceHead::new(store, &mut rng, &cfg)),
                Some(StressHead::new(store, &mut rng, &cfg)),
            )
        } else {
            (None, None)
        };
        Chgnet {
            cfg,
            embeddings,
            blocks,
            energy_head,
            magmom_head,
            force_head,
            stress_head,
            atom_ref: None,
        }
    }

    /// Install a fitted [`crate::atom_ref::AtomRef`] composition model;
    /// its (non-trainable) per-graph reference energy is added to the
    /// energy head's output, so the GNN fits the residual.
    pub fn set_atom_ref(&mut self, atom_ref: crate::atom_ref::AtomRef) {
        self.atom_ref = Some(atom_ref);
    }

    /// The installed composition model, if any.
    pub fn atom_ref(&self) -> Option<&crate::atom_ref::AtomRef> {
        self.atom_ref.as_ref()
    }

    /// Whether this model derives force/stress from energy gradients
    /// (requiring second-order training) rather than direct heads.
    pub fn uses_derivatives(&self) -> bool {
        !self.cfg.opt_level.decoupled_heads()
    }

    /// Full forward pass over a collated batch, for reading its
    /// predictions. The last interaction block computes only what the
    /// heads read: its atom features, and its bond features only for the
    /// direct force head. Nothing reads its angle features.
    ///
    /// With direct Force/Stress heads no backward runs on this pass, so
    /// the bases, the interaction blocks' intermediates and each block's
    /// replaced features are freed after their last forward read
    /// ([`Tape::release`]): a backward through the [`Prediction`] panics.
    /// A model whose forces are energy derivatives runs its own backward
    /// inside the pass and frees nothing. Use
    /// [`Chgnet::forward_for_backward`] to train.
    pub fn forward(&self, tape: &Tape, store: &ParamStore, batch: &GraphBatch) -> Prediction {
        let _releasing = self.force_head.is_some().then(|| tape.releasing());
        self.forward_for_backward(tape, store, batch)
    }

    /// [`Chgnet::forward`] keeping every node until [`Tape::reset`], so a
    /// loss on the [`Prediction`] can be backpropagated: the entry every
    /// training step uses.
    pub fn forward_for_backward(
        &self,
        tape: &Tape,
        store: &ParamStore,
        batch: &GraphBatch,
    ) -> Prediction {
        let last =
            if self.force_head.is_some() { BlockReads::AtomsBonds } else { BlockReads::Atoms };
        self.forward_reading(tape, store, batch, last)
    }

    /// [`Chgnet::forward_for_backward`] with the last interaction block
    /// computing `last`'s outputs. Anything beyond what `forward` asks for
    /// is dead work and changes no output bit.
    pub fn forward_reading(
        &self,
        tape: &Tape,
        store: &ParamStore,
        batch: &GraphBatch,
        last: BlockReads,
    ) -> Prediction {
        let _span = fc_telemetry::span("model_forward");
        let fused = self.cfg.opt_level.fused();
        let need_derivatives = self.uses_derivatives();
        let basis = {
            let _basis_span = fc_telemetry::span("basis");
            compute_basis(tape, batch, &self.cfg, need_derivatives)
        };

        // Feature embedding (Eq. 2).
        let mut v = self.embeddings.atoms(tape, store, &batch.atom_z);
        let bf = self.embeddings.bonds(tape, store, basis.rbf, fused);
        let mut e = bf.e0;
        let mut a = self.embeddings.angles(tape, store, basis.abf, fused);
        tape.release(&[basis.rbf, basis.abf]);

        // Interaction blocks (Eq. 3).
        for (t, blk) in self.blocks.iter().enumerate() {
            let reads = if t + 1 == self.blocks.len() { last } else { BlockReads::All };
            let new = blk.forward(tape, store, v, e, a, bf.ea, bf.eb, batch, &self.cfg, reads);
            // The inputs the block replaced are dead; one it passed
            // through is not.
            for (old, new) in [(v, new.0), (e, new.1), (a, new.2)] {
                if old != new {
                    tape.release(&[old]);
                }
            }
            (v, e, a) = new;
        }
        // The heads read neither the angle features nor e^a, e^b.
        tape.release(&[a, bf.ea, bf.eb]);

        // Output layer.
        let mut energy = self.energy_head.forward(tape, store, v, batch, fused);
        if let Some(ar) = &self.atom_ref {
            let off = tape.constant(ar.offsets(batch));
            energy = tape.add(energy, off);
        }
        let magmom = self.magmom_head.forward(tape, store, v, fused);
        let (forces, stress) = if let (Some(fh), Some(sh)) = (&self.force_head, &self.stress_head) {
            (
                fh.forward(tape, store, e, basis.geom.bond_vec, batch, fused),
                sh.forward(tape, store, v, batch, fused),
            )
        } else {
            let strain = basis.geom.strain.expect("derivative path provides strain");
            let d = derivative_outputs(tape, energy, basis.geom.positions, strain, batch);
            (d.forces, d.stress)
        };
        tape.release(&[v, e]);

        let counts = tape.constant(atom_counts(batch));
        let energy_per_atom = tape.div(energy, counts);
        Prediction { energy, energy_per_atom, forces, stress, magmom, geom: basis.geom }
    }
}

/// `(G, 1)` tensor of per-graph atom counts.
fn atom_counts(batch: &GraphBatch) -> Tensor {
    let mut t = Tensor::pooled_zeros(batch.n_graphs, 1);
    for (g, r) in batch.ranges.iter().enumerate() {
        *t.at_mut(g, 0) = (r.atoms.1 - r.atoms.0) as f32;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use fc_crystal::{CrystalGraph, Element, Lattice, Structure};

    fn structure() -> Structure {
        Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.02, 0.0, 0.0], [0.5, 0.48, 0.51]],
        )
    }

    fn batch_of(s: &Structure) -> GraphBatch {
        let g = CrystalGraph::new(s.clone());
        GraphBatch::collate(&[&g], None)
    }

    fn tiny_model(level: OptLevel, seed: u64) -> (Chgnet, ParamStore) {
        let mut store = ParamStore::new();
        let m = Chgnet::new(ModelConfig::tiny(level), &mut store, seed);
        (m, store)
    }

    #[test]
    fn forward_shapes_all_levels() {
        let b = batch_of(&structure());
        for level in OptLevel::LADDER {
            let (m, store) = tiny_model(level, 7);
            let tape = Tape::new();
            let p = m.forward(&tape, &store, &b);
            assert_eq!(tape.shape(p.energy), fc_tensor::Shape::new(1, 1), "{level:?}");
            assert_eq!(tape.shape(p.forces), fc_tensor::Shape::new(b.n_atoms, 3));
            assert_eq!(tape.shape(p.stress), fc_tensor::Shape::new(3, 3));
            assert_eq!(tape.shape(p.magmom), fc_tensor::Shape::new(b.n_atoms, 1));
            assert!(tape.value(p.energy).all_finite());
            assert!(tape.value(p.forces).all_finite());
        }
    }

    #[test]
    fn reference_and_parallel_basis_are_numerically_identical() {
        // Alg. 1 vs Alg. 2 is a pure systems change: same model, same
        // numbers (the paper's "does not affect accuracy").
        let b = batch_of(&structure());
        let (m1, store) = tiny_model(OptLevel::Reference, 7);
        let t1 = Tape::new();
        let p1 = m1.forward(&t1, &store, &b);
        let mut store2 = ParamStore::new();
        let m2 = Chgnet::new(ModelConfig::tiny(OptLevel::ParallelBasis), &mut store2, 7);
        let t2 = Tape::new();
        let p2 = m2.forward(&t2, &store2, &b);
        assert!(t1.value(p1.energy).approx_eq(&t2.value(p2.energy), 1e-4));
        assert!(t1.value(p1.forces).approx_eq(&t2.value(p2.forces), 1e-3));
        assert!(t1.value(p1.stress).approx_eq(&t2.value(p2.stress), 1e-3));
    }

    // F = -dE/dx against finite differences is covered by
    // `fc_verify::physics::check_force_consistency` (exercised from
    // `tests/physics_consistency.rs` and the verify suite), which
    // replaced the hand-rolled FD loop that used to live here.

    #[test]
    fn derivative_forces_sum_to_zero() {
        // Translation invariance of the energy ⇒ net force ≈ 0.
        let b = batch_of(&structure());
        let (m, store) = tiny_model(OptLevel::Fusion, 3);
        let tape = Tape::new();
        let p = m.forward(&tape, &store, &b);
        let f = tape.value(p.forces);
        for k in 0..3 {
            let net: f64 = (0..f.rows()).map(|r| f.at(r, k) as f64).sum();
            assert!(net.abs() < 1e-3, "net force {net} along axis {k}");
        }
    }

    #[test]
    fn energy_is_rotation_invariant_and_head_force_equivariant() {
        // Rotate the crystal by R: energy unchanged, head forces rotate.
        let s = structure();
        let (m, store) = tiny_model(OptLevel::Decoupled, 5);

        // Rotation by 90° about z (keeps the graph ordering identical).
        let rot = |v: [f64; 3]| [-v[1], v[0], v[2]];
        let lat = s.lattice.m;
        let rlat = fc_crystal::Lattice::new(rot(lat[0]), rot(lat[1]), rot(lat[2]));
        let rs = Structure::new(rlat, s.species.clone(), s.frac_coords.clone());

        let t1 = Tape::new();
        let p1 = m.forward(&t1, &store, &batch_of(&s));
        let t2 = Tape::new();
        let p2 = m.forward(&t2, &store, &batch_of(&rs));

        let e1 = t1.value(p1.energy).item();
        let e2 = t2.value(p2.energy).item();
        assert!((e1 - e2).abs() < 1e-4 * (1.0 + e1.abs()), "energy not invariant: {e1} vs {e2}");

        let f1 = t1.value(p1.forces);
        let f2 = t2.value(p2.forces);
        for atom in 0..f1.rows() {
            let fr = rot([f1.at(atom, 0) as f64, f1.at(atom, 1) as f64, f1.at(atom, 2) as f64]);
            for (k, &frk) in fr.iter().enumerate() {
                assert!(
                    (frk - f2.at(atom, k) as f64).abs() < 1e-3 * (1.0 + frk.abs()),
                    "force head not equivariant at atom {atom}, axis {k}"
                );
            }
        }
    }

    #[test]
    fn decoupled_skips_derivative_graph() {
        let b = batch_of(&structure());
        let (m_ref, store_ref) = tiny_model(OptLevel::Fusion, 3);
        let t1 = Tape::new();
        let _ = m_ref.forward(&t1, &store_ref, &b);
        let mem_ref = t1.profiler().snapshot().bytes_peak;
        let (m_fast, store_fast) = tiny_model(OptLevel::Decoupled, 3);
        let t2 = Tape::new();
        let _ = m_fast.forward(&t2, &store_fast, &b);
        let mem_fast = t2.profiler().snapshot().bytes_peak;
        assert!(
            mem_fast < mem_ref,
            "decoupled peak {mem_fast} should undercut derivative peak {mem_ref}"
        );
    }

    #[test]
    fn collinear_self_image_angles_keep_gradients_finite() {
        // A single-atom cell: every bond pairs with its mirror image at
        // exactly θ = π. The derivative model must still produce finite
        // forces and finite second-order parameter gradients.
        let s =
            Structure::new(fc_crystal::Lattice::cubic(2.6), vec![Element::new(26)], vec![[0.0; 3]]);
        let b = batch_of(&s);
        assert!(b.n_angles > 0, "test needs angles");
        let (m, mut store) = tiny_model(OptLevel::Fusion, 3);
        let tape = Tape::new();
        let p = m.forward_for_backward(&tape, &store, &b);
        assert!(tape.value(p.forces).all_finite(), "forces not finite");
        // Second-order: loss on forces, backward to parameters.
        let loss = tape.sum_all(tape.square(p.forces));
        let gm = tape.backward(loss);
        store.accumulate_grads(&tape, &gm);
        let n = store.grad_norm();
        assert!(n.is_finite(), "second-order grad norm = {n}");
    }

    #[test]
    fn inference_forward_frees_what_the_retaining_forward_keeps() {
        let b = batch_of(&structure());
        let (m, store) = tiny_model(OptLevel::Decoupled, 5);
        let run = |retaining: bool| {
            let tape = Tape::new();
            let p = if retaining {
                m.forward_for_backward(&tape, &store, &b)
            } else {
                m.forward(&tape, &store, &b)
            };
            let bits: Vec<u32> = [p.energy, p.forces, p.stress, p.magmom]
                .iter()
                .flat_map(|&v| tape.value(v).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .collect();
            (bits, tape.profiler().snapshot())
        };
        let ((kept, full), (freed, lean)) = (run(true), run(false));
        assert_eq!(kept, freed, "the predictions are bitwise the same");
        assert_eq!(full.kernels, lean.kernels, "freeing launches no kernel");
        assert!(
            lean.bytes_live < full.bytes_live / 2,
            "{} vs {} B",
            lean.bytes_live,
            full.bytes_live
        );
        assert!(lean.bytes_peak < full.bytes_peak, "{} vs {} B", lean.bytes_peak, full.bytes_peak);
    }

    #[test]
    #[should_panic(expected = "needs the retaining forward (Chgnet::forward_for_backward)")]
    fn backward_through_the_inference_forward_panics() {
        let b = batch_of(&structure());
        let (m, store) = tiny_model(OptLevel::Decoupled, 5);
        let tape = Tape::new();
        let p = m.forward(&tape, &store, &b);
        let loss = tape.add(tape.sum_all(p.energy), tape.sum_all(tape.square(p.forces)));
        let _ = tape.backward_final(loss);
    }

    #[test]
    fn derivative_forward_keeps_its_tape() {
        let b = batch_of(&structure());
        let (m, store) = tiny_model(OptLevel::Fusion, 5);
        let (t1, t2) = (Tape::new(), Tape::new());
        let _ = m.forward(&t1, &store, &b);
        let _ = m.forward_for_backward(&t2, &store, &b);
        assert_eq!(t1.profiler().snapshot().bytes_live, t2.profiler().snapshot().bytes_live);
    }

    #[test]
    fn full_size_param_count_near_paper() {
        // The paper reports 412.5K (reference) / 429.1K (F/S head)
        // trainable parameters; our layout lands in the same regime.
        let mut store = ParamStore::new();
        let _ = Chgnet::new(ModelConfig::with_level(OptLevel::Decoupled), &mut store, 0);
        let n = store.n_scalars();
        assert!(n > 250_000 && n < 600_000, "param count {n} out of regime");
        // Head variant has strictly more parameters.
        let mut store2 = ParamStore::new();
        let _ = Chgnet::new(ModelConfig::with_level(OptLevel::Fusion), &mut store2, 0);
        assert!(store2.n_scalars() < n);
    }
}

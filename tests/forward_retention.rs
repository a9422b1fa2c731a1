//! What a Decoupled forward pass keeps on its tape: on the md-nve64 cell at
//! the benchmark's quick model scale, the retaining forward
//! (`Chgnet::forward_for_backward`) and the inference forward
//! (`Chgnet::forward`, which frees each intermediate after its last read)
//! must each stay under a stated peak of live buffer bytes, and both under
//! a stated kernel count, with energy, forces and parameter gradients
//! pinned bit for bit to what the chains the fused launches replace
//! compute (separate LayerNorm and gate launches, materialised gathers and
//! products, `matmul` + `add` linears). The same cell at the paper's width
//! (`ModelConfig::default()`: fea 64, 3 blocks) pins energy, forces and a
//! gradient hash too: there every GEMM output spans four 16-column strips
//! (a GatedMLP linear's two halves eight) and every LayerNorm row is 64
//! wide, shapes the quick model never runs.
//!
//! The parameters are set from a fixed formula rather than drawn, so the
//! pinned bits do not depend on the `rand` build. Every kernel tier gives
//! the same bits (the `exp`, `sin` and `cos` kernels are in-tree ports),
//! so the only host libm calls left under them are `acosf` (the bond
//! angles' `UnKind::Arccos`) and the `f32::sin` of this test's own
//! parameter formula. The bits were recorded on x86-64 with glibc 2.36 and
//! are compared on every x86-64 glibc host; elsewhere the bit checks are
//! skipped with a note. The byte and kernel ceilings hold everywhere.

use fastchgnet::crystal::known;
use fastchgnet::prelude::*;

/// Largest live-byte peak the retaining forward may reach.
const PEAK_BYTES: u64 = 24 << 20;

/// Largest live-byte peak the inference forward may reach (5.5 MiB).
const INFERENCE_PEAK_BYTES: u64 = 11 << 19;

/// Most kernels either forward may launch.
const MAX_KERNELS: u64 = 135;

/// `f32` bits of the cell's energy (eV).
const ENERGY_BITS: u32 = 0x4240_dadd;

/// `f32` bits of the forces of atoms 0, 1 and 63 (eV/Å), x y z each.
const FORCE_BITS: [[u32; 3]; 3] = [
    [0xc0f0_eaf7, 0xbf24_7eb9, 0x3f93_019c],
    [0xc0f4_0d20, 0x3f4f_4da8, 0x401d_08de],
    [0x40b5_480d, 0x401d_c87a, 0xbe94_f968],
];

/// [`gradient_hash`] of the quick model.
const GRADIENT_HASH: u64 = 0xc7e6_d23d_452d_10b4;

/// `f32` bits of the cell's energy (eV) at the paper's width.
const PAPER_ENERGY_BITS: u32 = 0x452b_14c6;

/// `f32` bits of the forces of atoms 0, 1 and 63 (eV/Å) at the paper's
/// width, x y z each.
const PAPER_FORCE_BITS: [[u32; 3]; 3] = [
    [0xc2ba_6d97, 0xc004_b694, 0x410b_39b4],
    [0xc2a8_2e84, 0x412e_ca08, 0x41d1_abc8],
    [0x4274_d9dd, 0x41d3_826d, 0xbebf_2960],
];

/// [`gradient_hash`] at the paper's width.
const PAPER_GRADIENT_HASH: u64 = 0x6599_29a3_8e03_f0f4;

/// Whether this host computes the bits the constants were recorded with:
/// x86-64 with glibc's `acosf` and `sinf`.
fn recording_host() -> bool {
    let same = cfg!(all(target_arch = "x86_64", target_env = "gnu"));
    if !same {
        println!("bits not compared: recorded on x86-64 glibc");
    }
    same
}

/// The benchmark's quick model (`Scale::quick().model(OptLevel::Decoupled)`)
/// with every parameter set from its id and position.
fn model() -> (Chgnet, ParamStore) {
    with_formula_params(ModelConfig {
        fea: 16,
        n_rbf: 16,
        n_harmonics: 8,
        n_blocks: 2,
        ..ModelConfig::with_level(OptLevel::Decoupled)
    })
}

/// The model `cfg` with every parameter set from its id and position.
fn with_formula_params(cfg: ModelConfig) -> (Chgnet, ParamStore) {
    let mut store = ParamStore::new();
    let model = Chgnet::new(cfg, &mut store, 0);
    for (id, entry) in store.iter_mut() {
        let base = 0.37 * id.index() as f32;
        for (i, x) in entry.value.data_mut().iter_mut().enumerate() {
            *x = 0.4 * (base + 0.61 * i as f32).sin();
        }
    }
    (model, store)
}

/// The md-nve64 cell's graph, collated, at `model`'s cutoffs.
fn md_batch(model: &Chgnet) -> GraphBatch {
    let structure = known::li9co7o16().supercell(2, 1, 1);
    let (ac, bc) = (model.cfg.atom_cutoff as f64, model.cfg.bond_cutoff as f64);
    let graph = CrystalGraph::with_cutoffs(structure, ac, bc);
    assert_eq!(graph.n_atoms(), 64);
    GraphBatch::collate(&[&graph], None)
}

#[test]
fn decoupled_forward_retains_at_most_the_stated_bytes_and_kernels() {
    let (model, store) = model();
    let recording = recording_host();
    for (name, retaining, ceiling) in
        [("retaining", true, PEAK_BYTES), ("inference", false, INFERENCE_PEAK_BYTES)]
    {
        let (energy, force_bits, snap) = forward_bits(&model, &store, retaining);
        println!(
            "{name}: peak {} B, {} kernels, energy {energy:#010x}, forces {force_bits:#010x?}",
            snap.bytes_peak, snap.kernels
        );
        if recording {
            assert_eq!(energy, ENERGY_BITS, "{name} energy");
            assert_eq!(force_bits, FORCE_BITS, "{name} forces");
        }
        assert!(snap.bytes_peak <= ceiling, "{name} peak {} B over {ceiling} B", snap.bytes_peak);
        assert!(snap.kernels <= MAX_KERNELS, "{name}: {} kernels over {MAX_KERNELS}", snap.kernels);
    }
}

#[test]
fn decoupled_gradients_are_pinned() {
    let (model, store) = model();
    let hash = gradient_hash(&model, &store);
    if recording_host() {
        assert_eq!(hash, GRADIENT_HASH, "gradient hash {hash:#018x}");
    }
}

/// FNV-1a over the `f32` bits of every parameter gradient, in parameter
/// order, of the planned final sweep through every fused launch: a loss
/// that reads energy, forces, stress and magmoms of the md cell.
fn gradient_hash(model: &Chgnet, store: &ParamStore) -> u64 {
    let batch = md_batch(model);
    let tape = Tape::new();
    let pred = model.forward_for_backward(&tape, store, &batch);
    let squares = [pred.forces, pred.stress, pred.magmom].map(|v| tape.sum_all(tape.square(v)));
    let loss = squares.iter().fold(tape.sum_all(pred.energy), |l, &s| tape.add(l, s));
    let grads = tape.backward_final(loss);
    let mut params = tape.injected_params();
    params.sort_by_key(|(id, _)| id.index());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (_, v) in params {
        let g = tape.value(grads.get(v).expect("every parameter takes a gradient"));
        for x in g.data() {
            for byte in x.to_bits().to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// The energy bits and the force bits of atoms 0, 1 and 63 of `model`'s
/// retaining or inference forward on the md cell, and the tape's profile.
fn forward_bits(
    model: &Chgnet,
    store: &ParamStore,
    retaining: bool,
) -> (u32, [[u32; 3]; 3], fastchgnet::tensor::ProfileSnapshot) {
    let batch = md_batch(model);
    let tape = Tape::new();
    let pred = if retaining {
        model.forward_for_backward(&tape, store, &batch)
    } else {
        model.forward(&tape, store, &batch)
    };
    let energy = tape.value(pred.energy).item().to_bits();
    let forces = tape.value(pred.forces);
    let force_bits = [0, 1, 63].map(|a| [0, 1, 2].map(|k| forces.at(a, k).to_bits()));
    (energy, force_bits, tape.profiler().snapshot())
}

#[test]
fn paper_width_forward_is_pinned() {
    let (model, store) = with_formula_params(ModelConfig::default());
    let recording = recording_host();
    for (name, retaining) in [("retaining", true), ("inference", false)] {
        let (energy, force_bits, _) = forward_bits(&model, &store, retaining);
        println!("paper width {name}: energy {energy:#010x}, forces {force_bits:#010x?}");
        if recording {
            assert_eq!(energy, PAPER_ENERGY_BITS, "{name} energy");
            assert_eq!(force_bits, PAPER_FORCE_BITS, "{name} forces");
        }
    }
}

#[test]
fn paper_width_gradients_are_pinned() {
    let (model, store) = with_formula_params(ModelConfig::default());
    let hash = gradient_hash(&model, &store);
    println!("paper width gradient hash {hash:#018x}");
    if recording_host() {
        assert_eq!(hash, PAPER_GRADIENT_HASH, "gradient hash {hash:#018x}");
    }
}

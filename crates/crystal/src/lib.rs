//! # fc_crystal — crystal substrate for FastCHGNet-rs
//!
//! Everything between raw crystal structures and the tensors the models
//! consume: a periodic-lattice/structure representation (standing in for
//! pymatgen/ase), exact periodic neighbor lists, CHGNet's two-level graph
//! (atom graph `G^a` at 6 Å, bond graph `G^b` at 3 Å), batch collation, the
//! synthetic-DFT oracle that labels structures with consistent
//! energy/forces/stress/magmoms, and the SynthMPtrj dataset generator that
//! reproduces the long-tail workload distribution of the paper's Fig. 5.

pub mod batch;
pub mod dataset;
pub mod element;
pub mod graph;
pub mod io;
pub mod known;
pub mod lattice;
pub mod math;
pub mod neighbor;
pub mod oracle;
pub mod stats;
pub mod structure;

pub use batch::{BatchLabels, GraphBatch, GraphRanges};
pub use dataset::{DatasetConfig, Sample, SynthMPtrj};
pub use element::Element;
pub use graph::{Angle, CrystalGraph, ATOM_CUTOFF, BOND_CUTOFF};
pub use io::{from_poscar, to_poscar};
pub use lattice::Lattice;
pub use neighbor::{
    neighbor_list, neighbor_list_cells, neighbor_list_exact, Bond, LINKED_CELL_MIN_ATOMS,
};
pub use oracle::{evaluate, Labels, EV_PER_A3_TO_GPA, ORACLE_CUTOFF};
pub use structure::Structure;

#[cfg(test)]
mod tests {
    /// Set in the child processes of [`labels_pass_under_a_foreign_libm`],
    /// so that they start no children of their own.
    const CHILD: &str = "FASTCHGNET_FOREIGN_LIBM_CHILD";

    /// The `math::`, `oracle::` and `dataset::` tests again (the ports and
    /// their lanes, the oracle and the separation screen against their
    /// references, and the dataset digest), in child processes of this test
    /// binary that glibc runs without its AVX2 and FMA builds
    /// (`GLIBC_TUNABLES`, which only the child's dynamic loader reads):
    /// libm then returns other bits at some inputs, and the labels, whose
    /// `exp`, `sin`, `cos` and `tanh` are the in-tree ports, must not
    /// change. The informative comparison with the host's libm is left
    /// out; the generator's Box–Muller draw still calls the host's `ln`,
    /// `cos` and `exp`, which only reach a rounded atom count.
    #[test]
    fn labels_pass_under_a_foreign_libm() {
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
                .args(["math::", "oracle::", "dataset::", "--skip", "host_libm", "--quiet"])
                .env("GLIBC_TUNABLES", format!("glibc.cpu.hwcaps={hwcaps}"))
                .env(CHILD, "1")
                .output()
                .expect("run the test binary");
            assert!(
                out.status.success(),
                "math::, oracle:: and dataset:: tests with glibc.cpu.hwcaps={hwcaps}: {}\n{}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

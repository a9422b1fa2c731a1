//! A force call in steady state allocates no tensor storage: once a first
//! call of each size has filled the thread's buffer pool, every later
//! `Calculator::evaluate` takes each tensor buffer from the pool (0 misses)
//! and gives back exactly what it took (`bytes_pooled` unchanged). Checked
//! along an NVE trajectory of the md-nve64 cell at the benchmark's quick
//! model scale, then over relaxation-sized cells of 2-16 atoms.

use fastchgnet::crystal::dataset::sane_random_structure;
use fastchgnet::crystal::known;
use fastchgnet::md::CalcResult;
use fastchgnet::prelude::*;
use fastchgnet::tensor::pool::{self, PoolStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// Force calls of the MD trajectory that may still fill the pool.
const WARMUP_CALLS: usize = 2;

/// A calculator that records the thread's pool counters after each call.
struct Recorded<'a> {
    calc: Calculator<'a>,
    after: RefCell<Vec<PoolStats>>,
}

impl ForceField for Recorded<'_> {
    fn compute(&self, structure: &Structure) -> CalcResult {
        let r = self.calc.evaluate(structure);
        self.after.borrow_mut().push(pool::stats());
        r
    }
}

/// The benchmark's quick Decoupled model.
fn model() -> (Chgnet, ParamStore) {
    let cfg = ModelConfig {
        fea: 16,
        n_rbf: 16,
        n_harmonics: 8,
        n_blocks: 2,
        ..ModelConfig::with_level(OptLevel::Decoupled)
    };
    let mut store = ParamStore::new();
    let model = Chgnet::new(cfg, &mut store, 7);
    (model, store)
}

/// Misses and pooled bytes of each call after the first `skip`, relative
/// to the call before it.
fn growth(after: &[PoolStats], skip: usize) -> Vec<(u64, i64)> {
    after[skip..]
        .windows(2)
        .map(|w| (w[1].misses - w[0].misses, w[1].bytes_pooled as i64 - w[0].bytes_pooled as i64))
        .collect()
}

#[test]
fn steady_state_force_calls_allocate_nothing_new() {
    // A fresh thread has a fresh pool that no other test touches.
    std::thread::spawn(|| {
        let (model, store) = model();
        let field = Recorded { calc: Calculator::new(&model, &store), after: RefCell::new(vec![]) };

        let md = known::li9co7o16().supercell(2, 1, 1);
        assert_eq!(md.n_atoms(), 64);
        let cfg = MdConfig {
            dt_fs: 1.0,
            steps: 100,
            ensemble: Ensemble::Nve,
            init_t_kelvin: 300.0,
            seed: 1,
            log_every: 100,
        };
        let traj = run_md(&field, &md, &cfg);
        assert!(traj.frames.iter().all(|f| f.potential.is_finite()));
        let after = field.after.take();
        assert!(after.len() > 100, "{} force calls", after.len());
        assert!(after[0].misses > 0, "the first call must fill the pool");
        let md_growth = growth(&after, WARMUP_CALLS);
        assert!(
            md_growth.iter().all(|&g| g == (0, 0)),
            "md force calls after warm-up (misses, pooled bytes): {md_growth:?}"
        );

        // Relaxation-sized cells: the first pass fills the pool for each
        // size, the second takes everything from it.
        let cells: Vec<Structure> = [2, 3, 4, 5, 7, 9, 12, 16]
            .into_iter()
            .map(|atoms| {
                let cfg =
                    DatasetConfig { min_atoms: atoms, max_atoms: atoms, ..Default::default() };
                sane_random_structure(&mut StdRng::seed_from_u64(atoms as u64), &cfg)
            })
            .collect();
        for s in cells.iter().chain(&cells) {
            field.compute(s);
        }
        let after = field.after.take();
        let relax_growth = growth(&after, cells.len() - 1);
        assert!(
            relax_growth.iter().all(|&g| g == (0, 0)),
            "second pass over the relaxation cells (misses, pooled bytes): {relax_growth:?}"
        );
    })
    .join()
    .unwrap();
}

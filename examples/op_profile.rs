//! Where the time of the benchmark's steps goes, per op kind, timed kernel
//! by kernel:
//!
//! * the md-nve64 forward pass (Li9Co7O16 2×1×1, 64 atoms, the benchmark's
//!   Decoupled model), once with every kernel on one thread and once at
//!   this thread's full intra-op width (`fc_tensor::par`);
//! * one train-dp4-sized rank step (a quarter of a global batch of 32
//!   labelled structures from the benchmark's long-tail size distribution)
//!   at width 1, the width rank workers run at: one table for the forward
//!   pass and composite loss, one for `backward_final`;
//! * the dataset generation behind train-dp4's set-up, on its cell-size
//!   distribution: ms per structure of the four stages of
//!   `sane_random_structure` (draw, separation screen, neighbour list,
//!   `energy_on`) and of the three parts of `Sample::from_structure` (the
//!   neighbour list, the oracle's `evaluate_on` and
//!   `CrystalGraph::from_bonds`), then ns per element of this host's libm
//!   against the in-tree `fc_crystal::math` ports in the host tier's
//!   lanes, for the oracle's `exp` and `sin`+`cos` over the pool's bond
//!   lengths.
//!
//! Each table gives kernels, MFLOP, MB moved (the cost model's minimum
//! traffic, `fc_tensor::cost`), ms per pass by op kind and GFLOP/s at the
//! first width, then the peak
//! live MiB of the tape's buffers over the pass so far (the profiler's
//! `bytes_peak`). The md-nve64 table is of `Chgnet::forward`, which frees
//! each intermediate after its last read. Beside it the example prints,
//! for that inference forward and for the retaining
//! `Chgnet::forward_for_backward` (the train step's), the peak live MiB
//! and the MiB and node count each op kind's nodes still hold when the
//! forward ends (`Tape::held_by_kind`), and the ms of the force call's
//! graph stage by part at both widths: the neighbour list, the angle build
//! (`CrystalGraph::from_bonds`) and collation, and for [`REPS`] + 1 md
//! force calls (`Calculator::evaluate`) the buffer-pool misses of each
//! call and the bytes the pool holds after it, which stay at 0 and level
//! once the pool has been filled, and the call's minor page faults. The
//! "neighbour search by cell size" table, behind `LINKED_CELL_MIN_ATOMS`,
//! times the neighbour search with one bin and binned at width 1 on cells
//! of 64 to 4,096 atoms. It ends the md part with the table
//! `par::SPLIT_WORK` is set from: a split's break-even, the median µs of
//! an add over 1K–256K elements on one thread and split. It also prints
//! the kernel tier this host runs.
//!
//! Last, the md-nve64 forward (both widths) and the rank step (width 1)
//! again with the model the paper trains, `ModelConfig::default()` (fea 64,
//! 31 RBF, 15 harmonics, 3 blocks at Decoupled): its GEMMs write four
//! 16-column strips per output and its LayerNorm rows are 64 wide, shapes
//! the quick model never runs.
//!
//! Run: `cargo run --release --example op_profile`

use fastchgnet::crystal::dataset::{
    random_structure_with_boost, sane_random_structure, well_separated, MAX_ABS_E_PER_ATOM,
};
use fastchgnet::crystal::math;
use fastchgnet::crystal::oracle::{energy_on, evaluate_on};
use fastchgnet::crystal::{
    known, neighbor_list, neighbor_list_cells, neighbor_list_exact, ATOM_CUTOFF, BOND_CUTOFF,
    LINKED_CELL_MIN_ATOMS,
};
use fastchgnet::prelude::*;
use fastchgnet::tensor::kernels::Tier;
use fastchgnet::tensor::{par, pool, profiler, OpTotals};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed passes per width (after one warm-up pass each).
const REPS: usize = 20;

/// Timed passes of the dataset-generation table (after one warm-up pass).
const DATASET_PASSES: usize = 5;

/// train-dp4's global batch and rank count.
const GLOBAL_BATCH: usize = 32;
const RANKS: usize = 4;

type Table = BTreeMap<&'static str, OpTotals>;

/// One phase of a pass: its per-op totals and the tape's peak live bytes
/// at its end.
type Phase = (Table, u64);

/// What a forward's nodes hold when it ends, as (op kind, bytes, nodes),
/// and its peak live bytes.
type Held = (Vec<(&'static str, u64, usize)>, u64);

fn main() {
    println!("kernel tier: {:?}", Tier::host());
    // perfbench's model: Scale::quick() at OptLevel::Decoupled.
    let cfg = ModelConfig {
        fea: 16,
        n_rbf: 16,
        n_harmonics: 8,
        n_blocks: 2,
        ..ModelConfig::with_level(OptLevel::Decoupled)
    };
    let mut store = ParamStore::new();
    let model = Chgnet::new(cfg, &mut store, 7);

    let structure = known::li9co7o16().supercell(2, 1, 1);
    let (ac, bc) = (model.cfg.atom_cutoff as f64, model.cfg.bond_cutoff as f64);
    let graph = CrystalGraph::with_cutoffs(structure.clone(), ac, bc);
    let batch = GraphBatch::collate(&[&graph], None);
    print_md_forward("md-nve64 forward", &model, &store, &batch);
    let held = [false, true].map(|retaining| {
        let tape = Tape::new();
        if retaining {
            model.forward_for_backward(&tape, &store, &batch);
        } else {
            model.forward(&tape, &store, &batch);
        }
        let held = (tape.held_by_kind(), peak(&tape));
        tape.reset();
        held
    });
    print_held(&held);
    print_graph_stage(&structure, ac, bc);
    print_pool_per_call(&Calculator::new(&model, &store), &structure);
    print_neighbor_crossover(&structure);
    print_split_break_even();

    // train-dp4's pool draws cell sizes like Scale::wide_dataset.
    let wide = DatasetConfig { max_atoms: 48, log_mean: 2.5, log_std: 0.85, ..Default::default() };
    print_dataset_generation(&wide);

    // A rank gets every RANKS-th structure of the global batch by size, as
    // balanced a share as the load-balancing sampler aims for.
    let data = SynthMPtrj::generate(&DatasetConfig { n_structures: GLOBAL_BATCH, ..wide });
    let mut by_size: Vec<&Sample> = data.samples.iter().collect();
    by_size.sort_by_key(|s| s.graph.n_atoms());
    let rank: Vec<&Sample> = by_size.into_iter().step_by(RANKS).collect();
    let graphs: Vec<&CrystalGraph> = rank.iter().map(|s| &s.graph).collect();
    let labels: Vec<&Labels> = rank.iter().map(|s| &s.labels).collect();
    let rank_batch = GraphBatch::collate(&graphs, Some(&labels));
    print_rank_step("train-dp4 rank step", &model, &store, &rank_batch);

    // The same passes with the model the paper trains; its cutoffs are the
    // quick model's, so the graphs are the same.
    let mut paper_store = ParamStore::new();
    let paper = Chgnet::new(ModelConfig::default(), &mut paper_store, 7);
    println!(
        "\n== paper width: ModelConfig::default() (fea 64, 31 RBF, 15 harmonics, 3 blocks) =="
    );
    print_md_forward("paper width md-nve64 forward", &paper, &paper_store, &batch);
    print_rank_step("paper width train-dp4 rank step", &paper, &paper_store, &rank_batch);
}

/// Print the per-op table of `model`'s inference forward on the md cell
/// `batch` at width 1 and at full width, under `title`.
fn print_md_forward(title: &str, model: &Chgnet, store: &ParamStore, batch: &GraphBatch) {
    println!(
        "\n{title}: {} atoms + {} bonds + {} angles, {REPS} timed passes per width",
        batch.n_atoms, batch.n_bonds, batch.n_angles
    );
    let [forward] = profile(&[1, par::width()], || {
        let tape = Tape::new();
        model.forward(&tape, store, batch);
        let tables = [(per_op(&tape), peak(&tape))];
        tape.reset(); // back to this thread's pool, for the next pass
        tables
    });
    print_table(&forward);
}

/// Print the per-op tables of one training step of `model` on the rank
/// batch `batch` at width 1 (forward + composite loss, then
/// `backward_final`), under `title`.
fn print_rank_step(title: &str, model: &Chgnet, store: &ParamStore, batch: &GraphBatch) {
    let batch_labels = batch.labels.as_ref().expect("collated with labels");
    println!(
        "\n{title}: {} structures, {} atoms + {} bonds + {} angles, {REPS} timed steps",
        batch.n_graphs, batch.n_atoms, batch.n_bonds, batch.n_angles
    );
    let [forward, backward] = profile(&[1], || {
        let tape = Tape::new();
        let pred = model.forward_for_backward(&tape, store, batch);
        let loss = composite_loss(&tape, &pred, batch_labels, &LossWeights::default());
        let forward = (per_op(&tape), peak(&tape));
        tape.backward_final(loss.total);
        let backward = (minus(&per_op(&tape), &forward.0), peak(&tape));
        tape.reset();
        [forward, backward]
    });
    println!("\nforward + loss");
    print_table(&forward);
    println!("\nbackward_final");
    print_table(&backward);
}

/// `tape`'s peak live bytes so far.
fn peak(tape: &Tape) -> u64 {
    tape.profiler().snapshot().bytes_peak
}

/// `tape`'s per-op totals so far, by kind.
fn per_op(tape: &Tape) -> Table {
    tape.profiler().per_op().into_iter().collect()
}

/// The per-op totals added between `before` and `after`.
fn minus(after: &Table, before: &Table) -> Table {
    let mut out = after.clone();
    for (kind, b) in before {
        let t = out.get_mut(kind).expect("totals only grow");
        t.count -= b.count;
        t.flops -= b.flops;
        t.bytes -= b.bytes;
        t.nanos -= b.nanos;
    }
    out.retain(|_, t| t.count > 0);
    out
}

/// Per-op tables of each of `pass`'s `P` phases at each of `widths`,
/// summed over [`REPS`] passes, with the largest peak. Widths alternate
/// pass by pass, so host-speed drift hits all alike.
fn profile<const P: usize>(
    widths: &[usize],
    pass: impl Fn() -> [Phase; P],
) -> [Vec<(usize, Phase)>; P] {
    let mut phases: [Vec<(usize, Phase)>; P] =
        std::array::from_fn(|_| widths.iter().map(|&w| (w, Phase::default())).collect());
    for rep in 0..=REPS {
        for (i, &w) in widths.iter().enumerate() {
            let tables = par::with_width(w, || profiler::with_op_timing(&pass));
            if rep == 0 {
                continue; // warm-up
            }
            for (phase, (per_op, peak)) in phases.iter_mut().zip(tables) {
                let (table, max_peak) = &mut phase[i].1;
                *max_peak = peak.max(*max_peak);
                for (kind, t) in per_op {
                    let s = table.entry(kind).or_default();
                    s.count += t.count;
                    s.flops += t.flops;
                    s.bytes += t.bytes;
                    s.nanos += t.nanos;
                }
            }
        }
    }
    phases
}

/// Print ms per pass by op kind, slowest first at the first width, with
/// each later width's speedup over the first and the GFLOP/s at the first
/// width, then the peak live MiB.
fn print_table(phases: &[(usize, Phase)]) {
    let tables: Vec<(usize, &Table)> = phases.iter().map(|(w, (t, _))| (*w, t)).collect();
    let ms = |t: &OpTotals| t.nanos as f64 / 1e6 / REPS as f64;
    let (_, first) = &tables[0];
    let mut kinds: Vec<_> = first.iter().collect();
    kinds.sort_by_key(|(_, t)| std::cmp::Reverse(t.nanos));
    print!("{:<18} {:>8} {:>10} {:>8}", "op kind", "kernels", "MFLOP", "MB");
    for (w, _) in &tables {
        print!(" {:>10}", format!("ms @{w}"));
    }
    for (w, _) in &tables[1..] {
        print!(" {:>8}", format!("@{w} gain"));
    }
    println!(" {:>9}", format!("GF/s @{}", tables[0].0));
    let per_pass = |x: u64| x as f64 / 1e6 / REPS as f64;
    let mut totals = vec![0.0; tables.len()];
    let mut sum = OpTotals::default();
    for (kind, one) in kinds {
        let times: Vec<f64> = tables.iter().map(|(_, t)| t.get(kind).map_or(0.0, ms)).collect();
        print!(
            "{kind:<18} {:>8} {:>10.2} {:>8.2}",
            one.count / REPS as u64,
            per_pass(one.flops),
            per_pass(one.bytes)
        );
        print_op_times(&times, per_pass(one.flops));
        for (total, t) in totals.iter_mut().zip(&times) {
            *total += t;
        }
        sum.count += one.count;
        sum.flops += one.flops;
        sum.bytes += one.bytes;
    }
    print!(
        "{:<18} {:>8} {:>10.2} {:>8.2}",
        "total",
        sum.count / REPS as u64,
        per_pass(sum.flops),
        per_pass(sum.bytes)
    );
    print_op_times(&totals, per_pass(sum.flops));
    print!("{:<48}", "peak live MiB");
    for (_, (_, peak)) in phases {
        print!(" {:>10.1}", *peak as f64 / (1u64 << 20) as f64);
    }
    println!();
}

/// Print the MiB and nodes the inference and the retaining forward hold
/// by op kind when they end, most held by the retaining forward first (it
/// holds every node the inference forward does), their totals and both
/// forwards' peak live MiB.
fn print_held([inference, retaining]: &[Held; 2]) {
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    println!(
        "\nheld when the forward ends: inference (forward) and retaining (forward_for_backward)"
    );
    println!("{:<18} {:>8} {:>10} {:>8} {:>10}", "op kind", "nodes", "MiB", "nodes", "MiB");
    let find = |held: &[(&'static str, u64, usize)], kind| {
        held.iter().find(|r| r.0 == kind).map_or((0, 0), |r| (r.1, r.2))
    };
    let mut kinds: Vec<_> = retaining.0.iter().map(|r| (r.0, r.1)).collect();
    kinds.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
    let mut totals = [(0, 0); 2];
    for (kind, _) in kinds {
        print!("{kind:<18}");
        for (total, (held, _)) in totals.iter_mut().zip([inference, retaining]) {
            let (bytes, nodes) = find(held, kind);
            print!(" {nodes:>8} {:>10.2}", mib(bytes));
            *total = (total.0 + bytes, total.1 + nodes);
        }
        println!();
    }
    print!("{:<18}", "total");
    for (bytes, nodes) in totals {
        print!(" {nodes:>8} {:>10.2}", mib(bytes));
    }
    println!();
    println!(
        "{:<18} {:>8} {:>10.2} {:>8} {:>10.2}",
        "peak live",
        "",
        mib(inference.1),
        "",
        mib(retaining.1)
    );
}

/// Print the ms per call of the md force call's graph stage by part, at
/// width 1 and at full width, over [`REPS`] calls after a warm-up (widths
/// alternate call by call): `CrystalGraph::with_cutoffs` is the
/// neighbour list and `CrystalGraph::from_bonds` on it.
fn print_graph_stage(structure: &Structure, ac: f64, bc: f64) {
    let widths = [1, par::width()];
    let mut ms = [[0.0f64; 2]; 3];
    for rep in 0..=REPS {
        for (i, &w) in widths.iter().enumerate() {
            let parts = par::with_width(w, || {
                let t0 = Instant::now();
                let bonds = neighbor_list(structure, ac);
                let t1 = Instant::now();
                let graph = CrystalGraph::from_bonds(structure.clone(), bonds, ac, bc);
                let t2 = Instant::now();
                drop(GraphBatch::collate(&[&graph], None));
                let t3 = Instant::now();
                [t1 - t0, t2 - t1, t3 - t2].map(|t| t.as_secs_f64())
            });
            if rep > 0 {
                for (part, s) in ms.iter_mut().zip(parts) {
                    part[i] += s * 1e3 / REPS as f64;
                }
            }
        }
    }
    println!("\nmd force call graph stage, ms per call");
    print!("{:<18}", "part");
    for w in widths {
        print!(" {:>10}", format!("ms @{w}"));
    }
    println!(" {:>8}", format!("@{} gain", widths[1]));
    for (name, times) in ["neighbour list", "angle build", "collate"].iter().zip(&ms) {
        print!("{name:<18}");
        print_times(times);
        println!();
    }
}

/// Print the ms per structure of each stage of generating train-dp4's
/// 320 labelled structures from `cfg`'s size distribution, the median of
/// [`DATASET_PASSES`] passes after a warm-up: `sane_random_structure` by
/// stage (candidates drawn, screened by separation, and for those that
/// pass the neighbour list and the energy), then `Sample::from_structure`
/// by part. The screen is replayed from its public pieces, and each replay
/// is checked to accept the structure `sane_random_structure` returns.
fn print_dataset_generation(cfg: &DatasetConfig) {
    const STRUCTURES: usize = 320;
    const STAGES: usize = 7;
    let mut passes: [Vec<f64>; STAGES] = Default::default();
    let mut atoms = 0;
    let mut bond_lengths = Vec::new();
    for pass in 0..=DATASET_PASSES {
        let mut ms = [0.0f64; STAGES];
        let mut lap = |stage: usize, t: &mut Instant| {
            let now = Instant::now();
            ms[stage] += (now - *t).as_secs_f64() * 1e3 / STRUCTURES as f64;
            *t = now;
        };
        atoms = 0;
        for i in 0..STRUCTURES {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut t = Instant::now();
            let mut boost = 1.0;
            let mut accepted = None;
            for _attempt in 0..8 {
                let s = random_structure_with_boost(&mut rng, cfg, boost);
                lap(0, &mut t);
                let separated = well_separated(&s);
                lap(1, &mut t);
                if separated {
                    let bonds = neighbor_list(&s, ATOM_CUTOFF);
                    lap(2, &mut t);
                    let e = energy_on(&s, &bonds);
                    lap(3, &mut t);
                    if (e / s.n_atoms() as f64).abs() < MAX_ABS_E_PER_ATOM {
                        accepted = Some(s);
                        break;
                    }
                }
                boost *= 1.35;
            }
            let s = accepted.expect("train-dp4's candidates pass within 8 attempts");
            let bonds = neighbor_list(&s, ATOM_CUTOFF);
            lap(4, &mut t);
            let labels = evaluate_on(&s, &bonds);
            lap(5, &mut t);
            let graph = CrystalGraph::from_bonds(s, bonds, ATOM_CUTOFF, BOND_CUTOFF);
            lap(6, &mut t);
            atoms += graph.n_atoms();
            let screened = sane_random_structure(&mut StdRng::seed_from_u64(i as u64), cfg);
            assert_eq!(graph.structure, screened, "the replayed screen diverged");
            if pass == 0 {
                bond_lengths.extend(graph.bonds.iter().map(|b| b.r));
            }
            drop((labels, graph));
        }
        if pass > 0 {
            for (p, m) in passes.iter_mut().zip(ms) {
                p.push(m);
            }
        }
    }
    println!(
        "\ndataset generation, train-dp4's size distribution: {STRUCTURES} structures, {:.1} \
         atoms each on average, ms per structure (median of {DATASET_PASSES} passes)",
        atoms as f64 / STRUCTURES as f64
    );
    let stages: [&str; STAGES] = [
        "screen: draw",
        "screen: separation",
        "screen: neighbour list",
        "screen: energy_on",
        "from_structure: neighbour list",
        "from_structure: evaluate_on",
        "from_structure: from_bonds",
    ];
    let mut total = 0.0;
    for (name, mut times) in stages.iter().zip(passes) {
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        total += median;
        println!("{name:<32} {median:>8.4}");
    }
    println!("{:<32} {total:>8.4}", "sum");
    print_libm_pairs(&bond_lengths);
}

/// Print the ns per element of this host's libm and of the in-tree ports'
/// lanes on the host's tier (`fc_crystal::math`), for the oracle's
/// calls over the pool's bond lengths `r`: `exp(−r)` and `sin`+`cos` of
/// `πr/r_c`, the median of [`REPS`] timed calls after a warm-up (the two
/// alternate call by call).
fn print_libm_pairs(r: &[f64]) {
    let exp_x: Vec<f64> = r.iter().map(|&r| -r).collect();
    let angle: Vec<f64> = r.iter().map(|&r| std::f64::consts::PI * r / ATOM_CUTOFF).collect();
    let (mut a, mut b) = (vec![0.0; r.len()], vec![0.0; r.len()]);
    let per_element = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e9 / r.len() as f64
    };
    let mut ns = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
    for rep in 0..=REPS {
        let exp = [
            per_element(&mut || a.iter_mut().zip(&exp_x).for_each(|(y, x)| *y = x.exp())),
            per_element(&mut || math::exp_into(Tier::host(), &exp_x, &mut a)),
        ];
        let trig = [
            per_element(&mut || {
                for ((s, c), x) in a.iter_mut().zip(b.iter_mut()).zip(&angle) {
                    (*s, *c) = (x.sin(), x.cos());
                }
            }),
            per_element(&mut || math::sin_cos_into(Tier::host(), &angle, &mut a, &mut b)),
        ];
        std::hint::black_box((&a, &b));
        if rep > 0 {
            for (row, t) in ns.iter_mut().zip([exp, trig]) {
                row[0].push(t[0]);
                row[1].push(t[1]);
            }
        }
    }
    println!(
        "oracle math over the pool's {} bond lengths, ns per element (median of {REPS}): \
         host libm vs in-tree lanes ({:?})",
        r.len(),
        Tier::host()
    );
    for (name, row) in ["exp(-r)", "sin+cos(πr/rc)"].iter().zip(&mut ns) {
        let [libm, lanes] = row.each_mut().map(|t| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        });
        println!("{name:<32} {libm:>8.2} {lanes:>8.2}");
    }
}

/// Print the ms per call of the neighbour search with one bin
/// (`neighbor_list_exact`) and binned (`neighbor_list_cells`) at width 1,
/// the median of [`REPS`] calls after a warm-up (the two alternate call by
/// call), at the atom cutoff on the md cell and on two series of 64 to
/// 4,096 atoms: the generator's first candidate of that size (its density;
/// at these sizes the separation screen rejects nearly every candidate and
/// falls back to one 8× sparser) and supercells of the md cell's crystal (a
/// real crystal's density, several times the bonds per atom).
/// `LINKED_CELL_MIN_ATOMS` is set from where binning starts to win.
fn print_neighbor_crossover(md_cell: &Structure) {
    println!(
        "\nneighbour search by cell size at {ATOM_CUTOFF} Å, width 1, median ms per call of \
         {REPS} (LINKED_CELL_MIN_ATOMS = {LINKED_CELL_MIN_ATOMS})"
    );
    println!("{:<18} {:>8} {:>10} {:>10}", "cell", "bonds", "one bin", "binned");
    let mut cells = vec![("md cell".to_string(), md_cell.clone())];
    for atoms in [64, 128, 256, 512, 1024, 2048, 4096] {
        let cfg = DatasetConfig { min_atoms: atoms, max_atoms: atoms, ..DatasetConfig::default() };
        let s = random_structure_with_boost(&mut StdRng::seed_from_u64(atoms as u64), &cfg, 1.0);
        cells.push((format!("random {atoms}"), s));
    }
    for (a, b, c) in [(2, 2, 1), (2, 2, 2), (4, 2, 2), (4, 4, 2), (4, 4, 4), (8, 4, 4)] {
        let s = known::li9co7o16().supercell(a, b, c);
        cells.push((format!("md {a}x{b}x{c} {}", s.n_atoms()), s));
    }
    let searches = [neighbor_list_exact, neighbor_list_cells];
    par::with_width(1, || {
        for (name, s) in &cells {
            let mut times = searches.map(|_| Vec::with_capacity(REPS));
            let mut bonds = 0;
            for rep in 0..=REPS {
                for (ts, search) in times.iter_mut().zip(searches) {
                    let t = Instant::now();
                    bonds = search(s, ATOM_CUTOFF).len();
                    if rep > 0 {
                        ts.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
            print!("{name:<18} {bonds:>8}");
            for mut ts in times {
                ts.sort_by(f64::total_cmp);
                print!(" {:>10.3}", ts[ts.len() / 2]);
            }
            println!();
        }
    });
}

/// Print this thread's buffer-pool misses of each of [`REPS`] + 1 md
/// force calls, the KiB the pool holds after it, and the process's minor
/// page faults during it (`minflt`, field 10 of `/proc/self/stat`; blank
/// where that file does not exist).
fn print_pool_per_call(calc: &Calculator, structure: &Structure) {
    println!("\nmd force calls (Calculator::evaluate), this thread's buffer pool");
    println!("{:<18} {:>8} {:>10} {:>8}", "call", "misses", "pooled KiB", "minflt");
    let mut before = pool::stats();
    for call in 1..=REPS + 1 {
        let faults = minor_faults();
        calc.evaluate(structure);
        let faults = minor_faults().zip(faults).map_or(String::new(), |(b, a)| (b - a).to_string());
        let after = pool::stats();
        let kib = after.bytes_pooled as f64 / 1024.0;
        println!("{call:<18} {:>8} {kib:>10.1} {faults:>8}", after.misses - before.misses);
        before = after;
    }
}

/// Minor page faults of this process so far: field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name (which
/// may hold spaces).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (_, fields) = stat.rsplit_once(')')?;
    // Field 3 is the first after the name, so field 10 is the 8th.
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// Print, for `n` elements around [`par::SPLIT_WORK`] (whose unit is one
/// `bin.add` output element), the median µs of the `bin.add` kernel at
/// width 1 and of an add loop over the same elements run by
/// `par::for_each_chunk` on this thread alone and split across the helpers
/// at full width: a split pays from the first `n` where the last column
/// drops below the one before it.
fn print_split_break_even() {
    const SPLIT_REPS: usize = 300;
    let width = par::width();
    println!(
        "\nsplit break-even at width {width}, median µs of {SPLIT_REPS} (par::SPLIT_WORK = {})",
        par::SPLIT_WORK
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "elements",
        "bin.add @1",
        "loop @1",
        format!("loop @{width}")
    );
    let median = |mut t: Vec<f64>| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    };
    for shift in 10..=18 {
        let n = 1usize << shift;
        let x = Tensor::from_vec(Shape::new(n, 1), (0..n).map(|i| i as f32).collect());
        let mut out = vec![0.0f32; n];
        let mut times = [(); 3].map(|_| Vec::with_capacity(SPLIT_REPS));
        let tape = Tape::new();
        for rep in 0..=SPLIT_REPS {
            let (a, b) = (tape.constant(x.pooled_copy()), tape.constant(x.pooled_copy()));
            let t = Instant::now();
            par::with_width(1, || tape.add(a, b));
            let add = t.elapsed();
            tape.reset(); // the buffers serve the next rep
            let xs = x.data();
            let loops = [0, usize::MAX].map(|work| {
                let t = Instant::now();
                par::for_each_chunk(&mut out, work, |rows, part| {
                    for ((y, &p), &q) in part.iter_mut().zip(&xs[rows.clone()]).zip(&xs[rows]) {
                        *y = p + q;
                    }
                });
                t.elapsed()
            });
            if rep > 0 {
                for (ts, d) in times.iter_mut().zip([add, loops[0], loops[1]]) {
                    ts.push(d.as_secs_f64() * 1e6);
                }
            }
        }
        print!("{n:<18}");
        for ts in times {
            print!(" {:>10.2}", median(ts));
        }
        println!();
    }
}

/// One row's times, then each later time's speedup over the first.
fn print_times(times: &[f64]) {
    for t in times {
        print!(" {t:>10.3}");
    }
    for t in &times[1..] {
        print!(" {:>7.2}x", times[0] / t.max(1e-9));
    }
}

/// One op row's times and speedups ([`print_times`]), then its `mflop`
/// over the first time: GFLOP/s, since MFLOP per ms is GFLOP/s.
fn print_op_times(times: &[f64], mflop: f64) {
    print_times(times);
    println!(" {:>9.2}", mflop / times[0].max(1e-9));
}

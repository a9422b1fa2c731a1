//! The `fastchgnet` command-line tool: generate data, train a potential,
//! predict, relax and run MD from the shell.
//!
//! ```text
//! fastchgnet generate --n 64 --out data/          # SynthMPtrj POSCARs + labels
//! fastchgnet train --n 128 --epochs 8 --devices 4 --out model.ckpt
//! fastchgnet predict --model model.ckpt POSCAR
//! fastchgnet relax POSCAR
//! fastchgnet md POSCAR --steps 50 --temp 300
//! ```
//!
//! Argument parsing is deliberately dependency-free (flag = `--key value`).

use fastchgnet::crystal::{from_poscar, to_poscar};
use fastchgnet::md::{relax, FireConfig, OracleField};
use fastchgnet::prelude::*;
use fastchgnet::train::{load_checkpoint, save_checkpoint};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (flags, positional) = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "predict" => cmd_predict(&flags, &positional),
        "relax" => cmd_relax(&flags, &positional),
        "md" => cmd_md(&flags, &positional),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "fastchgnet — universal interatomic potential toolkit

USAGE:
  fastchgnet generate [--n 64] [--max-atoms 12] [--seed 1] [--out data/]
  fastchgnet train    [--n 128] [--epochs 8] [--batch 16] [--devices 1]
                      [--variant fast|nohead|reference] [--seed 7]
                      [--out model.ckpt]
  fastchgnet predict  --model model.ckpt [--variant fast] POSCAR
  fastchgnet relax    [--steps 150] [--ftol 0.05] POSCAR   (oracle PES)
  fastchgnet md       [--steps 50] [--temp 300] [--dt 1.0] POSCAR (oracle PES)";

fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = it.next().cloned().unwrap_or_default();
            flags.insert(key.to_string(), value);
        } else {
            positional.push(a.clone());
        }
    }
    (flags, positional)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value '{v}' for --{key}")),
    }
}

fn variant_of(flags: &HashMap<String, String>) -> Result<ModelVariant, String> {
    match flags.get("variant").map(String::as_str).unwrap_or("fast") {
        "fast" => Ok(ModelVariant::FastHead),
        "nohead" => Ok(ModelVariant::FastNoHead),
        "reference" => Ok(ModelVariant::Reference),
        other => Err(format!("unknown variant '{other}' (fast | nohead | reference)")),
    }
}

fn small_config(variant: ModelVariant) -> ModelConfig {
    // CPU-friendly width; the full paper config is ModelConfig::for_variant.
    ModelConfig {
        fea: 16,
        n_rbf: 16,
        n_harmonics: 8,
        n_blocks: 2,
        ..ModelConfig::for_variant(variant)
    }
}

fn dataset_from_flags(flags: &HashMap<String, String>) -> Result<SynthMPtrj, String> {
    let n = flag(flags, "n", 64usize)?;
    let max_atoms = flag(flags, "max-atoms", 12usize)?;
    let seed = flag(flags, "seed", 1u64)?;
    Ok(SynthMPtrj::generate(&DatasetConfig {
        n_structures: n,
        max_atoms,
        seed,
        ..Default::default()
    }))
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = PathBuf::from(flags.get("out").cloned().unwrap_or_else(|| "data".into()));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let data = dataset_from_flags(flags)?;
    let mut labels = String::from("index\tformula\tatoms\tenergy_eV\te_per_atom\tmax_force\n");
    for (i, s) in data.samples.iter().enumerate() {
        let st = &s.graph.structure;
        std::fs::write(
            out.join(format!("POSCAR-{i:05}")),
            to_poscar(st, &format!("SynthMPtrj #{i} {}", st.formula())),
        )
        .map_err(|e| e.to_string())?;
        let max_f = s.labels.forces.iter().flatten().fold(0.0f64, |m, &x| m.max(x.abs()));
        labels.push_str(&format!(
            "{i}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\n",
            st.formula(),
            st.n_atoms(),
            s.labels.energy,
            s.labels.energy_per_atom(),
            max_f
        ));
    }
    std::fs::write(out.join("labels.tsv"), labels).map_err(|e| e.to_string())?;
    println!("wrote {} structures + labels.tsv to {}", data.samples.len(), out.display());
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let data = dataset_from_flags(flags)?;
    let variant = variant_of(flags)?;
    let epochs = flag(flags, "epochs", 8usize)?;
    let batch = flag(flags, "batch", 16usize)?;
    let devices = flag(flags, "devices", 1usize)?;
    let seed = flag(flags, "seed", 7u64)?;
    let out = flags.get("out").cloned().unwrap_or_else(|| "model.ckpt".into());

    let cfg = TrainConfig {
        model: small_config(variant),
        seed,
        epochs,
        global_batch: batch,
        cluster: ClusterConfig {
            n_devices: devices,
            sampler: SamplerKind::LoadBalance,
            ..Default::default()
        },
        lr: LrPolicy::Fixed(2e-3 * batch as f32 / 16.0),
    };
    println!(
        "training {} for {epochs} epochs (batch {batch}, {devices} simulated GPU(s)) ...",
        variant.label()
    );
    let (cluster, report) = fastchgnet::train::train_model(&data, &cfg);
    print!("{}", report.to_tsv());
    println!("test: {}", report.test.summary());
    // Persist the AtomRef composition model alongside the weights as a
    // reserved pseudo-parameter row.
    let mut to_save = cluster.store.clone();
    if let Some(ar) = cluster.model.atom_ref() {
        let e0: Vec<f32> = ar.e0.iter().map(|&x| x as f32).collect();
        to_save.add(ATOM_REF_KEY, Tensor::row_vec(&e0));
    }
    save_checkpoint(&to_save, &out).map_err(|e| e.to_string())?;
    println!("checkpoint saved to {out}");
    Ok(())
}

/// Reserved checkpoint entry carrying the AtomRef reference energies.
const ATOM_REF_KEY: &str = "__atom_ref.e0";

fn load_structure(positional: &[String]) -> Result<Structure, String> {
    let path = positional.first().ok_or("missing POSCAR path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_poscar(&text)
}

fn cmd_predict(flags: &HashMap<String, String>, positional: &[String]) -> Result<(), String> {
    let structure = load_structure(positional)?;
    let variant = variant_of(flags)?;
    let model_path = flags.get("model").ok_or("missing --model checkpoint")?;
    let loaded = load_checkpoint(model_path).map_err(|e| e.to_string())?;
    // Split off the AtomRef pseudo-parameter, keep the weight rows.
    let mut store = ParamStore::new();
    let mut atom_ref = None;
    for (_, entry) in loaded.iter() {
        if entry.name == ATOM_REF_KEY {
            atom_ref = Some(fastchgnet::core::AtomRef {
                e0: entry.value.data().iter().map(|&x| x as f64).collect(),
            });
        } else {
            store.add(entry.name.clone(), entry.value.clone());
        }
    }
    // Rebuild the architecture and borrow the loaded weights.
    let mut scratch = ParamStore::new();
    let mut model = Chgnet::new(small_config(variant), &mut scratch, 0);
    if let Some(ar) = atom_ref {
        model.set_atom_ref(ar);
    }
    if scratch.n_scalars() != store.n_scalars() {
        return Err(format!(
            "checkpoint layout mismatch: {} vs expected {} scalars (wrong --variant?)",
            store.n_scalars(),
            scratch.n_scalars()
        ));
    }
    let calc = Calculator::new(&model, &store);
    let r = calc.evaluate(&structure);
    println!("structure: {} ({} atoms)", structure.formula(), structure.n_atoms());
    println!("energy: {:.6} eV ({:.6} eV/atom)", r.energy, r.energy / structure.n_atoms() as f64);
    println!("forces (eV/Å):");
    for (i, f) in r.forces.iter().enumerate() {
        println!("  {i:>3} {:>10.5} {:>10.5} {:>10.5}", f[0], f[1], f[2]);
    }
    println!(
        "stress (GPa): diag [{:.4}, {:.4}, {:.4}]",
        r.stress[0][0], r.stress[1][1], r.stress[2][2]
    );
    println!(
        "magmoms (μ_B): {:?}",
        r.magmoms.iter().map(|m| (m * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    Ok(())
}

fn cmd_relax(flags: &HashMap<String, String>, positional: &[String]) -> Result<(), String> {
    let structure = load_structure(positional)?;
    let steps = flag(flags, "steps", 150usize)?;
    let f_tol = flag(flags, "ftol", 0.05f64)?;
    let result = relax(&OracleField, &structure, &FireConfig { max_steps: steps, f_tol });
    println!(
        "FIRE: {} steps, converged = {}, E {:.6} -> {:.6} eV, max|F| {:.4} eV/Å",
        result.steps,
        result.converged,
        result.energies[0],
        result.energies.last().unwrap(),
        result.max_force
    );
    print!("{}", to_poscar(&result.structure, "relaxed by fastchgnet"));
    Ok(())
}

fn cmd_md(flags: &HashMap<String, String>, positional: &[String]) -> Result<(), String> {
    let structure = load_structure(positional)?;
    let steps = flag(flags, "steps", 50usize)?;
    let temp = flag(flags, "temp", 300.0f64)?;
    let dt = flag(flags, "dt", 1.0f64)?;
    let traj = run_md(
        &OracleField,
        &structure,
        &MdConfig {
            dt_fs: dt,
            steps,
            ensemble: Ensemble::Nvt { t_kelvin: temp, gamma: 0.02 },
            init_t_kelvin: temp,
            seed: 0,
            log_every: (steps / 10).max(1),
        },
    );
    println!("step | E_pot (eV) | T (K) | max|F|");
    for f in &traj.frames {
        println!(
            "{:>5} | {:>10.4} | {:>6.1} | {:>8.4}",
            f.step, f.potential, f.temperature, f.max_force
        );
    }
    // In ms to the nanosecond: an oracle step on a small cell takes a few
    // microseconds.
    println!("mean step time: {:.6} ms", traj.mean_step_time * 1e3);
    Ok(())
}

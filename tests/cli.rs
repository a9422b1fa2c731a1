//! The `fastchgnet` command-line tool end to end on tiny sizes: `generate`
//! writes POSCARs that parse back, `train` writes a checkpoint that loads,
//! `predict` reads both, and `relax` and `md` run on a generated cell.
//! Every command must exit 0.

use fastchgnet::crystal::from_poscar;
use std::path::Path;
use std::process::{Command, Output};

/// Run `fastchgnet args…` in `dir`, asserting that it exits 0, and return
/// its standard output.
fn run(dir: &Path, args: &[&str]) -> String {
    let Output { status, stdout, stderr } = Command::new(env!("CARGO_BIN_EXE_fastchgnet"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run fastchgnet");
    let (stdout, stderr) = (String::from_utf8_lossy(&stdout), String::from_utf8_lossy(&stderr));
    assert!(status.success(), "fastchgnet {args:?}: {status}\n{stdout}\n{stderr}");
    stdout.into_owned()
}

#[test]
fn generate_train_predict_relax_md() {
    let dir = std::env::temp_dir().join(format!("fastchgnet_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    run(&dir, &["generate", "--n", "6", "--max-atoms", "4", "--seed", "3", "--out", "data"]);
    let poscars: Vec<_> = (0..6).map(|i| dir.join(format!("data/POSCAR-{i:05}"))).collect();
    let generated: Vec<_> = poscars
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("a written POSCAR");
            from_poscar(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect();
    for (path, s) in poscars.iter().zip(&generated) {
        assert!((1..=4).contains(&s.n_atoms()), "{}: {} atoms", path.display(), s.n_atoms());
    }
    let labels = std::fs::read_to_string(dir.join("data/labels.tsv")).expect("labels.tsv");
    assert_eq!(labels.lines().count(), 7, "a header and one line per structure");

    let args = ["train", "--n", "8", "--max-atoms", "4", "--epochs", "1", "--batch", "4"];
    run(&dir, &[&args[..], &["--devices", "2", "--out", "model.ckpt"]].concat());
    let ckpt = fastchgnet::train::load_checkpoint(dir.join("model.ckpt")).expect("the checkpoint");
    assert!(ckpt.n_scalars() > 0, "the checkpoint holds parameters");

    let poscar = poscars[0].to_str().unwrap();
    let predicted = run(&dir, &["predict", "--model", "model.ckpt", poscar]);
    assert!(predicted.contains("energy:"), "{predicted}");

    let relaxed = run(&dir, &["relax", "--steps", "5", poscar]);
    let (head, poscar_out) = relaxed.split_once('\n').expect("a header line, then the POSCAR");
    assert!(head.starts_with("FIRE: "), "{head}");
    let s = from_poscar(poscar_out).unwrap_or_else(|e| panic!("relaxed POSCAR: {e}"));
    assert_eq!(s.n_atoms(), generated[0].n_atoms());

    let md = run(&dir, &["md", "--steps", "5", "--temp", "100", poscar]);
    let step_ms: f64 = md
        .lines()
        .find_map(|l| l.strip_prefix("mean step time: ")?.strip_suffix(" ms"))
        .and_then(|ms| ms.parse().ok())
        .unwrap_or_else(|| panic!("no parsable mean step time in: {md}"));
    assert!(step_ms > 0.0, "{md}");

    std::fs::remove_dir_all(&dir).ok();
}

//! # fc_bench — harness shared by the paper's table and figure runner
//!
//! The `figures` binary regenerates one table or figure of the paper per
//! call (`figures <name>`, see DESIGN.md's experiment index). This library
//! holds the shared scaffolding: scaled-down-but-faithful experiment sizes
//! for a CPU host, the one scaling projection the multi-GPU figures share
//! ([`Scale::projection`]), the one timing method the timed figures share
//! ([`Rounds`]) and plain-text table rendering.
//!
//! The timed figures (Fig. 8, Table II, the headline's single-device
//! stages) time the program's own loops, `Cluster::train_step` and
//! `run_md`, in [`ROUNDS`] interleaved rounds: each round times every side
//! of the comparison once, in turn, so a slow phase of the host lands on
//! all sides alike. A side's time is the median of its rounds, and a
//! speedup is the median of the per-round ratios.
//!
//! The projection is counted work, not host time: `ScalingModel::calibrate`
//! charges each op kind of a few one-device steps `count·L +
//! max(flops/P, bytes/B)`, with the A100's FP32 peak `P` (19.5 TFLOP/s),
//! its HBM bandwidth `B` (1.555 TB/s) and an assumed 5 µs launch floor `L`
//! (`fc_train::allreduce`), so every host prints the same projection.
//!
//! Scale selection: set `FASTCHGNET_SCALE=full` for larger runs; the
//! default `quick` keeps every figure in the minutes range on one core.

use fc_core::{ModelConfig, ModelVariant, OptLevel};
use fc_crystal::{DatasetConfig, SynthMPtrj};
use fc_train::{LrPolicy, ScalingModel, TrainConfig};

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Structures in the synthetic dataset.
    pub n_structures: usize,
    /// Maximum atoms per cell.
    pub max_atoms: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Global batch size for accuracy experiments.
    pub global_batch: usize,
    /// "Large" batch for the Fig. 6 LR experiment.
    pub large_batch: usize,
    /// Feature width of the benchmark models.
    pub fea: usize,
    /// Interaction blocks.
    pub n_blocks: usize,
    /// Base learning rate for `global_batch` — the Eq. 14 reference point
    /// re-anchored to this dataset scale (the paper's k=128 @ 3e-4 is
    /// calibrated for 1.42M training structures; see EXPERIMENTS.md).
    pub base_lr: f32,
    /// Human-readable label.
    pub label: &'static str,
}

impl Scale {
    /// Read the scale from `FASTCHGNET_SCALE`: unset or `quick`, or `full`.
    /// Any other value is an error rather than a silent quick run.
    pub fn from_env() -> Result<Scale, String> {
        match std::env::var("FASTCHGNET_SCALE").as_deref() {
            Err(std::env::VarError::NotPresent) | Ok("quick") => Ok(Scale::quick()),
            Ok("full") => Ok(Scale::full()),
            Ok(other) => Err(format!("FASTCHGNET_SCALE={other:?}: expected `quick` or `full`")),
            Err(_) => Err("FASTCHGNET_SCALE is not UTF-8: expected `quick` or `full`".into()),
        }
    }

    /// Minutes-scale settings for a single-core host.
    pub fn quick() -> Scale {
        Scale {
            n_structures: 320,
            max_atoms: 12,
            epochs: 24,
            global_batch: 16,
            large_batch: 64,
            fea: 16,
            n_blocks: 2,
            base_lr: 2e-3,
            label: "quick",
        }
    }

    /// Larger settings (still far below the paper's 1.58M structures —
    /// see DESIGN.md's substitution notes).
    pub fn full() -> Scale {
        Scale {
            n_structures: 1200,
            max_atoms: 24,
            epochs: 30,
            global_batch: 32,
            large_batch: 256,
            fea: 32,
            n_blocks: 3,
            base_lr: 1.5e-3,
            label: "full",
        }
    }

    /// Eq. 14 re-anchored: `init_LR = batch / global_batch × base_lr`.
    pub fn scaled_lr(&self, batch: usize) -> f32 {
        batch as f32 / self.global_batch as f32 * self.base_lr
    }

    /// The benchmark model configuration at an optimization level.
    pub fn model(&self, level: OptLevel) -> ModelConfig {
        ModelConfig {
            fea: self.fea,
            n_rbf: 16,
            n_harmonics: 8,
            n_blocks: self.n_blocks,
            ..ModelConfig::with_level(level)
        }
    }

    /// The accuracy experiments' training run for one model variant
    /// (Table I, Fig. 7; Fig. 6 starts from it): seed 7, the scale's epochs
    /// and global batch, fixed LR `base_lr`.
    pub fn train_config(&self, variant: ModelVariant) -> TrainConfig {
        TrainConfig {
            model: self.model(variant.opt_level()),
            seed: 7,
            epochs: self.epochs,
            global_batch: self.global_batch,
            lr: LrPolicy::Fixed(self.base_lr),
            ..Default::default()
        }
    }

    /// The benchmark dataset configuration.
    pub fn dataset_cfg(&self) -> DatasetConfig {
        DatasetConfig {
            n_structures: self.n_structures,
            max_atoms: self.max_atoms,
            ..Default::default()
        }
    }

    /// Generate (deterministically) the benchmark dataset.
    pub fn dataset(&self) -> SynthMPtrj {
        SynthMPtrj::generate(&self.dataset_cfg())
    }

    /// The projected workload of every scaling figure (fig10, ablation,
    /// headline): the Decoupled benchmark model calibrated on `data`, and
    /// `data`'s mean features per sample.
    pub fn projection(&self, data: &SynthMPtrj) -> (ScalingModel, f64) {
        let samples: Vec<_> = data.samples.iter().collect();
        let features: usize = samples.iter().map(|s| s.graph.feature_number()).sum();
        let model = ScalingModel::calibrate(self.model(OptLevel::Decoupled), &samples);
        (model, features as f64 / samples.len() as f64)
    }

    /// A wider, more MPtrj-like dataset for the *distribution* experiments
    /// (Fig. 5 histograms, Fig. 9 load balance): no training happens on
    /// it, so the long tail can extend to large cells cheaply.
    pub fn wide_dataset(&self) -> SynthMPtrj {
        SynthMPtrj::generate(&DatasetConfig {
            n_structures: if self.label == "full" { 1500 } else { 512 },
            max_atoms: 48,
            log_mean: 2.5,
            log_std: 0.85,
            ..Default::default()
        })
    }
}

/// Timed rounds of every timed figure (crate docs).
pub const ROUNDS: usize = 31;

/// Median of `xs` (the mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Seconds per side and round of an interleaved timing (crate docs).
pub struct Rounds {
    /// `secs[side][round]`.
    secs: Vec<Vec<f64>>,
}

impl Rounds {
    /// Run [`ROUNDS`] rounds; each calls `time(side)` for side `0..sides`
    /// in turn, which returns that side's seconds.
    pub fn run(sides: usize, mut time: impl FnMut(usize) -> f64) -> Rounds {
        let mut secs = vec![Vec::with_capacity(ROUNDS); sides];
        for _ in 0..ROUNDS {
            for (side, s) in secs.iter_mut().enumerate() {
                s.push(time(side));
            }
        }
        Rounds { secs }
    }

    /// Median seconds of `side`.
    pub fn median(&self, side: usize) -> f64 {
        median(&self.secs[side])
    }

    /// Median over rounds of `num`'s seconds over `den`'s: the speedup of
    /// `den` over `num`.
    pub fn ratio(&self, num: usize, den: usize) -> f64 {
        let r: Vec<f64> = self.secs[num].iter().zip(&self.secs[den]).map(|(n, d)| n / d).collect();
        median(&r)
    }
}

/// Render an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> =
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push_str(&format!(
        "|{}|\n",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Render TSV text (a header line, then one line per row) as an aligned
/// table, for figures whose console view is their TSV.
pub fn tsv_table(tsv: &str) -> String {
    let mut lines = tsv.lines().map(|l| l.split('\t').map(String::from).collect::<Vec<_>>());
    let headers = lines.next().unwrap_or_default();
    render_table(
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        &lines.collect::<Vec<_>>(),
    )
}

/// Render a crude ASCII bar chart (for the figures' console output).
pub fn ascii_bars(labels: &[String], values: &[f64], width: usize) -> String {
    assert_eq!(labels.len(), values.len());
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-12);
    let lw = labels.iter().map(String::len).max().unwrap_or(0);
    let mut out = String::new();
    for (l, &v) in labels.iter().zip(values) {
        let n = ((v / max) * width as f64).round() as usize;
        out.push_str(&format!("{l:<lw$} | {} {v:.4}\n", "#".repeat(n), lw = lw));
    }
    out
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} min", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_default_is_quick() {
        let s = Scale::from_env().unwrap();
        assert!(s.n_structures >= 100);
    }

    #[test]
    fn model_config_respects_scale() {
        let s = Scale::quick();
        let m = s.model(OptLevel::Decoupled);
        assert_eq!(m.fea, s.fea);
        assert_eq!(m.opt_level, OptLevel::Decoupled);
    }

    #[test]
    fn train_config_follows_the_variant() {
        let s = Scale::quick();
        let cfg = s.train_config(ModelVariant::FastNoHead);
        assert_eq!(cfg.model.opt_level, OptLevel::Fusion);
        assert_eq!((cfg.seed, cfg.epochs, cfg.global_batch), (7, s.epochs, s.global_batch));
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rounds_interleave_sides_and_take_medians() {
        // Side `s` of round `r` takes (s + 1)·(r + 1) seconds, so side 1
        // is always twice side 0 and side 2 three times.
        let mut calls = Vec::new();
        let rounds = Rounds::run(3, |side| {
            let round = calls.len() / 3;
            calls.push(side);
            ((side + 1) * (round + 1)) as f64
        });
        assert_eq!(calls, [0, 1, 2].repeat(ROUNDS), "every round runs side 0..3 in turn");
        let mid = (ROUNDS / 2 + 1) as f64; // ROUNDS is odd
        assert_eq!(rounds.median(0), mid);
        assert_eq!(rounds.median(2), 3.0 * mid);
        assert_eq!(rounds.ratio(1, 0), 2.0);
        assert_eq!(rounds.ratio(0, 2), 1.0 / 3.0);
    }

    #[test]
    fn ratio_is_the_median_of_per_round_ratios() {
        // Rounds cycle through per-round ratios 5, 2 and 1: their median is
        // 2, while the ratio of the side medians (3 s over 2 s) is 1.5.
        let times = [[10.0, 2.0], [1.0, 0.5], [3.0, 3.0]];
        let mut n = 0;
        let rounds = Rounds::run(2, |side| {
            let t = times[n / 2 % times.len()][side];
            n += 1;
            t
        });
        assert_eq!((rounds.median(0), rounds.median(1)), (3.0, 2.0));
        assert_eq!(rounds.ratio(0, 1), 2.0);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["model", "mae"],
            &[vec!["CHGNet".into(), "29".into()], vec!["FastCHGNet".into(), "16".into()]],
        );
        assert!(t.contains("| model"));
        assert!(t.lines().count() == 4);
        let lens: Vec<usize> = t.lines().map(str::len).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn tsv_table_renders_header_and_rows() {
        let t = tsv_table("mode\tdevices\teff\nstrong\t4\t1.000\nweak\t32\t\n");
        assert_eq!(
            t,
            render_table(
                &["mode", "devices", "eff"],
                &[
                    vec!["strong".into(), "4".into(), "1.000".into()],
                    vec!["weak".into(), "32".into(), "".into()],
                ]
            )
        );
    }

    #[test]
    fn ascii_bars_scale_to_width() {
        let b = ascii_bars(&["a".into(), "b".into()], &[1.0, 2.0], 10);
        assert!(b.contains("##########"));
        assert!(b.lines().count() == 2);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(5e-6).contains("µs"));
        assert!(fmt_secs(5e-2).contains("ms"));
        assert!(fmt_secs(5.0).contains("s"));
        assert!(fmt_secs(500.0).contains("min"));
    }
}

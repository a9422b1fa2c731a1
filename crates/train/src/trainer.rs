//! The end-to-end training loop (paper §IV): Adam + cosine annealing +
//! Eq. 14 LR scaling over the simulated data-parallel cluster.

use crate::cluster::{Cluster, ClusterConfig};
use crate::dataloader::epoch_batches;
use crate::metrics::{evaluate, EvalMetrics};
use crate::sched::{scaled_init_lr, CosineAnnealing};
use fc_core::ModelConfig;
use fc_crystal::{Sample, SynthMPtrj};
use std::time::Instant;

/// Mini-batch size of validation and test evaluation.
const EVAL_BATCH: usize = 8;

/// Learning-rate policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrPolicy {
    /// A fixed initial LR (cosine-annealed).
    Fixed(f32),
    /// Eq. 14: `batch / 128 × 0.0003` (cosine-annealed).
    Scaled,
}

impl LrPolicy {
    /// Resolve the initial learning rate for a global batch size.
    pub fn initial_lr(self, global_batch: usize) -> f32 {
        match self {
            LrPolicy::Fixed(lr) => lr,
            LrPolicy::Scaled => scaled_init_lr(global_batch),
        }
    }
}

/// Full training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Model architecture + optimization level.
    pub model: ModelConfig,
    /// Weight-init / shuffling seed.
    pub seed: u64,
    /// Epochs (paper: 30).
    pub epochs: usize,
    /// Global batch size (paper: 128 default; 2048 large-batch runs).
    pub global_batch: usize,
    /// Cluster layout.
    pub cluster: ClusterConfig,
    /// LR policy.
    pub lr: LrPolicy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            model: ModelConfig::default(),
            seed: 0,
            epochs: 10,
            global_batch: 16,
            cluster: ClusterConfig::default(),
            lr: LrPolicy::Scaled,
        }
    }
}

/// Per-epoch log entry.
#[derive(Clone, Debug)]
pub struct EpochLog {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss across the epoch's applied steps (NaN when every
    /// step was skipped).
    pub train_loss: f64,
    /// Steps whose loss or gradient was not finite, which changed no
    /// parameter ([`crate::cluster::StepStats::skipped`]).
    pub skipped_steps: usize,
    /// LR at the start of the epoch.
    pub lr: f32,
    /// Validation metrics.
    pub val: EvalMetrics,
    /// Host wall-clock spent (seconds).
    pub wall_time: f64,
}

/// Complete training report.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Per-epoch logs.
    pub epochs: Vec<EpochLog>,
    /// Final test-split metrics.
    pub test: EvalMetrics,
    /// Trainable scalar count.
    pub n_params: usize,
    /// Skipped steps over every epoch.
    pub skipped_steps: usize,
    /// Train samples whose energy label is not finite, which the AtomRef
    /// fit left out (their steps are skipped all the same).
    pub left_out_labels: usize,
}

impl TrainReport {
    /// Build a structured, schema-versioned [`fc_telemetry::RunReport`]
    /// for this run: per-epoch rows, end-of-run test metrics, and the
    /// global telemetry snapshot (spans, bridged profiler counters,
    /// cluster gauges) captured at call time. Write it with
    /// [`fc_telemetry::RunReport::write_jsonl`].
    pub fn run_report(
        &self,
        name: impl Into<String>,
        cfg: &TrainConfig,
    ) -> fc_telemetry::RunReport {
        use fc_telemetry::Value;
        let mut report = fc_telemetry::RunReport::new(name, cfg.seed);
        report
            .set_meta("epochs", cfg.epochs)
            .set_meta("global_batch", cfg.global_batch)
            .set_meta("n_devices", cfg.cluster.n_devices)
            .set_meta("n_params", self.n_params)
            .set_meta("skipped_steps", self.skipped_steps)
            .set_meta("left_out_labels", self.left_out_labels)
            .set_meta("test_e_mae", self.test.e_mae)
            .set_meta("test_f_mae", self.test.f_mae)
            .set_meta("test_s_mae", self.test.s_mae)
            .set_meta("test_m_mae", self.test.m_mae);
        for l in &self.epochs {
            let mut row = std::collections::BTreeMap::new();
            row.insert("epoch".to_string(), Value::from(l.epoch));
            row.insert("train_loss".to_string(), Value::from(l.train_loss));
            row.insert("skipped_steps".to_string(), Value::from(l.skipped_steps));
            row.insert("lr".to_string(), Value::from(l.lr as f64));
            row.insert("e_mae".to_string(), Value::from(l.val.e_mae));
            row.insert("f_mae".to_string(), Value::from(l.val.f_mae));
            row.insert("s_mae".to_string(), Value::from(l.val.s_mae));
            row.insert("m_mae".to_string(), Value::from(l.val.m_mae));
            row.insert("wall_time_s".to_string(), Value::from(l.wall_time));
            report.push_epoch(row);
        }
        report
    }

    /// Render the report as a TSV table (one row per epoch).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "epoch\ttrain_loss\tlr\te_mae_meV\tf_mae_meV\ts_mae_GPa\tm_mae_mmuB\twall_time_s\n",
        );
        for l in &self.epochs {
            out.push_str(&format!(
                "{}\t{:.6}\t{:.6}\t{:.2}\t{:.2}\t{:.4}\t{:.2}\t{:.3}\n",
                l.epoch,
                l.train_loss,
                l.lr,
                l.val.e_mae * 1e3,
                l.val.f_mae * 1e3,
                l.val.s_mae,
                l.val.m_mae * 1e3,
                l.wall_time
            ));
        }
        out
    }
}

/// Train a model on the dataset's train split, validating each epoch and
/// testing at the end. Returns the trained cluster and the report.
pub fn train_model(data: &SynthMPtrj, cfg: &TrainConfig) -> (Cluster, TrainReport) {
    let train: Vec<&Sample> = data.train_samples();
    let val: Vec<&Sample> = data.val_samples();
    let test: Vec<&Sample> = data.test_samples();
    assert!(!train.is_empty(), "empty training split");

    let lr0 = cfg.lr.initial_lr(cfg.global_batch);
    let mut cluster = Cluster::new(cfg.model, cfg.seed, cfg.cluster, lr0);
    // CHGNet's AtomRef composition model, fitted on the train split: the
    // GNN then fits the residual energy.
    let (atom_ref, left_out_labels) = fc_core::AtomRef::fit(&train, 1e-6);
    cluster.model.set_atom_ref(atom_ref);
    let n_params = cluster.store.n_scalars();

    let steps_per_epoch = train.len().div_ceil(cfg.global_batch);
    let sched = CosineAnnealing::new(lr0, (cfg.epochs * steps_per_epoch).max(1));

    let mut logs = Vec::with_capacity(cfg.epochs);
    let mut global_step = 0usize;
    for epoch in 0..cfg.epochs {
        let _epoch_span = fc_telemetry::span("epoch");
        let start = Instant::now();
        let batches = epoch_batches(train.len(), cfg.global_batch, cfg.seed ^ (epoch as u64));
        let mut loss_acc = 0.0;
        let (mut steps, mut skipped_steps) = (0usize, 0usize);
        let epoch_lr = sched.lr_at(global_step);
        for idxs in batches {
            cluster.set_lr(sched.lr_at(global_step));
            let batch: Vec<&Sample> = idxs.iter().map(|&i| train[i]).collect();
            let stats = cluster.train_step(&batch);
            if stats.skipped {
                skipped_steps += 1;
            } else {
                loss_acc += stats.loss;
                steps += 1;
            }
            global_step += 1;
        }
        let val_metrics = if val.is_empty() {
            EvalMetrics::default()
        } else {
            let _eval = fc_telemetry::span("evaluate");
            evaluate(&cluster.model, &cluster.store, &val, EVAL_BATCH)
        };
        let train_loss = if steps == 0 { f64::NAN } else { loss_acc / steps as f64 };
        fc_telemetry::counter_inc("train.epochs");
        fc_telemetry::gauge_set("train.loss", train_loss);
        logs.push(EpochLog {
            epoch,
            train_loss,
            skipped_steps,
            lr: epoch_lr,
            val: val_metrics,
            wall_time: start.elapsed().as_secs_f64(),
        });
    }

    let test_metrics = if test.is_empty() {
        EvalMetrics::default()
    } else {
        evaluate(&cluster.model, &cluster.store, &test, EVAL_BATCH)
    };
    let skipped_steps = logs.iter().map(|l| l.skipped_steps).sum();
    let report =
        TrainReport { epochs: logs, test: test_metrics, n_params, skipped_steps, left_out_labels };
    (cluster, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::OptLevel;
    use fc_crystal::DatasetConfig;

    fn tiny_dataset() -> SynthMPtrj {
        SynthMPtrj::generate(&DatasetConfig {
            n_structures: 30,
            max_atoms: 8,
            ..Default::default()
        })
    }

    #[test]
    fn training_improves_validation_mae() {
        let data = tiny_dataset();
        let cfg = TrainConfig {
            model: ModelConfig::tiny(OptLevel::Decoupled),
            epochs: 8,
            global_batch: 8,
            lr: LrPolicy::Fixed(1e-2),
            ..Default::default()
        };
        let (_, report) = train_model(&data, &cfg);
        assert_eq!(report.epochs.len(), 8);
        // A unit-test-sized run must at least optimise its own objective;
        // validation-side improvement is exercised at benchmark scale
        // (table1 / fig6 binaries). Per-epoch means are noisy (batch
        // composition), so compare two-epoch averages.
        let first = (report.epochs[0].train_loss + report.epochs[1].train_loss) / 2.0;
        let last = (report.epochs[6].train_loss + report.epochs[7].train_loss) / 2.0;
        assert!(last < first, "train loss did not improve: {first} -> {last}");
        // Validation metrics stay finite and within sane magnitudes.
        let final_val = report.epochs.last().unwrap().val;
        assert!(final_val.e_mae.is_finite() && final_val.e_mae < 100.0);
        assert!(report.n_params > 0);
    }

    #[test]
    fn lr_policies_resolve() {
        assert_eq!(LrPolicy::Fixed(1e-3).initial_lr(999), 1e-3);
        assert!(LrPolicy::Scaled.initial_lr(2048) > LrPolicy::Scaled.initial_lr(128));
    }

    fn synthetic_report(n_epochs: usize) -> TrainReport {
        let epochs = (0..n_epochs)
            .map(|epoch| EpochLog {
                epoch,
                train_loss: 1.0 / (epoch + 1) as f64,
                skipped_steps: 0,
                lr: 1e-3,
                val: EvalMetrics::default(),
                wall_time: 0.1,
            })
            .collect();
        TrainReport {
            epochs,
            test: EvalMetrics::default(),
            n_params: 42,
            skipped_steps: 0,
            left_out_labels: 0,
        }
    }

    #[test]
    fn tsv_header_column_count_matches_every_row() {
        // The fig binaries parse this format; a header/row drift would
        // silently corrupt their tables.
        let tsv = synthetic_report(3).to_tsv();
        let mut lines = tsv.lines();
        let ncols = lines.next().expect("header").split('\t').count();
        assert_eq!(ncols, 8);
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split('\t').count(), ncols, "ragged row: {line:?}");
            rows += 1;
        }
        assert_eq!(rows, 3);
    }

    #[test]
    fn run_report_carries_epochs_and_meta() {
        let report = synthetic_report(2);
        let cfg = TrainConfig { epochs: 2, seed: 11, ..Default::default() };
        let run = report.run_report("unit", &cfg);
        assert_eq!(run.seed, 11);
        assert_eq!(run.schema_version, fc_telemetry::SCHEMA_VERSION);
        assert_eq!(run.epochs.len(), 2);
        assert_eq!(run.meta["n_params"], fc_telemetry::Value::from(42usize));
        // Every epoch row serializes cleanly into the JSONL stream.
        let jsonl = fc_telemetry::render_jsonl(&run);
        assert_eq!(jsonl.lines().filter(|l| l.contains("\"event\":\"epoch\"")).count(), 2);
    }

    #[test]
    fn a_nan_label_skips_its_step_and_the_report_counts_it() {
        // A NaN force label, then a NaN energy label, which the AtomRef fit
        // leaves out so that it reaches no other step's offsets.
        for (energy, left_out) in [(false, 0usize), (true, 1)] {
            let mut data = tiny_dataset();
            let labels = &mut data.samples[data.train[0]].labels;
            if energy {
                labels.energy = f64::NAN;
            } else {
                labels.forces[0][0] = f64::NAN;
            }
            // One step per epoch holds the NaN sample.
            let cfg = TrainConfig {
                model: ModelConfig::tiny(OptLevel::Decoupled),
                epochs: 2,
                global_batch: 8,
                lr: LrPolicy::Fixed(1e-2),
                ..Default::default()
            };
            let (cluster, report) = train_model(&data, &cfg);
            let skipped: Vec<usize> = report.epochs.iter().map(|l| l.skipped_steps).collect();
            assert_eq!(skipped, [1, 1], "energy label NaN: {energy}");
            assert_eq!(report.skipped_steps, 2);
            assert_eq!(report.left_out_labels, left_out);
            // The skipped step changed no parameter: the next epoch trains
            // and validates on finite numbers.
            for l in &report.epochs {
                assert!(l.train_loss.is_finite() && l.val.e_mae.is_finite(), "{l:?}");
            }
            assert!(cluster.store.iter().all(|(_, e)| e.value.all_finite()));
            let run = report.run_report("nan", &cfg);
            assert_eq!(run.meta["skipped_steps"], fc_telemetry::Value::from(2usize));
            assert_eq!(run.meta["left_out_labels"], fc_telemetry::Value::from(left_out));
        }
    }

    #[test]
    fn report_tsv_has_header_and_rows() {
        let data = tiny_dataset();
        let cfg = TrainConfig {
            model: ModelConfig::tiny(OptLevel::Decoupled),
            epochs: 2,
            global_batch: 16,
            ..Default::default()
        };
        let (_, report) = train_model(&data, &cfg);
        let tsv = report.to_tsv();
        assert!(tsv.starts_with("epoch\t"));
        assert_eq!(tsv.lines().count(), 3);
    }
}

//! The simulated multi-GPU cluster.
//!
//! Data parallelism here is *numerically real*: the global batch is
//! partitioned by the sampler, each simulated device computes real
//! gradients over its shard, and the shards are summed by a deterministic
//! tree ([`crate::allreduce::tree_reduce`]) on the calling thread.
//!
//! One runner executes the rank work of every step: [`place_ranks`] puts
//! the ranks on the [`ExecutionMode::Threaded`] scoped worker threads by
//! their sampler loads (heaviest first, each to the least-loaded worker),
//! and each worker runs its ranks one after another. The placement is a
//! pure function of the loads, so a repeated batch lands on the same
//! workers. Every worker reads the one master parameter store, which rank
//! work never writes, and owns one buffer pool that persists across steps.
//! Every worker count produces bitwise-identical post-step parameters: a
//! rank's work depends only on its shard and on the master values, and the
//! gradient combine order is fixed by the tree, not by thread arrival or
//! placement.
//!
//! A step whose loss or summed gradient is not finite changes nothing: the
//! parameters, Adam's moments and its step counter stay as they were, and
//! the step reports itself skipped.
//!
//! A step reports what it measured: each rank's compute seconds and the
//! sampler's per-rank loads, the inputs of the straggler picture (Fig. 9).
//! The cluster keeps no clock of its own; the projection to 32 A100s
//! (Fig. 10) is [`crate::ScalingModel`]'s, the one place that adds the α-β
//! all-reduce time.

use crate::allreduce::tree_reduce;
use crate::loss::{composite_loss, LossParts, LossWeights};
use crate::optim::{clip_grad_norm, Adam};
use crate::sampler::{device_loads, load_cov, partition, SamplerKind};
use fc_core::{Chgnet, ModelConfig};
use fc_crystal::{GraphBatch, Sample};
use fc_tensor::{par, pool, GradMap, ParamStore, PoolCore, ProfileSnapshot, Profiler, Tape};
#[cfg(test)]
use std::sync::atomic::Ordering;
use std::time::Instant;

/// How rank work is executed on the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Run rank work on up to `n` scoped OS worker threads (clamped to
    /// `[1, n_devices]`), ranks placed by load ([`place_ranks`]). Every `n`
    /// gives bitwise-identical parameters — see the module docs.
    Threaded(usize),
}

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode::Threaded(1)
    }
}

impl ExecutionMode {
    /// Number of host worker threads this mode uses for `n_devices` ranks.
    pub fn workers(&self, n_devices: usize) -> usize {
        let ExecutionMode::Threaded(n) = *self;
        n.clamp(1, n_devices.max(1))
    }
}

/// Cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of simulated GPUs.
    pub n_devices: usize,
    /// Batch partitioning strategy.
    pub sampler: SamplerKind,
    /// Optional global gradient-norm clip.
    pub grad_clip: Option<f64>,
    /// Host execution strategy for rank work.
    pub execution: ExecutionMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_devices: 1,
            sampler: SamplerKind::LoadBalance,
            grad_clip: Some(10.0),
            execution: ExecutionMode::default(),
        }
    }
}

/// Statistics of one training step.
#[derive(Clone, Debug)]
pub struct StepStats {
    /// Total weighted loss.
    pub loss: f64,
    /// Per-property loss components (energy, force, stress, magmom).
    pub components: [f64; 4],
    /// Measured compute seconds per device.
    pub device_compute: Vec<f64>,
    /// Per-device feature-number loads (Fig. 9's y-axis).
    pub device_loads: Vec<f64>,
    /// Coefficient of variance of the loads.
    pub load_cov: f64,
    /// Pre-clip gradient norm.
    pub grad_norm: f64,
    /// The worker thread that ran each rank ([`place_ranks`]).
    pub device_worker: Vec<usize>,
    /// Whether the step changed nothing because a rank's loss or the summed
    /// gradient was not finite (`loss` then reads what the ranks computed).
    pub skipped: bool,
}

/// A data-parallel training cluster around one master parameter store.
pub struct Cluster {
    /// The model (architecture handles; parameters live in `store`).
    pub model: Chgnet,
    /// The master parameter store: every rank reads it, and the optimizer
    /// steps it.
    pub store: ParamStore,
    /// The optimizer.
    pub opt: Adam,
    /// Loss prefactors.
    pub loss_weights: LossWeights,
    cfg: ClusterConfig,
    /// One buffer-pool core per worker thread. Workers are re-spawned every
    /// step, so each worker's recycled buffers are carried across steps here.
    pools: Vec<PoolCore>,
    /// Cluster-wide profiler: every rank tape is absorbed here after each
    /// step, whichever worker ran it.
    profiler: Profiler,
}

/// Everything one rank produces in a step; `flat` is the rank's gradient
/// flattened in parameter order and pre-scaled for averaging.
struct RankOutput {
    loss: f64,
    components: [f64; 4],
    flat: Vec<f32>,
    tape: Tape,
}

/// One rank's forward/backward over its collated shard, against the master
/// parameters. Pure per-rank work: it only reads `store`, and writes
/// nothing another rank reads — that independence is why thread
/// scheduling cannot change the numbers.
fn rank_work(
    model: &Chgnet,
    store: &ParamStore,
    loss_weights: &LossWeights,
    batch: &GraphBatch,
    inv_dev: f32,
) -> RankOutput {
    let bl = batch.labels.as_ref().expect("collated batch must carry labels");
    let tape = Tape::new();
    let loss: LossParts = {
        let _fwd = fc_telemetry::bridge::profiled_span("forward", tape.profiler());
        let pred = model.forward_for_backward(&tape, store, batch);
        composite_loss(&tape, &pred, bl, loss_weights)
    };
    // Read every scalar the caller needs *before* the final backward: it
    // frees forward activations during the sweep.
    let loss_val = tape.with_value(loss.total, |t| t.item()) as f64;
    let mut components = [0.0f64; 4];
    for (k, part) in [loss.energy, loss.force, loss.stress, loss.magmom].into_iter().enumerate() {
        components[k] = tape.with_value(part, |t| t.item()) as f64;
    }
    // Backward (second-order when the model derives forces). The final
    // sweep returns activations and intermediate grad buffers to this
    // thread's pool for the next step's forward.
    let flat = {
        let _bwd = fc_telemetry::bridge::profiled_span("backward", tape.profiler());
        let gm = tape.backward_final(loss.total);
        flat_grads(store, &tape, &gm, inv_dev)
    };
    tape.reset();
    RankOutput { loss: loss_val, components, flat, tape }
}

/// The gradients in `gm` of the parameters injected into `tape`, flattened
/// in `store`'s parameter order and pre-scaled for averaging: `(0.0 + g) *
/// inv_dev` per element, which is exactly accumulating `g` into a zeroed
/// gradient (`ParamStore::accumulate_grads`, as the hand-built reference
/// steps fc_verify compares against do) and scaling it, so a `-0.0`
/// gradient lands as `+0.0`. A parameter no gradient reached stays `0.0`.
fn flat_grads(store: &ParamStore, tape: &Tape, gm: &GradMap, inv_dev: f32) -> Vec<f32> {
    let offsets: Vec<usize> = store
        .iter()
        .scan(0, |off, (_, e)| {
            *off += e.value.len();
            Some(*off - e.value.len())
        })
        .collect();
    let mut flat = vec![0.0; store.n_scalars()];
    for (pid, var) in tape.injected_params() {
        if let Some(gv) = gm.get(var) {
            tape.with_value(gv, |g| {
                let dst = &mut flat[offsets[pid.index()]..][..g.len()];
                for (y, &g) in dst.iter_mut().zip(g.data()) {
                    *y = (0.0 + g) * inv_dev;
                }
            });
        }
    }
    flat
}

/// Write a flat gradient vector into the store's grad buffers in
/// parameter order (the inverse of the flatten in [`rank_work`]).
fn write_flat_grads(store: &mut ParamStore, flat: &[f32]) {
    let mut off = 0;
    for (_, e) in store.iter_mut() {
        let n = e.grad.len();
        e.grad.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
}

/// Accumulated per-rank results of the sharded phase of a step, in rank
/// order.
struct RankSet {
    buffers: Vec<Vec<f32>>,
    device_compute: Vec<f64>,
    device_worker: Vec<usize>,
    loss_sum: f64,
    comp_sum: [f64; 4],
    active: usize,
}

/// Place ranks of `loads` on `workers` threads, longest first: ranks in
/// descending load (ties to the lower rank) each go to the worker whose
/// placed load is smallest so far (ties to the lower worker). Returns each
/// worker's ranks in ascending order, the order it runs them. A pure
/// function of its inputs, so a repeated batch gives each worker, and its
/// buffer pool, the same ranks.
pub fn place_ranks(loads: &[f64], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]).then(a.cmp(&b)));
    let mut placed = vec![Vec::new(); workers];
    let mut sums = vec![0.0f64; workers];
    for d in order {
        let w = (0..workers).min_by(|&x, &y| sums[x].total_cmp(&sums[y])).expect("a worker");
        sums[w] += loads[d];
        placed[w].push(d);
    }
    for ranks in &mut placed {
        ranks.sort_unstable();
    }
    placed
}

impl Cluster {
    /// Build a cluster: model parameters are initialised from `seed`, and
    /// each worker thread gets its own buffer pool.
    pub fn new(model_cfg: ModelConfig, seed: u64, cluster_cfg: ClusterConfig, lr: f32) -> Self {
        let mut store = ParamStore::new();
        let model = Chgnet::new(model_cfg, &mut store, seed);
        let opt = Adam::new(&store, lr);
        let workers = cluster_cfg.execution.workers(cluster_cfg.n_devices);
        let pools = (0..workers).map(|_| PoolCore::default()).collect();
        Cluster {
            model,
            store,
            opt,
            loss_weights: LossWeights::default(),
            cfg: cluster_cfg,
            pools,
            profiler: Profiler::new(),
        }
    }

    /// Cluster-wide profiler counters, aggregated across every rank tape
    /// executed so far (on whichever thread it ran).
    pub fn profile(&self) -> ProfileSnapshot {
        self.profiler.snapshot()
    }

    /// Cluster-wide per-op-kind accounting, aggregated across ranks.
    pub fn per_op(&self) -> Vec<(&'static str, fc_tensor::OpTotals)> {
        self.profiler.per_op()
    }

    /// Set the learning rate (driven by the scheduler).
    pub fn set_lr(&mut self, lr: f32) {
        self.opt.lr = lr;
    }

    /// Execute one data-parallel training step over a global batch.
    pub fn train_step(&mut self, global_batch: &[&Sample]) -> StepStats {
        assert!(!global_batch.is_empty(), "empty global batch");
        let _step_span = fc_telemetry::span("train_step");
        let features: Vec<usize> = global_batch.iter().map(|s| s.graph.feature_number()).collect();
        let parts = partition(&features, self.cfg.n_devices, self.cfg.sampler);
        let loads = device_loads(&features, &parts);
        let cov = load_cov(&features, &parts);

        // Per-rank load telemetry (Fig. 9's axes): atom counts per rank and
        // the feature-number loads' CoV and imbalance ratio max/mean (the
        // loads themselves go to the step's stats and each rank's trace
        // lane).
        if fc_telemetry::enabled() {
            fc_telemetry::counter_inc("cluster.steps");
            fc_telemetry::gauge_set("cluster.load_cov", cov);
            let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
            let max_load = loads.iter().copied().fold(0.0f64, f64::max);
            fc_telemetry::gauge_set(
                "cluster.load_imbalance",
                if mean_load > 0.0 { max_load / mean_load } else { 1.0 },
            );
            for (d, idxs) in parts.iter().enumerate() {
                let atoms: u64 = idxs.iter().map(|&i| global_batch[i].graph.n_atoms() as u64).sum();
                fc_telemetry::counter_add(&format!("cluster.rank{d}.atoms"), atoms);
            }
        }

        let mut ranks = self.run_ranks(global_batch, &parts, &loads);

        // Sum the rank gradients with the deterministic tree: the reduction
        // order is fixed by rank index, so every worker count agrees
        // bitwise.
        {
            let _ar = fc_telemetry::span("allreduce");
            tree_reduce(&mut ranks.buffers);
        }

        // Write the summed gradient into master and step it once, unless
        // a loss or the gradient is not finite: then Adam does not step, so
        // no parameter, moment or step count changes. An f64 sum of f32
        // losses, or of squared f32 gradients, is finite exactly when
        // every term is.
        let _opt_span = fc_telemetry::span("optimizer");
        write_flat_grads(&mut self.store, &ranks.buffers[0]);
        let grad_norm = match self.cfg.grad_clip {
            Some(max) => clip_grad_norm(&mut self.store, max),
            None => self.store.grad_norm(),
        };
        let skipped = !(ranks.loss_sum.is_finite() && grad_norm.is_finite());
        if !skipped {
            self.opt.step(&mut self.store);
        }
        self.store.zero_grads();
        drop(_opt_span);

        if skipped {
            fc_telemetry::counter_inc("cluster.skipped_steps");
        }
        fc_telemetry::gauge_set("cluster.grad_norm", grad_norm);

        let active = ranks.active.max(1) as f64;
        StepStats {
            loss: ranks.loss_sum / active,
            components: [
                ranks.comp_sum[0] / active,
                ranks.comp_sum[1] / active,
                ranks.comp_sum[2] / active,
                ranks.comp_sum[3] / active,
            ],
            device_compute: ranks.device_compute,
            device_loads: loads,
            load_cov: cov,
            grad_norm,
            device_worker: ranks.device_worker,
            skipped,
        }
    }

    /// Run every rank's work: [`place_ranks`] gives each scoped worker its
    /// ranks by `loads`; the worker runs them one after another, rank `d`
    /// collating `parts[d]` of the global batch, against the master
    /// parameters and with that worker's buffer pool installed, and
    /// records `loads[d]` on the rank's trace lane; a rank with an empty
    /// part sits the step out. Results are gathered back in rank order, so
    /// downstream combination is independent of placement and of which
    /// thread finished first.
    fn run_ranks(&mut self, samples: &[&Sample], parts: &[Vec<usize>], loads: &[f64]) -> RankSet {
        let n_ranks = parts.len();
        let inv_dev = 1.0 / n_ranks as f32;
        let placement = place_ranks(loads, self.pools.len().min(n_ranks));
        let n_scalars = self.store.n_scalars();
        let (model, store, lw) = (&self.model, &self.store, &self.loss_weights);
        let per_worker: Vec<Vec<(usize, RankOutput, f64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .pools
                .iter_mut()
                .zip(&placement)
                .enumerate()
                .map(|(w, (core, ranks))| {
                    std::thread::Builder::new()
                        .name(worker_name(w))
                        .spawn_scoped(s, move || {
                            par::with_width(1, || {
                                #[cfg(test)]
                                tests::RANK_WIDTH.fetch_max(par::width(), Ordering::Relaxed);
                                pool::install_core(std::mem::take(core));
                                let mut outs = Vec::new();
                                for &d in ranks {
                                    // Rank lanes interleave in time across
                                    // workers; attribution is by lane id, not by
                                    // wall-clock disjointness.
                                    let _lane = fc_telemetry::trace::lane_scope(d as u32);
                                    fc_telemetry::trace::counter(
                                        fc_telemetry::analysis::RANK_LOAD_COUNTER,
                                        loads[d],
                                    );
                                    if parts[d].is_empty() {
                                        continue;
                                    }
                                    let _rank_span = fc_telemetry::span("rank_step");
                                    let start = Instant::now();
                                    let batch = collate_shard(samples, &parts[d]);
                                    let out = rank_work(model, store, lw, &batch, inv_dev);
                                    outs.push((d, out, start.elapsed().as_secs_f64()));
                                    // Hand the shard's storage back, or the next
                                    // collation drains buffers the tapes reuse.
                                    batch.recycle();
                                }
                                // The worker's step is one unit of the
                                // pool's budget: trimming per rank would
                                // have its heavy and light ranks evict
                                // each other's classes every step.
                                pool::trim();
                                *core = pool::take_core();
                                outs
                            })
                        })
                        .expect("spawn rank worker")
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank worker panicked")).collect()
        });

        let mut slots: Vec<Option<(RankOutput, f64)>> = (0..n_ranks).map(|_| None).collect();
        for (d, out, secs) in per_worker.into_iter().flatten() {
            slots[d] = Some((out, secs));
        }
        let mut set = RankSet {
            buffers: Vec::with_capacity(n_ranks),
            device_compute: Vec::with_capacity(n_ranks),
            device_worker: vec![0; n_ranks],
            loss_sum: 0.0,
            comp_sum: [0.0; 4],
            active: 0,
        };
        for (w, ranks) in placement.iter().enumerate() {
            for &d in ranks {
                set.device_worker[d] = w;
            }
        }
        for slot in slots {
            let Some((out, secs)) = slot else {
                set.device_compute.push(0.0);
                set.buffers.push(vec![0.0; n_scalars]);
                continue;
            };
            set.active += 1;
            set.loss_sum += out.loss;
            for k in 0..4 {
                set.comp_sum[k] += out.components[k];
            }
            set.device_compute.push(secs);
            set.buffers.push(out.flat);
            self.profiler.absorb(out.tape.profiler());
        }
        set
    }
}

/// Collate one device's shard of the global batch.
fn collate_shard(global_batch: &[&Sample], idxs: &[usize]) -> GraphBatch {
    let graphs: Vec<_> = idxs.iter().map(|&i| &global_batch[i].graph).collect();
    let labels: Vec<_> = idxs.iter().map(|&i| &global_batch[i].labels).collect();
    GraphBatch::collate(&graphs, Some(&labels))
}

/// Worker-thread name, prefixed with the spawning thread's name so trace
/// snapshots taken by concurrent tests can be filtered per test.
fn worker_name(t_idx: usize) -> String {
    match std::thread::current().name() {
        Some(parent) => format!("{parent}/rank-worker-{t_idx}"),
        None => format!("rank-worker-{t_idx}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::OptLevel;
    use fc_crystal::{DatasetConfig, SynthMPtrj};
    use std::sync::atomic::AtomicUsize;

    /// Largest `par::width()` any rank worker has seen (0 before the first).
    pub(super) static RANK_WIDTH: AtomicUsize = AtomicUsize::new(0);

    fn dataset() -> SynthMPtrj {
        SynthMPtrj::generate(&DatasetConfig {
            n_structures: 12,
            max_atoms: 8,
            ..Default::default()
        })
    }

    #[test]
    fn train_step_reduces_loss_over_steps() {
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            3,
            ClusterConfig { n_devices: 2, ..Default::default() },
            3e-3,
        );
        let first = cluster.train_step(&samples);
        assert!(first.loss.is_finite() && first.loss > 0.0);
        let mut last = first.loss;
        for _ in 0..14 {
            last = cluster.train_step(&samples).loss;
        }
        assert!(last < first.loss, "loss did not improve: {} -> {last}", first.loss);
    }

    #[test]
    fn device_count_preserved_in_stats() {
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            3,
            ClusterConfig { n_devices: 4, ..Default::default() },
            1e-3,
        );
        let stats = cluster.train_step(&samples);
        assert_eq!(stats.device_compute.len(), 4);
        assert_eq!(stats.device_loads.len(), 4);
    }

    #[test]
    fn multi_device_step_equals_single_device_step() {
        // Data parallelism must be numerically equivalent to one big
        // device (identical partition-independent gradient averaging),
        // up to f32 all-reduce reordering.
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().take(8).collect();
        let mk = |n_devices| {
            Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                5,
                ClusterConfig { n_devices, grad_clip: None, ..Default::default() },
                1e-3,
            )
        };
        let mut c1 = mk(1);
        let mut c4 = mk(4);
        c1.train_step(&samples);
        c4.train_step(&samples);
        // Rank workers run their kernels on their own thread only: the
        // cluster's threads are the parallelism.
        assert_eq!(RANK_WIDTH.load(Ordering::Relaxed), 1, "a rank worker ran wider than 1");
        // Compare a few parameters after one step.
        for (id, e1) in c1.store.iter() {
            let e4 = c4.store.entry(id);
            // Losses are means per device: 1-device grad = mean over batch;
            // 4-device grad = mean of per-device means. With equal shard
            // sizes (8 / 4) these differ only by sample weighting when
            // shard losses are entry-means — allow a loose tolerance but
            // demand the same direction and magnitude.
            for (a, b) in e1.value.data().iter().zip(e4.value.data()) {
                assert!((a - b).abs() < 2e-3, "{}: {a} vs {b}", e1.name);
            }
            let _ = e4;
        }
    }

    #[test]
    fn rank_flatten_turns_negative_zero_positive_and_zero_fills_missing_grads() {
        // `a` receives the gradient -0.0 everywhere (loss term
        // `sum(a · -0.0)`), `b` the gradient 2, and `c` is never injected.
        use fc_tensor::Tensor;
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::full(1, 2, 3.0));
        let b = store.add("b", Tensor::full(1, 3, 1.0));
        store.add("c", Tensor::full(2, 1, 5.0));
        let tape = Tape::new();
        let (va, vb) = (tape.param(&store, a), tape.param(&store, b));
        let za = tape.mul(va, tape.constant(Tensor::full(1, 2, -0.0)));
        let loss = tape.add(tape.sum_all(za), tape.sum_all(tape.scale(vb, 2.0)));
        let gm = tape.backward_final(loss);
        let ga = gm.get(va).expect("a gradient for a");
        assert!(
            tape.with_value(ga, |g| g.data().iter().all(|x| x.to_bits() == (-0.0f32).to_bits())),
            "the fixture must give `a` a -0.0 gradient"
        );
        let flat = flat_grads(&store, &tape, &gm, 0.5);
        let bits: Vec<u32> = flat.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> =
            [0.0f32, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0].iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, want, "flat gradient {flat:?}");
    }

    /// Parameters of `cluster` as bit patterns, in parameter order.
    fn param_bits(cluster: &Cluster) -> Vec<u32> {
        cluster.store.iter().flat_map(|(_, e)| e.value.data().iter().map(|x| x.to_bits())).collect()
    }

    #[test]
    fn step_is_bitwise_identical_across_worker_counts() {
        // The runner's guarantee: 1, 2 and 4 worker threads produce
        // bitwise-identical post-step parameters, because rank work is
        // independent and the tree all-reduce order is fixed.
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mk = |threads| {
            Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                5,
                ClusterConfig {
                    n_devices: 4,
                    execution: ExecutionMode::Threaded(threads),
                    ..Default::default()
                },
                1e-3,
            )
        };
        let mut reference = mk(1);
        let s_ref = reference.train_step(&samples);
        for threads in [2usize, 4] {
            let mut threaded = mk(threads);
            let s_thr = threaded.train_step(&samples);
            assert_eq!(s_ref.loss, s_thr.loss, "loss diverged at {threads} threads");
            assert_eq!(s_ref.grad_norm, s_thr.grad_norm, "grad_norm diverged");
            assert!(param_bits(&reference) == param_bits(&threaded), "params at {threads} threads");
        }
    }

    #[test]
    fn place_ranks_is_longest_first_and_places_every_rank_once() {
        // Loads the load-balance sampler gave train steps, over 2 workers.
        assert_eq!(place_ranks(&[6998.0, 2765.0, 2312.0, 2256.0], 2), [vec![0], vec![1, 2, 3]]);
        assert_eq!(place_ranks(&[6215.0, 5243.0, 3871.0, 2855.0], 2), [vec![0, 3], vec![1, 2]]);
        // Ties go to the lower rank first, then to the lower worker.
        assert_eq!(place_ranks(&[1.0; 4], 2), [vec![0, 2], vec![1, 3]]);
        assert_eq!(place_ranks(&[5.0, 9.0, 1.0], 1), [vec![0, 1, 2]]);
        // More workers than ranks: one rank each, the rest idle.
        assert_eq!(place_ranks(&[2.0, 3.0], 4), [vec![1], vec![0], vec![], vec![]]);
        assert_eq!(place_ranks(&[], 3), [Vec::<usize>::new(), vec![], vec![]]);
        let loads: Vec<f64> = (0..11).map(|d| ((d * 7919) % 13) as f64).collect();
        for workers in 1..=12 {
            let placed = place_ranks(&loads, workers);
            assert_eq!(placed, place_ranks(&loads, workers), "not deterministic");
            assert_eq!(placed.len(), workers);
            let mut all: Vec<usize> = placed.concat();
            all.sort_unstable();
            assert_eq!(all, (0..11).collect::<Vec<_>>(), "{workers} workers: {placed:?}");
        }
    }

    #[test]
    fn step_reports_the_worker_that_ran_each_rank() {
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            3,
            ClusterConfig {
                n_devices: 4,
                execution: ExecutionMode::Threaded(2),
                ..Default::default()
            },
            1e-3,
        );
        for _ in 0..2 {
            let stats = cluster.train_step(&samples);
            let placed = place_ranks(&stats.device_loads, 2);
            for d in 0..4 {
                assert!(placed[stats.device_worker[d]].contains(&d), "{stats:?}");
            }
        }
    }

    #[test]
    fn non_finite_step_changes_nothing() {
        let _serial = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data = dataset();
        let clean: Vec<&Sample> = data.samples.iter().collect();
        let mut bad_sample = data.samples[5].clone();
        bad_sample.labels.energy = f64::NAN;
        let mut bad = clean.clone();
        bad[5] = &bad_sample;
        let mk = || {
            Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                3,
                ClusterConfig {
                    n_devices: 4,
                    execution: ExecutionMode::Threaded(2),
                    ..Default::default()
                },
                1e-3,
            )
        };
        let mut cluster = mk();
        let before = param_bits(&cluster);
        fc_telemetry::reset();
        fc_telemetry::set_enabled(true);
        let stats = cluster.train_step(&bad);
        let skipped = fc_telemetry::snapshot().counters.get("cluster.skipped_steps").copied();
        fc_telemetry::set_enabled(false);
        assert!(stats.skipped && stats.loss.is_nan(), "{stats:?}");
        assert_eq!(skipped, Some(1));
        assert!(param_bits(&cluster) == before, "a skipped step moved a parameter");
        assert_eq!(cluster.opt.steps(), 0, "a skipped step advanced Adam");
        // Moments untouched too: the next clean step is a fresh cluster's
        // first one, bit for bit.
        let after = cluster.train_step(&clean);
        let mut fresh = mk();
        let first = fresh.train_step(&clean);
        assert!(!after.skipped && !first.skipped);
        assert_eq!(after.loss.to_bits(), first.loss.to_bits());
        assert!(param_bits(&cluster) == param_bits(&fresh), "the skipped step left state behind");
        assert_eq!(cluster.opt.steps(), 1);
    }

    #[test]
    fn ranks_without_samples_sit_the_step_out() {
        // 5 samples on 8 ranks: the Default sampler gives ranks 0..5 one
        // sample each and leaves ranks 5..8 empty.
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().take(5).collect();
        let mk = |n_devices, threads| {
            Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                5,
                ClusterConfig {
                    n_devices,
                    sampler: SamplerKind::Default,
                    execution: ExecutionMode::Threaded(threads),
                    ..Default::default()
                },
                1e-3,
            )
        };
        let mut one = mk(8, 1);
        let mut three = mk(8, 3);
        let s1 = one.train_step(&samples);
        let s3 = three.train_step(&samples);
        assert!(param_bits(&one) == param_bits(&three), "worker count changed the params");
        for stats in [&s1, &s3] {
            assert!(stats.device_compute[..5].iter().all(|&t| t > 0.0), "{stats:?}");
            assert_eq!(stats.device_compute[5..], [0.0; 3], "empty ranks did compute");
        }
        // The same five one-sample ranks without the empty ones: the loss
        // is the mean over active ranks, not over all eight.
        let s5 = mk(5, 1).train_step(&samples);
        assert_eq!(s1.loss, s5.loss, "loss averaged over empty ranks");
        assert_eq!(s1.components, s5.components);
    }

    #[test]
    fn profiler_aggregates_identically_across_worker_counts() {
        // Same shards, same tapes → the cluster-wide per-op accounting must
        // be identical whichever worker ran which tape.
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mk = |threads| {
            Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                5,
                ClusterConfig {
                    n_devices: 4,
                    execution: ExecutionMode::Threaded(threads),
                    ..Default::default()
                },
                1e-3,
            )
        };
        let mut one = mk(1);
        let mut four = mk(4);
        one.train_step(&samples);
        four.train_step(&samples);
        let (p1, p4) = (one.profile(), four.profile());
        assert!(p1.kernels > 0, "profiler saw no kernels");
        assert_eq!(p1.kernels, p4.kernels, "kernel counts diverged across worker counts");
        assert_eq!(p1.flops, p4.flops, "FLOP totals diverged across worker counts");
        assert_eq!(p1.bytes_moved, p4.bytes_moved, "traffic totals diverged");
        assert_eq!(one.per_op(), four.per_op(), "per-op tables diverged across worker counts");
    }

    #[test]
    fn steady_state_cluster_steps_allocate_nothing_new() {
        // Allocation-regression guard: after a 2-step warm-up the worker
        // pools must serve every tape/grad buffer of a repeated step — zero
        // pool misses means zero fresh heap allocations for tensor storage —
        // and take back exactly what they served, so the pooled bytes stay
        // level. Misses are read from the cluster profiler, which absorbs
        // every rank tape whichever worker thread ran it; the level from the
        // worker pools the cluster keeps between steps.
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let per_step = |cfg: ClusterConfig| {
            let mut cluster = Cluster::new(ModelConfig::tiny(OptLevel::Decoupled), 3, cfg, 1e-3);
            let (mut misses, mut pooled) = (Vec::new(), Vec::new());
            for _ in 0..4 {
                let before = cluster.profile().pool_misses;
                cluster.train_step(&samples);
                misses.push(cluster.profile().pool_misses - before);
                pooled.push(cluster.pools.iter().map(|p| p.stats().bytes_pooled).sum::<u64>());
            }
            (misses, pooled)
        };
        let one_rank = per_step(ClusterConfig::default());
        let four_ranks = per_step(ClusterConfig {
            n_devices: 4,
            execution: ExecutionMode::Threaded(2),
            ..Default::default()
        });
        for (misses, pooled) in [one_rank, four_ranks] {
            assert!(misses[0] > 0, "cold start must fall through to the allocator");
            assert_eq!(misses[2..], [0, 0], "steady-state step still allocating: {misses:?}");
            assert!(pooled[1..].iter().all(|&b| b == pooled[1]), "pool still growing: {pooled:?}");
        }
    }

    /// Serialises the tests below: they toggle the process-global telemetry
    /// switch, and must not observe each other's windows.
    static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn telemetry_records_spans_and_rank_metrics() {
        let _serial = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        for threads in [1usize, 4] {
            let mut cluster = Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                3,
                ClusterConfig {
                    n_devices: 4,
                    execution: ExecutionMode::Threaded(threads),
                    ..Default::default()
                },
                1e-3,
            );
            fc_telemetry::reset();
            fc_telemetry::set_enabled(true);
            let _ = cluster.train_step(&samples);
            let snap = fc_telemetry::snapshot();
            fc_telemetry::set_enabled(false);
            // Rank work runs on worker threads with their own span stacks,
            // so rank spans are roots there (no train_step prefix), while
            // the coordinator owns the step/allreduce/optimizer spans.
            // Unrelated tests that happen to run during the enabled window
            // may add records of their own, so assert existence and lower
            // bounds, not exact equality.
            for path in [
                "train_step",
                "rank_step",
                "rank_step/forward",
                "rank_step/forward/model_forward",
                "rank_step/backward",
                "train_step/allreduce",
                "train_step/optimizer",
            ] {
                assert!(
                    snap.spans.contains_key(path),
                    "{threads} threads: missing span {path}: {:?}",
                    snap.spans.keys()
                );
            }
            assert!(snap.spans["rank_step/forward"].count >= 4, "one forward per device");
            // Profiler counters bridged per span, from the workers.
            assert!(snap.counters["tensor.forward.kernels"] > 0);
            assert!(snap.counters["tensor.backward.kernels"] > 0);
            assert!(snap.gauges["tensor.forward.bytes_peak"] > 0.0);
            // Per-rank load metrics.
            for d in 0..4 {
                assert!(snap.counters[&format!("cluster.rank{d}.atoms")] > 0);
            }
            assert!(snap.gauges["cluster.load_imbalance"] >= 1.0);
        }
    }

    #[test]
    fn trace_rank_lanes_are_disjoint_and_complete() {
        use fc_telemetry::trace;
        let _serial = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            3,
            ClusterConfig { n_devices: 4, ..Default::default() },
            1e-3,
        );
        fc_telemetry::reset();
        fc_telemetry::set_enabled(true);
        trace::set_tracing(true);
        trace::clear();
        let stats = cluster.train_step(&samples);
        // Concurrent tests in this binary may also record while the global
        // switches are on; keep only this thread's buffer (libtest names
        // each test thread after the test).
        let mut tsnap = trace::snapshot();
        tsnap.threads.retain(|t| t.thread_name.contains("trace_rank_lanes"));
        let text = trace::render_chrome(&tsnap);
        trace::set_tracing(false);
        fc_telemetry::set_enabled(false);
        let events = trace::parse_chrome_trace(&text).expect("trace parses");
        fc_telemetry::analysis::validate(&events).expect("trace validates");

        // Complete: every one of the 4 ranks has its own lane with a
        // rank_step span and a load counter.
        for rank in 0..4u64 {
            assert!(
                events.iter().any(|e| e.tid == rank && e.ph == 'B' && e.name == "rank_step"),
                "rank {rank} has no rank_step span"
            );
            assert!(
                events.iter().any(|e| e.tid == rank
                    && e.ph == 'C'
                    && e.name == fc_telemetry::analysis::RANK_LOAD_COUNTER),
                "rank {rank} has no load counter"
            );
        }
        // Disjoint: one worker runs all four ranks one after another, so
        // rank lanes must not overlap in time — each lane's window starts
        // after the previous lane's window ended.
        let window = |rank: u64| {
            let ts: Vec<f64> = events
                .iter()
                .filter(|e| e.tid == rank && (e.ph == 'B' || e.ph == 'E'))
                .map(|e| e.ts_us)
                .collect();
            (ts.iter().cloned().fold(f64::MAX, f64::min), ts.iter().cloned().fold(0.0, f64::max))
        };
        for rank in 0..3u64 {
            let (_, end) = window(rank);
            let (next_start, _) = window(rank + 1);
            assert!(
                end <= next_start,
                "rank {rank} lane [..{end}] overlaps rank {} lane [{next_start}..]",
                rank + 1
            );
        }
        // The analyzer's counter-derived imbalance reproduces the
        // cluster.load_imbalance gauge formula (max/mean of the same
        // device loads the step exported).
        let analysis = fc_telemetry::analysis::analyze(&events);
        assert_eq!(analysis.ranks.len(), 4);
        let imb = analysis.load_imbalance().expect("load counters recorded");
        let mean = stats.device_loads.iter().sum::<f64>() / stats.device_loads.len() as f64;
        let expected = stats.device_loads.iter().cloned().fold(0.0f64, f64::max) / mean;
        assert!((imb - expected).abs() < 1e-9, "trace imbalance {imb} vs step {expected}");
        // Busy fractions are well-formed and the busiest rank carries the
        // largest load (LoadBalance keeps them correlated).
        for r in &analysis.ranks {
            assert!(r.busy_frac >= 0.0 && r.busy_frac <= 1.0);
        }
    }

    #[test]
    fn threaded_trace_lanes_are_complete_under_interleaving() {
        use fc_telemetry::trace;
        let _serial = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            3,
            ClusterConfig {
                n_devices: 4,
                execution: ExecutionMode::Threaded(4),
                ..Default::default()
            },
            1e-3,
        );
        fc_telemetry::reset();
        fc_telemetry::set_enabled(true);
        trace::set_tracing(true);
        trace::clear();
        let _ = cluster.train_step(&samples);
        // Worker threads are named after this test's thread, so the same
        // per-test filter works even though the lanes were recorded on four
        // different OS threads.
        let mut tsnap = trace::snapshot();
        tsnap.threads.retain(|t| t.thread_name.contains("threaded_trace_lanes"));
        let text = trace::render_chrome(&tsnap);
        trace::set_tracing(false);
        fc_telemetry::set_enabled(false);
        let events = trace::parse_chrome_trace(&text).expect("trace parses");
        fc_telemetry::analysis::validate(&events).expect("threaded trace validates");

        // Complete attribution: every rank lane carries its span and its
        // load counter, even though lanes genuinely interleave in time.
        // (No disjointness assertion here — overlap is the whole point.)
        for rank in 0..4u64 {
            assert!(
                events.iter().any(|e| e.tid == rank && e.ph == 'B' && e.name == "rank_step"),
                "rank {rank} has no rank_step span"
            );
            assert!(
                events.iter().any(|e| e.tid == rank
                    && e.ph == 'C'
                    && e.name == fc_telemetry::analysis::RANK_LOAD_COUNTER),
                "rank {rank} has no load counter"
            );
        }
        // Per-rank busy/idle analysis stays well-formed on interleaved
        // lanes.
        let analysis = fc_telemetry::analysis::analyze(&events);
        assert_eq!(analysis.ranks.len(), 4);
        for r in &analysis.ranks {
            assert!(r.busy_frac >= 0.0 && r.busy_frac <= 1.0, "busy_frac {}", r.busy_frac);
        }
        assert!(analysis.load_imbalance().is_some());
    }

    #[test]
    fn telemetry_disabled_step_records_nothing_and_matches_enabled_loss() {
        let _serial = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data = dataset();
        let samples: Vec<&Sample> = data.samples.iter().take(6).collect();
        let mk = || {
            Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                7,
                ClusterConfig { n_devices: 2, ..Default::default() },
                1e-3,
            )
        };
        fc_telemetry::set_enabled(false);
        fc_telemetry::reset();
        let mut plain = mk();
        let s_plain = plain.train_step(&samples);
        assert!(fc_telemetry::snapshot().spans.is_empty(), "disabled telemetry must be silent");
        fc_telemetry::set_enabled(true);
        let mut instrumented = mk();
        let s_instr = instrumented.train_step(&samples);
        fc_telemetry::set_enabled(false);
        // Instrumentation must not perturb the numerics.
        assert_eq!(s_plain.loss, s_instr.loss);
        assert_eq!(s_plain.grad_norm, s_instr.grad_norm);
    }

    #[test]
    fn load_balance_lowers_cov_in_step_stats() {
        let data = SynthMPtrj::generate(&DatasetConfig {
            n_structures: 32,
            max_atoms: 24,
            ..Default::default()
        });
        let samples: Vec<&Sample> = data.samples.iter().collect();
        let mk = |sampler| {
            Cluster::new(
                ModelConfig::tiny(OptLevel::Decoupled),
                5,
                ClusterConfig { n_devices: 4, sampler, ..Default::default() },
                1e-3,
            )
        };
        let mut cd = mk(SamplerKind::Default);
        let mut cl = mk(SamplerKind::LoadBalance);
        let sd = cd.train_step(&samples);
        let sl = cl.train_step(&samples);
        assert!(sl.load_cov <= sd.load_cov, "{} vs {}", sl.load_cov, sd.load_cov);
    }
}

#!/usr/bin/env bash
# The full local gate: formatting, lints, the test suite, the
# cross-layer correctness harness (gradcheck registry, physics
# invariants, equivalence suite, golden fixtures — see DESIGN.md §9),
# and the repository benchmark against the parent commit (DESIGN.md §10).
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every step that writes a report writes it here, so that a run leaves the
# committed reports/ as they are.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# The binaries the steps below run are the ones cargo just built, which is
# $CARGO_TARGET_DIR when that is set.
bin="${CARGO_TARGET_DIR:-target}/release"

echo "== cargo fmt --check =="
cargo fmt --all --check

# x86 intrinsics and target features live in the lane type alone: every
# kernel is a lane body on it, so its entry points and its few intrinsics
# are the one place that names an instruction set. Fails naming each other
# file that mentions one.
echo "== std::arch, core::arch and #[target_feature only in kernels/lanes.rs =="
allowed='crates/tensor/src/kernels/lanes.rs'
if arch=$(grep -rlE --include='*.rs' 'std::arch|core::arch|#\[target_feature' crates | grep -vxF "$allowed"); then
  echo "instruction-set code outside $allowed:"
  echo "$arch"
  exit 1
fi

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== cluster worker-count equivalence smoke (1 vs N worker threads, release) =="
cargo test --release -q -p fastchgnet-train step_is_bitwise_identical_across_worker_counts
cargo test --release -q -p fastchgnet-train ranks_without_samples_sit_the_step_out
cargo test --release -q -p fastchgnet-train rank_flatten_turns_negative_zero_positive_and_zero_fills_missing_grads
cargo test --release -q -p fastchgnet-train -- place_ranks_is_longest_first step_reports_the_worker_that_ran

echo "== intra-op split equivalence smoke (width 1 vs N, release) =="
cargo test --release -q -p fastchgnet-tensor --lib par::tests

echo "== GEMM tier equivalence smoke (every tier the host runs vs Scalar, release) =="
cargo test --release -q -p fastchgnet-tensor --lib -- \
  kernels::matmul::tests::tiled_matmul_is_bitwise_the_ikj_loop \
  kernels::matmul::tests::a_zero_does_not_hide_an_inf_in_b

echo "== row-lane sums and fused VJP equivalence (release) =="
cargo test --release -q -p fastchgnet-tensor --lib -- \
  row_lane lane_sum transpose_puts gate_vjp transposed_a fused_final_sweep planned_final_sweep_launches

echo "== column-block GEMM and VJP equivalence (release) =="
cargo test --release -q -p fastchgnet-tensor --lib -- view split_segment_sums
cargo test --release -q -p fc_verify --test equivalence column_block_views

# The fused LayerNorm+gate, weighted segment sum and N-output linear
# launches against their composed chains: each kernel test runs every GEMM
# tier the host runs at widths 1 and 2, the tape test every sweep at
# widths 1 and 2.
echo "== fused message-path equivalence (release) =="
cargo test --release -q -p fastchgnet-tensor --lib -- \
  ln_gate weighted_segment_sum linear_split linear_vjp fused_message_path split_kernels
cargo test --release -q -p fc_verify --test equivalence fused_message_path

# Every kernel tier the host runs (Scalar included) against this host's
# glibc f32::exp at all 2^32 inputs. Informative: the in-tree port is the
# definition (the tier tests compare every vector tier with Scalar), and
# this shows whether the host's libm agrees with it, as glibc 2.36's FMA
# build does. A mismatch fails the step and prints each input: on such a
# host the port has left glibc's bits; elsewhere the host's libm may
# simply differ. ~20 s per vector tier on 2 threads, longer for Scalar.
echo "== exp port vs this host's libm (exhaustive, every tier, informative, release) =="
cargo test --release -q -p fastchgnet-tensor --lib kernels::exp::tests::port_is_libm_at_every_input \
  -- --ignored --nocapture

# The same for the sin/cos port against this host's f32::sin and f32::cos,
# every tier the host runs (Avx512 runs the AVX2 port).
echo "== trig port vs this host's libm (exhaustive, every tier, informative, release) =="
cargo test --release -q -p fastchgnet-tensor --lib kernels::trig::tests::port_is_libm_at_every_input \
  -- --ignored --nocapture

# The f64 ports the oracle and the separation screen call
# (fc_crystal::math: exp, sin, cos and tanh) against this host's glibc at
# 2^24 random inputs each over the callers' ranges, the count of
# mismatches printed. Informative, as the two steps above: the scalar
# ports are the definition (every lane tier is tested against them), and
# glibc 2.36's FMA builds agree with them. A few seconds.
echo "== f64 oracle ports vs this host's libm (callers' ranges, informative, release) =="
cargo test --release -q -p fastchgnet-crystal --lib math::tests::ports_match_this_hosts_libm_over_the_callers_ranges \
  -- --ignored --nocapture

# The neighbour search with one bin and binned against the per-candidate
# search (on 320 random skewed cells of 1-200 atoms, some with fractional
# coordinates outside [0, 1), also at forced bin counts), and
# linear_split with a gathered first block from fewer, as
# many and more source rows, and with outputs whose column strips pair
# across outputs, against gather + concat + linear (every GEMM tier the
# host runs, widths 1 and 2), with the fused bases against their scalar
# loops (orders 0-1 bitwise) and the sRBF's orders 2-3 against the f64
# Leibniz sum (at a stated tolerance; widths 1 and 2 bitwise). The bond
# vectors `Bond::vector` recomputes are checked bitwise on both paths over
# random cells too.
echo "== neighbour list and first-block GEMM equivalence (release) =="
cargo test --release -q -p fastchgnet-crystal --lib neighbor::tests
cargo test --release -q -p fastchgnet-crystal --test graph_properties
cargo test --release -q -p fastchgnet-tensor --lib -- \
  first_block_partials strips_across_outputs bases_are_bitwise high_orders_match_the_f64_leibniz_sum

# The screen's separation test against the min-ratio reference, the
# energy-only oracle pass against the full oracle's energy, the oracle's
# lane passes against the per-bond reference (every tier the host runs),
# one shared neighbour list against the graph and labels built apart, and
# the generator's output against bits pinned before the pipeline shared
# work.
echo "== dataset generation equivalence (release) =="
cargo test --release -q -p fastchgnet-crystal --lib -- \
  separation_test_is_the_min_ratio_verdict energy_pass_is_bitwise_the_full_oracle_energy \
  oracle_is_bitwise_the_per_use_reference \
  sample_is_bitwise_the_graph_and_the_oracle_built_apart generate_emits_the_pinned_bits

echo "== final-sweep equivalence smoke (final sweep vs retained backward bitwise, release) =="
cargo test --release -q -p fc_verify --test equivalence final_sweep_is_bitwise_the_retained_backward

echo "== inference forward equivalence (freeing vs retaining forward bitwise, pinned bits, release) =="
cargo test --release -q -p fc_verify --test equivalence inference_forward_is_bitwise_the_retaining_forward
cargo test --release -q --test forward_retention

# After warm-up a training step and an md or relaxation force call take
# every tensor buffer from the thread's pool and give back exactly that;
# an empty class borrows from at most three octaves up, and a trim keeps
# what the last unit of work used and no more than the largest one.
echo "== steady-state pool (release) =="
cargo test --release -q -p fastchgnet-train steady_state_cluster_steps_allocate_nothing_new
cargo test --release -q -p fastchgnet-tensor --lib pool::tests
cargo test --release -q --test steady_state_pool

echo "== verify harness =="
FASTCHGNET_REPORTS="$out" cargo run --release -p fc_verify --bin verify -q

echo "== report determinism (figures fig5, fig9, fig10, fig8, table2, headline twice: non-_s report lines identical) =="
cargo build --release -q -p fastchgnet-bench --bin figures
r1=$(mktemp -d)
r2=$(mktemp -d)
for fig in fig5 fig9 fig10 fig8 table2 headline; do
  FASTCHGNET_REPORTS="$r1" "$bin"/figures "$fig" > /dev/null
  FASTCHGNET_REPORTS="$r2" "$bin"/figures "$fig" > /dev/null
  diff <(grep -v '_s"' "$r1/BENCH_$fig.json") <(grep -v '_s"' "$r2/BENCH_$fig.json")
done
rm -rf "$r1" "$r2"

# No column of table1, fig5, fig6, fig7, fig9, fig10 or ablation is timed
# (parameter counts, test-set MAEs, histogram counts, validation MAEs,
# parity points, per-device feature numbers, and the ablation's sampler
# CoVs and counted-work scaling projection), so a fresh run must reproduce
# each committed table byte for byte.
for fig in table1 fig5 fig6 fig7 fig9 fig10 ablation; do
  echo "== $fig reproduces reports/$fig.tsv (figures $fig, byte for byte) =="
  FASTCHGNET_SCALE=quick FASTCHGNET_REPORTS="$out" "$bin"/figures "$fig" > /dev/null
  diff "$out/$fig.tsv" "reports/$fig.tsv"
done

# Every fig8 column but the two timed ones (iter_time_s, speedup_vs_ref) is
# counted: kernels, peak memory, their ratios and the A100 projection.
echo "== fig8 reproduces the counted columns of reports/fig8.tsv (byte for byte) =="
FASTCHGNET_SCALE=quick FASTCHGNET_REPORTS="$out" "$bin"/figures fig8 > /dev/null
diff <(cut -f1,2,4,5,7,8,9,10 "$out/fig8.tsv") <(cut -f1,2,4,5,7,8,9,10 reports/fig8.tsv)

echo "== trace smoke test (figures headline, flight recorder on) =="
cargo build --release -q --bin trace-report
FASTCHGNET_TRACE=1 FASTCHGNET_REPORTS="$out" "$bin"/figures headline > /dev/null
"$bin"/trace-report --smoke "$out/TRACE_headline.json"

echo "== straggler timeline (scaling_study example) =="
FASTCHGNET_REPORTS="$out" cargo run --release -q --example scaling_study > /dev/null
"$bin"/trace-report --smoke "$out/TRACE_scaling_study.json"

echo "== benchmark tests (perfbench builds against the workspace crates) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

echo "== benchmark verdict doctests =="
python3 -m doctest scripts/bench_compare.py

echo "== non-test line count doctests =="
python3 -m doctest scripts/loc.py

echo "== benchmark against the parent commit (BENCHMARK.json bounds) =="
python3 scripts/bench_compare.py

echo
echo "all checks passed"

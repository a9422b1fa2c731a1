//! Equivalence suite: fused vs unfused, batched vs serial, 1 vs N
//! devices, and the final backward sweep vs the retained one.

use fc_verify::equivalence::{
    check_batched_vs_serial_model, check_cluster_determinism, check_cluster_one_vs_n,
    check_column_block_linear_bitwise, check_final_sweep_bitwise, check_fused_basis_values,
    check_fused_gate, check_fused_layer_norm, check_fused_message_path_bitwise,
    check_fusion_vs_parallel_model, check_inference_forward_bitwise, run_suite,
};

#[test]
fn fused_kernels_match_unfused_chains() {
    check_fused_basis_values(1e-3).assert_ok();
    check_fused_layer_norm(1e-4).assert_ok();
    check_fused_gate(1e-5).assert_ok();
}

#[test]
fn batched_basis_matches_serial_basis_through_model() {
    check_batched_vs_serial_model(3, 1e-3).assert_ok();
}

#[test]
fn fusion_level_tracks_unfused_level_through_derivatives() {
    check_fusion_vs_parallel_model(3, 5e-2).assert_ok();
}

#[test]
fn multi_device_step_tracks_single_device() {
    for check in check_cluster_one_vs_n(4) {
        check.assert_ok();
    }
}

#[test]
fn cluster_step_is_bitwise_deterministic() {
    check_cluster_determinism(4).assert_ok();
    check_cluster_determinism(2).assert_ok();
}

#[test]
fn final_sweep_is_bitwise_the_retained_backward() {
    use fc_core::OptLevel;
    for level in
        [OptLevel::Reference, OptLevel::ParallelBasis, OptLevel::Fusion, OptLevel::Decoupled]
    {
        check_final_sweep_bitwise(level).assert_ok();
    }
}

#[test]
fn column_block_views_are_bitwise_the_materialised_chain() {
    use fc_core::OptLevel;
    for level in [OptLevel::Fusion, OptLevel::Decoupled] {
        check_column_block_linear_bitwise(level).assert_ok();
    }
}

#[test]
fn fused_message_path_is_bitwise_the_composed_chains() {
    use fc_core::OptLevel;
    for level in [OptLevel::Fusion, OptLevel::Decoupled] {
        check_fused_message_path_bitwise(level).assert_ok();
    }
}

#[test]
fn inference_forward_is_bitwise_the_retaining_forward() {
    check_inference_forward_bitwise(3).assert_ok();
}

#[test]
fn full_suite_passes() {
    for check in run_suite(3) {
        check.assert_ok();
    }
}

#!/usr/bin/env bash
# Regenerate every table/figure of the paper (TSVs land in reports/).
# Usage: scripts/run_all_experiments.sh [quick|full]
set -euo pipefail
cd "$(dirname "$0")/.."

export FASTCHGNET_SCALE="${1:-quick}"
echo "building the figures runner (scale: $FASTCHGNET_SCALE) ..."
cargo build --release -p fastchgnet-bench --bin figures

mkdir -p reports
for fig in fig5 fig9 table2 fig8 fig10 table1 fig6 fig7 ablation headline; do
    echo
    echo "=================================================================="
    echo "running figures $fig"
    echo "=================================================================="
    "${CARGO_TARGET_DIR:-target}"/release/figures "$fig" | tee "reports/$fig.log"
done
echo
echo "all experiment reports written to reports/"

#!/usr/bin/env bash
# Regenerate every table/figure reproduction into results/.
# SOMPI_REPLICAS controls Monte-Carlo sample counts; unset, each binary
# uses its own default of 200.
# Exits non-zero, naming each binary that failed, if any binary fails;
# its results/ file then holds its error output, not a result.
set -u
cd "$(dirname "$0")/.."
BINS=(
  fig1_traces fig2_histograms fig4_failure_rate
  fig5_cost_comparison table2_exec_time fig6_heuristics
  fig7_deadline_sweep fig8_fault_tolerance
  param_slack param_kappa param_window
  accuracy_failure_rate accuracy_model
  ablation_search ablation_billing
  sensitivity_profiling
  tournament
)
cargo build --release -p sompi-bench || exit 1
failed=()
for b in "${BINS[@]}"; do
  echo "=== $b (replicas=${SOMPI_REPLICAS:-200}) ==="
  ./target/release/"$b" > "results/$b.txt" 2>&1
  status=$?
  echo "    -> results/$b.txt ($status)"
  if [ "$status" -ne 0 ]; then
    failed+=("$b")
  fi
done
if [ "${#failed[@]}" -gt 0 ]; then
  echo "failed: ${failed[*]}" >&2
  exit 1
fi

#!/usr/bin/env bash
# Regenerate every deterministic simulator artifact and compare it byte for
# byte with the committed copy under results/.
#
# Usage: scripts/check_artifacts.sh [--update]
#
# Builds sads-bench in release mode, runs the 11 simulator experiment
# binaries with a scratch directory as the working directory (they write to
# a relative results/), then cmp's the 16 files they write against
# results/. Exits non-zero if any file differs or is missing. --update
# copies the regenerated files into results/ instead of comparing.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bins=(
  exp_e1_intrusiveness exp_e2_dos_timeline exp_e3_dos_scaling exp_e4_detection_delay
  exp_e5_visualization exp_e7_elasticity exp_e8_replication exp_e9_faults
  exp_e10_trace exp_e11_alerts exp_ablations
)
artifacts=(
  e1_intrusiveness.csv e2_dos_timeline.csv e3_dos_scaling.csv e4_detection_delay.csv
  e5_cpu.csv e7_elasticity.csv e8a_replication.csv e9_fault_sweep.csv
  e10_critical_path.csv e10_spans.csv trace_e10.json e11_alerts.csv
  ablation_alloc.csv ablation_attack_modes.csv ablation_burst_cache.csv
  ablation_scan_period.csv
)

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p sads-bench
target=${CARGO_TARGET_DIR:-$root/target}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for b in "${bins[@]}"; do
  (cd "$work" && "$target/release/$b" > "$work/$b.log" 2>&1) || {
    echo "FAIL: $b exited non-zero; log follows" >&2
    cat "$work/$b.log" >&2
    exit 1
  }
done

if [[ "${1:-}" == "--update" ]]; then
  for a in "${artifacts[@]}"; do cp "$work/results/$a" "$root/results/$a"; done
  echo "updated ${#artifacts[@]} artifacts under results/"
  exit 0
fi

stale=0
for a in "${artifacts[@]}"; do
  if cmp -s "$work/results/$a" "$root/results/$a"; then
    echo "same  $a"
  else
    echo "DIFF  $a"
    stale=$((stale + 1))
  fi
done
if ((stale > 0)); then
  echo "$stale of ${#artifacts[@]} artifacts differ from results/ (regenerate with --update)" >&2
  exit 1
fi
echo "all ${#artifacts[@]} artifacts byte-identical"

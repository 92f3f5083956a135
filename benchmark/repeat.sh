#!/usr/bin/env bash
# Build once, run every workload twice (A, B) with the same seed, and
# print per end-to-end metric A, B, |A-B|/A and the bound from
# BENCHMARK.json. Exits non-zero if a metric of the same code disagrees
# with itself beyond its bound, or a run reports a failed rep.
#
#   benchmark/repeat.sh                 full sizes, BENCHMARK.json's run_seconds
#   benchmark/repeat.sh --quick         tenth-size inputs, 2 s runs (smoke)
#   benchmark/repeat.sh --seconds 10    full sizes, 10 s runs
#   benchmark/repeat.sh --seed 11
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
spec="$here/../BENCHMARK.json"
quick=()
seconds=""
seed=7
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick=(--quick); seconds="${seconds:-2}" ;;
    --seconds) seconds="$2"; shift ;;
    --seed) seed="$2"; shift ;;
    *) echo "usage: $0 [--quick] [--seconds n] [--seed n]" >&2; exit 2 ;;
  esac
  shift
done
command -v python3 >/dev/null || { echo "$0: python3 is needed to compare the runs" >&2; exit 2; }
if [ -z "$seconds" ]; then
  seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/pax-benchmark"
out="$here/out"
mkdir -p "$out"

status=0
for workload in batch_identity batch_casper service_stream fleet_degraded; do
  for side in A B; do
    CARGO_MANIFEST_DIR="$here" "$bin" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 "${quick[@]}" >"$out/repeat-$workload-$side.txt"
  done
  python3 - "$spec" "$workload" "$out/repeat-$workload-A.txt" "$out/repeat-$workload-B.txt" <<'EOF' || status=1
import json, sys
spec, workload, a_path, b_path = sys.argv[1:]
bounds = {m["name"]: m["bound"] for m in json.load(open(spec))["end_to_end"]}
a, b = (json.loads(open(p).read().splitlines()[-1]) for p in (a_path, b_path))
print(open(a_path).read().splitlines()[0])
print(f"{workload}: A {a['attempted']} reps, B {b['attempted']} reps")
bad = False
for side, run in (("A", a), ("B", b)):
    if not run["correct"] or run["failed"]:
        print(f"  run {side}: correct={run['correct']} failed={run['failed']}  FAIL")
        bad = True
for name, bound in bounds.items():
    x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
    delta = abs(x - y) / abs(x)
    verdict = "ok" if delta <= bound else "FAIL"
    bad |= delta > bound
    print(f"  {name:<24} A {x:<22.10g} B {y:<22.10g} |A-B|/A {delta:.4f}  bound {bound}  {verdict}")
sys.exit(bad)
EOF
done
exit $status

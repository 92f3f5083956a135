#!/usr/bin/env bash
# The PR perf gate: this checkout's benchmark/ against <base-ref>'s, both
# built here. Each workload of BENCHMARK.json runs `--quick --seconds 2` in
# three alternating parent/change pairs. Fails only if the change's median
# events_per_ref_s is below the parent's by more than that metric's bound
# in BENCHMARK.json AND the change lost every pair, or if any run reports
# failed > 0 or correct: false. Prints a Markdown table; writes nothing
# outside a temporary directory.      Usage: ci/perf-gate.sh HEAD~1
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
command -v python3 >/dev/null || { echo "$0: python3 is needed to compare the runs" >&2; exit 2; }

root="$(cd "$(dirname "$0")/.." && pwd)"
spec="$root/BENCHMARK.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/out"
git -C "$root" archive "$1" | tar -x -C "$tmp/parent"
for side in "$tmp/parent" "$root"; do
  cargo build --release --offline --quiet \
    --manifest-path "$side/benchmark/Cargo.toml" --target-dir "$side/benchmark/target"
done

workloads="$(python3 -c 'import json, sys
print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$spec")"
for workload in $workloads; do
  for run in parent-1 change-1 change-2 parent-2 parent-3 change-3; do # who goes first alternates
    home="$root/benchmark"
    [ "${run%-*}" = change ] || home="$tmp/parent/benchmark"
    CARGO_MANIFEST_DIR="$home" "$home/target/release/pax-benchmark" --workload "$workload" \
      --quick --seconds 2 --trace 0 >"$tmp/out/$workload-$run.txt"
  done
done

python3 - "$spec" "$tmp/out" "$1" $workloads <<'EOF'
import json, statistics, sys
spec, out, base, *workloads = sys.argv[1:]
metric = "events_per_ref_s"
bound = next(m["bound"] for m in json.load(open(spec))["end_to_end"] if m["name"] == metric)
print(f"## Perf gate: `{metric}`, change vs `{base}` (3 pairs, `--quick --seconds 2`, bound {bound})")
print("| workload | parent median | change median | change ÷ parent | pairs won | verdict |")
print("|---|---|---|---|---|---|")
status = 0
for w in workloads:
    runs = {side: [json.loads(open(f"{out}/{w}-{side}-{k}.txt").read().splitlines()[-1]) for k in (1, 2, 3)]
            for side in ("parent", "change")}
    broken = [f"{side} run {k + 1}" for side, rs in runs.items() for k, r in enumerate(rs)
              if r["failed"] or not r["correct"]]
    parent, change = ([r["metrics"][metric]["value"] for r in runs[side]] for side in ("parent", "change"))
    pm, cm = statistics.median(parent), statistics.median(change)
    ratio = cm / pm
    won = sum(c >= p for p, c in zip(parent, change))
    verdict = "FAIL: slower beyond the bound in every pair" if ratio < 1 - bound and won == 0 else "ok"
    if broken:
        verdict = "FAIL: failed or incorrect: " + ", ".join(broken)
    status |= verdict != "ok"
    print(f"| `{w}` | {pm:.4g} | {cm:.4g} | {ratio:.3f} | {won}/3 | {verdict} |")
sys.exit(status)
EOF

#!/usr/bin/env bash
# Did a simulated number move? This checkout's experiment tables against
# <base-ref>'s, both built here: `experiments --quick` on every experiment
# but e9 (the one that runs OS threads and prints host wall-clock ratios),
# with the `[E… took …]` and `all requested experiments done …` timing
# lines dropped. Prints `identical`, or the diff and exits 1. Each side
# runs the ids its own harness lists. Writes nothing outside a temporary
# directory and the two checkouts' target/.   Usage: ci/experiments-diff.sh HEAD~1
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$1" | tar -x -C "$tmp/parent"
for side in parent change; do
  src="$root"
  [ "$side" = change ] || src="$tmp/parent"
  cargo build --release --offline --quiet -p pax-bench --bin experiments \
    --manifest-path "$src/Cargo.toml" --target-dir "$src/target"
  bin="$src/target/release/experiments"
  # The harness rejects an unknown id with the list of valid ones.
  ids="$({ "$bin" e0 2>&1 || true; } | sed -n 's/.*(valid ids: \(.*\))$/\1/p' | tr ' ' '\n' | grep -vx e9)"
  [ -n "$ids" ] || { echo "$0: no experiment ids from $bin" >&2; exit 2; }
  # shellcheck disable=SC2086 # one argument per id
  "$bin" --quick $ids | grep -v -e '^\[E[0-9]* took ' -e '^all requested experiments done ' \
    >"$tmp/$side.txt"
done

if diff -u --label "$1" --label "this tree" "$tmp/parent.txt" "$tmp/change.txt"; then
  echo identical
else
  exit 1
fi

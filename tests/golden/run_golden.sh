#!/usr/bin/env bash
# Golden-CSV regression check: re-run a bench's quick grid and assert the
# CSV is byte-identical to the committed golden, at --threads=1 and
# --threads=4 (the engine's thread-invariance guarantee, enforced).
#
# These CSVs are the repo's refactor oracle: structural changes to the
# request loop must not move a single byte of simulator output. If you
# are refactoring the sim/serve path, run these first.
#
# usage: run_golden.sh BENCH_BINARY GOLDEN_CSV [EXTRA_BENCH_FLAGS...]
#
# The golden must be committed: inside a git work tree an untracked CSV
# is rejected, so a locally generated file can never stand in for the
# oracle. To regenerate a golden after a *documented* trace-affecting
# change, build the parent commit and run its bench with the flags the
# ctest passes (see docs/PERF.md, "Golden CSVs"):
#   BENCH_BINARY --quick --threads=1 --csv=tests/golden/<name>.csv [FLAGS...]
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BENCH_BINARY GOLDEN_CSV [EXTRA_BENCH_FLAGS...]" >&2
  exit 2
fi
bin=$1
golden=$2
shift 2

if [ ! -f "$golden" ]; then
  echo "error: golden not committed: $golden does not exist" >&2
  exit 1
fi

golden_dir=$(dirname "$golden")
if git -C "$golden_dir" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  if ! git -C "$golden_dir" ls-files --error-unmatch "$(basename "$golden")" \
      > /dev/null 2>&1; then
    echo "error: golden not committed: $golden is not tracked by git" >&2
    exit 1
  fi
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for threads in 1 4; do
  out="$tmp/out_${threads}.csv"
  "$bin" --quick --threads="$threads" --csv="$out" "$@" \
      > "$tmp/log_${threads}.txt" 2>&1 || {
    echo "error: $bin --quick --threads=$threads failed:" >&2
    tail -20 "$tmp/log_${threads}.txt" >&2
    exit 1
  }
  if ! cmp -s "$golden" "$out"; then
    echo "golden-CSV mismatch: $bin --quick --threads=$threads $*" >&2
    echo "  golden: $golden" >&2
    echo "  first differing lines:" >&2
    diff "$golden" "$out" | head -20 >&2 || true
    echo "If this change to the series is intended and documented," >&2
    echo "regenerate the golden (docs/PERF.md, 'Golden CSVs')." >&2
    exit 1
  fi
done
echo "golden CSV byte-identical at --threads=1 and --threads=4"

#!/bin/sh
# Replays fuzz seeds <first>..<last> and writes one line per seed to <out>:
#
#   <seed> <digest> <pacemaker>/<core>
#
# (the digest from fuzz_repro's `digest:` line, the protocols from its
# `case:` line). A behaviour-preserving change leaves the file
# byte-identical to its parent's, so the two files compare with `cmp`;
# a change to one protocol shows in which protocols' seeds moved.
#
# A seed that violates an oracle is replayed with --shrink into
# fuzz-failures/seed-<seed>.txt (in the current directory) and the script
# exits 1 after the last seed; it exits 0 when every seed passed.
#
#   tools/fuzz_digests.sh build/fuzz_repro 1 300 fuzz-digests.txt
set -u

if [ "$#" -ne 4 ]; then
  echo "usage: $0 <fuzz_repro> <first> <last> <out>" >&2
  exit 2
fi
repro=$1
first=$2
last=$3
out=$4

run_out=$(mktemp) || exit 2
trap 'rm -f "$run_out"' EXIT

: > "$out"
failed=0
for seed in $(seq "$first" "$last"); do
  if ! "$repro" --seed "$seed" > "$run_out" 2>&1; then
    failed=1
    echo "::error::fuzz seed $seed violated an oracle"
    mkdir -p fuzz-failures
    "$repro" --seed "$seed" --shrink > "fuzz-failures/seed-$seed.txt" 2>&1 || true
    tail -5 "fuzz-failures/seed-$seed.txt"
  fi
  digest=$(sed -n 's/^digest: //p' "$run_out")
  protocols=$(sed -n 's/^case: *seed=[0-9]* n=[0-9]* \([^ ]*\) .*/\1/p' "$run_out")
  echo "$seed $digest $protocols" >> "$out"
done
exit "$failed"

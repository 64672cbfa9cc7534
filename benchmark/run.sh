#!/usr/bin/env bash
# The benchmark's one command: build the package (the plain build, and the
# traced build when a traced run is asked for), then run it. Arguments go to
# the benchmark binary unchanged; see README.md, or run with --help.
#
#   bash benchmark/run.sh                                  every workload, both builds
#   bash benchmark/run.sh --workload pairs --seed 3 --seconds 10 --trace 0
#   bash benchmark/run.sh --smoke
#   bash benchmark/run.sh compare benchmark/results/seed-a.json benchmark/results/seed-b.json
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$dir/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Which builds does this invocation need? `--trace 0` and `compare` need only
# the plain one.
trace=both
prev=""
for arg in "$@"; do
  [[ "$prev" == "--trace" ]] && trace="$arg"
  prev="$arg"
done
[[ "${1:-}" == "compare" ]] && trace=0

build() { # <target subdir> [cargo flags...]
  local sub="$1"
  shift
  cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" \
    --target-dir "$target/$sub" "$@" >&2
}

build plain
extra=(--root "$dir")
if [[ "$trace" != 0 ]]; then
  build traced --features trace
  extra+=(--traced-bin "$target/traced/release/membq-benchmark")
fi
exec "$target/plain/release/membq-benchmark" "$@" "${extra[@]}"

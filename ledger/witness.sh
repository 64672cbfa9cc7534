#!/usr/bin/env bash
# The code-placement witness (ROADMAP item 21(a)): build the plain
# `membq-benchmark` of a parent tree and of a change tree the way
# `benchmark/run.sh` does, compare their text symbols by name and size
# (`nm --size-sort -C`), and print the hot-path symbols named in
# `ledger/witness-hot.txt` that changed size or moved in or out of line,
# then a count of the other symbols that changed.
#
#   bash ledger/witness.sh <parent-dir> <change-dir>
#
# A hot name missing from a binary is inlined into its callers there. A name
# with several instances (a generic function) lists each instance's size.
# Prints and gates nothing: exits 0 whatever moved, 2 on a usage error.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  sed -n '2,13p' "${BASH_SOURCE[0]}" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
hot="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/witness-hot.txt"

# Build <tree>'s plain benchmark binary where `run.sh` builds it by default,
# and print its text symbols as "name<TAB>size in hex", sorted.
symbols() {
  local dir="$1/benchmark"
  cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" \
    --target-dir "$dir/target/plain" >&2
  nm --size-sort -C "$dir/target/plain/release/membq-benchmark" |
    awk '$2 == "t" || $2 == "T" { size = $1; sub(/^[^ ]+ [^ ]+ /, ""); print $0 "\t" size }' |
    LC_ALL=C sort
}

old="$(mktemp)"
new="$(mktemp)"
trap 'rm -f "$old" "$new"' EXIT
symbols "$parent" >"$old"
symbols "$change" >"$new"

printf '# witness: parent %s\n#          change %s\n' "$parent" "$change"
awk -F '\t' -v hotfile="$hot" '
  function dec(h,    i, n) {
    n = 0; h = tolower(h)
    for (i = 1; i <= length(h); i++) n = n * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
    return n
  }
  # Sizes of every instance of a name, in input order (sorted by name only,
  # so sort them here too): "474,277".
  function add(side, name, size,    cur, parts, i, j, t, k) {
    cur = sizes[side, name]
    k = split(cur == "" ? size : cur "," size, parts, ",")
    for (i = 2; i <= k; i++) { t = parts[i]; for (j = i - 1; j >= 1 && parts[j] + 0 < t + 0; j--) parts[j + 1] = parts[j]; parts[j + 1] = t }
    cur = parts[1]; for (i = 2; i <= k; i++) cur = cur "," parts[i]
    sizes[side, name] = cur
    names[name] = 1
  }
  FILENAME == hotfile { if ($0 !~ /^#/ && $0 != "") { nhot++; hotname[nhot] = $0; ishot[$0] = 1 } next }
  FNR == 1 { side++ }
  { add(side, $1, dec($2)); count[side]++ }
  END {
    printf "# text symbols: parent %d, change %d\n", count[1], count[2]
    printf "\nhot path (%s, %d names):\n", "ledger/witness-hot.txt", nhot
    for (i = 1; i <= nhot; i++) {
      n = hotname[i]; a = sizes[1, n]; b = sizes[2, n]
      if (a == b) { if (a == "") inl++; else same++; continue }
      what = a == "" ? "moved out of line" : b == "" ? "moved in line" : "changed size"
      printf "  %-17s %s: %s -> %s\n", what, n, a == "" ? "inlined" : a, b == "" ? "inlined" : b
      moved++
    }
    printf "  %d changed; %d unchanged out of line, %d in line on both sides\n", moved, same, inl
    for (n in names) {
      if (n in ishot) continue
      a = sizes[1, n]; b = sizes[2, n]
      if (a == b) rest_same++
      else if (a == "") rest_new++
      else if (b == "") rest_gone++
      else rest_size++
    }
    printf "\nthe rest: %d changed size, %d only in the parent, %d only in the change, %d unchanged\n", \
      rest_size, rest_gone, rest_new, rest_same
  }' "$hot" "$old" "$new"

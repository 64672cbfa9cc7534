#!/usr/bin/env bash
# The paired-run protocol every claim-bearing PR reports (ROADMAP, standing
# constraints): a parent tree and a change tree, in sibling directories, run
# the frozen benchmark's driver form on one workload in alternating pairs —
# the same fresh seed on both sides of a pair, the side that runs first
# swapped every pair. Prints the code-placement witness of the two trees
# (`ledger/witness.sh`) first, then one row per run (the seven end-to-end
# metrics, `failed` and `attempted`), then each side's median and quartiles
# per metric and the pair wins.
#
#   bash ledger/pairs.sh <parent-dir> <change-dir> <workload> [n=10] [seconds=10] [first-seed]
#
# Exits 1 when a run fails an operation, ends through the watchdog or prints
# a malformed result, 2 on a usage error. Timings bind nothing here: the
# reader applies the rule (wins >= 9/10 and medians apart by more than the
# parent's interquartile distance).
set -euo pipefail

if [[ $# -lt 3 ]]; then
  sed -n '2,16p' "${BASH_SOURCE[0]}" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
n="${4:-10}"
seconds="${5:-10}"
seed0="${6:-$(($(date +%s) % 1000000))}"

# BENCHMARK.json's `end_to_end`, with the direction that counts as better.
metrics=(items_per_s payload_mib_per_s latency_p50_us cpu_ns_per_item overhead_bytes ok_share setup_s)
higher="items_per_s payload_mib_per_s ok_share"

# One driver-form run in <dir> with <seed>: prints the row's number columns.
run() {
  local line row="" m v
  line="$(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0 | tail -n 1)" || {
    echo "pairs.sh: the run in $1 (seed $2) exited non-zero: $line" >&2
    return 1
  }
  for m in "${metrics[@]}"; do
    v="$(sed -n 's/.*"'"$m"'":{"value":\([-+0-9.eE]*\)[,}].*/\1/p' <<<"$line")"
    row+=" ${v:-?}"
  done
  for m in failed attempted; do
    v="$(sed -n 's/.*"'"$m"'":\([0-9]*\)[,}].*/\1/p' <<<"$line")"
    row+=" ${v:-?}"
  done
  if [[ "$row" == *"?"* ]]; then
    echo "pairs.sh: malformed result from $1 (seed $2): $line" >&2
    return 1
  fi
  echo "$row"
}

# Which hot-path symbols moved between the two binaries, above the table:
# the witness builds both sides where the runs below use them.
bash "$(dirname "${BASH_SOURCE[0]}")/witness.sh" "$parent" "$change"
echo

# Build both sides and check the workload runs before anything is timed.
for dir in "$parent" "$change"; do
  (cd "$dir" && bash benchmark/run.sh --workload "$workload" --smoke --trace 0 >/dev/null)
done

rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT
printf '# %s: %s pairs, --seconds %s, seeds %s..%s\n# parent %s\n# change %s\n' \
  "$workload" "$n" "$seconds" "$((seed0 + 1))" "$((seed0 + n))" "$parent" "$change"
printf '%-4s %-6s %-7s' pair side seed
printf ' %s' "${metrics[@]}" failed attempted
printf '\n'
for ((i = 1; i <= n; i++)); do
  seed=$((seed0 + i))
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    row="$(run "${!side}" "$seed")"
    printf '%-4s %-6s %-7s%s\n' "$i" "$side" "$seed" "$row" | tee -a "$rows"
  done
done

awk -v names="${metrics[*]}" -v higher="$higher" '
  function quantile(a, cnt, q,    h, lo) { # linear interpolation on sorted a[1..cnt]
    h = (cnt - 1) * q + 1; lo = int(h)
    return lo >= cnt ? a[cnt] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  function sorted(side, m, out,    i, j, t, cnt) {
    cnt = 0
    for (i = 1; i <= pairs; i++) out[++cnt] = val[side, i, m]
    for (i = 2; i <= cnt; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
    return cnt
  }
  { for (m = 1; m <= 9; m++) val[$2, $1, m] = $(m + 3); if ($1 > pairs) pairs = $1; if ($11 != 0) bad++ }
  END {
    nm = split(names, name, " "); split(higher, h, " "); for (i in h) up[h[i]] = 1
    printf "\n%-18s %-38s %-38s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "pairs won change/parent/tied"
    for (m = 1; m <= nm; m++) {
      cp = sorted("parent", m, P); cc = sorted("change", m, C)
      won = lost = tied = 0
      for (i = 1; i <= pairs; i++) {
        d = val["change", i, m] - val["parent", i, m]; if (!(name[m] in up)) d = -d
        if (d > 0) won++; else if (d < 0) lost++; else tied++
      }
      printf "%-18s %-38s %-38s %d/%d/%d\n", name[m], \
        sprintf("%.6g [%.6g, %.6g]", quantile(P, cp, .5), quantile(P, cp, .25), quantile(P, cp, .75)), \
        sprintf("%.6g [%.6g, %.6g]", quantile(C, cc, .5), quantile(C, cc, .25), quantile(C, cc, .75)), \
        won, lost, tied
    }
    printf "runs with failed operations: %d of %d\n", bad, NR
    exit bad > 0
  }' "$rows"

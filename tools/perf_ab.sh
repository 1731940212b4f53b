#!/usr/bin/env bash
# A/B comparison of two checkouts on one perfbench workload.
#
#   tools/perf_ab.sh [--smoke] PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS
#
# Builds each checkout's perfbench once (release, offline), then runs
# PAIRS pairs of SECONDS-long runs of WORKLOAD at RAYON_NUM_THREADS=1,
# alternating which side runs first: the parent leads odd pairs, the
# change leads even ones. --smoke passes --smoke to perfbench (homes /
# 100, at most 8 rounds). The two directories may be the same checkout.
#
# Prints each run's pass count and failed-check count, then per
# end-to-end metric of the change's BENCHMARK.json: each side's median
# [q1-q3], the median and range of the per-pair change/parent ratio,
# how many pairs the change won (by the metric's "better" direction;
# equal values are ties), and a verdict against the metric's "bound".
# The peak_rss_mb row also shows each side's median pass count and the
# median per-pair change/parent pass ratio: perfbench keeps trace
# records per pass, so a change that fits more passes into SECONDS
# reads a higher peak RSS for that alone. The verdict is the first that
# holds of:
#
#   worse       the change's median is worse than the parent's by more
#               than the bound (relative to the parent's median);
#   gain        the change won at least 9 in 10 pairs, and its median is
#               better than the parent's by more than the parent's IQR;
#   unresolved  the parent's IQR exceeds the bound (relative to its
#               median), and not every change run beats every parent run;
#   ok          otherwise.
#
# The verdicts do not change the exit status: it is non-zero only if a
# run fails or reports a failed output check.
#
# Each run's perfbench output is kept in a fresh directory under TMPDIR
# (default /tmp): PAIR-SIDE.out and PAIR-SIDE.err per run, plus the
# collected values, runs and metrics tables. Its path is printed as the
# last line; remove it when done.
set -euo pipefail

usage="usage: tools/perf_ab.sh [--smoke] PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS"
smoke=()
if [ "${1:-}" = "--smoke" ]; then
    smoke=(--smoke)
    shift
fi
if [ $# -ne 5 ]; then
    echo "$usage" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5
case "$pairs" in '' | *[!0-9]* | 0) echo "PAIRS must be a positive integer" >&2; exit 2 ;; esac
for dir in "$parent" "$change"; do
    if [ ! -f "$dir/perfbench/Cargo.toml" ]; then
        echo "$dir is not a checkout with perfbench/" >&2
        exit 2
    fi
done

out=$(mktemp -d)
trap 'echo "perf_ab: logs in $out"' EXIT

for dir in "$parent" "$change"; do
    echo "# building perfbench in $dir" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml"
done

# One run: appends "pair side metric value" lines to $out/values and
# "pair side passes failed" to $out/runs.
run() {
    local pair=$1 side=$2 dir=$3
    local log="$out/$pair-$side"
    if ! RAYON_NUM_THREADS=1 "$dir/perfbench/target/release/perfbench" \
        --workload "$workload" --seconds "$seconds" "${smoke[@]}" \
        >"$log.out" 2>"$log.err"; then
        cat "$log.err" >&2
        echo "perf_ab: $side run of pair $pair failed" >&2
        exit 1
    fi
    awk -v p="$pair" -v s="$side" -v w="$workload" \
        '$1 == w && NF == 4 { print p, s, $2, $3 }' "$log.out" >>"$out/values"
    local passes failed
    passes=$(sed -n 's/^# [^:]*: seed [0-9]*, \([0-9]*\) passes.*/\1/p' "$log.err")
    failed=$(grep -o '"failed":[0-9]*' "$log.out" | cut -d: -f2)
    echo "$pair $side ${passes:-?} ${failed:-?}" >>"$out/runs"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent "$parent"
        run "$pair" change "$change"
    else
        run "$pair" change "$change"
        run "$pair" parent "$parent"
    fi
done

# "name better bound" for every end-to-end metric, in BENCHMARK.json
# order.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
     on && /"name"/ {
         match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
         match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH)
         match($0, /"bound": *[0-9.eE+-]+/); d = substr($0, RSTART, RLENGTH)
         gsub(/.*: *"|"/, "", n); gsub(/.*: *"|"/, "", b); sub(/.*: */, "", d)
         print n, b, d
     }' "$change/BENCHMARK.json" >"$out/metrics"

echo "== $workload: $pairs pairs of ${seconds} s runs${smoke:+ (smoke)}, RAYON_NUM_THREADS=1"
echo "pair side   passes failed"
awk '{ printf "%-4s %-6s %6s %6s\n", $1, $2, $3, $4 }' "$out/runs"
awk -v runs="$out/runs" -v pairs="$pairs" '
     NR == FNR { order[++n] = $1; better[$1] = $2; bound[$1] = $3; next }
     { v[$3, $2, $1] = $4; seen[$3] = 1 }
     function sort(a, k,   i, j, t) {
         for (i = 2; i <= k; i++) {
             t = a[i]
             for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
             a[j + 1] = t
         }
     }
     # Quantile p of the sorted a[1..k], interpolating linearly.
     function q(a, k, p,   pos, lo) {
         pos = 1 + p * (k - 1); lo = int(pos)
         return lo >= k ? a[k] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
     }
     function spread(a, k, fmt) {
         return sprintf(fmt " [" fmt "-" fmt "]", q(a, k, 0.5), q(a, k, 0.25), q(a, k, 0.75))
     }
     # The verdict on sorted parent runs a[1..k] and change runs b[1..k]
     # with w wins, for a metric where higher (h) or lower is better and
     # a relative bound d; see the header for the rules.
     function verdict(a, b, k, w, h, d,   pm, cm, iqr, gap, rel, dominated) {
         pm = q(a, k, 0.5); cm = q(b, k, 0.5); iqr = q(a, k, 0.75) - q(a, k, 0.25)
         gap = h ? cm - pm : pm - cm
         if (-gap > d * (pm < 0 ? -pm : pm)) return "worse"
         if (10 * w >= 9 * k && gap > iqr) return "gain"
         rel = pm == 0 ? (iqr > 0 ? d + 1 : 0) : iqr / (pm < 0 ? -pm : pm)
         dominated = h ? b[1] > a[k] : b[k] < a[1]
         if (rel > d && !dominated) return "unresolved"
         return "ok"
     }
     END {
         # Pass counts, from the "pair side passes failed" lines of runs.
         while ((getline line < runs) > 0) {
             split(line, f, " ")
             if (f[3] ~ /^[0-9]+$/) done[f[2], f[1]] = f[3]
         }
         k = 0
         for (p = 1; p <= pairs; p++) {
             if (!(("parent", p) in done) || !(("change", p) in done)) continue
             k++; pp[k] = done["parent", p]; pc[k] = done["change", p]
             pr[k] = pp[k] == 0 ? 0 : pc[k] / pp[k]
         }
         if (k) {
             sort(pp, k); sort(pc, k); sort(pr, k)
             note = sprintf("passes %g -> %g, change/parent %.3f", q(pp, k, 0.5), q(pc, k, 0.5),
                            q(pr, k, 0.5))
         }
         printf "%-16s %-34s %-34s %-28s %-14s %s\n", "metric", "parent median [q1-q3]",
                "change median [q1-q3]", "change/parent median [range]", "wins", "verdict"
         for (m = 1; m <= n; m++) {
             name = order[m]
             if (!(name in seen)) continue
             k = 0; wins = 0; ties = 0
             for (p = 1; (name, "parent", p) in v; p++) {
                 a = v[name, "parent", p]; b = v[name, "change", p]
                 k++; par[k] = a; chg[k] = b; rat[k] = a == 0 ? 0 : b / a
                 if (a == b) ties++
                 else if ((better[name] == "higher") == (b > a)) wins++
             }
             sort(par, k); sort(chg, k); sort(rat, k)
             printf "%-16s %-34s %-34s %-28s %-14s %s%s\n", name,
                    spread(par, k, "%.4g"), spread(chg, k, "%.4g"),
                    sprintf("%.3f [%.3f-%.3f]", q(rat, k, 0.5), rat[1], rat[k]),
                    wins "/" k (ties ? " (" ties " ties)" : ""),
                    verdict(par, chg, k, wins, better[name] == "higher", bound[name]),
                    name == "peak_rss_mb" && note != "" ? "  (" note ")" : ""
         }
     }' "$out/metrics" "$out/values"

if awk '$4 != 0 { bad = 1 } END { exit !bad }' "$out/runs"; then
    echo "perf_ab: a run reported failed output checks" >&2
    exit 1
fi

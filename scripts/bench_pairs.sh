#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, and the table EXPERIMENTS.md
# cites them by.
#
#   scripts/bench_pairs.sh --parent DIR --change DIR --workloads W1,W2 \
#       --seeds S1,S2,... [--seconds 25] [--out FILE]
#       For every workload and seed, runs each checkout's own, unmodified
#       `bench/run.sh --workload W --seed S --seconds N --trace 0` (built
#       into that checkout's own `target/`), alternating which side goes
#       first, appends every result line to FILE (default: a temp file,
#       named on stderr) and prints the table. Stops at the first run
#       that is not `correct` with `failed` 0.
#   scripts/bench_pairs.sh --table FILE
#       Prints the table of the runs recorded in FILE (e.g. of a run that
#       is still going, or was cut short).
#   scripts/bench_pairs.sh --self-test
#       Checks the table arithmetic on canned result lines; runs nothing.
#
# DIR is a checkout with tracked files only (`git clone`, `git archive`):
# the benchmark builds what it measures. To tell a code-layout shift from
# an effect (EXPERIMENTS.md E11), run a pair with both sides built with
# `codegen-units = 1`: set CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1 in this
# script's environment. Cargo reads it in both checkouts' builds and
# rebuilds them (the setting is part of every build's fingerprint); no
# checkout is edited. Cells are median [q1, q3]; ratio
# is change / parent; wins counts the pairs where the change is better
# (ties count for neither side); "beyond IQR" says whether the medians
# differ by more than the parent's own q3 - q1. A gain is claimed only at
# >= 9/10 wins and beyond IQR (bench/README.md "Citing a number"). Metric
# directions come from BENCHMARK.json beside this script's repository.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() { sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "${BASH_SOURCE[0]}"; }

# table FILE: markdown on stdout, exit 1 on a failed or incorrect run.
table() {
    python3 - "$repo/BENCHMARK.json" "$1" <<'PY'
import json, statistics, sys

directions = {m["name"]: m["better"] for m in json.load(open(sys.argv[1]))["end_to_end"]}
runs = {}  # (workload, metric) -> seed -> side -> value
bad = []
for line in open(sys.argv[2]):
    rec = json.loads(line)
    result = rec["result"]
    if result.get("correct") is not True or result.get("failed") != 0:
        bad.append(f'{rec["side"]} {rec["workload"]} seed {rec["seed"]}: '
                   f'correct={result.get("correct")} failed={result.get("failed")}'
                   f' of {result.get("attempted")}')
    for metric, cell in result["metrics"].items():
        if metric in directions:
            by_seed = runs.setdefault((rec["workload"], metric), {})
            by_seed.setdefault(rec["seed"], {})[rec["side"]] = cell["value"]
if bad:
    sys.exit("bench_pairs: runs that do not count:\n  " + "\n  ".join(bad))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")

def cell(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

print("| workload | metric | parent | change | ratio | wins | beyond IQR |")
print("|---|---|---|---|---|---|---|")
for (workload, metric), by_seed in runs.items():
    pairs = [(v["parent"], v["change"]) for v in by_seed.values() if len(v) == 2]
    if not pairs:
        continue
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    higher = directions[metric] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    ratio = f"{c_med / p_med:.3f}" if p_med else "n/a"
    beyond = "yes" if abs(c_med - p_med) > p_q3 - p_q1 else "no"
    print(f"| `{workload}` | `{metric}` | {cell(parent)} | {cell(change)} "
          f"| {ratio} | {wins}/{len(pairs)} | {beyond} |")
PY
}

# record FILE SIDE WORKLOAD SEED LINE: one run's result line, kept.
record() {
    python3 - "$@" <<'PY' >>"$1"
import json, sys
_, _, side, workload, seed, line = sys.argv
print(json.dumps({"side": side, "workload": workload, "seed": int(seed),
                  "result": json.loads(line)}))
PY
}

self_test() {
    local tmp
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' RETURN
    local line='{"correct":true,"attempted":50,"failed":0,"metrics":{"work_per_s":{"value":%s,"unit":"1/s"},"setup_s":{"value":%s,"unit":"s"},"server.sessions":{"value":50,"unit":"count"}}}'
    # Four pairs: the change is faster in every one, set-up ties in one.
    local parent_work=(100 110 120 130) change_work=(150 160 170 180)
    local parent_setup=(1.0 1.1 1.2 1.3) change_setup=(1.0 1.2 1.1 1.4)
    for i in 0 1 2 3; do
        # shellcheck disable=SC2059
        record "$tmp" parent w "$i" "$(printf "$line" "${parent_work[i]}" "${parent_setup[i]}")"
        # shellcheck disable=SC2059
        record "$tmp" change w "$i" "$(printf "$line" "${change_work[i]}" "${change_setup[i]}")"
    done
    local want got
    want='| workload | metric | parent | change | ratio | wins | beyond IQR |
|---|---|---|---|---|---|---|
| `w` | `work_per_s` | 115 [107.5, 122.5] | 165 [157.5, 172.5] | 1.435 | 4/4 | yes |
| `w` | `setup_s` | 1.15 [1.075, 1.225] | 1.15 [1.075, 1.25] | 1.000 | 1/4 | no |'
    got="$(table "$tmp")"
    if [ "$got" != "$want" ]; then
        printf 'bench_pairs self-test: table differs\n--- want\n%s\n--- got\n%s\n' "$want" "$got" >&2
        return 1
    fi
    # A run with failed operations must stop the table, not enter it.
    record "$tmp" change w 4 '{"correct":true,"attempted":50,"failed":1,"metrics":{}}'
    if table "$tmp" >/dev/null 2>&1; then
        echo "bench_pairs self-test: a run with failed operations was accepted" >&2
        return 1
    fi
    echo "bench_pairs self-test: ok"
}

parent="" change="" workloads="" seeds="" seconds=25 out=""
while [ $# -gt 0 ]; do
    case "$1" in
    --help | -h) usage; exit 0 ;;
    --self-test) self_test; exit $? ;;
    --table) table "$2"; exit $? ;;
    --parent) parent="$2"; shift 2 ;;
    --change) change="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --seeds) seeds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "bench_pairs: unknown argument $1" >&2; usage >&2; exit 2 ;;
    esac
done
if [ -z "$parent" ] || [ -z "$change" ] || [ -z "$workloads" ] || [ -z "$seeds" ]; then
    usage >&2
    exit 2
fi
[ -n "$out" ] || out="$(mktemp --suffix .bench_pairs.jsonl)"
echo "bench_pairs: recording runs in $out" >&2

# run_side SIDE DIR WORKLOAD SEED: that checkout's benchmark, as committed.
run_side() {
    local line
    line="$(cd "$2" && CARGO_TARGET_DIR=target bash bench/run.sh \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)"
    record "$out" "$1" "$3" "$4" "$line"
    table "$out" >/dev/null
}

pair=0
for workload in ${workloads//,/ }; do
    for seed in ${seeds//,/ }; do
        if [ $((pair % 2)) -eq 0 ]; then
            run_side parent "$parent" "$workload" "$seed"
            run_side change "$change" "$workload" "$seed"
        else
            run_side change "$change" "$workload" "$seed"
            run_side parent "$parent" "$workload" "$seed"
        fi
        pair=$((pair + 1))
        echo "bench_pairs: $workload seed $seed done" >&2
    done
done
table "$out"

#!/usr/bin/env bash
# Where a fleet workload's CPU goes, by bucket, from `dss serve`'s own
# sampler (crates/server/src/profile.rs).
#
#   scripts/profile_fleet.sh [--workload fleet_s1_ship] [--seed 42]
#       [--seconds 10] [--out DIR] [--check]
#       Runs `bench/run.sh --workload W --seed S --seconds N --trace 0` with
#       DSS_PROFILE_DIR=DIR/samples, so every `dss serve` child samples its
#       CPU while a run's sources play (StartSources to Teardown) and writes
#       the samples when it stops; then prints the bucket table and the
#       samples by thread (reader, worker, source, other). With --check,
#       exits 1 unless there are samples and the buckets, and the threads,
#       sum to the total (the check.sh smoke).
#   scripts/profile_fleet.sh --table DIR [--sessions N]
#       Prints the table of the samples an earlier run left in DIR/samples,
#       resolved against the `dss` binary it copied to DIR/dss.
#
# A sample is a timer tick (at most one per scheduler tick per process),
# not a fixed slice of CPU: compare shares, or samples per session between
# two builds. Addresses in the `dss` binary are resolved with `addr2line`.
# This libc has no `.symtab`, and `nm -D`'s nearest exported symbol
# mislabels its internals (malloc's as `__default_morecore`, memmove's as
# `__nss_database_lookup`), so a libc sample is attributed by its caller:
# the first return address into `dss` above the interrupted stack pointer.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() { sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "${BASH_SOURCE[0]}"; }

workload=fleet_s1_ship seed=42 seconds=10 out="" check=0 table="" sessions=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --check) check=1; shift ;;
        --table) table=$2; shift 2 ;;
        --sessions) sessions=$2; shift 2 ;;
        -h|--help) usage; exit 0 ;;
        *) echo "profile_fleet: unknown argument $1" >&2; usage >&2; exit 2 ;;
    esac
done

if [ -z "$table" ]; then
    out=${out:-$(mktemp -d)}
    rm -rf "$out/samples"
    mkdir -p "$out/samples"
    echo "profile_fleet: $workload, seed $seed, ${seconds} s; samples in $out/samples" >&2
    result=$(cd "$repo" && DSS_PROFILE_DIR="$out/samples" \
        bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -1)
    echo "$result" > "$out/result.json"
    # The samples are resolved against this copy: a rebuild of the
    # checkout must not change what an earlier run's addresses mean.
    cp "$repo/${CARGO_TARGET_DIR:-target}/release/dss" "$out/dss"
    sessions=$(python3 -c 'import json,sys; print(json.load(sys.stdin)["attempted"])' <<< "$result")
    table=$out
fi

python3 - "$table" "$check" "${sessions:-0}" <<'PY'
import bisect, collections, glob, os, re, subprocess, sys

run_dir, check, sessions = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
samples_dir = os.path.join(run_dir, "samples")
# The binary the samples were taken with; the mapped path as a fallback.
binary_copy = os.path.join(run_dir, "dss")

# Buckets in priority order: a sample goes to the first whose pattern
# matches its interrupted frame (every inlined level) or one of its first
# three callers. A sample interrupted in libc goes by its callers alone.
BUCKETS = [
    ("read: tree build", r"materialise|wire::Tree|LastRead|Reader::walk|Reader::node|Names::symbol"),
    ("encode", r"put_items|put_node|put_str|encode_into|LastSent"),
    ("operators and DAGs", r"dss_engine|FlowDag|FlowOutputs|dss_network::shared|dss_predicate|CompiledPredicate"),
    ("mailbox", r"[Mm]ailbox"),
    ("trees: clone, compare, drop", r"dss_xml::tree|dss_xml::name"),
]
LIBC = [
    ("libc: malloc/free", r"__rdl_|__rust_alloc|__rust_dealloc|__rust_realloc|alloc::alloc::"),
    ("libc: syscalls", r"std::sys|std::net|std::io|std::thread|futex|Condvar|[Pp]ark|read_frame|write_frame|send_frame"),
]
REST = "server, proto, std and the rest"
LIBC_REST = "libc: memcpy and the rest"
ORDER = [b for b, _ in BUCKETS] + [b for b, _ in LIBC] + [LIBC_REST, REST]

def load(path):
    maps, samples = [], []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "map":
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
        elif kind == "sample":
            thread, *addrs = rest.split()
            samples.append((thread, [int(a, 16) for a in addrs]))
    return sorted(maps), samples

def segment_bias(elf):
    """ELF vaddr minus file offset of the executable LOAD segment."""
    out = subprocess.run(["readelf", "-lW", elf], capture_output=True, text=True).stdout
    for line in out.splitlines():
        f = line.split()
        if f and f[0] == "LOAD" and "E" in "".join(f[6:-1]):
            return int(f[2], 16) - int(f[1], 16)
    return 0

files = sorted(glob.glob(os.path.join(samples_dir, "*.prof")))
per_file = [load(p) for p in files]
# Every address, resolved once per binary.
wanted = collections.defaultdict(set)  # mapped path -> {file vaddr}
def locate(maps, addr):
    i = bisect.bisect_right(maps, (addr, float("inf"), 0, "")) - 1
    if i >= 0 and maps[i][0] <= addr < maps[i][1]:
        return maps[i]
    return None

def is_dss(path):
    return os.path.basename(path) == "dss"

def binary(path):
    return binary_copy if os.path.exists(binary_copy) else path

biases = {}
for maps, samples in per_file:
    for _, sample in samples:
        for addr in sample:
            m = locate(maps, addr)
            if m and is_dss(m[3]):
                bias = biases.setdefault(m[3], segment_bias(binary(m[3])))
                wanted[m[3]].add(addr - m[0] + m[2] + bias)

names = {}  # (mapped path, vaddr) -> [function names, innermost first]
for path, addrs in wanted.items():
    addrs = sorted(addrs)
    out = subprocess.run(["addr2line", "-e", binary(path), "-a", "-f", "-i", "-C"],
                         input="\n".join(f"{a:#x}" for a in addrs) + "\n",
                         capture_output=True, text=True).stdout.splitlines()
    current, i = None, 0
    while i < len(out):
        line = out[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current = (path, int(line, 16))
            names[current] = []
            i += 1
            continue
        names[current].append(line)
        i += 2  # function, then file:line

def frame_names(maps, addr):
    m = locate(maps, addr)
    if m is None:
        return None, []
    if not is_dss(m[3]):
        return os.path.basename(m[3]), []
    return "dss", names.get((m[3], addr - m[0] + m[2] + biases[m[3]]), [])

counts, threads = collections.Counter(), collections.Counter()
total = 0
for maps, samples in per_file:
    for thread, sample in samples:
        if not sample:
            continue
        total += 1
        threads[thread] += 1
        where, top = frame_names(maps, sample[0])
        callers = [" ".join(frame_names(maps, a)[1]) for a in sample[1:4]]
        if where == "dss":
            text = " ".join(top + callers)
            bucket = next((b for b, p in BUCKETS if re.search(p, text)), REST)
        elif where and where.startswith("libc"):
            text = callers[0] if callers else ""
            bucket = next((b for b, p in LIBC if re.search(p, text)), LIBC_REST)
        else:
            bucket = REST
        counts[bucket] += 1

print(f"profile: {len(files)} processes, {total} samples"
      + (f", {sessions} sessions, {total / sessions:.1f} samples per session" if sessions else ""))
print()
print("| bucket | samples | per session | share |")
print("|---|---|---|---|")
for bucket in ORDER:
    n = counts[bucket]
    per = f"{n / sessions:.2f}" if sessions else "n/a"
    share = f"{100 * n / total:.1f} %" if total else "n/a"
    print(f"| {bucket} | {n} | {per} | {share} |")
print(f"| total | {total} | {total / sessions:.2f} |  |" if sessions else f"| total | {total} | n/a |  |")
print()
print("| thread | samples | per session | share |")
print("|---|---|---|---|")
for thread in ["reader", "worker", "source", "other"]:
    n = threads[thread]
    per = f"{n / sessions:.2f}" if sessions else "n/a"
    share = f"{100 * n / total:.1f} %" if total else "n/a"
    print(f"| {thread} | {n} | {per} | {share} |")
if check:
    if total == 0:
        sys.exit("profile_fleet: no samples")
    for name, table in [("buckets", counts), ("threads", threads)]:
        if sum(table.values()) != total:
            sys.exit(f"profile_fleet: {name} sum to {sum(table.values())}, not {total}")
PY

#!/usr/bin/env bash
# Run the benchmark twice on the same commit and compare the two runs:
# per metric × workload the two values, their relative difference and the
# bound. Exits non-zero if an end-to-end metric differs by more than its
# bound, if a count that must repeat exactly differs at all, or if either
# run failed a check.
#
#   benchmark/repeat.sh [--smoke] [run.sh flags…]
#
# With --smoke (2-second phases) the bounds are printed but not enforced —
# phases that short are only a bit-rot check; exact counts still must match.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"

smoke=0
for arg in "$@"; do
    [ "$arg" = --smoke ] && smoke=1
done

mkdir -p benchmark/out
status=0
for run in 1 2; do
    bash benchmark/run.sh "$@" >"benchmark/out/repeat.$run.log" 2>&1 || status=$?
    cp benchmark/out/results.json "benchmark/out/repeat.$run.json"
done
if [ "$status" != 0 ]; then
    echo "repeat: a run failed (exit $status); see benchmark/out/repeat.*.log" >&2
fi

SMOKE=$smoke python3 - <<'EOF' || status=1
import json, os, sys

smoke = os.environ["SMOKE"] == "1"
manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
first, second = (json.load(open(f"benchmark/out/repeat.{i}.json"))["runs"] for i in (1, 2))
# Counts that depend only on the inputs. With concurrent writes, which
# epoch answers a read is a matter of timing, so the kernel counters of
# cluster_rw_10k are compared by eye, not exactly.
EXACT = ["core.iterators_per_query", "core.pops_per_query", "disk_bytes_per_user_byte"]
bad = False
for a, b in zip(first, second):
    w = a["workload"]
    if a["answers_digest"] != b["answers_digest"]:
        print(f"{w:16} answers_digest {a['answers_digest']} != {b['answers_digest']}  DIFFERS")
        bad = True
    for m in (a, b):
        late = m["metrics"]["gen.late_share"]["value"]
        if late > 0.01:
            print(f"{w:16} gen.late_share {late:.4f} > 0.01: the generator ran late, run invalid")
            bad = bad or not smoke
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        rel = abs(va - vb) / max(abs(va), abs(vb)) if va != vb else 0.0
        note = ""
        if name in bounds:
            note = f"bound {bounds[name]:.2f}"
            if rel > bounds[name]:
                note += "  smoke: not enforced" if smoke else "  OVER BOUND"
                bad = bad or not smoke
        elif name == EXACT[2] or (name in EXACT and w != "cluster_rw_10k"):
            note = "exact"
            if va != vb:
                note += "  DIFFERS"
                bad = True
        print(f"{w:16} {name:38} {va:14.4f} {vb:14.4f}  diff {rel:7.4f}  {note}")
sys.exit(1 if bad else 0)
EOF
exit "$status"

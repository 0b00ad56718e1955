#!/usr/bin/env bash
#
# Perfbench digest gate: runs every BENCHMARK.json workload at each
# pinned seed (traced, 2 s, so perfbench's own correctness checks run
# too) and compares the `digest <workload> seed <n> <hex>` line it
# prints against tools/perfbench_digests.txt. Exits non-zero on any
# failed perfbench check or digest mismatch. The digest hashes every
# simulated metric, so a mismatch means the simulated schedule changed.
#
# Usage: tools/check_perfbench_digests.sh            # check
#        tools/check_perfbench_digests.sh --update   # rewrite the file
#
# Regenerate with --update only for an intentional schedule change,
# after the golden rebaseline it implies (docs/REBASELINE.md).

set -uo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

DIGESTS=tools/perfbench_digests.txt
WORKLOADS=(incast_fanin uniform_small leafspine_tenants)
SEEDS=(1 104729)

update=0
if [[ $# -gt 0 ]]; then
    if [[ $1 == --update && $# -eq 1 ]]; then
        update=1
    else
        echo "usage: $0 [--update]" >&2
        exit 2
    fi
fi

got=()
failed=0
for s in "${SEEDS[@]}"; do
    for w in "${WORKLOADS[@]}"; do
        echo "=== $w seed $s"
        if ! out=$(python3 perfbench/run.py --workload "$w" --seed "$s" \
                       --seconds 2 --trace 1); then
            echo "$out"
            echo "FAIL    $w seed $s: perfbench checks failed"
            failed=1
            continue
        fi
        line=$(grep '^digest ' <<<"$out")
        echo "$line"
        got+=("$line")
        if [[ $update -eq 0 ]] && ! grep -qxF "$line" "$DIGESTS"; then
            echo "FAIL    $w seed $s: digest differs from $DIGESTS:"
            grep "^digest $w seed $s " "$DIGESTS" || echo "(no entry)"
            failed=1
        fi
    done
done

if [[ $failed -ne 0 ]]; then
    exit 1
fi
if [[ $update -eq 1 ]]; then
    {
        echo "# perfbench simulated digests (tools/check_perfbench_digests.sh)"
        printf '%s\n' "${got[@]}"
    } >"$DIGESTS"
    echo "wrote $DIGESTS"
fi

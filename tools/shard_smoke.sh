#!/usr/bin/env bash
# End-to-end check of sharded campaigns on the command line: run GEMM/K1
# as 4 concurrent `fsp campaign --shard i/4` processes, fold their
# journals with `fsp merge`, and assert that the merged profile equals a
# single-process `fsp campaign` run.  Then re-run one shard (it must
# resume its journal and inject nothing), merge again (unchanged), merge
# with a shard journal missing (exit 1, path named), and check that bad
# --shard arguments exit 2.
#
# usage: shard_smoke.sh path/to/fsp [workdir]
set -euo pipefail

FSP=${1:?usage: shard_smoke.sh path/to/fsp [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

KERNEL=GEMM/K1
SHARDS=4
BASE="$WORK/gemm"
rm -f "$BASE".shard*of"$SHARDS".fspj

# Run "$@" and require exit status $1.
expect_exit() {
    local want=$1
    shift
    local rc=0
    "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}

pids=()
for ((i = 0; i < SHARDS; i++)); do
    "$FSP" campaign "$KERNEL" --shard "$i/$SHARDS" --journal "$BASE" \
        --baseline 0 --workers 1 --json > "$WORK/shard$i.json" &
    pids+=($!)
done
for pid in "${pids[@]}"; do
    wait "$pid"
done

"$FSP" merge "$KERNEL" --journal "$BASE" --shards "$SHARDS" --json \
    > "$WORK/merged.json"
"$FSP" campaign "$KERNEL" --baseline 0 --json > "$WORK/single.json"

# Re-running a finished shard resumes its journal: nothing is injected
# and the merge does not change.
"$FSP" campaign "$KERNEL" --shard 2/"$SHARDS" --journal "$BASE" \
    --baseline 0 --workers 1 --json > "$WORK/rerun.json"
"$FSP" merge "$KERNEL" --journal "$BASE" --shards "$SHARDS" --json \
    > "$WORK/merged-again.json"

python3 - "$WORK" "$SHARDS" <<'EOF'
import json
import sys

work, shards = sys.argv[1], int(sys.argv[2])
load = lambda name: json.load(open("%s/%s.json" % (work, name)))
merged, single = load("merged"), load("single")

if not merged["complete"] or merged["sitesDone"] != merged["campaignSites"]:
    raise SystemExit("merge is incomplete: %s" % merged)
runs = [load("shard%d" % i) for i in range(shards)]
injected = sum(run["injectedSites"] for run in runs)
if injected != merged["campaignSites"]:
    raise SystemExit("shards injected %d of %d sites"
                     % (injected, merged["campaignSites"]))

for key in ("prunedEstimate", "sdc_anatomy"):
    if merged[key] != single[key]:
        raise SystemExit(
            "%s differs:\n  merged: %s\n  single: %s"
            % (key, merged[key], single[key]))
print("merged result is bit-identical to the single-process run")

rerun = load("rerun")
if rerun["injectedSites"] != 0 or rerun["replayedSites"] != rerun["sites"]:
    raise SystemExit("re-run shard injected again: %s" % rerun)
again = load("merged-again")
for doc in (merged, again):
    doc.pop("mergePhases")
if again != merged:
    raise SystemExit("merge changed after the re-run:\n  %s\n  %s"
                     % (merged, again))
print("re-run shard resumed its journal; merge unchanged")
EOF

# A missing shard journal fails the merge and names the file.
MISSING="$BASE.shard1of$SHARDS.fspj"
mv "$MISSING" "$WORK/moved.fspj"
rc=0
"$FSP" merge "$KERNEL" --journal "$BASE" --shards "$SHARDS" \
    > /dev/null 2> "$WORK/missing.err" || rc=$?
mv "$WORK/moved.fspj" "$MISSING"
if [ "$rc" -ne 1 ] || ! grep -qF "$MISSING" "$WORK/missing.err"; then
    echo "merge with a missing shard: exit $rc, stderr:" >&2
    cat "$WORK/missing.err" >&2
    exit 1
fi
echo "missing shard journal rejected"

# Bad shard arguments are usage errors.
expect_exit 2 "$FSP" campaign "$KERNEL" --shard 1/"$SHARDS"
expect_exit 2 "$FSP" campaign "$KERNEL" --shard 4/4 --journal "$BASE"
expect_exit 2 "$FSP" campaign "$KERNEL" --shard 0/0 --journal "$BASE"
echo "bad --shard arguments rejected"

echo "shard smoke OK"

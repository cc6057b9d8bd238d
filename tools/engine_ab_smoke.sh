#!/usr/bin/env bash
# A/B check of the execution strategies on kernels whose faults reach
# other CTAs' bytes: run `fsp campaign K --baseline 300 --json` with no
# flag, with --no-slicing and with --no-checkpoints, and require the
# pruned estimate, the random baseline and the SDC anatomy to be equal
# across the three.  The default run must also have served at least one
# cross-CTA load inside a slice (hazardLoadsInSlice > 0), so the check
# covers the hazard resolver and not only hazard-free sites.
#
# usage: engine_ab_smoke.sh path/to/fsp [workdir]
set -euo pipefail

FSP=${1:?usage: engine_ab_smoke.sh path/to/fsp [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

for kernel in GEMM/K1 PathFinder/K1 K-Means/K2; do
    slug=$(echo "$kernel" | tr '/' '-')
    "$FSP" campaign "$kernel" --baseline 300 --json \
        > "$WORK/$slug-default.json"
    "$FSP" campaign "$kernel" --baseline 300 --json --no-slicing \
        > "$WORK/$slug-no-slicing.json"
    "$FSP" campaign "$kernel" --baseline 300 --json --no-checkpoints \
        > "$WORK/$slug-no-checkpoints.json"
done

python3 - "$WORK" <<'PY'
import json
import sys

work = sys.argv[1]
failed = False
for kernel in ("GEMM/K1", "PathFinder/K1", "K-Means/K2"):
    slug = kernel.replace("/", "-")
    runs = {
        mode: json.load(open("%s/%s-%s.json" % (work, slug, mode)))
        for mode in ("default", "no-slicing", "no-checkpoints")
    }
    for key in ("prunedEstimate", "randomBaseline", "sdc_anatomy"):
        values = {mode: run[key] for mode, run in runs.items()}
        if values["no-slicing"] != values["default"] or \
                values["no-checkpoints"] != values["default"]:
            print("%s: %s differs between strategies: %s"
                  % (kernel, key, json.dumps(values)))
            failed = True
    stats = runs["default"]["campaignStats"]["injectionStats"]
    if stats["hazardLoadsInSlice"] <= 0:
        print("%s: no cross-CTA load was served in a slice: %s"
              % (kernel, json.dumps(stats)))
        failed = True
    print("%s: equal across strategies; hazard loads in slice %d, "
          "closure runs %d, full-grid fallbacks %d"
          % (kernel, stats["hazardLoadsInSlice"], stats["closureRuns"],
             stats["hazardFallbacks"]))
sys.exit(1 if failed else 0)
PY

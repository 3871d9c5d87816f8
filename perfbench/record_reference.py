"""Record the advisor's reference recommendations into reference_advise.json.

    python3 perfbench/record_reference.py [workload ...]

Run from the root of a checkout whose advisor output is the one to pin.
Naming workloads records only theirs and keeps the other entries.  For
every workload, advisor sampling seed and data scale the benchmark uses, it
stores the recommended design, the number of designs and a digest of the
whole design ranking; the benchmark then counts any difference as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    ADVISOR_SEEDS,
    REFERENCE_FILE,
    WORKLOADS,
    load_references,
    recommendation_digest,
    reference_key,
)

#: The benchmark's own scale and the self-test's.
SCALES = (1.0, 0.05)


def main(names: list[str]) -> int:
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads {sorted(unknown)}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    references = load_references() if names else {}
    for scale in SCALES:
        for name, cls in WORKLOADS.items():
            if names and name not in names:
                continue
            for advisor_seed in range(ADVISOR_SEEDS):
                workload = cls(advisor_seed, scale, {})
                workload.generate()
                for query in workload.training():
                    digest = recommendation_digest(workload.advisor().recommend(query))
                    key = reference_key(name, query.name, advisor_seed, scale)
                    references[key] = digest
                    print(key, digest["recommended"], digest["designs"], flush=True)
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

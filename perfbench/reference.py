"""Recompute reference_eigs.json, the reference eigenvalues of the eigen-mp
requests.

The reference is independent of the package: the operator matrix is built
from scratch by ``tests/_oracles.operator_matrix`` and solved by the
cyclic Jacobi oracle ``tests/_oracles.cyclic_jacobi``, at a working
precision raised until it carries 40 digits below the smallest retained
eigenvalue.

    python perfbench/reference.py        # from the repository root
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.checks import REFERENCE, oracles  # noqa: E402
from perfbench.workloads import EIGEN_REQUESTS  # noqa: E402

# pairs below sqrt(1e-300) are never retained by the package (float64 lambda^2)
LAMBDA_FLOOR = 1e-150
COMMAND = "python perfbench/reference.py"


def solve(req: dict) -> dict:
    import mpmath as mp

    o = oracles()
    dps = 60
    while True:
        t0 = time.perf_counter()
        A = o.operator_matrix(req["a_exp"], req["depth"], req["q"], req["v"], dps=dps)
        evals, _ = o.cyclic_jacobi(A, dps=dps)
        kept = [x for x in evals[: req["keep"]] if abs(x) >= LAMBDA_FLOOR]
        need = math.ceil(-float(mp.log10(abs(kept[-1])))) + 40
        print(f"{req} dps={dps}: {len(kept)} kept, smallest {mp.nstr(kept[-1], 5)}, "
              f"{time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
        if dps >= need:
            return {**req, "dps": dps, "eigenvalues": [repr(float(x)) for x in kept]}
        dps = need + 10


def main() -> None:
    requests = [solve(r) for r in EIGEN_REQUESTS]
    payload = {
        "command": COMMAND,
        "method": "tests/_oracles.operator_matrix solved by tests/_oracles.cyclic_jacobi",
        "lambda_floor": LAMBDA_FLOOR,
        "requests": requests,
    }
    REFERENCE.write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()

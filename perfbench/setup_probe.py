"""Set-up probe: import pairguard and load one workload's inputs.

Run in a fresh interpreter by ``run.py``. Prints two numbers: the seconds
from before ``import pairguard`` to after every pair file is read and parsed
and every predictor table is loaded with ``load_table_predictor``, and the
mean time of the reference routine (``reference.py``) run just before and
just after, so that the caller can scale the set-up to the nominal speed.

Usage: python3 perfbench/setup_probe.py PAIR_DIR [TABLE ...]
"""

import json
import sys
import time
from pathlib import Path

from reference import reference_s

REFERENCE_ROUNDS = 2  # before and after the set-up each


def main(argv: list[str]) -> int:
    references = [reference_s() for _ in range(REFERENCE_ROUNDS)]
    start = time.perf_counter()
    import pairguard.cli  # noqa: F401  (the entry point's import cost)
    from pairguard import load_table_predictor

    pair_dir, *tables = argv
    pairs = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(pair_dir).glob("*.json"))
    ]
    predictors = [load_table_predictor(table) for table in tables]
    elapsed = time.perf_counter() - start
    references += [reference_s() for _ in range(REFERENCE_ROUNDS)]
    if not pairs or len(predictors) != len(tables):
        print(f"no inputs loaded from {pair_dir}", file=sys.stderr)
        return 1
    print(f"{elapsed:.9f} {sum(references) / len(references):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

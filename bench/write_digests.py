"""Record the stdout digests that `check.py` compares for the default seed.

    python3 bench/write_digests.py

Runs the deck of every workload at seed 0, checks each
output against the independent routes in `check.py`, and only if all pass
writes `bench/digests.json` (argv -> sha256 of stdout).  Run it on a commit
whose outputs are to be frozen; later commits must reproduce them byte for
byte.
"""

import json
import sys

from run import execute, verdict  # first: puts the repository's src/ on sys.path

import workloads
from check import DIGESTS_PATH, Checker, argv_key, stdout_digest

DEFAULT_SEED = 0


def main() -> None:
    checker = Checker(digests={})
    digests = {}
    for workload in workloads.WORKLOADS:
        deck = workloads.deck(workload, DEFAULT_SEED)
        for argv in deck:
            _, code, stdout, error = execute(argv)
            reason = verdict(checker, argv, code, stdout, error)
            if reason is not None:
                sys.exit(f"error: {reason}: patdual {' '.join(argv)}")
            digests[argv_key(argv)] = stdout_digest(stdout)
        print(f"{workload}: {len(deck)} requests checked", flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()

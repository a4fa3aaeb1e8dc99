"""The numpy stream canary: draws from every Generator call thermocc's
bytes rest on, seeded the way thermocc seeds it.

thermocc's golden bytes depend on five numpy `Generator` calls:
`integers` and `choice` with `p` in `synth.plan_dataset`, `uniform` and
`normal` in `synth.render_frame`, and `shuffle` in
`split.stratified_split`. `stream_digest()` draws a few hundred values
from each, at seeds 0 and 4, with literal arguments and no thermocc
code, and hashes their `float.hex` (or integer) text. If it differs from
golden/stream_canary.sha256, numpy's streams moved under thermocc; if
it matches while a golden digest fails, thermocc's own code changed the
bytes. tests/test_golden.py and tools/byte_gates.py both check it.

Print the digest (numpy's version on stderr) with:

    python tests/stream_canary.py
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "stream_canary.sha256")
SEEDS = (0, 4)
WEIGHTS = (0.40, 0.25, 0.10, 0.15, 0.10)  # the mixed scenarios' weights


def _draws(seed: int):
    """Text lines of each call's draws at one seed."""
    plan = np.random.default_rng(np.random.SeedSequence((seed,)))
    p = np.array(WEIGHTS) / sum(WEIGHTS)
    yield from (str(int(plan.integers(30, 121))) for _ in range(200))
    yield from (str(int(plan.choice(len(p), p=p))) for _ in range(200))
    for index in range(2):
        frame = np.random.default_rng(np.random.SeedSequence((seed, index)))
        yield from (float.hex(frame.uniform(0.35, 0.65)) for _ in range(100))
        yield from map(float.hex, frame.normal(0.0, 0.3, (12, 16)).ravel())
    idx = np.arange(300, dtype=np.int64)
    np.random.default_rng(seed).shuffle(idx)
    yield " ".join(map(str, idx.tolist()))


def stream_digest() -> str:
    text = "".join(f"{line}\n" for seed in SEEDS for line in _draws(seed))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digest() -> str:
    with open(FIXTURE, encoding="utf-8") as fh:
        return fh.read().split()[0]


if __name__ == "__main__":
    print(f"numpy {np.__version__}", file=sys.stderr)
    print(stream_digest())

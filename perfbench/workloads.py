"""The benchmark's workloads: seeded lists of operations on qfold.

An operation is a ``qfold`` command line run through ``qfold.cli.main``
(``kind: cli``) or one call of a ``qfold.checks`` suite on one preset or
folding (``kind: check``).  The seed only chooses inputs; qfold never sees
it, except as the oracle suite's own seed for its random word pairs.

The seeded blocks come from fixed pools of weights whose block size n is
given beside them.  Each pool holds blocks of about the same cost, so that
the seed changes the inputs but not the amount of work in a pass.
"""

from __future__ import annotations

# ROADMAP reference blocks: D4->G2 (2,2,2,2) has n = 37, A5->B3
# (2,2,2,2,1) has n = 50.  LDL is about 80% of their time.
TRANSITION_REFS = (("D4->G2", (2, 2, 2, 2)), ("A5->B3", (2, 2, 2, 2, 1)))
# The seed draws one block from each pool below; the blocks of a pool cost
# the same to within about 10% on a 2-core Xeon VM.
# Symmetric side of D4->G2, n = 37: the sigma-images of (2,2,3,2).
TRANSITION_POOL_D4 = ((2, 2, 3, 2), (2, 3, 2, 2), (3, 2, 2, 2))
# Symmetric side of A5->B3, n = 35 or 36.
TRANSITION_POOL_A5 = (
    (0, 2, 2, 2, 2), (1, 2, 1, 2, 2), (1, 3, 1, 2, 2), (2, 0, 2, 2, 2),
    (2, 1, 1, 2, 3), (1, 1, 2, 1, 2), (1, 1, 2, 2, 1), (1, 3, 2, 2, 1))
# A3, n = 30: the only A3 blocks with 30 <= n <= 55 that cost about as much
# as the blocks above; the others cost two to ten times more.
TRANSITION_POOL_A3 = ((3, 4, 4), (4, 3, 4))

# Long, repetitive words: A3 (4,4,4) has n = 35, G2 (6,4) has n = 13.
# Matching sums are about 84% of their time and LDL never runs.
GRAM_REFS = (("A3", (4, 4, 4)), ("G2", (6, 4)))
# Height 10 or more and 12 <= n <= 14 (n = 13, 12, 12, 14, 13), each about
# a quarter of A3 (4,4,4) to within about 10%: the median operation is one
# of those drawn, and neither the work nor the Gram entries of a pass depend
# much on which are drawn.
GRAM_POOL = (("A3", (1, 8, 4)), ("B2", (7, 5)), ("B3", (0, 5, 6)), ("B3", (0, 7, 4)),
             ("G2", (8, 4)))
GRAM_DRAWS = 4

# Heights are reduced from the test suite's so that a pass takes seconds,
# not minutes.
# Each call is (suite, preset or folding, max height, instances, entries):
# the instances the call must report (the oracle calls add their random
# pairs), so that a suite that silently checks less fails; and the Gram
# entries (inner products by the matching-sum route, random pairs
# included) it computes, the unit of entries_per_s on check-sweep.
CHECK_CALLS = (
    ("oracle", "A3", 5, 249, 324), ("oracle", "B2", 5, 75, 150),
    ("oracle", "D4", 5, 879, 954), ("oracle", "G2", 5, 96, 171),
    ("factorization", "A3", 6, 83, 551), ("factorization", "B2", 6, 27, 138),
    ("factorization", "D4", 6, 209, 2688), ("factorization", "G2", 6, 27, 202),
    ("delta", "A3", 10, 98, 0), ("delta", "A5", 10, 199, 0),
    ("delta", "D4", 10, 373, 0), ("delta", "D5", 10, 153, 0),
    ("delta", "E6", 10, 247, 0),
    ("restriction", "A3->B2", 6, 138, 138), ("restriction", "D4->G2", 6, 202, 202),
    ("congruence", "A3->B2", 6, 27, 831), ("congruence", "D4->G2", 4, 14, 1118),
    ("equivariance", "A3->B2", 8, 602, 0), ("equivariance", "D4->G2", 8, 2790, 0),
)
ORACLE_RANDOM_PAIRS = 75          # per preset, 300 in all


def _cli(command, spec, weight):
    flag = "--fold" if "->" in spec else "--preset"
    return {"kind": "cli", "command": command, "spec": spec,
            "weight": list(weight),
            "argv": [command, flag, spec, "--weight", ",".join(map(str, weight))]}


def transition_large(rng):
    blocks = list(TRANSITION_REFS) + [
        ("D4->G2", rng.choice(TRANSITION_POOL_D4)),
        ("A5->B3", rng.choice(TRANSITION_POOL_A5)),
        ("A3", rng.choice(TRANSITION_POOL_A3))]
    return [_cli("transition", spec, weight) for spec, weight in blocks]


def gram_wide(rng):
    blocks = list(GRAM_REFS) + rng.sample(GRAM_POOL, GRAM_DRAWS)
    return [_cli("gram", spec, weight) for spec, weight in blocks]


def check_sweep(rng):
    ops = []
    for suite, spec, height, instances, entries in CHECK_CALLS:
        kwargs = {"max_height": height}
        kwargs["folds" if "->" in spec else "presets"] = [spec]
        if suite == "oracle":
            kwargs["random_pairs"] = ORACLE_RANDOM_PAIRS
            kwargs["seed"] = rng.getrandbits(32)
            instances += ORACLE_RANDOM_PAIRS
        ops.append({"kind": "check", "suite": suite, "spec": spec,
                    "kwargs": kwargs, "expect": instances, "entries": entries})
    return ops


WORKLOADS = {
    "transition-large": transition_large,
    "gram-wide": gram_wide,
    "check-sweep": check_sweep,
}


def presets_of(ops):
    """Presets and foldings a workload builds, in first-use order."""
    names = []
    for op in ops:
        if op["spec"] not in names:
            names.append(op["spec"])
    if any(op["kind"] == "check" for op in ops):
        # check_delta also builds the folding of each symmetric preset
        for name in ("A3->B2", "A5->B3", "D4->G2", "D5->C4", "E6->F4"):
            if name not in names:
                names.append(name)
    return names

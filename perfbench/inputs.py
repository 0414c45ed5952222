"""Seeded inputs and job sequences of the four benchmark workloads.

Every arrangement reaches the program as arrangement JSON (a bundled
``example:`` name or a file written by `write_inputs`).  The same seed always
gives byte-identical files: generators draw from ``random.Random`` seeded by
a string, which CPython hashes with SHA-512 independently of
``PYTHONHASHSEED``.

A job is ``(key, command, input name)``.  Each workload is a fixed cycle of
rounds, a round being a short list of jobs that together give the workload's
mix.  The closed loop in `worker` walks the cycle from the start and runs
whole rounds only, so every run of a workload sees the same mix of commands
and of fixed and seeded inputs, however many rounds fit in it.
"""

import json
import os
import random
from itertools import combinations

WORKLOADS = ("octic", "generic", "lines", "lattice")

# Seeded inputs per run.  Each list is longer than one run of
# BENCHMARK.json's run_seconds can walk, so no input repeats in a run.
GENERIC_COUNT = 12
LINES_COUNT = 48
LATTICE_COUNT = 12

GENERIC_PLANES = 6
LINES = 6
LATTICE_PLANES = 10
MAX_TRIES = 500


def det(rows):
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def proportional(a, b):
    """True when a and b span at most a line (all 2x2 minors vanish)."""
    return all(a[i] * b[j] == a[j] * b[i]
               for i, j in combinations(range(len(a)), 2))


def is_generic(rows):
    """All maximal minors nonzero: every l of the n normals are independent."""
    l = len(rows[0])
    return all(det([rows[i] for i in s]) != 0
               for s in combinations(range(len(rows)), l))


def _extend_generic(rng, rows, l, total, lo, hi):
    """Append random rows in [lo, hi] to l-vectors ``rows`` until there are
    ``total``, keeping every maximal minor nonzero.

    A partial arrangement can leave no admissible row in the box, so after
    ``MAX_TRIES`` rejected candidates in a row the draw starts over.
    """
    start = [list(r) for r in rows]
    rows, tries = list(start), 0
    while len(rows) < total:
        if tries == MAX_TRIES:
            rows, tries = list(start), 0
        cand = [rng.randint(lo, hi) for _ in range(l)]
        tries += 1
        if any(cand) and all(det([rows[i] for i in s] + [cand]) != 0
                             for s in combinations(range(len(rows)), l - 1)):
            rows.append(cand)
            tries = 0
    return rows


def unit_rows(l):
    return [[int(i == j) for j in range(l)] for i in range(l)]


# ----- fixed inputs -----

GENERIC6_L4 = unit_rows(4) + [[1, 1, 1, 1], [1, 2, 3, 5]]


def braid_rows(l):
    """All e_i - e_j, i < j, in C^l (the braid arrangement A_{l-1})."""
    out = []
    for i, j in combinations(range(l), 2):
        row = [0] * l
        row[i], row[j] = 1, -1
        out.append(row)
    return out


BRAID_A5 = braid_rows(6)


# ----- seeded generators -----

def generic_arrangement(rng):
    """6 generic planes in C^4: e_1..e_4, (1,1,1,1) and a seeded sixth normal
    with entries in [-3, 3].  All 4x4 minors are nonzero."""
    return _extend_generic(rng, GENERIC6_L4[:5], 4, GENERIC_PLANES, -3, 3)


def lines_arrangement(rng):
    """LINES lines in P^2 with coefficients in [-9, 9]: no zero normal and no
    two proportional normals."""
    rows = []
    while len(rows) < LINES:
        cand = [rng.randint(-9, 9) for _ in range(3)]
        if any(cand) and not any(proportional(cand, r) for r in rows):
            rows.append(cand)
    return rows


def lattice_arrangement(rng):
    """LATTICE_PLANES generic planes in C^4 with coefficients in [-3, 3]."""
    return _extend_generic(rng, [], 4, LATTICE_PLANES, -3, 3)


def _rng(workload, seed):
    return random.Random(f"logchern-bench:{workload}:{seed}")


def arrangements(workload, seed):
    """Ordered ``{name: (l, rows, generic)}`` of every input the workload
    uses; ``generic`` marks inputs whose lattice is known in closed form."""
    rng = _rng(workload, seed)
    out = {}
    if workload == "generic":
        out["generic6_l4"] = (4, GENERIC6_L4, True)
        for k in range(GENERIC_COUNT):
            out[f"generic_s{seed}_{k}"] = (4, generic_arrangement(rng), True)
    elif workload == "lines":
        out["lines_fixed"] = (3, lines_arrangement(_rng("lines", "fixed")),
                              False)
        for k in range(LINES_COUNT):
            out[f"lines_s{seed}_{k}"] = (3, lines_arrangement(rng), False)
    elif workload == "lattice":
        out["braid_a5"] = (6, BRAID_A5, False)
        for k in range(LATTICE_COUNT):
            out[f"lattice_s{seed}_{k}"] = (4, lattice_arrangement(rng), True)
    elif workload != "octic":
        raise ValueError(f"unknown workload {workload!r}")
    return out


def job_rounds(workload, seed):
    """The workload's rounds of jobs, walked cyclically by the closed loop."""
    names = list(arrangements(workload, seed))
    if workload == "octic":
        return [[(f"{cmd}:nonfree_octic", cmd, "nonfree_octic")
                 for cmd in ("verify", "nval", "modules")]]
    if workload == "generic":
        # generic6_l4 between seeded inputs halves the share of the run
        # that depends on the seed
        fixed, seeded = names[0], names[1:]
        return [[(f"verify:{n}", "verify", n) for n in (fixed, s)]
                for s in seeded]
    if workload == "lines":
        # as in generic: a fixed input between seeded ones, drawn like them
        fixed, seeded = names[0], names[1:]
        return [[(f"verify:{n}", "verify", n) for n in (fixed, s)]
                for s in seeded]
    # braid A5 and one seeded input per round: about half of the run's time
    fixed, seeded = names[0], names[1:]
    return [[(f"{cmd}:{n}", cmd, n) for n in (fixed, s)
             for cmd in ("lattice", "poincare", "csm")] for s in seeded]


def input_spec(workdir, name):
    """The CLI input argument for an input name."""
    if name == "nonfree_octic":
        return "example:nonfree_octic"
    return os.path.join(workdir, f"{name}.json")


def write_inputs(workload, seed, workdir):
    """Write the workload's arrangement files; returns the arrangement map."""
    arrs = arrangements(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    for name, (l, rows, _generic) in arrs.items():
        with open(input_spec(workdir, name), "w", encoding="utf-8") as fh:
            json.dump({"l": l, "hyperplanes": rows}, fh)
    return arrs

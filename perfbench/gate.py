"""Correctness gate for benchmark jobs.

A job passes when it exits with code 0, its JSON report matches the
recorded reference byte for byte on every field except ``engine`` (when a
reference exists: the fixed inputs, and the seeded inputs of the default
seed), and the mathematical invariants below hold for any seed:

* ``verify``: ``applicable`` is true, the residual and the Denham-Schulze
  residual are zero, and the Mustata-Schenck residual is ``N h^(l-1)``
  (zero exactly when the arrangement is locally free);
* ``poincare``: the deconing ``factorization_holds`` is true;
* ``nval``: the per-flat sum equals the graded ``N``;
* braid A5: ``pi(A, t) = prod_{k=1..5} (1 + k t)``;
* generic inputs: the truncated-binomial Poincare polynomial and flat counts.

``engine`` counters may change with engine work; the traced run reports
them as per-layer counts instead.
"""

import json
from math import comb

REFERENCE_SEED = 0
BRAID_A5_FLATS = [1, 15, 65, 90, 31, 1]


def prod_one_plus(ks):
    """Coefficients of prod_k (1 + k t), constant term first."""
    coeffs = [1]
    for k in ks:
        coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


BRAID_A5_PI = prod_one_plus(range(1, 6))
BRAID_A5_PI_PROJECTIVE = prod_one_plus(range(2, 6))


def canonical(report):
    """The report's JSON text without the ``engine`` field."""
    return json.dumps({k: v for k, v in report.items() if k != "engine"},
                      indent=1, sort_keys=True)


def generic_pi_affine(n, l):
    """pi(A, t) of n generic central hyperplanes in C^l, n >= l."""
    return [comb(n, k) for k in range(l)] + [comb(n - 1, l - 1)]


def generic_pi_projective(n, l):
    """pi(PA, t) = pi(A, t) / (1 + t): the binomial row of n - 1 cut at l."""
    return [comb(n - 1, k) for k in range(l)]


def _zero(coeffs):
    return coeffs is not None and not any(coeffs)


def invariant_problems(command, name, report, generic):
    """Closed-form and built-in checks on one job's JSON report."""
    result, arr = report.get("result"), report.get("arrangement")
    if result is None or arr is None:
        return ["report has no result"]
    l, n = arr["l"], len(arr["hyperplanes"])
    out = []
    if command == "verify":
        if result.get("applicable") is not True:
            out.append("applicable is not true")
        if not _zero(result.get("residual")):
            out.append(f"residual {result.get('residual')} is not zero")
        if not _zero(result.get("ds_residual")):
            out.append(f"ds_residual {result.get('ds_residual')} is not zero")
        ms = result.get("ms_residual")
        if ms != [0] * (l - 1) + [result.get("N")]:
            out.append(f"ms_residual {ms} is not N h^(l-1)")
        if generic and result.get("pi_projective") != \
                generic_pi_projective(n, l):
            out.append("pi_projective differs from the generic closed form")
    elif command == "nval":
        if result.get("per_flat_sum") != result.get("N"):
            out.append("per-flat N sum differs from the graded N")
    elif command == "modules":
        if result.get("N") is None:
            out.append("N is missing")
    elif command == "lattice":
        counts = result.get("flat_counts_by_codim")
        if name == "braid_a5" and counts != BRAID_A5_FLATS:
            out.append(f"braid A5 flat counts {counts}")
        if generic and counts != [comb(n, k) for k in range(l)] + [1]:
            out.append(f"generic flat counts {counts}")
    elif command == "poincare":
        check = result.get("decone_check") or {}
        if check.get("factorization_holds") is not True:
            out.append("decone factorization does not hold")
        pi = result.get("pi_affine", {}).get("coeffs")
        if name == "braid_a5" and pi != BRAID_A5_PI:
            out.append(f"braid A5 pi {pi} is not prod(1 + kt)")
        if generic and pi != generic_pi_affine(n, l):
            out.append("pi_affine differs from the generic closed form")
    elif command == "csm":
        pi = result.get("pi_projective", {}).get("coeffs")
        if name == "braid_a5" and pi != BRAID_A5_PI_PROJECTIVE:
            out.append(f"braid A5 projective pi {pi}")
        if generic and pi != generic_pi_projective(n, l):
            out.append("pi_projective differs from the generic closed form")
    return out


def problems(job, report, code, arrs, references):
    """All reasons the job failed the gate; empty when it passed."""
    key, command, name = job
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    ref = references.get(key)
    if ref is not None and canonical(report) != canonical(ref):
        out.append("report differs from the reference")
    generic = arrs.get(name, (None, None, False))[2]
    out.extend(invariant_problems(command, name, report, generic))
    return out

"""Command line front end.

    logchern <command> <input.json> [options]

Commands: lattice, poincare, csm, modules, resolution, chern, nval, verify,
examples.  The input is an arrangement file (JSON) or ``example:<name>``
for a bundled one.  Output is a human-readable text report or, with
``--format json``, a schema-stable JSON document (byte-identical across
runs of the same job; wall-clock timing appears only in text mode).

Exit codes: 0 success, 1 input error, 2 hypothesis failure (for instance a
non-zero-dimensional non-free locus, or l >= 5 without
--assume-locally-tame), 3 engine or budget failure (a failed internal
cross-check, or a degree cap / resolution length exceeded).  A job that
fails once its flags are valid still prints a schema report, whose
``error.type`` is ``input``, ``hypothesis``, ``engine`` or ``budget``.
"""

import argparse
import json
import os
import sys
import time
from importlib import resources

from .arrangements import (build_lattice, decone, parse_arrangement,
                           poincare_affine, poincare_projective,
                           read_json_file)
from .chern_csm import (chern_from_hilbert, chow_from_chern,
                        csm_complement, csm_of_divisor, defect_coefficient,
                        verify_main_theorem)
from .errors import (HypothesisError, InputError, LogChernError,
                     NotFiniteLengthError, ResolutionLengthError)
from .groebner import EngineStats, stats_scope
from .log_geometry import freeness_test, log_modules, nonfree_locus
from .modules import DEGREE_CAP

SCHEMA = "logchern/report/v1"

COMMANDS = ("lattice", "poincare", "csm", "modules", "resolution", "chern",
            "nval", "verify")

_FLAG_COMMANDS = {
    "assume_locally_tame": {"modules", "resolution", "chern", "nval",
                            "verify"},
    "chart": {"nval"},
    "degree_cap": {"nval"},  # read only by the per-flat length count
    "seed": {"poincare"},
}


class JobConfig:
    """A validated CLI job: command, input, format and flags."""

    __slots__ = ("command", "input_path", "fmt", "assume_locally_tame",
                 "chart", "degree_cap", "seed")

    def __init__(self, command, input_path, fmt="text",
                 assume_locally_tame=False, chart=None, degree_cap=None,
                 seed=None):
        if command not in COMMANDS:
            raise InputError(f"unknown command {command!r}")
        if fmt not in ("text", "json"):
            raise InputError(f"unknown output format {fmt!r}")
        if degree_cap is not None and degree_cap < 0:
            raise InputError("flag --degree-cap must be non-negative")
        self.command = command
        self.input_path = input_path
        self.fmt = fmt
        self.assume_locally_tame = assume_locally_tame
        self.chart = chart
        self.degree_cap = degree_cap if degree_cap is not None else DEGREE_CAP
        self.seed = seed
        given = {
            "assume_locally_tame": assume_locally_tame,
            "chart": chart is not None,
            "degree_cap": degree_cap is not None,
            "seed": seed is not None,
        }
        for flag, on in given.items():
            if on and command not in _FLAG_COMMANDS[flag]:
                raise InputError(
                    f"flag --{flag.replace('_', '-')} is not valid for "
                    f"command {command!r}")

    def flags_dict(self):
        return {
            "assume_locally_tame": self.assume_locally_tame,
            "chart": self.chart,
            "degree_cap": self.degree_cap,
            "seed": self.seed,
        }


def bundled_examples():
    """Names and paths of the arrangement files shipped with the package."""
    base = resources.files("logchern").joinpath("data")
    out = []
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append((entry.name[:-5], str(entry)))
    return out


def load_arrangement(spec_str):
    if spec_str.startswith("example:"):
        name = spec_str.split(":", 1)[1]
        for ex_name, path in bundled_examples():
            if ex_name == name:
                return parse_arrangement(path)
        raise InputError(
            f"unknown bundled example {name!r}; see `logchern examples`")
    data = read_json_file(spec_str)
    if not isinstance(data, dict):
        # parse_arrangement would read a JSON string as a file path
        raise InputError(f"{spec_str} must hold a JSON object, "
                         f"not {type(data).__name__}")
    return parse_arrangement(data)


# ----- per-command result builders -----

def _poly_entry(render, coeffs):
    return {"coeffs": list(coeffs), "text": render}


def _cmd_lattice(arr, config):
    lat = build_lattice(arr)
    report = lat.report()
    counts = [len(level["flats"]) for level in report]
    return {"rank": lat.rank, "flat_counts_by_codim": counts,
            "levels": report}


def _cmd_poincare(arr, config):
    lat = build_lattice(arr)
    pi = poincare_affine(arr, lat)
    out = {"pi_affine": _poly_entry(pi.render(), pi.coeffs)}
    if arr.is_central and arr.n >= 1:
        pp = poincare_projective(arr, lat)
        out["pi_projective"] = _poly_entry(pp.render(), pp.coeffs)
        if arr.dim >= 2:
            import random
            rng = random.Random(config.seed)
            h = rng.randrange(arr.n) if config.seed is not None else 0
            # pp is the exact quotient pi(A) / (1 + t), so
            # (1 + t) pi(dA) = pi(A) exactly when pi(dA) = pi(PA)
            dpi = poincare_affine(decone(arr, h))
            out["decone_check"] = {
                "hyperplane": h,
                "pi_decone": _poly_entry(dpi.render(), dpi.coeffs),
                "factorization_holds": dpi == pp,
            }
    return out


def _cmd_csm(arr, config):
    pi = poincare_projective(arr)
    l = arr.dim
    comp = csm_complement(pi, l)
    div = csm_of_divisor(pi, l)
    return {
        "pi_projective": _poly_entry(pi.render(), pi.coeffs),
        "csm_complement": _poly_entry(comp.render(), comp.coeffs),
        "csm_divisor": _poly_entry(div.render(), div.coeffs),
    }


def _cmd_modules(arr, config):
    dd, d0, full_d, om1, om0 = log_modules(arr)
    out = {"f": dd.f.render(), "degree": dd.degree, "modules": {}}
    for lm in (d0, full_d, om1, om0):
        entry = lm.report()
        entry["freeness"] = freeness_test(lm).to_dict()
        out["modules"][lm.kind] = entry
    try:
        nfl = nonfree_locus(om0)
        out["N"] = nfl.n_projective
        out["cone_dim"] = nfl.cone_dim
    except HypothesisError as exc:
        out["N"] = None
        out["note"] = str(exc)
    return out


def _cmd_resolution(arr, config):
    _, d0, _, om1, om0 = log_modules(arr)
    return {
        "D0": d0.minimal_resolution().dump(),
        "Omega1": om1.minimal_resolution().dump(),
        "Omega1_0": om0.minimal_resolution().dump(),
    }


def _cmd_chern(arr, config):
    _, d0, _, _, om0 = log_modules(arr)
    l = arr.dim
    ct_dual = chern_from_hilbert(d0.presentation, 1, l)
    ct_omega = chern_from_hilbert(om0.presentation, 1, l)
    lhs = chow_from_chern(ct_dual)
    return {
        "ct_omega1_dual": _poly_entry(ct_dual.render(), ct_dual.coeffs),
        "ct_omega1_twisted": _poly_entry(ct_omega.render(), ct_omega.coeffs),
        "chow_lhs": _poly_entry(lhs.render(), lhs.coeffs),
        "defect_coefficient": defect_coefficient(l),
    }


def _cmd_nval(arr, config):
    om0 = log_modules(arr)[-1]
    fr = freeness_test(om0)
    nfl = nonfree_locus(om0, per_flat=True, chart=config.chart,
                        degree_cap=config.degree_cap)
    out = nfl.to_dict()
    out["freeness"] = fr.to_dict()
    if nfl.n_projective == 0:
        out["note"] = ("free" if fr.is_free
                       else "locally free, not free (pdim %d)" % fr.pdim)
    else:
        out["note"] = "not locally free"
    return out


def _cmd_verify(arr, config):
    rep = verify_main_theorem(
        arr, assume_locally_tame=config.assume_locally_tame)
    return rep.to_dict()


_RUNNERS = {
    "lattice": _cmd_lattice,
    "poincare": _cmd_poincare,
    "csm": _cmd_csm,
    "modules": _cmd_modules,
    "resolution": _cmd_resolution,
    "chern": _cmd_chern,
    "nval": _cmd_nval,
    "verify": _cmd_verify,
}


_BUDGET_ERRORS = (NotFiniteLengthError, ResolutionLengthError)


def run(config):
    """Execute a job; returns (report dict, exit code)."""
    t0 = time.perf_counter()
    stats = EngineStats()
    arr = None
    try:
        arr = load_arrangement(config.input_path)
        with stats_scope(stats):
            result = _RUNNERS[config.command](arr, config)
        code = 0
        error = None
        if config.command == "verify" and not result.get("applicable", True):
            code = 2
            error = {"type": "hypothesis",
                     "message": result["hypotheses"].get(
                         "non_free_locus",
                         "identity hypotheses are not satisfied")}
    except HypothesisError as exc:
        arr = None
        result = None
        error = {"type": "hypothesis", "message": str(exc)}
        code = 2
    except InputError as exc:
        arr = None
        result = None
        error = {"type": "input", "message": str(exc)}
        code = 1
    except LogChernError as exc:
        result = None
        kind = "budget" if isinstance(exc, _BUDGET_ERRORS) else "engine"
        error = {"type": kind, "message": str(exc)}
        code = 3
    elapsed = time.perf_counter() - t0
    report = {
        "schema": SCHEMA,
        "command": config.command,
        "flags": config.flags_dict(),
        "arrangement": arr.to_dict() if arr is not None else None,
        "result": result,
        "engine": stats.as_dict(),
    }
    if error is not None:
        report["error"] = error
    report["_elapsed_seconds"] = elapsed  # stripped from JSON output
    return report, code


# ----- rendering -----

def _render_text(report):
    lines = []
    lines.append(f"logchern {report['command']}")
    arr = report.get("arrangement")
    if arr:
        lines.append(f"  l = {arr['l']}, n = {len(arr['hyperplanes'])}")
        for i, v in enumerate(arr["hyperplanes"]):
            label = arr.get("labels", [None] * len(arr["hyperplanes"]))[i] \
                if arr.get("labels") else f"H{i}"
            lines.append(f"    {label}: {v}")
    if report.get("error"):
        lines.append(f"error ({report['error']['type']}): "
                     f"{report['error']['message']}")
    result = report.get("result")
    if result is not None:
        lines.append("result:")
        lines.extend(_render_value(result, indent=2))
    eng = report["engine"]
    lines.append(f"engine: {eng['s_pairs']} S-pairs, "
                 f"{eng['basis_elements']} basis elements, "
                 f"max degree {eng['max_degree']}")
    lines.append(f"elapsed: {report['_elapsed_seconds']:.2f}s")
    return "\n".join(lines)


def _render_value(value, indent=0):
    pad = " " * indent
    lines = []
    if isinstance(value, dict):
        if set(value) == {"coeffs", "text"}:
            return [f"{pad}{value['text']}"]
        for k, v in value.items():
            if isinstance(v, list) and all(
                    not isinstance(x, (dict, list)) for x in v):
                lines.append(f"{pad}{k}: {json.dumps(v)}")
            elif isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_value(v, indent + 2))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.extend(_render_value(v, indent))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(v):
    if isinstance(v, dict) and set(v) == {"coeffs", "text"}:
        return v["text"]
    return json.dumps(v) if isinstance(v, (dict, list)) else str(v)


def render(report, fmt):
    if fmt == "json":
        clean = {k: v for k, v in report.items() if not k.startswith("_")}
        return json.dumps(clean, indent=1, sort_keys=True)
    return _render_text(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="logchern",
        description="Exact lattice, logarithmic-module and Chern/CSM "
                    "invariants of central hyperplane arrangements.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("input", help="arrangement JSON file or example:<name>")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--assume-locally-tame", action="store_true",
                       help="assert local tameness for l >= 5")
        p.add_argument("--chart", type=int, default=None,
                       help="coordinate chart override for per-flat N")
        p.add_argument("--degree-cap", type=int, default=None,
                       help="cap on the per-point length count (nval)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized self-checks")
    p = sub.add_parser("examples", help="list bundled arrangement files")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _print_stdout(text):
    """Print ``text``; a reader that closes the pipe early (``| head``)
    gets no traceback."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "examples":
        items = bundled_examples()
        if args.format == "json":
            _print_stdout(json.dumps(
                {"schema": SCHEMA, "command": "examples",
                 "examples": [{"name": n, "path": p} for n, p in items]},
                indent=1, sort_keys=True))
        else:
            _print_stdout("\n".join(f"{name}: {path}"
                                    for name, path in items))
        return 0
    try:
        config = JobConfig(args.command, args.input, fmt=args.format,
                           assume_locally_tame=args.assume_locally_tame,
                           chart=args.chart, degree_cap=args.degree_cap,
                           seed=args.seed)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report, code = run(config)
    _print_stdout(render(report, config.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())

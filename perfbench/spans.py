"""Spans and counters recorded around calls into each logchern layer.

Nothing inside ``src/`` is instrumented: `install` replaces public functions
and methods with wrappers that record a span (id, name, start, end, parent,
job) per call.  Most modules bind names with from-imports, so a wrapper is
written into every logchern module that holds the original function object.
``modules`` reaches the engine through ``eng.<name>``, which the patched
``logchern.groebner`` attributes cover.

Counters: engine counters come from ``logchern.stats_scope`` (per job, and
per ``D_0`` / ``Omega^1`` stage); coefficient bits are read where
``reduce_full`` returns; ``ModuleOrder.key`` calls and ``_key`` cache misses
are counted at class level.  Everything stays in memory until `Tracer.dump`.
"""

import json
import time
from functools import wraps

# layer -> public names to wrap; "Class.method" wraps a method
LAYERS = {
    "cli": ("run", "load_arrangement", "render"),
    "arrangements": ("parse_arrangement", "build_lattice", "poincare_affine",
                     "poincare_projective", "decone", "localize"),
    "log_geometry": ("defining_data", "derivation_module_d0",
                     "log_derivations", "log_forms", "relative_log_forms",
                     "freeness_test", "nonfree_locus", "per_flat_n_values",
                     "affine_n_value"),
    "chern_csm": ("verify_main_theorem", "chern_from_resolution",
                  "csm_complement", "csm_of_divisor"),
    "modules": ("groebner_basis", "normal_form", "kernel_generators",
                "presentation_of_submodule", "free_resolution",
                "minimalize_resolution", "ext1_against_ring", "module_dual",
                "hilbert_function", "hilbert_polynomial", "total_dimension",
                "krull_dim", "to_engine", "to_engine_scaled", "from_engine"),
    "groebner": ("buchberger", "reduce_full", "interreduce",
                 "normal_form_raw", "schreyer_syzygies", "kernel_raw"),
    "rings": ("MultiPoly.__add__", "MultiPoly.__sub__", "MultiPoly.__neg__",
              "MultiPoly.__mul__", "MultiPoly.__rmul__", "MultiPoly.__pow__",
              "MultiPoly.divide_exact"),
}

# stages whose engine counters and coefficient bits are kept apart
STAGE_COUNTERS = {"log_geometry.derivation_module_d0": "log_geometry.d0",
                  "log_geometry.log_forms": "log_geometry.omega1"}

# inclusive-time groups: metric -> span names (outermost spans only)
GROUPS = {
    "log_geometry.d0_s": ("log_geometry.derivation_module_d0",),
    "log_geometry.omega1_s": ("log_geometry.log_forms",),
    "log_geometry.omega1_0_s": ("log_geometry.relative_log_forms",),
    "log_geometry.freeness_s": ("log_geometry.freeness_test",),
    "log_geometry.nonfree_locus_s": ("log_geometry.nonfree_locus",),
    "log_geometry.per_flat_s": ("log_geometry.per_flat_n_values",),
    "groebner.reduce_s": ("groebner.reduce_full",),
    "modules.kernel_s": ("modules.kernel_generators",),
    "modules.resolution_s": ("modules.free_resolution",),
    "modules.minimalize_s": ("modules.minimalize_resolution",),
    "modules.ext1_s": ("modules.ext1_against_ring",),
    "modules.hilbert_s": ("modules.hilbert_function",
                          "modules.hilbert_polynomial",
                          "modules.total_dimension"),
    "modules.convert_s": ("modules.to_engine", "modules.to_engine_scaled",
                          "modules.from_engine"),
    "arrangements.build_lattice_s": ("arrangements.build_lattice",),
    "arrangements.decone_localize_s": ("arrangements.decone",
                                       "arrangements.localize"),
    "chern_csm.whitney_s": ("chern_csm.chern_from_resolution",),
    "chern_csm.csm_s": ("chern_csm.csm_complement",
                        "chern_csm.csm_of_divisor"),
    "cli.load_s": ("cli.load_arrangement",),
    "cli.render_s": ("cli.render",),
}

# call counts: metric -> (span names, outermost only)
CALLS = {
    "log_geometry.per_flat_charts": (("log_geometry.affine_n_value",), False),
    "log_geometry.omega1_calls": (("log_geometry.log_forms",), False),
    "groebner.reduce_calls": (("groebner.reduce_full",), False),
    "modules.kernel_calls": (("modules.kernel_generators",), False),
    "modules.convert_calls": (GROUPS["modules.convert_s"], True),
    "rings.mul_calls": (("rings.MultiPoly.__mul__",
                         "rings.MultiPoly.__rmul__"), False),
    "arrangements.build_lattice_calls": (("arrangements.build_lattice",),
                                         False),
}

# self time summed over every span of a layer
BUSY = {"groebner.busy_s": "groebner", "modules.busy_s": "modules",
        "rings.busy_s": "rings", "cli.self_s": "cli"}

ENGINE_COUNTERS = ("s_pairs", "zero_reductions", "basis_elements")

# counters kept by the wrappers; maxima are not averaged over jobs
COUNTERS = ("log_geometry.d0.s_pairs", "log_geometry.omega1.s_pairs",
            "log_geometry.d0.max_coeff_bits",
            "log_geometry.omega1.max_coeff_bits", "groebner.s_pairs",
            "groebner.zero_reductions", "groebner.basis_elements",
            "groebner.max_degree", "groebner.max_coeff_bits",
            "arrangements.flats")
MAXIMA = ("max_coeff_bits", "max_degree")

METRICS = (tuple(GROUPS) + tuple(CALLS) + tuple(BUSY) + COUNTERS
           + ("groebner.useful_pair_ratio", "orders.key_calls",
              "orders.key_misses", "trace.job_s", "trace.overhead_s"))


def unit(metric):
    """Unit of a per-layer metric, read off its name."""
    for suffix, u in (("_s", "s"), ("bits", "bits"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return u
    return "count"


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    ``spans`` are ``(id, name, start, end, parent, job)`` tuples.  Child
    intervals are clipped to the parent and merged before subtracting, so
    overlapping children are not counted twice.
    """
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for sid, _name, start, end, _parent, _job in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    by_id = {s[0]: s for s in spans}
    names = set(names)
    out = []
    for s in spans:
        if s[1] not in names:
            continue
        parent = by_id.get(s[4])
        while parent is not None and parent[1] not in names:
            parent = by_id.get(parent[4])
        if parent is None:
            out.append(s)
    return out


def _coeff_bits(result):
    reduced, scale = result
    bits = abs(scale).bit_length()
    for c in reduced.values():
        b = abs(c).bit_length()
        if b > bits:
            bits = b
    return bits


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.job = None
        self.counters = {}
        self.bit_scopes = []  # one [max_bits] cell per open bit scope
        self.key_calls = 0
        self.key_misses = 0

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def top(self, name, value):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def span(self, name, fn):
        """Wrap ``fn`` so every call records a span named ``name``."""
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
        return wrapper

    def _reduce_full(self, fn):
        """Read coefficient bits where ``reduce_full`` returns."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            bits = _coeff_bits(result)
            for cell in self.bit_scopes:
                if bits > cell[0]:
                    cell[0] = bits
            return result
        return wrapper

    def _build_lattice(self, fn):
        """Count the flats of every lattice built."""
        def wrapper(*args, **kwargs):
            lattice = fn(*args, **kwargs)
            self.add("arrangements.flats",
                     sum(len(level) for level in lattice.levels))
            return lattice
        return wrapper

    def _stage(self, prefix, fn):
        """Keep a stage's S-pairs and coefficient bits under ``prefix``."""
        import logchern

        def wrapper(*args, **kwargs):
            cell = [0]
            self.bit_scopes.append(cell)
            try:
                with logchern.stats_scope(logchern.EngineStats()) as st:
                    return fn(*args, **kwargs)
            finally:
                self.bit_scopes.pop()
                self.add(prefix + ".s_pairs", st.s_pairs)
                self.top(prefix + ".max_coeff_bits", cell[0])
        return wrapper

    def run_job(self, job_id, fn):
        """Run ``fn()`` as job ``job_id`` with job-level engine counters."""
        import logchern
        self.job = job_id
        cell = [0]
        self.bit_scopes.append(cell)
        try:
            with logchern.stats_scope(logchern.EngineStats()) as st:
                return fn()
        finally:
            self.bit_scopes.pop()
            for name in ENGINE_COUNTERS:
                self.add("groebner." + name, getattr(st, name))
            self.top("groebner.max_degree", st.max_degree)
            self.top("groebner.max_coeff_bits", cell[0])
            self.job = None

    def install(self):
        """Patch logchern; call once per process, before any job."""
        import importlib
        import logchern
        from logchern import orders
        mods = [logchern] + [importlib.import_module(f"logchern.{m}")
                             for m in LAYERS]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"logchern.{layer}")
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.span(f"{layer}.{qual}",
                                                 getattr(cls, meth)))
                    continue
                orig = getattr(mod, qual)
                name = f"{layer}.{qual}"
                wrapped = self.span(name, orig)
                if name in STAGE_COUNTERS:
                    wrapped = self._stage(STAGE_COUNTERS[name], wrapped)
                elif qual == "reduce_full":
                    wrapped = self._reduce_full(wrapped)
                elif qual == "build_lattice":
                    wrapped = self._build_lattice(wrapped)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
        self._count_order_keys(orders)

    def _count_order_keys(self, orders):
        key = orders.ModuleOrder.key

        def counted_key(order, term):
            self.key_calls += 1
            return key(order, term)
        orders.ModuleOrder.key = counted_key
        for cls in (orders.TOPOrder, orders.POTOrder, orders.SchreyerOrder):
            self._count_misses(cls)

    def _count_misses(self, cls):
        miss = cls._key

        def counted_miss(order, term):
            self.key_misses += 1
            return miss(order, term)
        cls._key = counted_miss

    def metrics(self, jobs):
        """Per-layer metrics: times and counts per job, maxima over jobs."""
        spans = self.spans
        own = self_times(spans)
        out = {}
        for metric, names in GROUPS.items():
            out[metric] = sum(s[3] - s[2] for s in outermost(spans, names))
        for metric, (names, outer) in CALLS.items():
            chosen = outermost(spans, names) if outer else \
                [s for s in spans if s[1] in names]
            out[metric] = len(chosen)
        for metric, layer in BUSY.items():
            out[metric] = sum(own[s[0]] for s in spans
                              if s[1].split(".", 1)[0] == layer)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        out["orders.key_calls"] = self.key_calls
        out["orders.key_misses"] = self.key_misses
        per_job = {name: value if name.endswith(MAXIMA) else value / jobs
                   for name, value in out.items()}
        pairs = self.counters.get("groebner.s_pairs", 0)
        zeros = self.counters.get("groebner.zero_reductions", 0)
        per_job["groebner.useful_pair_ratio"] = \
            (pairs - zeros) / pairs if pairs else 0.0
        return per_job

    def dump(self, path):
        """Write every span as one JSON record per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")

"""Span tracer that measures the package's layers from outside.

``Tracer.install`` wraps every public function of each layer module (and
``LaurentPoly.exact_div``) and patches the wrapper into every
``verlinde_kit`` module namespace that holds the original, so that a call
through ``powers.gauss_binom`` is traced like one through
``laurent.gauss_binom``.  ``uninstall`` puts the originals back.

Each call records a span (id, name, start, end, parent id, thread id).  Spans
stay in memory until the run ends.  A span opened on a worker thread with no
open span of its own gets the outermost open span of the installing thread
as its parent, so the thread pool of ``run_verify`` nests under it.  A span's
self time is its duration minus the part of it covered by its children,
taken as a union because children on different threads overlap.
"""
from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

PACKAGE = "verlinde_kit"
LAYERS = ("laurent", "ring", "powers", "weyl", "jordan", "verify", "formats", "cli")

# Validation helpers that run on every object construction; as spans they
# would outnumber all other calls, so their time stays with the caller.
UNTRACED = {"is_prime", "check_odd_prime"}

# Oracle matrix builders: their self time is reported together.
JORDAN_BUILD = ("jordan.sym_power_matrix", "jordan.ext_power_matrix", "jordan.jordan_tensor")

# The wire-format functions the CLI workload exercises.
FORMATS_REPORTED = ("laurent_to_json", "laurent_from_json", "verobj_to_json", "weight_to_json", "parse_weight")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or name in UNTRACED or isinstance(obj, type):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.matrix_dims: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._ambient: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, ids, local = self.spans, self._ids, self._local
        tracer = self

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._ambient if tid != tracer._owner else None
                if tid == tracer._owner:
                    tracer._ambient = sid
            if observe is not None:
                observe(args)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if not stack and tid == tracer._owner:
                    tracer._ambient = None
                spans.append((sid, name, start, end, parent, tid))

        return traced

    def _observe_matrix(self, args) -> None:
        self.matrix_dims.append(len(args[0]))

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                observe = self._observe_matrix if key == "jordan.jordan_type_of" else None
                wrappers[id(fn)] = (fn, self._wrap(key, fn, observe))
        laurent = importlib.import_module(f"{PACKAGE}.laurent")
        cls = laurent.LaurentPoly
        self._patch(cls, "exact_div", self._wrap("laurent.exact_div", cls.exact_div))
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry and entry[0] is obj:
                    self._patch(module, name, entry[1])

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> self time in seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Function name -> {"calls": n, "self_s": seconds}."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, name, *_ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += selfs[sid]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def cache_stats() -> dict[str, dict[str, int]]:
    """hits, misses and size of every lru_cache memo table in the layers,
    keyed "<layer>.<name>".  Call it with the tracer uninstalled."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                info = obj.cache_info()
                out[f"{layer}.{name}"] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    return out


def layer_metrics(tracer: Tracer, caches: dict[str, dict[str, int]]) -> dict[str, float]:
    """The per-layer metrics of one traced run, by the names in BENCHMARK.json
    (all but trace.overhead_frac, which needs the untraced run)."""
    fns = tracer.summary()

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(fns.get(n, {}).get("self_s", 0.0) for n in names)

    def cache(names, key):
        return sum(caches[n][key] for n in names if n in caches)

    def hit_ratio(*names):
        hits, misses = cache(names, "hits"), cache(names, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    m: dict[str, float] = {}
    for fn in (
        "jordan.jordan_type_of",
        "laurent.gauss_binom",
        "laurent.exact_div",
        "laurent.to_cyclotomic",
        "laurent.galois",
        "ring.character",
        "ring.fuse",
        "powers.decompose_terms",
        "powers.sym_power_simple",
        "powers.ext_power_simple",
        "powers.invariant_dim",
        "weyl.qweyl_dim",
        "cli.main",
    ):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_s"] = self_s(fn)
    m["weyl.decompose_weyl.calls"] = calls("weyl.decompose_weyl")
    m["cli.build_parser.self_s"] = self_s("cli.build_parser")
    m["jordan.build.self_s"] = self_s(*JORDAN_BUILD)
    dims = tracer.matrix_dims
    m["jordan.matrix_dim.max"] = max(dims, default=0)
    m["jordan.matrix_dim.sum"] = sum(dims)
    m["jordan.dim_cubed_sum"] = sum(d**3 for d in dims)
    for table in ("laurent.quantum_int", "laurent.gauss_binom", "powers.sym_power_simple", "powers.ext_power_simple"):
        m[f"{table}.hit_ratio"] = hit_ratio(table)
        m[f"{table}.entries"] = cache([table], "entries")
    multiset = [n for n in caches if n.startswith("powers.") and "multiset" in n]
    m["powers.multiset.self_s"] = self_s("powers.sym_power", "powers.ext_power", "powers.adams2")
    m["powers.multiset.hit_ratio"] = hit_ratio(*multiset)
    m["powers.multiset.entries"] = cache(multiset, "entries")
    m["verify.run_verify.self_s"] = self_s("verify.run_verify")
    for fn in FORMATS_REPORTED:
        m[f"formats.{fn}.self_s"] = self_s(f"formats.{fn}")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_s(*(n for n in fns if n.startswith(layer + ".")))
    m["trace.spans"] = len(tracer.spans)
    return m

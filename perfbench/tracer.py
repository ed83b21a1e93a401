"""Span tracing of foxcalc's public functions, installed from outside.

``Tracer.install()`` wraps every function and method listed in TARGETS and
rebinds the wrapper wherever the original object is bound: in the defining
module, in every foxcalc module that imported it by name (``from .linalg
import rref`` copies ``rref`` into four modules), and on the class for
methods.  Each call records one span (name, start, end, parent) in flat
arrays kept in memory; ``dump()`` writes them out when the run ends.  A few
wrappers also count work (matrix cells, rewrite output terms, cache hits).

Nothing in ``src/`` is touched: the package runs unmodified and the wrappers
exist only in a traced benchmark process.
"""
from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "words", "group_ring", "magnus", "fox_group", "transversal", "lattice",
    "linalg", "lie_core", "assoc_env", "fox_lie", "freiheit", "cli",
)

# (module, attribute path, metric prefix, extra stats)
TARGETS = (
    ("linalg", "rref", "linalg.rref", "rref"),
    ("linalg", "in_span", "linalg.in_span", None),
    ("linalg", "intersect_rowspaces", "linalg.intersect_rowspaces", None),
    ("linalg", "SpanSolver.__init__", "linalg.SpanSolver", None),
    ("linalg", "SpanSolver.coords", "linalg.SpanSolver.coords", None),
    ("lie_core", "bracket", "lie_core.bracket", None),
    ("lie_core", "expand_to_assoc", "lie_core.expand_to_assoc", None),
    ("lie_core", "project_to_lyndon", "lie_core.project_to_lyndon", None),
    ("lie_core", "GradedSubspace.bracket_span", "lie_core.bracket_span", None),
    ("lie_core", "subalgebra_closure", "lie_core.subalgebra_closure", "closure"),
    ("lie_core", "ideal_closure", "lie_core.ideal_closure", "closure"),
    ("lie_core", "GradedSubspace.__hash__", "lie_core.GradedSubspace.hash", None),
    ("lie_core", "GradedSubspace.member", "lie_core.GradedSubspace.member", None),
    ("assoc_env", "adapted_basis", "assoc_env.adapted_basis", None),
    ("assoc_env", "PBWContext.__init__", "assoc_env.PBWContext", None),
    ("assoc_env", "PBWContext.rewrite", "assoc_env.PBWContext.rewrite", "rewrite"),
    ("assoc_env", "ideal_context", "assoc_env.ideal_context", "ideal_cache"),
    ("assoc_env", "reduce_mod_ideal", "assoc_env.reduce_mod_ideal", None),
    ("fox_lie", "lie_fox", "fox_lie.lie_fox", None),
    ("fox_lie", "commutator_subspace", "fox_lie.commutator_subspace", None),
    ("fox_lie", "SubalgebraIdealContext.__new__", "fox_lie.SubalgebraIdealContext", "sub_cache"),
    ("fox_lie", "solve_sigma_zero", "fox_lie.solve_sigma_zero", None),
    ("fox_lie", "solve_sigma_zero_ideal", "fox_lie.solve_sigma_zero_ideal", None),
    ("fox_lie", "kharlampovich_check", "fox_lie.kharlampovich_check", None),
    ("fox_lie", "theorem_decomposition", "fox_lie.theorem_decomposition", None),
    ("freiheit", "series_components", "freiheit.series_components", None),
    ("freiheit", "lie_criterion", "freiheit.lie_criterion", None),
    ("freiheit", "lie_freiheitssatz_verify", "freiheit.lie_freiheitssatz_verify", None),
    ("fox_group", "fox_derivative", "fox_group.fox_derivative", "letters"),
    ("fox_group", "theorem1_check", "fox_group.theorem1_check", None),
    ("fox_group", "schumann_check", "fox_group.schumann_check", None),
    ("fox_group", "subgroup_gamma_criterion", "fox_group.subgroup_gamma_criterion", None),
    ("words", "reduce", "words.reduce", None),
    ("group_ring", "reduce_mod", "group_ring.reduce_mod", None),
    ("group_ring", "RingElt.__mul__", "group_ring.RingElt.mul", None),
    ("magnus", "embed_ring", "magnus.embed_ring", None),
    ("magnus", "gamma_weight", "magnus.gamma_weight", None),
    ("transversal", "Transversal.__init__", "transversal.Transversal", None),
    ("transversal", "Transversal.rewrite_in_schreier", "transversal.rewrite_in_schreier", None),
    ("transversal", "lattice_membership", "transversal.lattice_membership", None),
    ("lattice", "hermite_normal_form", "lattice.hermite_normal_form", "max_rows"),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Flat in-memory span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def region(self, name: str):
        """Span for benchmark-side work; its subtree is left out of the
        per-name summary and so falls into the untraced remainder."""
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        return _Region(self, nid)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, fn, name: str, stats):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        open_, close = self._open, self._close
        if stats is None:
            def wrapper(*args, **kwargs):
                sid = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
        else:
            before, after = _STATS[stats](self, name)

            def wrapper(*args, **kwargs):
                args, state = before(args)
                sid = open_(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close(sid)
                after(args, state, out)
                return out
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it at each place it is bound."""
        modules = {m: importlib.import_module(f"foxcalc.{m}") for m in LAYERS}
        importlib.import_module("foxcalc")
        for mod_name, path, metric, stats in TARGETS:
            owner = modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, metric, stats))
            else:
                wrapped = self.wrap(raw, metric, stats)
            setattr(owner, attr, wrapped)
            if cls_path:
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("foxcalc"):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header plus the raw arrays."""
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.name),
                       "arrays": ["name:i", "parent:i", "start:d", "end:d"]}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per-name calls, self and total seconds, plus the counters."""
        n = len(self.name)
        child = [0.0] * n
        names, parent, start, end = self.name, self.parent, self.start, self.end
        bench = {nid for nid, nm in enumerate(self.names) if nm.startswith("bench.")}
        skip = bytearray(n)
        top = 0.0
        for sid in range(n):
            p = parent[sid]
            if names[sid] in bench or (p >= 0 and skip[p]):
                skip[sid] = 1
                continue
            dur = end[sid] - start[sid]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        per: dict[str, list] = {}
        for sid in range(n):
            if skip[sid]:
                continue
            dur = end[sid] - start[sid]
            rec = per.setdefault(self.names[names[sid]], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur - child[sid]
            rec[2] += dur
        return {
            "spans": n,
            "top_level_s": top,
            "per_name": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]} for k, v in per.items()},
            "counters": dict(self.counters),
        }


class _Region:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)

    def __exit__(self, *exc):
        self.tracer._close(self.sid)


def _rref_stats(tr: Tracer, name: str):
    def before(args):
        rows = list(args[0])
        return (rows,) + tuple(args[1:]), rows

    def after(args, rows, out):
        cols = len(rows[0]) if rows else 0
        tr.count(name + ".cells", len(rows) * cols)
        tr.peak(name + ".max_cols", cols)
    return before, after


def _closure_stats(tr: Tracer, name: str):
    def before(args):
        return args, len(tr.name)

    def after(args, first, out):
        bracket_id = tr._name_id["lie_core.bracket"]
        tried = sum(1 for sid in range(first, len(tr.name))
                    if tr.name[sid] == bracket_id and tr.parent[sid] == first)
        if tried:
            inputs = sum(len(e.degrees()) for e in args[0])
            kept = max(0, sum(out.dims().values()) - inputs)
            tr.count(name + ".rows_kept", kept)
            tr.count(name + ".tried", tried)
    return before, after


def _rewrite_stats(tr: Tracer, name: str):
    def before(args):
        return args, None

    def after(args, state, out):
        tr.count(name + ".out_terms", len(out))
    return before, after


def _cache_stats(size_of):
    def factory(tr: Tracer, name: str):
        def before(args):
            return args, size_of()

        def after(args, size, out):
            tr.count(name + ".hits", size_of() == size)
        return before, after
    return factory


def _letters_stats(tr: Tracer, name: str):
    def before(args):
        return args, None

    def after(args, state, out):
        letters = getattr(args[0], "letters", None)
        if letters is not None:
            tr.count(name + ".letters", len(letters))
    return before, after


def _max_rows_stats(tr: Tracer, name: str):
    def before(args):
        rows = list(args[0])
        return (rows,) + tuple(args[1:]), rows

    def after(args, rows, out):
        tr.peak(name + ".max_rows", len(rows))
    return before, after


def _ideal_cache_size() -> int:
    return len(sys.modules["foxcalc.assoc_env"]._IDEAL_CTX)


def _sub_cache_size() -> int:
    return len(sys.modules["foxcalc.fox_lie"].SubalgebraIdealContext._cache)


_STATS = {
    "rref": _rref_stats,
    "closure": _closure_stats,
    "rewrite": _rewrite_stats,
    "ideal_cache": _cache_stats(_ideal_cache_size),
    "sub_cache": _cache_stats(_sub_cache_size),
    "letters": _letters_stats,
    "max_rows": _max_rows_stats,
}

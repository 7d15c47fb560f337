"""Per-layer tracing of qbip, installed from outside the package.

``LayerTracer.install()`` replaces every binding of each traced function in the
loaded ``qbip`` modules and classes with a timing wrapper, and
``uninstall()`` puts the originals back.  Bindings are found by identity, so
aliases such as ``from .polyalg import divexact`` in ``exactla`` and
``qmatrices``, and class slots that share one function (``Poly.__rmul__ is
Poly.__mul__``), are all caught.

Every wrapper pushes a frame on one shared stack, so a layer's self time is
its duration minus the time of the traced calls it made.  Coarse calls (every
layer but ``polyalg``) are also kept as in-memory spans ``(name, start,
duration, parent span)``.  ``polyalg`` ops run about a million times per workload, so they
are only aggregated into counts and self time.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, attribute path) of each function traced under it.
# A prefix listing two functions aggregates both (``exactla.matvec``).
TARGETS = {
    "polyalg.poly_mul": [("polyalg", "Poly.__mul__")],
    "polyalg.poly_add": [("polyalg", "Poly.__add__")],
    "polyalg.divexact": [("polyalg", "divexact")],
    "polyalg.poly_gcd": [("polyalg", "poly_gcd")],
    "polyalg.ratfun_new": [("polyalg", "RatFun.__init__")],
    "polyalg.ratfun_mul": [("polyalg", "RatFun.__mul__")],
    "polyalg.ratfun_add": [("polyalg", "RatFun.__add__")],
    "exactla.det_bareiss": [("exactla", "det_bareiss")],
    "exactla.mat_mul": [("exactla", "mat_mul")],
    "exactla.matvec": [("exactla", "mat_vec"), ("exactla", "vec_mat")],
    "exactla.inverse_gauss": [("exactla", "inverse_gauss")],
    "exactla.adjugate_int": [("exactla", "adjugate_int")],
    "exactla.rank_int": [("exactla", "rank_int")],
    "exactla.charpoly_exact": [("exactla", "charpoly_exact")],
    "exactla.count_real_roots": [("exactla", "count_real_roots")],
    "exactla.conjecture_evidence": [("exactla", "conjecture_evidence")],
    "treecore.tree_new": [("treecore", "Tree.__init__")],
    "treecore.matched_new": [("treecore", "MatchedTree.__init__")],
    "treecore.distances": [("treecore", "distances")],
    "treecore.alternating_reach": [("treecore", "alternating_reach")],
    "treecore.diff": [("treecore", "diff")],
    "treecore.attach_p2": [("treecore", "attach_p2")],
    "treecore.detach_p2": [("treecore", "detach_p2")],
    "treecore.canonical_code": [("treecore", "canonical_code")],
    "treecore.enumerate_nonsingular": [("treecore", "enumerate_nonsingular")],
    "treecore.random_nonsingular": [("treecore", "random_nonsingular")],
    **{
        f"qmatrices.{fn}": [("qmatrices", fn)]
        for fn in (
            "build_qB", "build_E", "build_qL", "build_full_qD", "build_full_eD",
            "qsigned_degree_vector", "qtau", "bdq_det", "bdq_recursive",
            "inverse_E_formula", "inverse_qB_formula", "eval_matrix",
        )
    },
    **{
        f"verify.{fn}": [("verify", fn)]
        for fn in (
            "check_det_E", "check_det_qL", "check_bdq", "check_sum_mu",
            "check_row_col_sums", "check_B_tau", "check_lemma_111",
            "check_inverse_E", "check_inverse_qB", "check_attach_update",
            "check_block_decomposition", "check_q1_properties",
            "check_full_dq_ed", "evaluate_identities_at", "run_suite",
        )
    },
    "cli.main": [("cli", "main")],
}

_CLOCK = time.perf_counter


class Stat:
    """Aggregate of one traced name: calls, self time, inclusive time."""

    __slots__ = ("calls", "self_s", "cum_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cum_s = 0.0
        self.extra = 0  # trivial gcds for poly_gcd, largest n for det_bareiss


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return vars(owner)[attr]


class LayerTracer:
    """Wraps the functions in ``TARGETS`` while installed; see module doc."""

    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self.spans = []  # (name, start, duration, parent index or -1)
        self._stack = []  # open calls, innermost last
        self._patched = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        keep_span = not name.startswith("polyalg.")
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [time of traced children, span index or -1, excluded time]
            if keep_span:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                frame = [0.0, len(spans), 0.0]
                spans.append(None)
            else:
                frame = [0.0, -1, 0.0]
            stack.append(frame)
            start = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _CLOCK() - start - frame[2]
                stack.pop()
                stat.calls += 1
                stat.self_s += dur - frame[0]
                stat.cum_s += dur
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    spans[frame[1]] = (name, start, dur, parent)
            if observe is not None:
                observe(stat, args, result)
            return result

        return traced

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        """Rebind every reference to a target in the qbip modules and classes."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import qbip.cli  # noqa: F401  (loads every qbip module)

        wrappers = {}
        for name, places in TARGETS.items():
            for mod, path in places:
                fn = _resolve(sys.modules[f"qbip.{mod}"], path)
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for owner, attr, value in _bindings():
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])
                self._patched.append((owner, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def exclude(self, seconds):
        """Leave time spent outside the program (a speed probe) out of every layer."""
        for frame in self._stack:
            frame[2] += seconds

    def span_durations(self, name):
        return [dur for n, _, dur, _ in self.spans if n == name]


def _bindings():
    """(owner, attribute, value) for each module global and class attribute."""
    for modname, module in list(sys.modules.items()):
        if modname != "qbip" and not modname.startswith("qbip."):
            continue
        for attr, value in list(vars(module).items()):
            yield module, attr, value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    yield value, cattr, cvalue


def _observe_gcd(stat, args, result):
    if result.coeffs == (1,):
        stat.extra += 1


def _observe_det(stat, args, result):
    stat.extra = max(stat.extra, args[0].rows)


_OBSERVERS = {
    "polyalg.poly_gcd": _observe_gcd,
    "exactla.det_bareiss": _observe_det,
}

"""Span recording around the public functions of each condemp module.

The tracer wraps functions from the outside: each wrapper is installed on
the name the caller resolves (``condemp.harness.w2_quantile_1d`` and
``condemp.mc.w2_quantile_1d`` are separate names for the same function) or
on the ``GridMeasure`` class for its methods.  Spans are kept in memory as
``(name, start, end, parent, pass_id)`` and written out once, at the end of
the run.  Calls are single threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.

``domains`` is not wrapped (construction only, well under a millisecond) and
neither is ``cli`` (an argparse front end over the same harness calls).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name); a span name maps to the metric "<name>_s"
MODULE_WRAPS = [
    ("condemp.harness", "build_analytic_basis", "spectral.build"),
    ("condemp.harness", "solve_sturm_liouville", "spectral.build"),
    ("condemp.harness", "conditional_density", "semigroup.h_t"),
    ("condemp.harness", "mean_empirical_density", "semigroup.mean_occ"),
    ("condemp.harness", "rho_tilde", "semigroup.rho_tilde"),
    ("condemp.harness", "compute_I", "limits.compute"),
    ("condemp.harness", "compute_I_neumann", "limits.compute"),
    ("condemp.harness", "w2_quantile_1d", "transport.quantile1d"),
    ("condemp.mc", "w2_quantile_1d", "transport.quantile1d"),
    ("condemp.harness", "w2_exact_discrete", "transport.exact_lp"),
    ("condemp.harness", "w2_entropic", "transport.entropic"),
    ("condemp.harness", "kantorovich_dual_lower", "transport.dual_lower"),
    ("condemp.harness", "h_minus1_upper_bound", "transport.h1_upper"),
    ("condemp.harness", "w1_grid_1d", "transport.w1"),
    ("condemp.harness", "simulate", None),          # mc.direct or mc.resampled
    ("condemp.harness", "conditional_empirical_w2", "mc.bootstrap"),
]
# GridMeasure methods; construction covers the classmethods and __init__
CLASS_WRAPS = [
    ("quantile", "measures.quantile"),
    ("atomize", "measures.atomize"),
    ("__init__", "measures.construct"),
    ("normalized", "measures.construct"),
    ("from_histogram", "measures.construct"),
]

SPAN_NAMES = sorted({n for *_, n in MODULE_WRAPS if n}
                    | {n for _, n in CLASS_WRAPS}
                    | {"mc.direct", "mc.resampled"})

# Every metric the traced run emits, with its unit, in BENCHMARK.json order.
PER_LAYER = {
    "spectral.build_s": "s", "spectral.build_calls": "count",
    "spectral.build_repeat_frac": "ratio",
    "semigroup.h_t_s": "s", "semigroup.mean_occ_s": "s", "semigroup.rho_tilde_s": "s",
    "limits.compute_s": "s",
    "measures.quantile_s": "s", "measures.quantile_calls": "count",
    "measures.quantile_points": "count", "measures.cdf_calls_per_quantile": "count",
    "measures.quantile_repeat_frac": "ratio", "measures.construct_s": "s",
    "measures.atomize_s": "s",
    "transport.quantile1d_s": "s", "transport.exact_lp_s": "s",
    "transport.entropic_s": "s", "transport.sinkhorn_iters": "count",
    "transport.dual_lower_s": "s", "transport.h1_upper_s": "s", "transport.w1_s": "s",
    "mc.direct_s": "s", "mc.resampled_s": "s", "mc.path_steps": "count",
    "mc.path_steps_per_s": "1/s", "mc.survivor_frac": "ratio", "mc.ess": "count",
    "mc.bootstrap_s": "s",
    "harness.self_s": "s", "trace.pass_s": "s", "trace.overhead_s": "s",
}


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self, pass_id: int = 0):
        self.spans: list = []          # [name, start, end, parent, pass_id]
        self.pass_id = pass_id
        self._stack: list = []
        self._patches: list = []
        self.counts: Counter = Counter()
        self._seen: defaultdict = defaultdict(set)

    # ---- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _repeat(self, kind: str, key: str):
        """Count a call and whether its inputs repeat one seen this pass."""
        self.counts[kind + "_calls"] += 1
        if key in self._seen[kind]:
            self.counts[kind + "_repeats"] += 1
        self._seen[kind].add(key)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = name(*args, **kwargs) if callable(name) else name
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    # ---- per-call counters --------------------------------------------

    def _before_build(self, domain, M, *rest, **kw):
        key = json.dumps([domain.to_dict(), M, list(rest), sorted(kw.items())])
        self._repeat("build", key)

    def _before_quantile(self, measure, u, *rest, **kw):
        # every caller passes an ndarray of quantile levels
        self._repeat("quantile", _digest(measure.nodes, measure.lebesgue_density, u)
                     + str(measure.histogram))
        self.counts["quantile_points"] += u.size

    def _after_entropic(self, result, *args, **kw):
        self.counts["sinkhorn_iters"] += int(result.details.get("iterations", 0))

    def _after_simulate(self, summary, cfg):
        paths = cfg.n_paths // cfg.islands * cfg.islands if cfg.resample else cfg.n_paths
        self.counts["path_steps"] += paths * cfg.n_steps()
        self.counts["ess"] += summary.effective_sample_size
        if not cfg.resample:
            self.counts["direct_paths"] += cfg.n_paths
            self.counts["direct_survivors"] += summary.survival_count

    # ---- installation ----------------------------------------------------

    def install(self):
        """Wrap every listed name; `uninstall` restores the originals."""
        from condemp.measures import GridMeasure

        for mod_name, attr, span in MODULE_WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            before = after = None
            if span == "spectral.build":
                before = self._before_build
            elif span == "transport.entropic":
                after = self._after_entropic
            elif span is None:
                span = _simulate_span
                after = self._after_simulate
            self._patch(mod, attr, self._wrap(fn, span, before, after))

        for attr, span in CLASS_WRAPS:
            raw = GridMeasure.__dict__[attr]
            before = self._before_quantile if attr == "quantile" else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, before))
            else:
                wrapped = self._wrap(raw, span, before)
            self._patch(GridMeasure, attr, wrapped)

        cdf = GridMeasure.__dict__["cdf"]
        tracer = self

        @functools.wraps(cdf)
        def counted_cdf(*args, **kwargs):
            # counted, not timed: CDF work lands in the enclosing span
            if tracer._stack and tracer.spans[tracer._stack[-1]][0] == "measures.quantile":
                tracer.counts["cdf_in_quantile"] += 1
            return cdf(*args, **kwargs)
        self._patch(GridMeasure, "cdf", counted_cdf)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name over everything recorded."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        child = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self, pass_s: float, untraced_s: float) -> dict:
        """Every per-layer metric, for a tracer that recorded one pass."""
        st = self.self_times()
        c = self.counts
        q_calls = c["quantile_calls"]
        mc_s = st["mc.direct"] + st["mc.resampled"]
        m = {name + "_s": st[name] for name in SPAN_NAMES}
        m.update({
            "spectral.build_calls": c["build_calls"],
            "spectral.build_repeat_frac": _ratio(c["build_repeats"], c["build_calls"]),
            "measures.quantile_calls": q_calls,
            "measures.quantile_points": c["quantile_points"],
            "measures.cdf_calls_per_quantile": _ratio(c["cdf_in_quantile"], q_calls),
            "measures.quantile_repeat_frac": _ratio(c["quantile_repeats"], q_calls),
            "transport.sinkhorn_iters": c["sinkhorn_iters"],
            "mc.path_steps": c["path_steps"],
            "mc.path_steps_per_s": _ratio(c["path_steps"], mc_s),
            "mc.survivor_frac": _ratio(c["direct_survivors"], c["direct_paths"]),
            "mc.ess": c["ess"],
            "harness.self_s": pass_s - sum(st.values()),
            "trace.pass_s": pass_s,
            "trace.overhead_s": pass_s - untraced_s,
        })
        return {k: m[k] for k in PER_LAYER}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass_id"],
                       "spans": self.spans}, fh)


def _simulate_span(config) -> str:
    return "mc.resampled" if config.resample else "mc.direct"


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0

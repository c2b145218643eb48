"""Span tracing around the public functions of each blockembed layer.

``Tracer`` swaps the named public functions of ``io``, ``metric``,
``proper``, ``blocks`` and ``lp_coarse`` for timing wrappers in every
loaded ``blockembed`` module namespace, so an ordinary ``cli.main`` call
replays the certificate through the real call path with one span per
public call.  Spans nest: a layer's time is the span duration, minus the
time its wrapped children took where the metric says "self".  Counts are
read from the arguments and results at the same boundaries.  Time spent
computing those counts is taken out of every open span.

Only the benchmark's own files are instrumented; the program is unchanged.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

WRAPPED = {
    "io": ("parse_space", "dumps_report", "atomic_write_text"),
    "metric": ("validate_metric", "min_positive_distance", "moduli_profile", "verify_bounds"),
    "proper": ("make_proper_params", "build_hierarchy", "embed_point_proper"),
    "blocks": ("pairwise_distance_matrix",),
    "lp_coarse": (
        "normalize_pointed",
        "embed_set_lp",
        "net_round",
        "coarse_embed",
        "max_rounding_deviation",
    ),
}

# Per-layer metrics: (name, unit).  Times and counts are per certificate,
# the two ratios are taken over the whole run, and the RSS rise is the
# largest rise of ru_maxrss across one pairwise call.  ru_maxrss is a
# high-water mark, so only a call that sets a new peak shows a rise; the
# traced certificate therefore runs before its untraced repeat.
LAYER_METRICS = (
    ("io.parse_s", "s"),
    ("io.render_s", "s"),
    ("io.report_bytes", "bytes"),
    ("metric.validate_s", "s"),
    ("metric.validate_triples", "count"),
    ("metric.verify_bounds_s", "s"),
    ("metric.pairs_checked", "count"),
    ("metric.moduli_s", "s"),
    ("proper.params_s", "s"),
    ("proper.hierarchy_s", "s"),
    ("proper.images_s", "s"),
    ("proper.nets", "count"),
    ("proper.distinct_nets", "count"),
    ("proper.image_coords", "count"),
    ("blocks.pairwise_s", "s"),
    ("blocks.blocks", "count"),
    ("blocks.pairwise_bytes_computed", "bytes"),
    ("blocks.carried_pair_frac", "ratio"),
    ("blocks.pairwise_rss_rise_mb", "MB"),
    ("lp_coarse.normalize_s", "s"),
    ("lp_coarse.embed_s", "s"),
    ("lp_coarse.net_round_s", "s"),
    ("lp_coarse.net_size", "count"),
    ("lp_coarse.rounding_deviation_s", "s"),
    ("trace.stage_sum_s", "s"),
    ("trace.unaccounted_frac", "ratio"),
)

# Layer time -> (wrapped function, "total" or "self") terms that make it up.
_TIMES = {
    "io.parse_s": (("parse_space", "self"),),
    "io.render_s": (("dumps_report", "total"), ("atomic_write_text", "total")),
    "metric.validate_s": (("validate_metric", "total"),),
    "metric.verify_bounds_s": (("verify_bounds", "total"),),
    "metric.moduli_s": (("moduli_profile", "total"), ("min_positive_distance", "total")),
    "proper.params_s": (("make_proper_params", "total"),),
    "proper.hierarchy_s": (("build_hierarchy", "total"),),
    "proper.images_s": (("embed_point_proper", "total"),),
    "blocks.pairwise_s": (("pairwise_distance_matrix", "total"),),
    "lp_coarse.normalize_s": (("normalize_pointed", "total"),),
    "lp_coarse.embed_s": (("embed_set_lp", "self"), ("coarse_embed", "self")),
    "lp_coarse.net_round_s": (("net_round", "total"),),
    "lp_coarse.rounding_deviation_s": (("max_rounding_deviation", "total"),),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans and counts over any number of traced certificates."""

    def __init__(self):
        self.total = defaultdict(float)  # function -> summed span time
        self.self_time = defaultdict(float)  # function -> time minus wrapped children
        self.counts = defaultdict(float)
        self.stage_sum = 0.0
        self.rss_rise_mb = 0.0
        self._stack: list[list[float]] = []  # [start, child time, excluded at start]
        self._excluded = 0.0  # hook time, removed from every open span

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0, self._excluded]
            self._stack.append(frame)
            rss_before = _maxrss_mb() if name == "pairwise_distance_matrix" else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[0] - (self._excluded - frame[2])
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.stage_sum += duration
            hook_start = time.perf_counter()
            self._count(name, args, result, rss_before)
            self._excluded += time.perf_counter() - hook_start
            return result

        return traced

    def _count(self, name, args, result, rss_before):
        c = self.counts
        if name == "validate_metric":
            c["metric.validate_triples"] += result.n_points**3
        elif name == "verify_bounds":
            n = args[0].n_points
            c["metric.pairs_checked"] += n * (n - 1) // 2
        elif name == "atomic_write_text":
            c["io.report_bytes"] += len(args[1].encode())
        elif name == "build_hierarchy":
            c["proper.nets"] += len(result.nets)
            c["proper.distinct_nets"] += len({net.members for net in result.nets.values()})
        elif name == "embed_point_proper":
            c["proper.image_coords"] += sum(len(x) for x in result.blocks.values())
        elif name == "net_round":
            c["lp_coarse.net_size"] += len(result[0])
        elif name == "pairwise_distance_matrix":
            self.rss_rise_mb = max(self.rss_rise_mb, _maxrss_mb() - rss_before)
            images = args[0]
            n = len(images)
            dims: dict[int, int] = {}
            carriers: dict[int, int] = defaultdict(int)
            for v in images:
                for j, x in v.blocks.items():
                    dims[j] = len(x)
                    carriers[j] += 1
            pairs = n * (n - 1) // 2
            c["blocks.blocks"] += len(dims)
            c["blocks.pairwise_bytes_computed"] += sum(n * n * d * 8 for d in dims.values())
            c["blocks.block_pairs"] += pairs * len(dims)
            c["blocks.carried_pairs"] += sum(
                pairs - (n - k) * (n - k - 1) // 2 for k in carriers.values()
            )

    @contextmanager
    def active(self):
        """Install the wrappers in every loaded blockembed module, then restore."""
        import importlib

        swaps = []
        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"blockembed.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "blockembed" and not mod_name.startswith("blockembed."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            swaps.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(swaps):
                setattr(mod, attr, original)

    def layer_metrics(self, certificates: int, untraced_s: float) -> dict[str, float]:
        """Per-certificate layer metrics over ``certificates`` traced calls.

        ``untraced_s`` is the summed untraced wall time of the same
        certificates; the share of it no span covers is ``unaccounted_frac``.
        """
        out: dict[str, float] = {}
        for metric, terms in _TIMES.items():
            total = sum(
                (self.total if kind == "total" else self.self_time)[fn] for fn, kind in terms
            )
            out[metric] = total / certificates
        for metric, unit in LAYER_METRICS:
            if unit in ("count", "bytes"):
                out[metric] = self.counts[metric] / certificates
        block_pairs = self.counts["blocks.block_pairs"]
        out["blocks.carried_pair_frac"] = (
            self.counts["blocks.carried_pairs"] / block_pairs if block_pairs else 0.0
        )
        out["blocks.pairwise_rss_rise_mb"] = self.rss_rise_mb
        out["trace.stage_sum_s"] = self.stage_sum / certificates
        out["trace.unaccounted_frac"] = 1.0 - self.stage_sum / untraced_s
        return out

"""Command-line harness: parse inputs, run a pipeline, emit a JSON report.

Subcommands: validate, net, embed-proper, embed-lp, coarse, moduli, gen.
Every run echoes its configuration and constants into the report and exits
0 iff all checks passed (1 on check failure, 2 on usage or input errors).
Identical configurations and seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, asdict
from typing import Any

import numpy as np

from . import __version__
from .blocks import BlockIsoModel
from .fixtures import (
    grid_net_cloud,
    path_metric,
    random_graph_metric,
    random_lp_cloud,
    star_metric,
)
from .io import (
    REPORT_SCHEMA,
    ParseError,
    UnknownFormat,
    atomic_write_text,
    dumps_report,
    parse_space,
    write_space,
)
from .lp_coarse import (
    LpParams,
    LpPointSet,
    coarse_embed,
    embed_set_lp,
    max_rounding_deviation,
    net_round,
    verify_coarse,
    verify_lp,
)
from .metric import (
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    TooFewPoints,
    min_positive_distance,
    moduli_profile,
)
from .proper import ProperEmbedding, embed_space_proper, verify_proper

__all__ = ["RunConfig", "run_report", "main"]


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one run needs; doubles as the report's config echo."""

    mode: str
    input: str | None = None
    format: str = "json"
    basepoint: int | None = None  # None: file's basepoint, or index 0
    p: float | None = None
    lambda_sim: float = 1.0
    delta: float = 0.01
    theta: str = "exact"
    seed: int = 0
    epsilon: float = 1.0
    k_max_slack: int = 4
    tolerance: float = 1e-9
    moduli_points: int = 32
    size_cap: int = 200_000
    out: str | None = None
    kind: str | None = None
    n: int | None = None
    dim: int = 3
    k: int = 1
    edge_prob: float | None = None
    box: float = 8.0

    def echo(self) -> dict[str, Any]:
        raw = asdict(self)
        return {key: raw[key] for key in sorted(raw)}


def _load(config: RunConfig) -> FiniteMetricSpace | LpPointSet:
    if not config.input:
        raise UsageError(f"mode {config.mode} requires --input")
    space = parse_space(config.input, config.format)
    if isinstance(space, LpPointSet):
        if config.p is not None and config.p != space.p:
            space = LpPointSet(config.p, space.points, space.basepoint)
        metric = space.metric_space  # the one validation, after the exponent override
        if config.basepoint is not None and config.basepoint != space.basepoint:
            space = LpPointSet(space.p, space.points, config.basepoint)
            space.metric_space = metric  # the basepoint leaves the metric unchanged
    return space


def _load_embeddable(config: RunConfig) -> FiniteMetricSpace | LpPointSet:
    """Load the input of an embedding mode, which needs at least two points."""
    space = _load(config)
    if space.n_points < 2:
        raise TooFewPoints(f"{config.mode} needs at least two points")
    return space


def _pointed(
    space: FiniteMetricSpace | LpPointSet, config: RunConfig
) -> tuple[FiniteMetricSpace, int]:
    """The input's metric and basepoint: a cloud's own (``_load`` has
    applied --basepoint to it), else --basepoint or 0."""
    if isinstance(space, LpPointSet):
        return space.metric_space, space.basepoint
    return space, config.basepoint if config.basepoint is not None else 0


def _require_cloud(space: Any, mode: str) -> LpPointSet:
    if not isinstance(space, LpPointSet):
        raise UsageError(f"mode {mode} requires a point-cloud input")
    return space


def _lp_params(config: RunConfig) -> LpParams:
    mode = "exact" if config.theta == "exact" else "seeded-random"
    return LpParams(
        delta=config.delta,
        lambda_sim=config.lambda_sim,
        seed=config.seed,
        theta_mode=mode,
    )


def _proper_iso(config: RunConfig) -> BlockIsoModel:
    if config.theta == "exact":
        return BlockIsoModel.exact()
    return BlockIsoModel.seeded(0.5, 1.0, config.seed)


def _thresholds(space: FiniteMetricSpace, count: int) -> list[float]:
    if space.n_points < 2 or count < 1:
        return []
    lo = min_positive_distance(space) / 2.0
    hi = 2.0 * space.diameter()
    return [float(t) for t in np.geomspace(lo, hi, count)]


def _moduli_body(space: FiniteMetricSpace, dmat: np.ndarray, count: int) -> dict[str, Any]:
    thresholds = _thresholds(space, count)
    profile = moduli_profile(space, thresholds, image_distances=dmat)
    return {
        "thresholds": list(profile.thresholds),
        "compression": list(profile.compression),
        "expansion": list(profile.expansion),
    }


def _run_validate(config: RunConfig) -> tuple[dict[str, Any], bool]:
    try:
        metric = _pointed(_load(config), config)[0]
    except (MetricError, ParseError) as err:
        return (
            {
                "valid": False,
                "error_type": type(err).__name__,
                "error": str(err),
            },
            False,
        )
    body = {
        "valid": True,
        "n_points": metric.n_points,
        "diameter": metric.diameter(),
    }
    if metric.n_points >= 2:
        body["min_positive_distance"] = min_positive_distance(metric)
    return body, True


def _run_net(config: RunConfig) -> tuple[dict[str, Any], bool]:
    space, basepoint = _pointed(_load(config), config)
    members, beta = net_round(space, config.epsilon, basepoint)
    deviation = max_rounding_deviation(space, beta)
    ok = deviation <= config.epsilon + 1e-12
    body = {
        "epsilon": config.epsilon,
        "net_radius": config.epsilon / 2.0,
        "net_size": len(members),
        "members": list(members),
        "beta": list(beta),
        "rounding": {"max_deviation": deviation, "bound": config.epsilon, "pass": ok},
    }
    return body, ok


def _embed_proper(space: Any, config: RunConfig) -> ProperEmbedding:
    """The proper embedding of an input."""
    pspace = PointedSpace(*_pointed(space, config))
    return embed_space_proper(pspace, iso=_proper_iso(config), k_slack=config.k_max_slack)


def _run_embed_proper(config: RunConfig) -> tuple[dict[str, Any], bool]:
    emb = _embed_proper(_load_embeddable(config), config)
    report = verify_proper(emb, tolerance=config.tolerance)
    body = {
        "constants": dict(report.constants),
        "checks": report.summary(),
        "moduli": _moduli_body(emb.pspace.space, emb.image_distances, config.moduli_points),
    }
    return body, report.passed


def _run_embed_lp(config: RunConfig) -> tuple[dict[str, Any], bool]:
    # the input cloud is not kept: the embedding holds its normalized copy
    emb = embed_set_lp(_require_cloud(_load_embeddable(config), config.mode), _lp_params(config))
    report = verify_lp(emb, tolerance=config.tolerance)
    body = {
        "constants": dict(report.constants),
        "normalization": {
            "translation": list(map(float, emb.translation)),
            "scale": emb.scale,
        },
        "checks": report.summary(),
        "moduli": _moduli_body(
            emb.pointset.metric_space, emb.image_distances, config.moduli_points
        ),
    }
    return body, report.passed


def _run_coarse(config: RunConfig) -> tuple[dict[str, Any], bool]:
    cloud = _require_cloud(_load_embeddable(config), config.mode)
    emb = coarse_embed(cloud, config.epsilon, _lp_params(config))
    report = verify_coarse(emb, tolerance=config.tolerance)
    deviation = max_rounding_deviation(cloud, emb.beta)
    rounding_ok = deviation <= config.epsilon + 1e-12
    body = {
        "constants": dict(report.constants),
        "net_size": len(emb.members),
        "rounding": {
            "max_deviation": deviation,
            "bound": config.epsilon,
            "pass": rounding_ok,
        },
        "checks": report.summary(),
        "moduli": _moduli_body(cloud.metric_space, emb.image_distances, config.moduli_points),
    }
    return body, report.passed and rounding_ok


def _run_moduli(config: RunConfig) -> tuple[dict[str, Any], bool]:
    space = _load_embeddable(config)
    if isinstance(space, LpPointSet):
        lp = embed_set_lp(space, _lp_params(config))
        domain, dmat, map_kind = lp.pointset.metric_space, lp.image_distances, "lipschitz-lp"
    else:
        emb = _embed_proper(space, config)
        domain, dmat, map_kind = emb.pspace.space, emb.image_distances, "proper"
    body = {
        "map": map_kind,
        "moduli": _moduli_body(domain, dmat, config.moduli_points),
    }
    profile = body["moduli"]
    finite = [c for c in profile["compression"] if not math.isinf(c)]
    mono = all(a <= b for a, b in zip(finite, finite[1:])) and all(
        a <= b for a, b in zip(profile["expansion"], profile["expansion"][1:])
    )
    body["monotone"] = mono
    return body, mono


def _run_gen(config: RunConfig) -> tuple[dict[str, Any], bool]:
    if not config.out:
        raise UsageError("gen requires --out")
    kind = config.kind
    if kind in ("random-graph-metric", "random-lp-cloud", "path", "star") and not config.n:
        raise UsageError(f"{kind} requires --n")
    if kind == "random-graph-metric":
        space: Any = random_graph_metric(config.n, config.edge_prob, config.seed)
    elif kind == "random-lp-cloud":
        p = config.p if config.p is not None else 2.0
        space = random_lp_cloud(config.n, config.dim, p, config.seed, config.box)
    elif kind == "grid-net":
        space = grid_net_cloud(config.dim, config.k, size_cap=config.size_cap)
    elif kind == "path":
        space = path_metric(config.n)
    elif kind == "star":
        space = star_metric(config.n)
    else:
        raise UsageError(f"unknown fixture kind {kind!r}")
    write_space(space, config.out)
    n_points = space.n_points
    return {"written": config.out, "kind": kind, "n_points": n_points}, True


_RUNNERS = {
    "validate": _run_validate,
    "net": _run_net,
    "embed-proper": _run_embed_proper,
    "embed-lp": _run_embed_lp,
    "coarse": _run_coarse,
    "moduli": _run_moduli,
    "gen": _run_gen,
}


def run_report(config: RunConfig) -> tuple[dict[str, Any], bool]:
    """Execute the configured pipeline and assemble the report payload.

    Every mode first rejects a NaN setting, which no report can echo, and a
    non-finite tolerance, which would pass every pair.
    """
    runner = _RUNNERS.get(config.mode)
    if runner is None:
        raise UsageError(f"unknown mode {config.mode!r}")
    for name, value in config.echo().items():
        if isinstance(value, float) and math.isnan(value):
            raise UsageError(f"{name} must be a number, got nan")
    if not math.isfinite(config.tolerance):
        raise UsageError(f"tolerance must be finite, got {config.tolerance}")
    body, passed = runner(config)
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "mode": config.mode,
        "config": config.echo(),
    }
    report.update(body)
    report["pass"] = passed
    report["provenance"] = {"package": "blockembed", "version": __version__}
    return report, passed


def _exponent(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    value = float(text)
    if not value >= 1:
        raise argparse.ArgumentTypeError(f"exponent must lie in [1, inf], got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockembed",
        description="Metric embeddings into block-decomposed sequence spaces, "
        "with per-pair certification of the distance envelopes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="space file (distance matrix or point cloud)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--basepoint", type=int, default=None)
    common.add_argument("--p", type=_exponent, default=None, help="l_p exponent (or 'inf')")
    common.add_argument("--lambda-sim", type=float, default=1.0, dest="lambda_sim")
    common.add_argument("--delta", type=float, default=0.01)
    common.add_argument("--theta", choices=("exact", "random"), default="exact")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--epsilon", type=float, default=1.0)
    common.add_argument("--k-max-slack", type=int, default=4, dest="k_max_slack")
    common.add_argument("--tolerance", type=float, default=1e-9)
    common.add_argument("--moduli-points", type=int, default=32, dest="moduli_points")
    common.add_argument("--size-cap", type=int, default=200_000, dest="size_cap")
    common.add_argument("--out", help="report destination (stdout when omitted)")

    for mode in ("validate", "net", "embed-proper", "embed-lp", "coarse", "moduli"):
        sub.add_parser(mode, parents=[common])

    gen = sub.add_parser("gen", parents=[common])
    gen.add_argument(
        "--kind",
        required=True,
        choices=("random-graph-metric", "random-lp-cloud", "grid-net", "path", "star"),
    )
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--edge-prob", type=float, default=None, dest="edge_prob")
    gen.add_argument("--box", type=float, default=8.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        report, passed = run_report(config)
    except (UsageError, ParseError, UnknownFormat, MetricError, ValueError, OSError) as err:
        print(f"blockembed: error: {err}", file=sys.stderr)
        return 2
    text = dumps_report(report) + "\n"
    if config.out and config.mode != "gen":
        atomic_write_text(config.out, text)
        print(("PASS " if passed else "FAIL ") + config.out)
    elif config.mode == "gen":
        print(f"wrote {report['written']}")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

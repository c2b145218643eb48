"""The benchmark's workloads: seeded request lists and their input files.

A request is one certificate, i.e. one ``blockembed.cli.main`` call.  The
workload seed fixes every input; the program only ever sees the files
written here.  ``prepare`` is the set-up phase a workload child times: it
generates the fixtures through ``blockembed.fixtures`` (which validates
them) and writes one input file per request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("proper-graph", "lp-cloud", "small-batch")

# (warm-up passes, least timed passes with tracing off) per workload; a pass
# is one run through the request list.  Every request must repeat, so that
# its reports can be compared.  Each workload is sized so that one pass takes
# at most about 5 s and a run repeats every request several times: on a
# shared host, slow spells of up to a minute slow every call by up to 2x,
# and a request's fastest repeat only escapes them when the run has many.
PASSES = {"proper-graph": (0, 2), "lp-cloud": (0, 2), "small-batch": (1, 5)}

_GRAPH_N = 256
_CLOUD_N = 512
_SMALL_COUNT = 48
_SMALL_N = (24, 64)
_COARSE_P = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class Request:
    """One certificate: CLI mode, input file, extra flags, and point count."""

    key: str
    mode: str
    input: str
    flags: tuple[str, ...]
    n: int

    def argv(self, out: str) -> list[str]:
        return [self.mode, "--input", self.input, "--out", out, *self.flags]


def prepare(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Generate and write the inputs of one workload; return its requests."""
    from blockembed.fixtures import path_metric, random_graph_metric, random_lp_cloud
    from blockembed.io import write_space

    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def write(name, space) -> str:
        path = inputs / f"{name}.json"
        write_space(space, path)
        return str(path)

    if workload == "proper-graph":
        graph = write("graph", random_graph_metric(_GRAPH_N, None, seed))
        flags = ("--theta", "random", "--seed", str(seed))
        return [Request("proper", "embed-proper", graph, flags, _GRAPH_N)]

    if workload == "lp-cloud":
        cloud = write("cloud", random_lp_cloud(_CLOUD_N, 3, 2.0, seed))
        return [
            Request(
                "lp",
                "embed-lp",
                cloud,
                ("--lambda-sim", "2", "--delta", "0.01", "--seed", str(seed)),
                _CLOUD_N,
            ),
            Request("coarse", "coarse", cloud, ("--epsilon", "1"), _CLOUD_N),
        ]

    if workload == "small-batch":
        # Every kind gets the same sizes, evenly spread over _SMALL_N; the
        # seed shuffles them, so the mix of work is the same for every seed.
        rng = np.random.default_rng([seed, 7])
        per_kind = _SMALL_COUNT // 4
        even = np.linspace(_SMALL_N[0], _SMALL_N[1], per_kind).round().astype(int)
        sizes = np.stack([rng.permutation(even) for _ in range(4)], axis=1).ravel()
        requests = []
        for i, n in enumerate(int(s) for s in sizes):
            sub = seed * _SMALL_COUNT + i
            key = f"r{i:02d}"
            kind = i % 4
            if kind == 0:
                path = write(key, random_graph_metric(n, None, sub))
                req = Request(
                    key, "embed-proper", path, ("--theta", "random", "--seed", str(sub)), n
                )
            elif kind == 1:
                path = write(key, path_metric(n))
                req = Request(key, "embed-proper", path, (), n)
            elif kind == 2:
                path = write(key, random_lp_cloud(n, 3, 2.0, sub))
                flags = ("--lambda-sim", "2", "--delta", "0.01", "--seed", str(sub))
                req = Request(key, "embed-lp", path, flags, n)
            else:
                p = _COARSE_P[(i // 4) % len(_COARSE_P)]
                path = write(key, random_lp_cloud(n, 3, p, sub))
                req = Request(key, "coarse", path, ("--epsilon", "1"), n)
            requests.append(req)
        return requests

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

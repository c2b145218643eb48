"""One workload in its own process: set up, certify in a closed loop, report.

Started by ``run.py``; not meant to be run by hand.  Set-up time runs from
the start of this process to the moment the first certificate could start:
on the wall clock from ``--t0`` (the parent's ``time.monotonic()`` just
before it started this process), and as this process's CPU time.  Each
certificate is timed on both clocks as well.  One client
calls ``blockembed.cli.main`` in process, each call after the previous one
returns.  Every certificate writes its report to a file named after its
request, and a repeat of a request must write the same bytes as its first
run.  With tracing off, every pass is followed by one run of the host-speed
probe (``host_probe``), timed on both clocks.  The result goes to
``result.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The probe's arrays are made once, so that its time does not depend on
# how the program left the memory allocator.
_PROBE_X = np.random.default_rng(0).random((64, 32))
_PROBE_DIFF = np.empty((64, 64, 32))
_PROBE_SUM = np.empty((64, 64))


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def host_probe() -> None:
    """Fixed interpreter and numpy work that uses no blockembed code.

    Its fastest time in a run measures how fast the host ran the run, so
    that ``run.host_scale`` can take slow spells of a shared host out of
    the end-to-end times.  It mixes a dict-heavy Python loop, like the
    program's per-block loops, with an n x n x dim broadcast, like its
    pairwise kernel, in about equal parts.
    """
    counts: dict[int, int] = {}
    for i in range(250_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(70):
        np.subtract(_PROBE_X[:, None, :], _PROBE_X[None, :, :], out=_PROBE_DIFF)
        np.abs(_PROBE_DIFF, out=_PROBE_DIFF)
        _PROBE_DIFF.sum(axis=-1, out=_PROBE_SUM)


class Client:
    """Closed-loop client: one certificate at a time, every outcome recorded."""

    def __init__(self, cli_main, workdir: Path):
        self.cli_main = cli_main
        self.reports = workdir / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)
        self.first: dict[str, bytes] = {}
        self.certificates: list[dict] = []

    def certify(self, request, timed: bool) -> float:
        out = self.reports / f"{request.key}.json"
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            code = self.cli_main(request.argv(str(out)))
        except Exception:  # a crash is a failed certificate, not a failed benchmark
            traceback.print_exc()
            code = -1
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        data = out.read_bytes() if out.exists() else b""
        first = self.first.setdefault(request.key, data)
        self.certificates.append(
            {
                "key": request.key,
                "exit": code,
                "wall_s": wall_s if timed else None,
                "cpu_s": cpu_s if timed else None,
                "identical": data == first,
            }
        )
        return wall_s


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import blockembed.cli
    import workloads

    requests = workloads.prepare(args.workload, args.seed, args.workdir)
    result = {
        "setup_wall_s": time.monotonic() - args.t0,
        "setup_cpu_s": time.process_time(),
    }
    if not args.setup_only:
        passes = workloads.PASSES[args.workload]
        result.update(_measure(args, requests, blockembed.cli.main, *passes))
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


def _measure(args, requests, cli_main, warmup: int, least: int) -> dict:
    from spans import Tracer

    client = Client(cli_main, args.workdir)
    for _ in range(warmup):
        for request in requests:
            client.certify(request, timed=False)

    # Whole passes only, so every run weighs the requests alike.  A traced
    # pass runs every request twice, traced and untraced, so one will do.
    tracer = Tracer() if args.trace else None
    min_passes = 1 if tracer else least
    untraced_s = 0.0
    passes = 0
    probes = []
    start = time.monotonic()
    while passes < min_passes or time.monotonic() - start < args.seconds:
        for request in requests:
            if tracer:
                with tracer.active():
                    client.certify(request, timed=False)
            untraced_s += client.certify(request, timed=True)
        passes += 1
        if not tracer:
            start_wall, start_cpu = time.perf_counter(), time.process_time()
            host_probe()
            probes.append(
                {
                    "wall_s": time.perf_counter() - start_wall,
                    "cpu_s": time.process_time() - start_cpu,
                }
            )

    out = {
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certificates": client.certificates,
        "probes": probes,
        "requests": [
            {"key": r.key, "mode": r.mode, "input": r.input, "flags": r.flags, "n": r.n}
            for r in requests
        ],
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(passes * len(requests), untraced_s)
    return out


if __name__ == "__main__":
    raise SystemExit(main())

"""blockembed certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):

* ``proper-graph``: embed-proper, random theta, on a seeded random-graph
  metric with n=256.  The pairwise image-distance kernel dominates.
* ``lp-cloud``: embed-lp then coarse on one seeded l_2 cloud, n=512, dim 3.
  The O(n^3) triangle check in metric validation dominates.
* ``small-batch``: 48 small requests (n from 24 to 64) rotating through
  embed-proper on graphs and paths, embed-lp, and coarse on l_1, l_2 and
  l_inf clouds.  Per-call fixed costs dominate.

Each workload runs in a child process of its own (``worker.py``), so the
child's ``ru_maxrss`` is the workload's peak RSS.  One closed-loop client
calls ``blockembed.cli.main`` in process; there are no worker threads.
A run measures whole passes over the request list for at least ``--seconds``
seconds, and with tracing off for at least the workload's least number of
passes (``workloads.PASSES``), so that every request is repeated.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
``SETUP_REPEATS`` set-ups, each in a fresh process, half of them before the
measuring child and half after it), ``cert_p50_s`` (median
over the requests of each request's fastest repeat), ``pairs_per_s`` (the
requests' pairs, n(n-1)/2 each, over the sum of those fastest times) and
``peak_rss_mb`` (the measuring child's ``ru_maxrss``).  The three times are
the child's CPU time (user plus system, all threads; ``CLOCK``): the child
runs one certificate at a time, so on an idle machine this is within about
2% of wall time, and it leaves out the time the child waits for a CPU that
other processes or virtual machines hold.  It still counts the slowdown
that other load causes through shared caches, memory bandwidth and shared
cores, which on a shared host slows every call by up to 2x for a minute or
more at a time.  So ``cert_p50_s`` and ``pairs_per_s`` are scaled to the
host speed at which ``PROBE_NOMINAL_S`` was measured: the times are
multiplied by ``host_scale``, the nominal over the fastest run of a fixed
probe (``worker.host_probe``) timed after every pass of the same run.  The
probe uses no blockembed code, so a change to the program moves the scaled
times as much as the raw ones.  The scale and the unscaled figures on both
clocks come on a line of their own, before the environment record.
``--trace 1`` re-runs each certificate with a span around every public call
of io, metric, proper, blocks and lp_coarse (``spans.py``), each followed by
the same certificate untraced, and prints the per-layer metrics; their
times are wall time.

Every certificate goes through the correctness gate (``gate.py``) against
the reference values of ``reference.py``; ``failed`` counts those that miss.
With ``--trace 1`` a line of layer shares of the certificate time, and
whether each workload's dominant-layer prediction holds, comes first.  The
line before the result is the environment record.  The last line of
standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# End-to-end times are process CPU time ("cpu"), or "wall" for wall time.
CLOCK = "cpu"
RUN_TIMEOUT_S = 170.0  # the whole run, set-ups included
# Fastest CPU time of worker.host_probe on a 2-vCPU Intel Xeon at 2.1 GHz.
PROBE_NOMINAL_S = 0.042


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _read_first(path: str, prefix: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """Machine, toolchain and code identity to keep with every result."""
    import numpy

    mem = _read_first("/proc/meminfo", "MemTotal")
    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mb": int(mem.split()[0]) // 1024 if mem else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_child(args, workdir: Path, deadline: float, setup_only: bool = False) -> dict:
    """Start one worker process, wait for it, and return its result."""
    workdir.mkdir(parents=True)
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills and reaps the child if it overruns the deadline.
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads((workdir / "result.json").read_text())


def gate_run(result: dict, workdir: Path) -> tuple[int, int]:
    """Gate every certificate of a run; return (attempted, failed)."""
    from gate import certificate_failures, check_report
    from reference import reference_fields

    reasons = {}
    for req in result["requests"]:
        try:
            body = (workdir / "reports" / f"{req['key']}.json").read_text()
        except OSError:
            reasons[req["key"]] = ["no report written"]
            continue
        ref = reference_fields(req["mode"], req["input"], req["flags"])
        reasons[req["key"]] = check_report(body, req["n"], ref)
    failed = 0
    for cert in result["certificates"]:
        why = certificate_failures(cert["exit"], cert["identical"], reasons[cert["key"]])
        if why:
            failed += 1
            print(f"perfbench: {cert['key']} failed: {'; '.join(why)}", file=sys.stderr)
    return len(result["certificates"]), failed


def host_scale(probes: list[dict], clock: str = CLOCK) -> float:
    """Nominal probe time over the fastest probe of the run, on ``clock``."""
    return PROBE_NOMINAL_S / min(p[f"{clock}_s"] for p in probes)


def end_to_end(
    result: dict, setups: list[dict], clock: str = CLOCK, scale: float = 1.0
) -> dict:
    """End-to-end metrics on ``clock``; each request counts with its fastest repeat.

    The fastest repeat is the one least disturbed by other load on the
    machine, which on a shared host moves single timings by 10-20%.  The
    certificate times are multiplied by ``scale``; set-up time is not.
    """
    best: dict[str, float] = {}
    for cert in result["certificates"]:
        if cert[f"{clock}_s"] is not None:
            best[cert["key"]] = min(cert[f"{clock}_s"], best.get(cert["key"], math.inf))
    pairs = sum(r["n"] * (r["n"] - 1) // 2 for r in result["requests"])
    setup = statistics.median(s[f"setup_{clock}_s"] for s in setups)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "cert_p50_s": {"value": statistics.median(best.values()) * scale, "unit": "s"},
        "pairs_per_s": {"value": pairs / (sum(best.values()) * scale), "unit": "pairs/s"},
        "peak_rss_mb": {"value": result["maxrss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    from spans import LAYER_METRICS

    layers = result["layers"]
    return {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}


# Dominant-layer predictions: (layer time, lower share bound, upper share bound).
PREDICTIONS = {
    "proper-graph": (("blocks.pairwise_s", 0.80, 1.0),),
    "lp-cloud": (("blocks.pairwise_s", 0.0, 0.05), ("metric.validate_s", 0.50, 1.0)),
}


def layer_shares(workload: str, layers: dict) -> dict:
    """Each layer time as a share of the untraced certificate time."""
    untraced = layers["trace.stage_sum_s"] / (1.0 - layers["trace.unaccounted_frac"])
    shares = {
        name: value / untraced
        for name, value in layers.items()
        if name.endswith("_s") and name != "trace.stage_sum_s"
    }
    checks = {
        name: {"share": shares[name], "expected": [lo, hi], "holds": lo <= shares[name] < hi}
        for name, lo, hi in PREDICTIONS.get(workload, ())
    }
    return {"shares": shares, "predictions": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    if args.seed < 0:
        return _fail("seed must be non-negative")
    if not (ROOT / "src" / "blockembed" / "__init__.py").is_file():
        return _fail(f"no blockembed sources under {ROOT / 'src'}; run from a full checkout")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Set-ups before and after the measuring child, so that their median
        # spans the run rather than one moment of the host's load.
        extra = 0 if args.trace else SETUP_REPEATS - 1
        setups = [
            run_child(args, work / f"setup{i}", deadline, True) for i in range(extra // 2)
        ]
        result = run_child(args, work / "run", deadline)
        setups.append(result)
        setups += [
            run_child(args, work / f"setup{i}", deadline, True)
            for i in range(extra // 2, extra)
        ]
        attempted, failed = gate_run(result, work / "run")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        return _fail(f"run failed: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(result)
        print(json.dumps(layer_shares(args.workload, result["layers"])))
    else:
        scale = host_scale(result["probes"])
        metrics = end_to_end(result, setups, CLOCK, scale)
        unscaled = {
            clock: {name: m["value"] for name, m in end_to_end(result, setups, clock).items()}
            for clock in ("cpu", "wall")
        }
        print(json.dumps({"host_scale": scale, "unscaled": unscaled}))
    print(json.dumps({"environment": environment(args.seed)}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

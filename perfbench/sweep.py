"""Scale sweep: per-layer times and peak RSS against n (diagnostic only).

    python3 perfbench/sweep.py [--out sweep.json]

Covers a seeded random-graph metric and a path metric (embed-proper,
random theta) and a seeded l_2 cloud in dim 3 (embed-lp) at n in ``SIZES``.
Each (fixture, n) runs in a child process of its own, so its ``ru_maxrss``
is its own peak.  Before the certificate runs, the child predicts the
temporaries of the two large kernels with the same n^2 * dim * 8 bytes
per block as ``blocks.pairwise_bytes_computed``.  At its peak the
pairwise kernel holds three such arrays of the largest block (the previous
block's difference array, the new difference and its absolute value), so
its predicted rise is 3 n^2 dim_max 8 bytes.  ``validate_metric`` holds
its float copy of the matrix and, per row of the triangle check, two n x n
arrays (dim 1 in the same formula), so its rise is 3 n^2 8 bytes.  The two
kernels never run at the same time, so the predicted peak is the child's
RSS before the certificate plus the larger of the two.  A case predicted
to exceed half of MemAvailable (read by the child before it builds its
fixture) is recorded as ``"skipped": "predicted RSS"`` and not run.  The
pipeline validates each input in fixture generation (``fixture_s``) and
again when the CLI parses it, embed-lp once more on the normalized set;
the CLI computes the image distances twice (verify, then moduli).  Layer
times sum every call within the certificate.  This is not part of the
benchmark's runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ("random-graph", "path", "l2-cloud")
SIZES = (128, 256, 512, 1024)
SEED = 1
MB = 1 << 20


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _available_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("MemAvailable not found in /proc/meminfo")


def predict(fixture: str, space) -> dict:
    """Block dimensions of the embedding, and the kernel bytes they imply."""
    if fixture == "l2-cloud":
        from blockembed.lp_coarse import embed_set_lp

        images = embed_set_lp(space).images
        dims = {j: len(x) for v in images for j, x in v.blocks.items()}.values()
    else:
        from blockembed.metric import PointedSpace
        from blockembed.proper import build_hierarchy, make_proper_params

        pspace = PointedSpace(space, 0)
        hierarchy = build_hierarchy(pspace, make_proper_params(pspace))
        dims = [len(net) for net in hierarchy.nets.values()]
    n = space.n_points
    return {
        "blocks": len(dims),
        "pairwise_bytes_computed": sum(n * n * d * 8 for d in dims),
        "pairwise_peak_temp_mb": 3 * n * n * max(dims) * 8 / MB,
        "validate_peak_temp_mb": 3 * n * n * 8 / MB,
    }


def child(fixture: str, n: int, workdir: Path) -> dict:
    budget_mb = _available_mb() / 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from blockembed import cli
    from blockembed.fixtures import path_metric, random_graph_metric, random_lp_cloud
    from blockembed.io import write_space
    from spans import Tracer

    start = time.perf_counter()
    if fixture == "random-graph":
        space = random_graph_metric(n, None, SEED)
    elif fixture == "path":
        space = path_metric(n)
    else:
        space = random_lp_cloud(n, 3, 2.0, SEED)
    out = {"fixture": fixture, "n": n, "fixture_s": time.perf_counter() - start}
    predicted = out["predicted"] = predict(fixture, space)
    predicted_peak = _rss_mb() + max(
        predicted["pairwise_peak_temp_mb"], predicted["validate_peak_temp_mb"]
    )
    if predicted_peak > budget_mb:
        out["skipped"] = "predicted RSS"
        out["predicted_rss_mb"] = predicted_peak
        out["budget_mb"] = budget_mb
        return out

    path = workdir / f"{fixture}-{n}.json"
    write_space(space, path)
    if fixture == "l2-cloud":
        argv = ["embed-lp", "--lambda-sim", "2", "--delta", "0.01"]
    else:
        argv = ["embed-proper", "--theta", "random"]
    argv += ["--seed", str(SEED), "--input", str(path), "--out", str(workdir / "report.json")]
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.active():
        code = cli.main(argv)
    wall = time.perf_counter() - start
    out.update(
        exit=code,
        cert_s=wall,
        peak_rss_mb=_rss_mb(),
        predicted_rss_mb=predicted_peak,
        layers=tracer.layer_metrics(1, wall),
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--child", nargs=2, metavar=("FIXTURE", "N"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        result = child(args.child[0], int(args.child[1]), args.workdir)
        print(json.dumps(result))
        return 0

    sys.path.insert(0, str(HERE))
    from run import environment

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    cases = []
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for fixture in FIXTURES:
            for n in SIZES:
                cmd = [sys.executable, __file__, "--child", fixture, str(n), "--workdir", tmp]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
                if proc.returncode != 0:
                    case = {"fixture": fixture, "n": n, "error": proc.stderr.strip()[-500:]}
                else:
                    case = json.loads(proc.stdout.strip().splitlines()[-1])
                print(json.dumps(case), file=sys.stderr)
                cases.append(case)
    try:
        work.rmdir()
    except OSError:  # another run is still using it
        pass
    text = json.dumps({"environment": environment(SEED), "cases": cases}, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

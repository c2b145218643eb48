"""Reference values for the construction-determined fields of a certificate.

This is an independent, frozen restatement of the constructions as they
stand when the benchmark was defined: the proper embedding (greedy nets,
weighted Frechet coordinates, dyadic blending, seeded theta), the l_p
embedding (normalization, seeded diagonal, per-shell theta) and the coarse
composition (eps/2-net rounding).  It imports nothing from blockembed, so
a change to the program cannot move the reference with it.

Images are held as one dense coordinate matrix (blocks side by side).  A
sup-sum of sup norms, or an l_p sum of l_p norms, is then the flat sup or
l_p distance over all coordinates, which is how distances are computed
here instead of block by block.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_THETA_TAG = 101
_DIAG_TAG = 211
_CHUNK_ELEMENTS = 1 << 22  # bounds the temporary of one row chunk to 32 MB
_MODULI_POINTS = 32  # the CLI's default --moduli-points
_K_SLACK = 4  # the CLI's default --k-max-slack


def _annulus(r: float) -> tuple[int, float]:
    _, e = math.frexp(r)
    n = e - 1
    return n, (math.ldexp(1.0, n + 1) - r) / math.ldexp(1.0, n)


def _pair_index(n: int, k: int) -> int:
    z = 2 * n if n >= 0 else -2 * n - 1
    s = z + k - 1
    return s * (s + 1) // 2 + (k - 1)


def _theta(mode: str, lo: float, seed: int, j: int) -> float:
    if mode == "exact":
        return 1.0
    return float(np.random.default_rng([seed, _THETA_TAG, j]).uniform(lo, 1.0))


def _row_norms(x: np.ndarray, p: float) -> np.ndarray:
    if math.isinf(p):
        return np.abs(x).max(axis=1)
    if p == 1:
        return np.abs(x).sum(axis=1)
    if p == 2:
        return np.array([float(np.linalg.norm(row)) for row in x])
    return (np.abs(x) ** p).sum(axis=1) ** (1.0 / p)


def _flat_distances(x: np.ndarray, p: float) -> np.ndarray:
    """Pairwise l_p distances of the rows of x, in row chunks."""
    n = len(x)
    out = np.zeros((n, n))
    rows = max(1, _CHUNK_ELEMENTS // max(1, n * x.shape[1]))
    for a in range(0, n, rows):
        diff = np.abs(x[a : a + rows, None, :] - x[None, :, :])
        if math.isinf(p):
            out[a : a + rows] = diff.max(axis=-1)
        elif p == 1:
            out[a : a + rows] = diff.sum(axis=-1)
        else:
            out[a : a + rows] = (diff**p).sum(axis=-1) ** (1.0 / p)
    np.fill_diagonal(out, 0.0)
    return out


def _cloud_distances(pts: np.ndarray, p: float) -> np.ndarray:
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if math.isinf(p):
        d = diff.max(axis=-1)
    elif p == 1:
        d = diff.sum(axis=-1)
    elif p == 2:
        d = np.sqrt((diff * diff).sum(axis=-1))
    else:
        d = (diff**p).sum(axis=-1) ** (1.0 / p)
    np.fill_diagonal(d, 0.0)
    return d


def _greedy_net(d: np.ndarray, inside: np.ndarray, radius: float, seed: int) -> list[int]:
    members = [seed]
    for i in np.flatnonzero(inside):
        if i != seed and np.all(d[i, members] >= radius):
            members.append(int(i))
    return members


def _summary(d, img, lower, upper) -> dict:
    iu = np.triu_indices(len(d), k=1)
    dd = d[iu]
    ii = img[iu]
    lo = np.array([lower(float(t)) for t in dd])
    hi = np.array([upper(float(t)) for t in dd])
    lo_t = float(dd.min()) / 2.0
    hi_t = 2.0 * float(d.max())
    thresholds = [float(t) for t in np.geomspace(lo_t, hi_t, _MODULI_POINTS)]
    compression = []
    expansion = []
    for t in thresholds:
        above = ii[dd >= t]
        compression.append(float(above.min()) if above.size else math.inf)
        below = ii[dd <= t]
        expansion.append(float(below.max()) if below.size else 0.0)
    distortion = (
        math.inf if np.any(ii == 0) else float(np.max(ii / dd) * np.max(dd / ii))
    )
    return {
        "checks.pairs_total": len(dd),
        "checks.worst_lower_slack": float((ii - lo).min()),
        "checks.worst_upper_slack": float((hi - ii).min()),
        "checks.empirical_distortion": distortion,
        "moduli.thresholds": thresholds,
        "moduli.compression": compression,
        "moduli.expansion": expansion,
    }


def _proper(d: np.ndarray, basepoint: int, theta: str, seed: int, k_slack: int) -> dict:
    norms = d[basepoint]
    positive = norms[norms > 0]
    n_min = _annulus(float(positive.min()))[0]
    n_max = n_min
    for r in positive:
        n, lam = _annulus(float(r))
        n_max = max(n_max, n if lam == 1.0 else n + 1)
    k_max = {}
    offsets = set()
    for n in range(n_min, n_max + 1):
        ball = np.flatnonzero(norms <= math.ldexp(1.0, n + 1))
        sub = d[np.ix_(ball, ball)]
        cap = max(1, math.ceil(n + 3 - math.log2(float(sub[sub > 0].min())))) + k_slack
        k_max[n] = cap
        offsets.update(n - k for k in range(1, cap + 1))
    c_trunc = sum(1.0 / (m * m + 1.0) for m in sorted(offsets))

    columns = {}  # (n, k) -> (first column, net members, weight, theta)
    width = 0
    for n in range(n_min, n_max + 1):
        inside = norms <= math.ldexp(1.0, n + 1)
        for k in range(1, k_max[n] + 1):
            members = _greedy_net(d, inside, math.ldexp(1.0, n + 3 - k), basepoint)
            j = _pair_index(n, k)
            weight = 1.0 / ((n - k) ** 2 + 1.0)
            columns[(n, k)] = (width, members, weight, _theta(theta, 0.5, seed, j))
            width += len(members)
    x = np.zeros((len(d), width))
    for t, r in enumerate(norms):
        if r == 0:
            continue
        n, lam = _annulus(float(r))
        for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
            if blend == 0.0:
                continue
            for k in range(1, k_max[tier] + 1):
                start, members, weight, th = columns[(tier, k)]
                coords = d[t, members] - norms[members]
                x[t, start : start + len(members)] = blend * weight * th * coords

    def lower(t):
        g = max(math.log2(t) ** 2 + 1.0, math.log2(t / 128.0) ** 2 + 1.0)
        return t / (24.0 * g)

    upper_factor = 9.0 * c_trunc
    out = _summary(d, _flat_distances(x, math.inf), lower, lambda t: upper_factor * t)
    out.update(
        {
            "constants.c_trunc": c_trunc,
            "constants.upper_factor": upper_factor,
            "constants.weight_series_sum": math.pi / math.tanh(math.pi),
            "constants.n_min": n_min,
            "constants.n_max": n_max,
        }
    )
    return out


def _lp_images(pts, p, basepoint, lambda_sim, delta, theta, seed):
    """Normalized points, scale, and the flat image matrix of the l_p map."""
    shifted = pts - pts[basepoint]
    norms = _row_norms(shifted, p)
    positive = norms > 0
    scale = 1.0
    if positive.any() and norms[positive].min() < 1.0:
        scale = 1.0 / float(norms[positive].min())
        while _row_norms(shifted * scale, p)[positive].min() < 1.0:
            scale *= 1.0 + 2.0**-48
        shifted = shifted * scale
    dim = pts.shape[1]
    if lambda_sim == 1.0:
        diag = np.ones(dim)
    else:
        diag = np.random.default_rng([seed, _DIAG_TAG]).uniform(1.0 / lambda_sim, 1.0, dim)
    rows = []
    for t, r in zip(shifted, _row_norms(shifted, p)):
        blocks = {}
        if r > 0:
            n, lam = _annulus(float(r))
            for tier, blend in ((n, lam), (n + 1, 1.0 - lam)):
                if blend != 0.0:
                    th = _theta(theta, 1.0 / (1.0 + delta), seed, tier)
                    blocks[tier] = blend * th * (diag * t)
        rows.append(blocks)
    tiers = sorted({tier for blocks in rows for tier in blocks})
    x = np.zeros((len(pts), dim * len(tiers)))
    for i, blocks in enumerate(rows):
        for c, tier in enumerate(tiers):
            if tier in blocks:
                x[i, c * dim : (c + 1) * dim] = blocks[tier]
    return shifted, scale, x


def _lp(pts, p, basepoint, lambda_sim, delta, theta, seed) -> dict:
    normalized, scale, x = _lp_images(pts, p, basepoint, lambda_sim, delta, theta, seed)
    denom = 20.0 * lambda_sim**2 * (1.0 + delta) ** 2
    d = _cloud_distances(normalized, p)
    out = _summary(d, _flat_distances(x, p), lambda t: t / denom, lambda t: 9.0 * t)
    out.update(
        {
            "constants.lower_denominator": denom,
            "constants.normalization_scale": scale,
            "normalization.scale": scale,
        }
    )
    return out


def _coarse(pts, p, basepoint, lambda_sim, delta, theta, seed, eps) -> dict:
    d = _cloud_distances(pts, p)
    radius = eps / 2.0
    members = _greedy_net(d, np.ones(len(d), dtype=bool), radius, basepoint)
    beta = [next(m for m in members if d[i, m] < radius) for i in range(len(d))]
    _, scale, x = _lp_images(pts[members], p, 0, lambda_sim, delta, theta, seed)
    position = {m: idx for idx, m in enumerate(members)}
    images = (1.0 / scale) * x[[position[b] for b in beta]]
    c_d = max(9.0, 20.0 * lambda_sim**2 * (1.0 + delta) ** 2)
    c_a = 9.0 * eps
    out = _summary(
        d, _flat_distances(images, p), lambda t: t / c_d - c_a, lambda t: c_d * t + c_a
    )
    b = np.asarray(beta)
    out.update(
        {
            "constants.c_d": c_d,
            "constants.c_a": c_a,
            "constants.net_size": len(members),
            "net_size": len(members),
            "rounding.max_deviation": float(np.abs(d[np.ix_(b, b)] - d).max()),
        }
    )
    return out


def _flags(flags) -> dict:
    """The request's CLI flags over the CLI defaults; only the flags modelled here."""
    opts = {
        "--theta": "exact",
        "--seed": "0",
        "--lambda-sim": "1",
        "--delta": "0.01",
        "--epsilon": "1",
    }
    it = iter(flags)
    for flag in it:
        if flag not in opts:
            raise ValueError(f"the reference does not model flag {flag}")
        opts[flag] = next(it)
    return opts


def reference_fields(mode: str, input_path: str | Path, flags) -> dict:
    """Reference value of every construction-determined field of one request."""
    payload = json.loads(Path(input_path).read_text())
    o = _flags(flags)
    seed = int(o["--seed"])
    if mode == "embed-proper":
        if "dist" not in payload:
            raise ValueError("the reference models embed-proper on matrix inputs only")
        d = np.array(payload["dist"], dtype=float)
        return _proper(d, 0, o["--theta"], seed, _K_SLACK)
    p = payload["p"]
    p = math.inf if isinstance(p, str) else float(p)
    pts = np.array(payload["points"], dtype=float)
    basepoint = int(payload.get("basepoint", 0))
    theta = "exact" if o["--theta"] == "exact" else "seeded-random"
    args = (pts, p, basepoint, float(o["--lambda-sim"]), float(o["--delta"]), theta, seed)
    if mode == "embed-lp":
        return _lp(*args)
    if mode == "coarse":
        return _coarse(*args, float(o["--epsilon"]))
    raise ValueError(f"the reference does not model mode {mode!r}")

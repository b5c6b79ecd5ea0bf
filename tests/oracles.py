"""Independent brute-force implementations used to cross-check the package.

Everything here re-derives the formulas with plain Python double loops and
shares no code with the implementations under test. Accumulation runs left to
right in the given feature/row order, matching the documented deterministic
order of the real code, so agreement can be checked exactly.
"""

from __future__ import annotations

import math

import numpy as np


def gower_oracle(a_features: dict, b_features: dict, ranges: dict) -> float:
    """Direct-summation Gower similarity over plain dicts."""
    total = 0.0
    count = 0
    for name, spread in ranges.items():
        if name not in a_features or name not in b_features:
            continue
        va = a_features[name]
        vb = b_features[name]
        if spread == 0:
            term = 1.0 if va == vb else 0.0
        else:
            gap = abs(va - vb) / spread
            if gap > 1.0:
                gap = 1.0
            term = 1.0 - gap
        total += term
        count += 1
    if count == 0:
        raise ValueError("no co-present features")
    return total / count


def match_oracle(
    unlabeled: list[tuple[str, dict]],
    labeled: list[tuple[str, dict, int]],
    ranges: dict,
    est_features: list[str],
    d: float,
    c: float,
) -> list[dict]:
    """Double-loop re-derivation of the vote, estimate, and imputation."""
    out = []
    for uid, ufeat in unlabeled:
        num = 0.0
        den = 0.0
        matched = []
        for _, lfeat, label in labeled:
            sim = gower_oracle(lfeat, ufeat, ranges)
            if sim > d:
                num += sim * label
                den += sim
                matched.append((lfeat, sim))
        if den == 0.0:
            out.append(
                {"id": uid, "t": None, "y_hat": 0, "imputed": None, "matched_count": 0}
            )
            continue
        t = num / den
        y_hat = 1 if t > c else (-1 if t < -c else 0)
        imputed = None
        if y_hat != 0:
            imputed = {}
            for feat in est_features:
                f_num = 0.0
                f_den = 0.0
                for lfeat, sim in matched:
                    if feat in lfeat:
                        f_num += sim * lfeat[feat]
                        f_den += sim
                imputed[feat] = f_num / f_den if f_den > 0 else None
        out.append(
            {
                "id": uid,
                "t": t,
                "y_hat": y_hat,
                "imputed": imputed,
                "matched_count": len(matched),
            }
        )
    return out


def auc_pairs_oracle(scores: list[float], labels: list[int]) -> float:
    """AUC by enumerating every (positive, negative) pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == -1]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def exact_binomial_p(b: int, c: int) -> float:
    """Two-sided exact McNemar p-value from the binomial tail."""
    n = b + c
    m = max(b, c)
    tail = sum(math.comb(n, k) for k in range(m, n + 1))
    return min(1.0, 2.0 * tail * 0.5**n)


def chi_square_1dof_p(statistic: float) -> float:
    """Survival function of chi-square with one degree of freedom."""
    return math.erfc(math.sqrt(statistic / 2.0))


def central_difference_gradient(fn, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    for i in range(len(point)):
        step = h * max(1.0, abs(point[i]))
        up = point.copy()
        up[i] += step
        down = point.copy()
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


def exact_linear_recourse(model, base, vary, ranges, threshold: float = 0.5):
    """The most similar decision flip of a linear model, as a fractional knapsack.

    Within the observed bounds a change delta has Gower similarity
    1 - (1/p) * sum |delta_k| / r_k to the base (p: similarity features the
    base has), and it moves the margin by sum w_k * delta_k / s_k. So the
    cheapest flip moves the varied model features in descending order of
    |w_k| * r_k / s_k, each in the direction that helps and at most to its
    bound, until the margin reaches logit(threshold). A score at the threshold
    classifies as +1, so a base at or above it must go strictly below (the
    returned similarity is then a supremum) and one below it need only reach
    it. Features outside the model or with zero range never move. Returns
    (similarity, deltas), or None when no change within the bounds flips the
    decision.
    """
    features = base.features
    p = sum(1 for name in ranges.ranges if name in features)
    margin = model.intercept
    for name, weight in model.weights.items():
        if name in features:
            margin += weight * (features[name] - model.feature_means[name]) / model.feature_scales[name]
    target = math.log(threshold / (1.0 - threshold))
    up = margin < target
    gap = target - margin if up else margin - target

    moves = []
    for name in dict.fromkeys(vary):
        weight, spread = model.weights.get(name, 0.0), ranges.ranges[name]
        if weight == 0.0 or spread == 0.0:
            continue
        rate = weight / model.feature_scales[name]
        direction = 1.0 if (rate > 0) == up else -1.0
        low, high = ranges.bounds[name]
        room = high - features[name] if direction > 0 else features[name] - low
        moves.append((abs(rate) * spread, name, direction, room, abs(rate), spread))
    moves.sort(key=lambda move: -move[0])

    cost = 0.0
    deltas = {}
    for _, name, direction, room, rate, spread in moves:
        reach = room * rate
        if reach > gap or (up and reach >= gap):
            deltas[name] = direction * gap / rate
            cost += gap / rate / spread
            return 1.0 - cost / p, deltas
        deltas[name] = direction * room
        cost += room / spread
        gap -= reach
    return None

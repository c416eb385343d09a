"""Classical epsilon-LDP perturbation mechanisms and their closed-form variances.

These serve both as competitors in experiments and as analytic oracles in
tests.  All samplers take an explicit numpy Generator and return an array
shaped like their input (0-d for a 0-d input or a scalar).

Stream contract.  For n input values each sampler draws these full-length
uniform arrays, in this order, before any other use of the generator:

- laplace_perturb: rng.random(n);
- duchi_perturb: rng.random(n);
- piecewise_perturb: rng.random(n), mapped through the inverse cdf;
- hybrid_perturb: rng.random(n) (branch), then rng.random(n) (value: the
  piecewise inverse cdf or the two-point comparison, by the branch);
- generalized_rr: rng.random(n) (keep or not), then
  rng.integers(0, n_categories - 1, size=n).

Every random choice compares a raw uniform with its threshold, and no
uniform is rescaled.  A fixed generator therefore gives the same reports
and leaves the same stream position whatever else changes, which keeps CLI
output stable.  The arithmetic runs in cache-sized blocks over the drawn
arrays (see domain._BLOCK), with the reports written into a drawn buffer:
a full-length temporary costs more in first-touch page faults than its
arithmetic, and a per-element branch (np.where) more than a bit mask.  The
range check of the input runs in the same pass, so a rejected input has
consumed the draws.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import _blocks, _check_block

# Threshold above which the hybrid mechanism mixes in the piecewise branch.
# Exact closed form of the cutoff from the hybrid construction; ~0.610986.
_C = 6353.0
_D = 405.0 * math.sqrt(241.0)
HYBRID_EPS_STAR = math.log(
    (-5.0 + 2.0 * (_C - _D) ** (1.0 / 3.0) + 2.0 * (_C + _D) ** (1.0 / 3.0)) / 27.0
)


# The greatest privacy budget: e^700 ~ 1e304, so 2 e^eps + 2 (Duchi),
# e^eps (1 + tol) (verify_privacy) and e^eps rho (adaptive._slack) stay
# finite doubles.
_EPS_MAX = 700.0


def check_eps(eps: float) -> float:
    """Validate a privacy budget: a float in (0, _EPS_MAX]."""
    eps = float(eps)
    if math.isnan(eps) or eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if eps > _EPS_MAX:
        raise ValueError(f"eps must be at most {_EPS_MAX!r}, got {eps!r}")
    return eps


def _exp_above_one(eps: float, value: float) -> float:
    """value = exp(eps) or exp(eps / 2), which the two-point and piecewise
    mechanisms divide by less one: at an eps where it rounds to 1.0 they
    are undefined."""
    if value == 1.0:
        raise ValueError(f"eps = {eps!r} is too small: exp(eps) or exp(eps/2) rounds to 1")
    return value


def _draw_below(rng: np.random.Generator, buf: np.ndarray, threshold: float) -> np.ndarray:
    """rng.random(out=buf) < threshold, compared block by block; buf is
    free for the next draw afterwards."""
    rng.random(out=buf)
    below = np.empty(buf.size, dtype=bool)
    for block in _blocks(buf.size):
        np.less(buf[block], threshold, out=below[block])
    return below


def _select(take: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """b[:] = np.where(take, a, b) for float64 or int64 blocks of one dtype,
    by masking the bits."""
    mask = take.view(np.int8).astype(np.int64)
    np.negative(mask, out=mask)  # all ones where take
    diff = np.bitwise_xor(a.view(np.int64), b.view(np.int64))
    diff &= mask
    b.view(np.int64)[...] ^= diff


# smallest log1p argument of the Laplace inverse cdf: the uniform draw 0.0
# would give log1p(-1) = -inf, and every other draw stays above this
_LOG1P_FLOOR = -(1.0 - 2.0**-53)


def laplace_perturb(x, beta: float, eps: float, rng: np.random.Generator):
    """x plus Laplace(0, 2*beta/eps) noise.

    Sampled by inverse CDF from a single uniform draw per value, so the
    consumption of the random stream is fixed and reproducible.  The draw
    0.0 maps to the most negative finite noise, not -inf.
    """
    check_eps(eps)
    xs = np.asarray(x, dtype=float).ravel()
    b = 2.0 * beta / eps
    out = rng.random(xs.size)
    for block in _blocks(xs.size):
        xb = xs[block]
        _check_block(xb, -beta, beta)
        u = out[block]
        u -= 0.5
        arg = np.abs(u)
        arg *= -2.0
        np.maximum(arg, _LOG1P_FLOOR, out=arg)
        np.log1p(arg, out=arg)
        noise = np.sign(u, out=u)
        noise *= -b
        noise *= arg
        noise += xb
    return out.reshape(np.shape(x))


def laplace_variance(beta: float, eps: float) -> float:
    """Var of the Laplace mechanism: 2 * (2*beta/eps)^2 = 8*beta^2/eps^2."""
    check_eps(eps)
    return 8.0 * beta * beta / (eps * eps)


def _duchi_block(xb, beta: float, e: float, u) -> None:
    """Two-point reports of one block, written over its uniforms u."""
    support = beta * (e + 1.0) / (e - 1.0)
    p_pos = (e - 1.0) / (2.0 * e + 2.0) * xb
    p_pos /= beta
    p_pos += 0.5
    # u < p_pos exactly when u - p_pos < 0 (finite values: the difference
    # of two distinct doubles is never zero), and equal values give +0
    np.subtract(u, p_pos, out=p_pos)
    np.copysign(support, p_pos, out=u)
    np.negative(u, out=u)


def duchi_perturb(x, beta: float, eps: float, rng: np.random.Generator):
    """Two-point mechanism: returns +/- beta*(e^eps+1)/(e^eps-1).

    Pr[positive] = (e^eps - 1) / (2 e^eps + 2) * x / beta + 1/2.
    """
    check_eps(eps)
    xs = np.asarray(x, dtype=float).ravel()
    e = _exp_above_one(eps, math.exp(eps))
    out = rng.random(xs.size)
    for block in _blocks(xs.size):
        _check_block(xs[block], -beta, beta)
        _duchi_block(xs[block], beta, e, out[block])
    return out.reshape(np.shape(x))


def duchi_conditional_variance(x, beta: float, eps: float):
    """Var[Y | X=x] = beta^2 ((e^eps+1)/(e^eps-1))^2 - x^2."""
    check_eps(eps)
    e = _exp_above_one(eps, math.exp(eps))
    return beta * beta * ((e + 1.0) / (e - 1.0)) ** 2 - np.asarray(x, dtype=float) ** 2


def piecewise_params(eps: float) -> tuple[float, float]:
    """(C, p): output half-range and in-window density height."""
    check_eps(eps)
    h = _exp_above_one(eps, math.exp(eps / 2.0))
    c = (h + 1.0) / (h - 1.0)
    p = (math.exp(eps) - h) / (2.0 * h + 2.0)
    return c, p


def piecewise_window(x, eps: float):
    """High-density window [l(x), r(x)] for input x in [-1, 1]: its centre
    (C + 1) x / 2 less and plus its half-width (C - 1) / 2 = 1 / (e^{eps/2}
    - 1), so that r >= l at every eps (l + C - 1 falls below l where C - 1
    is under half an ulp of l)."""
    c, _ = piecewise_params(eps)
    centre = (c + 1.0) / 2.0 * np.asarray(x, dtype=float)
    half = 1.0 / math.expm1(eps / 2.0)
    return centre - half, centre + half


def piecewise_density(y, x: float, eps: float):
    """Conditional output density f(y | x) of the piecewise mechanism."""
    c, p = piecewise_params(eps)
    left, right = piecewise_window(x, eps)
    ys = np.asarray(y, dtype=float)
    dens = np.where(
        (ys >= left) & (ys <= right),
        p,
        np.where(np.abs(ys) <= c, p / math.exp(eps), 0.0),
    )
    return dens


def _piecewise_block(xb, c: float, h: float, u, out) -> None:
    """Piecewise reports of one block, the inverse cdf of its uniforms u,
    written to out (which may be u).

    Off the window the density is 1/k, k = (h + 1)(C + 1), so [-C, l]
    holds mass m_lo = (l + C)/k, the window [l, r] holds w = h/(h + 1) and
    [r, C] the rest.  u < m_lo gives u k - C, u < m_lo + w gives
    l + (u - m_lo)(C - 1)/w, and any other u gives u k - (w k + 1).  l is
    (C + 1)/2 x - (C - 1)/2 by the same operations in every block, so no
    value's bits depend on the block."""
    k = (h + 1.0) * (c + 1.0)
    w = h / (h + 1.0)
    left = (c + 1.0) / 2.0 * xb
    left -= (c - 1.0) / 2.0
    m_lo = left + c
    m_lo /= k
    low = u < m_lo
    y_in = np.subtract(u, m_lo)
    y_in *= (c - 1.0) / w
    y_in += left
    m_lo += w
    in_window = u < m_lo
    y_low = np.multiply(u, k, out=m_lo)
    np.subtract(y_low, w * k + 1.0, out=out)
    y_low -= c
    _select(in_window, y_in, out)
    _select(low, y_low, out)


def piecewise_perturb(x, eps: float, rng: np.random.Generator):
    """Piecewise mechanism on [-1, 1]; output lies in [-C, C].

    With probability e^{eps/2}/(e^{eps/2}+1) the output is uniform on the
    window [l(x), r(x)]; otherwise it is uniform on the complement
    [-C, l(x)] u [r(x), C].  One uniform per value, through the inverse
    cdf.  For general beta the caller scales x in and the result out.
    """
    xs = np.asarray(x, dtype=float).ravel()
    c, _ = piecewise_params(eps)
    h = math.exp(eps / 2.0)
    out = rng.random(xs.size)
    for block in _blocks(xs.size):
        _check_block(xs[block], -1.0, 1.0)
        _piecewise_block(xs[block], c, h, out[block], out[block])
    return out.reshape(np.shape(x))


def piecewise_conditional_variance(x, eps: float):
    """Var[Y | X=x] for the piecewise mechanism on [-1, 1]."""
    check_eps(eps)
    h = _exp_above_one(eps, math.exp(eps / 2.0))
    xs = np.asarray(x, dtype=float)
    return xs * xs / (h - 1.0) + (h + 3.0) / (3.0 * (h - 1.0) ** 2)


def hybrid_alpha(eps: float) -> float:
    """Mixing weight of the piecewise branch in the hybrid mechanism."""
    check_eps(eps)
    return 1.0 - math.exp(-eps / 2.0) if eps > HYBRID_EPS_STAR else 0.0


def hybrid_perturb(x, beta: float, eps: float, rng: np.random.Generator):
    """Mixture of the piecewise and two-point mechanisms at weight alpha.

    The branch uniform is drawn for every value, alpha = 0 included, and
    one value uniform feeds the branch taken, so the stream consumption
    is fixed whatever alpha is.
    """
    xs = np.asarray(x, dtype=float).ravel()
    alpha = hybrid_alpha(eps)
    c, _ = piecewise_params(eps)
    h, e = math.exp(eps / 2.0), math.exp(eps)
    out = np.empty(xs.size)
    use_pm = _draw_below(rng, out, alpha)
    rng.random(out=out)
    for block in _blocks(xs.size):
        xb, u = xs[block], out[block]
        _check_block(xb, -beta, beta)
        y_pm = np.divide(xb, beta)
        _piecewise_block(y_pm, c, h, u, y_pm)
        y_pm *= beta
        _duchi_block(xb, beta, e, u)
        _select(use_pm[block], y_pm, u)
    return out.reshape(np.shape(x))


def hybrid_conditional_variance(x, beta: float, eps: float):
    """Var[Y | X=x] of the hybrid mechanism for x in [-beta, beta].

    Both branches are unbiased at every x, so the conditional variance of
    the mixture is the mixture of the branches' conditional variances.
    """
    alpha = hybrid_alpha(eps)
    xs = np.asarray(x, dtype=float)
    return alpha * beta * beta * piecewise_conditional_variance(xs / beta, eps) + (
        1.0 - alpha
    ) * duchi_conditional_variance(xs, beta, eps)


# the baseline mechanisms by name: (perturber (xs, beta, eps, rng),
# conditional variance (xs, beta, eps)), both on [-beta, beta];
# piecewise works on [-1, 1], so its input is scaled in and out by beta
BASELINES = {
    "duchi": (duchi_perturb, duchi_conditional_variance),
    "piecewise": (
        lambda xs, beta, eps, rng: beta * piecewise_perturb(xs / beta, eps, rng),
        lambda xs, beta, eps: beta * beta * piecewise_conditional_variance(xs / beta, eps),
    ),
    "hybrid": (hybrid_perturb, hybrid_conditional_variance),
    "laplace": (
        laplace_perturb,
        lambda xs, beta, eps: np.full(np.size(xs), laplace_variance(beta, eps)),
    ),
}


def _check_index(idx: np.ndarray, n_categories: int) -> None:
    """Every index a whole number in [0, n_categories), none NaN."""
    if idx.size and not (idx.min() >= 0 and idx.max() < n_categories):
        bad = idx[~((idx >= 0) & (idx < n_categories))][0]
        raise ValueError(f"index {bad.item()!r} outside [0, {n_categories})")
    if idx.dtype.kind == "f" and not np.all(idx == np.floor(idx)):
        bad = idx[idx != np.floor(idx)][0]
        raise ValueError(f"index {bad.item()!r} is not a whole number")


def generalized_rr(index, n_categories: int, eps: float, rng: np.random.Generator):
    """Randomized response over {0, ..., n_categories-1}.

    Keeps the true index with probability e^eps / (e^eps + n_categories - 1),
    otherwise reports a uniform draw among the other indices.
    """
    eps = check_eps(eps)
    if n_categories < 2:
        raise ValueError("need at least two categories")
    idx = np.asarray(index)
    flat = idx.ravel()
    e = math.exp(eps)
    p_keep = e / (e + n_categories - 1.0)
    keep = rng.random(flat.size)
    other = rng.integers(0, n_categories - 1, size=flat.size)
    dtype = np.result_type(flat, other)  # int64 for integer indices
    out = other.astype(dtype, copy=False)
    for block in _blocks(flat.size):
        ib, ob = flat[block], out[block]
        _check_index(ib, n_categories)
        ob += ob >= ib  # skip the true index
        _select(keep[block] < p_keep, ib.astype(dtype, copy=False), ob)
    return out.reshape(idx.shape)

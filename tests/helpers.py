"""Shared test utilities: synthetic geometry and small independent oracles."""

import numpy as np


def two_arm_spiral(m=100, seed=0, noise=0.0):
    """Two interleaved spiral arms; returns (points (m,2), arm labels).

    Arms are Archimedean spirals offset by pi, scaled so that the across-arm
    gap is several Gaussian-kernel bandwidths (sigma=1) while along-arm
    neighbors stay within about one bandwidth.
    """
    rng = np.random.default_rng(seed)
    per_arm = m // 2
    theta = np.linspace(0.5 * np.pi, 2.5 * np.pi, per_arm)
    radius = 1.3 * theta
    pts = []
    labels = []
    for arm, phase in enumerate((0.0, np.pi)):
        x = radius * np.cos(theta + phase)
        y = radius * np.sin(theta + phase)
        arm_pts = np.column_stack([x, y])
        if noise > 0:
            arm_pts = arm_pts + noise * rng.standard_normal(arm_pts.shape)
        pts.append(arm_pts)
        labels.extend([arm] * per_arm)
    return np.vstack(pts), np.asarray(labels, dtype=np.int64)


def enumerate_kl(params, i, j, horizon):
    """Brute-force KL divergence between trajectory laws by full enumeration.

    Independent of the dynamic-programming implementation: sums
    p_i(Y) log(p_i(Y)/p_j(Y)) over all s**(horizon+1) trajectories using
    plain Python products.
    """
    import itertools
    import math

    s = params.s
    nu_i, nu_j = params.nu[i], params.nu[j]
    P_i, P_j = params.P[i], params.P[j]
    total = 0.0
    for path in itertools.product(range(s), repeat=horizon + 1):
        p = nu_i[path[0]]
        q = nu_j[path[0]]
        for t in range(horizon):
            p *= P_i[path[t], path[t + 1]]
            q *= P_j[path[t], path[t + 1]]
        if p > 0:
            total += p * math.log(p / q)
    return total


def partition_log_evidence(stats, labels, k_max):
    """Exact log evidence log p(X, z) of a hard assignment under the VEM priors.

    Integrates the parameters out in closed form: Dir(1/k_max) on the
    component weights over k_max labels, and Dir(1) on each nu_i and on each
    row of P_i.  Every factor is a ratio of multivariate beta functions,
    posterior counts over prior.  Empty labels contribute nothing beyond
    the weight term, so the value depends only on the partition of the
    trajectories, not on which labels name its blocks.
    """
    from chainmix.vem import log_beta

    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (stats.n,) or labels.min() < 0 or labels.max() >= k_max:
        raise ValueError("labels must be N integers in [0, k_max)")
    alpha = np.full(k_max, 1.0 / k_max)
    flat = np.ones(stats.s)
    total = log_beta(alpha + np.bincount(labels, minlength=k_max)) - log_beta(alpha)
    for block in np.unique(labels):
        members = labels == block
        total += log_beta(flat + stats.U[members].sum(axis=0)) - log_beta(flat)
        for row in stats.V[members].sum(axis=0):
            total += log_beta(flat + row) - log_beta(flat)
    return total


def strictly_positive_params(k, s, seed, floor=0.05):
    """Random mixture params with every probability entry >= floor."""
    from chainmix import MixtureParams
    from chainmix.model_core import as_rng, uniform_simplex

    rng = as_rng(seed)

    def draw(*shape):
        x = uniform_simplex(rng, *shape)
        x = x + floor
        return x / x.sum(axis=-1, keepdims=True)

    return MixtureParams(mu=draw(k), nu=draw(k, s), P=draw(k, s, s))


def _reference_kl_vector(p, q):
    """sum p log(p/q) with 0 log 0 = 0; +inf when q = 0 on p's support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(q[mask] == 0):
        return np.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def reference_kl_trajectory(params, i, j, horizon):
    """Per-step loop form of `chainmix.kl_trajectory`: propagate chain i's marginal."""
    nu_i, nu_j = params.nu[i], params.nu[j]
    p_i, p_j = params.P[i], params.P[j]
    total = _reference_kl_vector(nu_i, nu_j)
    if np.isinf(total):
        return np.inf
    row_kl = np.array([_reference_kl_vector(p_i[a], p_j[a]) for a in range(params.s)])
    marginal = nu_i.copy()
    for _ in range(horizon):
        with np.errstate(invalid="ignore"):  # 0 * inf at unreached states is masked
            step_terms = np.where(marginal > 0, marginal * row_kl, 0.0)
        total += float(step_terms.sum())
        if np.isinf(total):
            return np.inf
        marginal = marginal @ p_i
    return total


def reference_kl_rate(params, i, j):
    """Per-pair loop form of `chainmix.kl_rate`."""
    from chainmix.theory import stationary_distribution

    pi = stationary_distribution(params.P[i])
    row_kl = np.array([_reference_kl_vector(params.P[i][a], params.P[j][a])
                       for a in range(params.s)])
    return float(np.where(pi > 0, pi * row_kl, 0.0).sum())


def reference_bound(mu, divergence):
    """(1/2) * sum_i max_{j != i} exp(-D_ij) / (1/mu_i + 1/mu_j), one pair at a time."""
    k = mu.shape[0]
    total = 0.0
    with np.errstate(divide="ignore"):
        inv_mu = np.where(mu > 0, 1.0 / mu, np.inf)
    for i in range(k):
        best = 0.0
        for j in range(k):
            if j == i:
                continue
            denom = inv_mu[i] + inv_mu[j]
            term = 0.0 if np.isinf(denom) else np.exp(-divergence[i, j]) / denom
            best = max(best, term)
        total += best
    return 0.5 * total


def reference_kl_report(params, horizon):
    """(pairwise, rates, bound) of `chainmix.kl_report` by per-pair loops."""
    k = params.k
    pairwise = np.zeros((k, k))
    rates = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                pairwise[i, j] = reference_kl_trajectory(params, i, j, horizon)
                rates[i, j] = reference_kl_rate(params, i, j)
    return pairwise, rates, reference_bound(params.mu, pairwise)

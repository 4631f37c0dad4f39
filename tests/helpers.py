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


def log_beta(counts) -> float:
    """log of the multivariate beta function B(c) = prod Gamma(c_i) / Gamma(sum c_i)."""
    from scipy.special import gammaln

    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("log_beta expects a nonempty 1-D vector")
    if np.any(~np.isfinite(c)) or np.any(c <= 0):
        raise ValueError("log_beta requires strictly positive entries")
    return float(gammaln(c).sum() - gammaln(c.sum()))


def kmeans_objective(points, centers, assignments) -> float:
    """Sum of squared distances from each point to its assigned center."""
    diff = np.asarray(points, dtype=np.float64) - np.asarray(centers)[np.asarray(assignments)]
    return float((diff * diff).sum())


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


def reference_stationary_distribution(transition, tol=1e-12, max_iters=10**6):
    """Step-by-step form of `chainmix.theory.stationary_distribution`.

    Returns (measure, steps): the first step t < max_iters whose one-step L1
    residual is below `tol` gives measure pi_{t+1} and steps t + 1.  Raises
    AssertionError when no step does.
    """
    p = np.asarray(transition, dtype=np.float64)
    pi = np.full(p.shape[0], 1.0 / p.shape[0])
    for t in range(max_iters):
        nxt = pi @ p
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() < tol:
            return nxt, t + 1
        pi = nxt
    raise AssertionError(f"no convergence in {max_iters} steps")


def reference_stationary_measures(P, tol=1e-12, max_iters=10**6):
    """The (k, s) stationary measures of the stack P, one chain at a time.

    Each chain takes the log-step walk of `chainmix.theory.stationary_distribution`
    on its own (t = 0, 1, 3, 7, ..., then a `matrix_power` tail to
    max_iters - 1), the per-chain loop that the batched iteration replaced.
    Raises AssertionError naming the first chain that does not converge.
    """
    P = np.asarray(P, dtype=np.float64)
    measures = []
    for i, p in enumerate(P):
        pi = np.full(p.shape[0], 1.0 / p.shape[0])
        last = max_iters - 1
        t, jump, measure = 0, p, None
        while t <= last:
            nxt = pi @ p
            nxt /= nxt.sum()
            if np.abs(nxt - pi).sum() < tol:
                measure = nxt
                break
            if t == last:
                break
            if 2 * t + 1 <= last:
                pi, t, jump = pi @ jump, 2 * t + 1, jump @ jump
            else:
                pi, t = pi @ np.linalg.matrix_power(p, last - t), last
            pi /= pi.sum()
        assert measure is not None, f"chain {i} does not converge"
        measures.append(measure)
    return np.array(measures).reshape(P.shape[:2])


def reference_kl_rate(params, i, j):
    """Per-pair loop form of `chainmix.kl_rate`."""
    from chainmix.theory import stationary_distribution

    pi = stationary_distribution(params.P[i])
    row_kl = np.array([_reference_kl_vector(params.P[i][a], params.P[j][a])
                       for a in range(params.s)])
    return float((pi * np.where(pi > 0, row_kl, 0.0)).sum())


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


def reference_propensities(ia, ja, ib, jb, a, b, p):
    """The twelve MISA reaction propensities as a tuple, in reaction order."""
    g = ((p.g00, p.g01), (p.g10, p.g11))
    return (
        g[ia][ja],
        g[ib][jb],
        p.d * a,
        p.d * b,
        p.h_a * a * (a - 1) * 0.5 if ia == 0 else 0.0,
        p.f_a if ia == 1 else 0.0,
        p.h_a * b * (b - 1) * 0.5 if ib == 0 else 0.0,
        p.f_a if ib == 1 else 0.0,
        p.h_r * b * (b - 1) * 0.5 if ja == 0 else 0.0,
        p.f_r if ja == 1 else 0.0,
        p.h_r * a * (a - 1) * 0.5 if jb == 0 else 0.0,
        p.f_r if jb == 1 else 0.0,
    )


def _reference_event(props, u, ia, ja, ib, jb, a, b):
    """Apply the first reaction whose cumulative propensity exceeds u."""
    acc = 0.0
    reaction = 11
    for idx, prop in enumerate(props):
        acc += prop
        if u < acc:
            reaction = idx
            break
    if reaction == 0:
        a += 1
    elif reaction == 1:
        b += 1
    elif reaction == 2:
        a -= 1
    elif reaction == 3:
        b -= 1
    elif reaction == 4:
        ia, a = 1, a - 2
    elif reaction == 5:
        ia, a = 0, a + 2
    elif reaction == 6:
        ib, b = 1, b - 2
    elif reaction == 7:
        ib, b = 0, b + 2
    elif reaction == 8:
        ja, b = 1, b - 2
    elif reaction == 9:
        ja, b = 0, b + 2
    elif reaction == 10:
        jb, a = 1, a - 2
    elif reaction == 11:
        jb, a = 0, a + 2
    return ia, ja, ib, jb, a, b


def reference_misa_simulate(params, t_end, sample_interval=1.0, seed=None,
                            burn_in=100.0, initial_state=None):
    """The sampled (a, b, gene_a, gene_b) arrays of a plain one-event-at-a-time
    SSA loop that draws its waits and uniforms in the same 8192-event chunks
    (and discards the same first chunk pair) as `misa_simulate`."""
    chunk = 8192
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if initial_state is None:
        ia = ja = ib = jb = a = b = 0
    else:
        (ia, ja), (ib, jb) = initial_state.gene_a, initial_state.gene_b
        a, b = initial_state.a, initial_state.b
    n_samples = int(np.floor(t_end / sample_interval)) + 1
    sample_times = burn_in + sample_interval * np.arange(n_samples)
    rows = []
    exps = rng.standard_exponential(chunk)
    unis = rng.random(chunk)
    cursor = chunk
    t = 0.0
    while len(rows) < n_samples:
        props = reference_propensities(ia, ja, ib, jb, a, b, params)
        total = sum(props)
        if cursor >= chunk:
            exps = rng.standard_exponential(chunk)
            unis = rng.random(chunk)
            cursor = 0
        t_next = t + exps[cursor] / total
        u = unis[cursor] * total
        cursor += 1
        while len(rows) < n_samples and sample_times[len(rows)] < t_next:
            rows.append((a, b, ia, ja, ib, jb))
        if len(rows) == n_samples:
            break
        ia, ja, ib, jb, a, b = _reference_event(props, u, ia, ja, ib, jb, a, b)
        t = t_next
    rows = np.array(rows, dtype=np.int64)
    return rows[:, 0], rows[:, 1], rows[:, 2:4], rows[:, 4:6]


def reference_accuracy(true_labels, est_labels):
    """`chainmix.accuracy` as it was built on `scipy.optimize.linear_sum_assignment`:
    (value, permutation) over the padded contingency table."""
    from scipy.optimize import linear_sum_assignment

    true = np.asarray(true_labels, dtype=np.int64)
    est = np.asarray(est_labels, dtype=np.int64)
    size = int(max(true.max(), est.max())) + 1
    contingency = np.zeros((size, size), dtype=np.int64)
    np.add.at(contingency, (true, est), 1)
    rows, cols = linear_sum_assignment(-contingency)
    permutation = np.empty(size, dtype=np.int64)
    permutation[cols] = rows
    return float(contingency[rows, cols].sum() / true.size), permutation


def count_calls(monkeypatch, module, *names):
    """Wrap each named global of `module` to count its calls; returns the
    name -> count dict that the wrappers update."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def record_results(monkeypatch, module, *names):
    """Wrap each named global of `module` to keep what each call returns;
    returns the name -> list of results dict that the wrappers append to."""
    results = {name: [] for name in names}
    for name in names:
        def recorded(*args, _name=name, _fn=getattr(module, name), **kwargs):
            results[_name].append(_fn(*args, **kwargs))
            return results[_name][-1]
        monkeypatch.setattr(module, name, recorded)
    return results


def assert_e_step_buffers_reused(results, fit, k, n):
    """Every iteration's E-step wrote one (k, n) buffer and one (2, n)
    scratch, and the fit's responsibilities view that buffer."""
    weights, normalized = results["log_mixture_weights"], results["log_normalize_rows"]
    assert len(weights) == len(normalized) == fit.iterations
    buffer, scratch = weights[0].base, normalized[0][1].base
    assert buffer.shape == (k, n) and buffer.flags.c_contiguous
    assert scratch.shape == (2, n) and scratch.flags.c_contiguous
    for w, (gamma, log_c) in zip(weights, normalized):
        assert w.base is buffer and gamma is w and log_c.base is scratch
    assert fit.responsibilities.gamma.base is buffer


def _reference_categorical(rng, columns, rows, out, u, gathered, hit):
    """The per-column categorical step that the one-block `_categorical`
    replaced: columns[b][r] is the cumulative probability of indices 0..b in
    row r, and the draw counts the columns below the last that the uniform
    variate reaches, three numpy calls per column."""
    rng.random(out=u)
    out.fill(0)
    for col in columns[:-1]:
        col.take(rows, out=gathered, mode="clip")
        np.greater_equal(u, gathered, out=hit)
        out += hit
    return out


def reference_sample_mixture(params, n, t, seed=None):
    """The trajectory-major sampler that the time-major `sample_mixture`
    replaced, with its per-column categorical step: each step writes one
    strided column of an int64 (n, t + 1) array.
    Returns (states in trajectory-major order, sizes, labels)."""
    from chainmix.model_core import as_rng

    rng = as_rng(seed)
    k, s = params.k, params.s
    work = (np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    rows = np.zeros(n, dtype=np.int64)
    z = _reference_categorical(rng, np.cumsum(params.mu)[:, None], rows,
                               np.empty(n, dtype=np.int64), *work)
    states = np.empty((n, t + 1), dtype=np.int64)
    prev = _reference_categorical(rng, np.cumsum(params.nu, axis=1).T, z,
                                  np.empty(n, dtype=np.int64), *work)
    states[:, 0] = prev
    cum_P = np.ascontiguousarray(np.cumsum(params.P, axis=2).reshape(k * s, s).T)
    base = z * s
    for step in range(t):
        np.add(base, prev, out=rows)
        states[:, step + 1] = _reference_categorical(rng, cum_P, rows, prev, *work)
    return states.ravel(), np.full(n, t + 1), z


def reference_log_mixture_weights(log_mu, log_nu, log_P, stats):
    """The out-of-place E-step weights the in-place `log_mixture_weights`
    replaced: `log_mu + (L Xᵀ)ᵀ`, with the −inf support mask when L has a
    −inf."""
    k = log_mu.shape[0]
    log_theta = np.concatenate([log_nu, log_P.reshape(k, -1)], axis=1)
    if log_theta.min() > -np.inf:
        return log_mu + (log_theta @ stats.X.T).T
    neg_inf = np.isneginf(log_theta)
    w = log_mu + (np.where(neg_inf, 0.0, log_theta) @ stats.X.T).T
    w[(stats.X > 0) @ neg_inf.T] = -np.inf
    return w


def reference_log_normalize_rows(logw):
    """The out-of-place row normalization the in-place `log_normalize_rows`
    replaced; it leaves `logw` as it is."""
    import math

    m = logw.max(axis=1)
    if math.isfinite(m.sum()):
        gamma = np.exp(logw - m[:, None])
        sums = gamma.sum(axis=1)
        gamma /= sums[:, None]
        return gamma, m + np.log(sums)
    finite = np.isfinite(m)
    e = np.exp(logw - np.where(finite, m, 0.0)[:, None])
    sums = e.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_norms = np.where(finite, m + np.log(sums), -np.inf)
        gamma = np.where(finite[:, None], e / sums[:, None], np.nan)
    return gamma, log_norms


def _reference_marks_per_line(marks, line_starts):
    at_line = np.zeros(marks.size, dtype=bool)
    at_line[line_starts] = True
    kept = marks | at_line
    rows = np.flatnonzero(np.compress(kept, at_line))
    entries = np.diff(rows, append=np.count_nonzero(kept))
    return entries - 1 + np.compress(kept, marks)[rows]


def reference_read_trajectories(path, one_based=False):
    """The whole-file mask reader that `dataio.read_trajectories` replaced:
    the same dataset and the same error texts, from several full-size
    masks and a per-byte digit array.  The `# s=<int>` header takes the
    state tokens' ASCII-digit rule, as the library's reader does."""
    from chainmix import TrajectoryDataset, ValidationError

    max_digits = 18
    with open(path, "rb") as handle:
        raw = handle.read()
    buf = np.frombuffer(raw, dtype=np.uint8)
    newline = buf == ord("\n")
    lone_cr = buf == ord("\r")
    lone_cr[:-1] &= ~newline[1:]
    breaks = np.flatnonzero(newline | lone_cr)
    line_starts = np.concatenate(([0], breaks + 1))
    line_ends = np.append(breaks, buf.size)
    if line_starts[-1] == buf.size:
        line_starts, line_ends = line_starts[:-1], line_ends[:-1]
    if not line_starts.size:
        raise ValidationError(f"{path}: no trajectories found")

    token = (buf != ord(" ")) & (buf != ord(",")) & (buf - np.uint8(9) > 4)
    first = token.copy()
    first[1:] &= ~token[:-1]
    counts = _reference_marks_per_line(first, line_starts)

    declared_s = None
    hash_lines = np.searchsorted(line_starts, np.flatnonzero(buf == ord("#")), side="right") - 1
    for li in np.union1d(hash_lines, np.flatnonzero(counts == 0)).tolist():
        lo, hi = line_starts[li], line_ends[li]
        text = raw[lo:hi].strip()
        if text.startswith(b"#"):
            counts[li] = 0
            token[lo:hi] = False
            first[lo:hi] = False
            body = text[1:].strip().decode(errors="replace")
            if body.startswith("s="):
                value = body[2:].strip()
                if not (value.isascii() and value.isdigit() and len(value) <= max_digits):
                    raise ValidationError(
                        f"{path}:{li + 1}: bad header: invalid state count token {value!r}")
                declared_s = int(value)
        elif text and not counts[li]:
            raise ValidationError(f"{path}:{li + 1}: empty trajectory")

    digits = buf - np.uint8(ord("0"))
    bad = token & (digits > 9)
    if bad.any():
        li = int(np.searchsorted(line_starts, bad.argmax(), side="right")) - 1
        words = raw[line_starts[li]:line_ends[li]].replace(b",", b" ").split()
        word = next(w for w in words if not w.isdigit()).decode(errors="replace")
        raise ValidationError(f"{path}:{li + 1}: invalid state token {word!r}")

    digits = np.compress(token, digits)
    starts = np.compress(token, first)
    if starts.all():
        states = digits.astype(np.int64)
    else:
        at = np.flatnonzero(starts)
        width = np.diff(at, append=digits.size)
        if width.max() > max_digits:
            pos = np.flatnonzero(first)[np.argmax(width > max_digits)]
            li = int(np.searchsorted(line_starts, pos, side="right")) - 1
            raise ValidationError(
                f"{path}:{li + 1}: state token longer than {max_digits} digits")
        states = np.zeros(at.size, dtype=np.int64)
        for place in range(int(width.max())):
            live = np.flatnonzero(width > place)
            states[live] *= 10
            states[live] += digits[at[live] + place]
    sizes = counts[counts > 0]
    if not sizes.size:
        raise ValidationError(f"{path}: no trajectories found")
    if one_based:
        states -= 1
    s = declared_s if declared_s is not None else int(states.max()) + 1
    return TrajectoryDataset.from_flat(states, sizes, s=s)


def reference_gaussian_kernel(a, b, sigma):
    """The out-of-place Gaussian kernel block that `GaussianKernel.__call__`
    replaced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * sigma**2))


def reference_kmeans(points, s, seed=None, max_iters=300):
    """The Lloyd loop `kmeans` replaced, from the same seeding: it builds the
    (m, s) distance block twice per step, once for the reseed distances and
    once for the new assignment."""
    from chainmix.clustering import _kmeanspp_init
    from chainmix.model_core import as_rng

    def distances(x, centers):
        diff = x[:, None, :] - centers[None, :, :]
        return (diff * diff).sum(axis=2)

    x = np.asarray(points, dtype=np.float64)
    m = x.shape[0]
    centers = _kmeanspp_init(x, s, as_rng(seed))
    labels = np.argmin(distances(x, centers), axis=1)
    for _ in range(max_iters):
        nearest = distances(x, centers)[np.arange(m), labels].copy()
        for c in range(s):
            members = labels == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                far = int(np.argmax(nearest))
                centers[c] = x[far]
                nearest[far] = 0.0
        new_labels = np.argmin(distances(x, centers), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def reference_spectral_fit(points, kernel, s, seed=None):
    """The out-of-place `spectral_fit` the in-place one replaced: the kernel
    above, `np.linalg.eigh`, and the Nystrom coefficients e / lambda.
    Returns the model and the training rows e of its embedding."""
    from chainmix.clustering import SpectralModel, _as_points, _canonical_signs, kmeans

    x = _as_points(points)
    K = reference_gaussian_kernel(x, x, kernel.sigma)
    K = 0.5 * (K + K.T)
    inv_sqrt = 1.0 / np.sqrt(K.sum(axis=1))
    sym = inv_sqrt[:, None] * K * inv_sqrt[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)
    top = _canonical_signs(vecs[:, ::-1][:, :s])
    embedding = inv_sqrt[:, None] * top
    alpha = (embedding / vals[::-1][:s]).T

    order = np.lexsort(embedding.T[::-1])
    centers, _ = kmeans(embedding[order], s, seed=seed)
    return SpectralModel(kernel=kernel, points=x.copy(), alpha=alpha, centers=centers), embedding


# Ridge scale of the kernel-interpolant solve that the Nystrom extension replaced.
RIDGE_SCALE = 1e-10


def ridge_spectral_assign(model, embedding, points):
    """`spectral_assign` through the extension the Nystrom one replaced:
    f(x) = beta @ k(x_train, x), with beta^T solving (K + ridge I) beta^T = e
    by a Cholesky factor and two refinement sweeps against K, for the
    training rows e = `embedding` (`reference_spectral_fit` returns them),
    and the nearest of `model.centers`."""
    from scipy.linalg import cho_factor, cho_solve

    from chainmix.clustering import _nearest

    x = model.points
    m = x.shape[0]
    K = reference_gaussian_kernel(x, x, model.kernel.sigma)
    K = 0.5 * (K + K.T)
    factor = cho_factor(K + RIDGE_SCALE * np.trace(K) / m * np.eye(m))
    beta_t = cho_solve(factor, embedding)
    for _ in range(2):
        beta_t = beta_t + cho_solve(factor, embedding - K @ beta_t)
    block = reference_gaussian_kernel(x, np.asarray(points, dtype=np.float64),
                                      model.kernel.sigma)
    return _nearest((beta_t.T @ block).T, model.centers)

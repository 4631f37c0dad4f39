"""File formats: trajectory text files, label sidecars, JSON parameter and
posterior documents, CSV diagnostics.

Trajectory files hold one trajectory per line, states written as ASCII
digits and separated by ASCII whitespace or commas, with an optional header
line `# s=<int>` declaring the state count in ASCII digits too.  States are
0-based by default; pass one_based=True to convert on read/write.  Ground-truth labels live in a
sidecar file with one integer per line.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from .clustering import GaussianKernel, SpectralModel
from .errors import ValidationError
from .model_core import (FitResult, MixtureParams, Responsibilities, TrajectoryDataset,
                         check_int, check_reals)
from .theory import KlReport
from .vem import DirichletPosterior


# Longest state token whose value is sure to fit in int64.
_MAX_DIGITS = 18

# Separators are ASCII whitespace (the space and \t \n \v \f \r) and the
# comma; every other byte belongs to a token.  Translation tables: byte to
# 1 for a token byte and 0 for a separator, and byte to its value minus '0'
# (wrapping around below '0', so a digit maps to 0..9 and nothing else does).
_SEPARATORS = b" ,\t\n\v\f\r"
_TOKEN_BYTES = bytes(b not in _SEPARATORS for b in range(256))
_DIGIT_VALUES = bytes((b - ord("0")) % 256 for b in range(256))


def read_trajectories(path, one_based: bool = False) -> TrajectoryDataset:
    """Parse a trajectory file; infers s from the data unless a header declares it.

    The file is read as bytes once.  Lines end at \\n, \\r\\n or a lone \\r.
    A line whose first non-blank byte is '#' is a comment (or the `# s=<int>`
    header, whose <int> is one ASCII-digit token) and blank lines are skipped; every other line is one trajectory
    of ASCII-digit tokens separated by ASCII whitespace or commas.  All
    tokens are parsed together; only comment, header and blank lines are
    visited one at a time.  Errors name the file and the 1-based line.

    Memory: besides the file's bytes (read into one bytearray, in which
    comment lines are blanked) and the returned states, the parse holds a
    file-sized mask of line breaks, freed once the lines are found, then two
    (token bytes, token starts) and the token bytes as digit values, which
    one `bytes.translate` extracts; '\\r' and '#' are searched for only
    when the file contains them.
    """
    # a bytearray, filled in place, so no second copy of the file is made
    with open(path, "rb") as handle:
        raw = bytearray(os.fstat(handle.fileno()).st_size)
        del raw[handle.readinto(raw):]
        raw += handle.read()  # whatever a pipe or a file that grew still holds
    buf = np.frombuffer(raw, dtype=np.uint8)
    breaks = buf == ord("\n")
    if b"\r" in raw:  # a \r not followed by \n ends a line too
        cr = np.flatnonzero(buf == ord("\r"))
        # a \r at the end of the file is compared with itself
        breaks[cr[buf[np.minimum(cr + 1, buf.size - 1)] != ord("\n")]] = True
    at = np.flatnonzero(breaks)
    del breaks
    line_starts = np.concatenate(([0], at + 1))
    line_ends = np.append(at, buf.size)
    del at
    if line_starts[-1] == buf.size:  # nothing follows the last line break
        line_starts, line_ends = line_starts[:-1], line_ends[:-1]
    if not line_starts.size:
        raise ValidationError(f"{path}: no trajectories found")

    # Comment and header lines are read, then blanked to spaces in the
    # buffer, so they hold no tokens.  The first malformed header is
    # reported after any empty trajectory on an earlier line.
    declared_s = None
    header_error = None
    if b"#" in raw:
        hash_lines = np.searchsorted(line_starts, np.flatnonzero(buf == ord("#")),
                                     side="right") - 1
        for li in np.unique(hash_lines).tolist():
            lo, hi = line_starts[li], line_ends[li]
            text = raw[lo:hi].strip()
            if not text.startswith(b"#"):
                continue
            body = text[1:].strip().decode(errors="replace")
            if body.startswith("s="):
                value = body[2:].strip()
                if not (value.isascii() and value.isdigit() and len(value) <= _MAX_DIGITS):
                    header_error = (li, f"invalid state count token {value!r}")
                    break
                declared_s = int(value)
            buf[lo:hi] = ord(" ")

    token = np.frombuffer(raw.translate(_TOKEN_BYTES), dtype=bool)
    first = np.empty_like(token)
    first[:1] = token[:1]
    np.greater(token[1:], token[:-1], out=first[1:])  # a token byte after a separator
    # token starts per line: each line runs up to the next line's start
    counts = np.diff(np.searchsorted(np.flatnonzero(first),
                                     np.append(line_starts, buf.size)))

    for li in np.flatnonzero(counts == 0).tolist():
        if header_error is not None and li > header_error[0]:
            break
        if raw[line_starts[li]:line_ends[li]].strip():
            raise ValidationError(f"{path}:{li + 1}: empty trajectory")
    if header_error is not None:
        li, reason = header_error
        raise ValidationError(f"{path}:{li + 1}: bad header: {reason}")

    # the token bytes in file order, as digit values
    digits = np.frombuffer(raw.translate(_DIGIT_VALUES, _SEPARATORS), dtype=np.uint8)
    if digits.size and digits.max() > 9:
        pos = np.flatnonzero(token)[np.argmax(digits > 9)]
        li = int(np.searchsorted(line_starts, pos, side="right")) - 1
        words = raw[line_starts[li]:line_ends[li]].replace(b",", b" ").split()
        word = next(w for w in words if not w.isdigit()).decode(errors="replace")
        raise ValidationError(f"{path}:{li + 1}: invalid state token {word!r}")

    if counts.sum() == digits.size:  # every token is one digit
        states = digits.astype(np.int64)
    else:
        at = np.flatnonzero(np.compress(token, first))
        width = np.diff(at, append=digits.size)
        if width.max() > _MAX_DIGITS:
            token_index = np.argmax(width > _MAX_DIGITS)
            li = int(np.searchsorted(np.cumsum(counts), token_index, side="right"))
            raise ValidationError(
                f"{path}:{li + 1}: state token longer than {_MAX_DIGITS} digits")
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


def write_trajectories(path, data: TrajectoryDataset, one_based: bool = False):
    """Write the `# s=<int>` header, then one line of space-separated states per trajectory."""
    offset = 1 if one_based else 0
    # Each state becomes its token plus a trailing space, taken from a table
    # of the s tokens; the space after a trajectory's last state becomes '\n'.
    words = [f"{v + offset} ".encode() for v in range(data.s)]
    cells = np.array(words, dtype=np.bytes_)[data.states]
    text = cells.view(np.uint8).reshape(cells.size, cells.itemsize)
    last = np.cumsum(data.sizes) - 1
    widths = np.array([len(w) for w in words])
    text[last, widths[data.states[last]] - 1] = ord("\n")
    text = text.ravel()
    if cells.itemsize > widths.min():  # shorter tokens are NUL-padded
        text = text[text != 0]
    with open(path, "wb") as handle:
        handle.write(f"# s={data.s}\n".encode())
        handle.write(text.data)


def read_labels(path, one_based: bool = False) -> np.ndarray:
    """One label per line, a token of ASCII digits as a state is in a trajectory file.

    The file is read as bytes: lines end at \\n, \\r\\n or a lone \\r, and only
    ASCII whitespace may surround a label.
    """
    offset = 1 if one_based else 0
    labels = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith(b"#"):
            continue
        if not (text.isdigit() and len(text) <= _MAX_DIGITS):  # bytes.isdigit: ASCII only
            token = text.decode(errors="replace")
            raise ValidationError(f"{path}:{lineno}: invalid label token {token!r}")
        labels.append(int(text) - offset)
    if not labels:
        raise ValidationError(f"{path}: no labels found")
    return np.asarray(labels, dtype=np.int64)


def write_labels(path, labels, one_based: bool = False):
    offset = 1 if one_based else 0
    with open(path, "w") as handle:
        for value in labels:
            handle.write(f"{int(value) + offset}\n")


def read_json_object(path, what: str) -> dict:
    """The JSON object in `path`; ValidationError naming `what` and the file
    when the file is not valid JSON or holds something other than an object."""
    try:
        value = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8, -16 or -32
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return value


def _read_fields(path, what: str, keys, arrays) -> dict:
    """`read_json_object`, which must also hold every field named in `keys`
    and in `arrays`, a {field: ndim} map.  Those fields come back as finite
    float64 arrays of their ndim (`check_reals`, naming the file and field)."""
    payload = read_json_object(path, what)
    for key in (*keys, *arrays):
        if key not in payload:
            raise ValidationError(f"{path}: missing field {key!r}")
    for key, ndim in arrays.items():
        payload[key] = check_reals(payload[key], f"{what} {path}: field {key!r}", ndim)
    return payload


def write_json(path, payload, indent=None):
    """Write `payload` as one JSON document followed by a newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=indent)
        handle.write("\n")


def read_params(path) -> MixtureParams:
    payload = _read_fields(path, "model file", ("k", "s"), {"mu": 1, "nu": 2, "P": 3})
    params = MixtureParams(mu=payload["mu"], nu=payload["nu"], P=payload["P"])
    k = check_int(payload["k"], f"{path}: declared k", 1)
    s = check_int(payload["s"], f"{path}: declared s", 1)
    if params.k != k or params.s != s:
        raise ValidationError(f"{path}: declared k/s disagree with array shapes")
    return params


def write_params(path, params: MixtureParams):
    write_json(path, {
        "k": params.k,
        "s": params.s,
        "mu": params.mu.tolist(),
        "nu": params.nu.tolist(),
        "P": params.P.tolist(),
    }, indent=2)


def write_posterior(path, fit: FitResult):
    """Writes a variational fit's Dirichlet posterior, responsibilities and
    bound trace."""
    write_json(path, {
        "N_hat": fit.posterior.n_hat.tolist(),
        "N_i_hat": fit.posterior.n_i_hat.tolist(),
        "N_ialpha_hat": fit.posterior.n_ialpha_hat.tolist(),
        "responsibilities": fit.responsibilities.gamma.tolist(),
        "elbo_trace": fit.objective_trace.tolist(),
    })


def read_posterior(path):
    """Returns (DirichletPosterior, Responsibilities, elbo_trace array)."""
    payload = _read_fields(path, "posterior file", (), {
        "N_hat": 1, "N_i_hat": 2, "N_ialpha_hat": 3, "responsibilities": 2, "elbo_trace": 1})
    responsibilities = Responsibilities(payload["responsibilities"])
    posterior = DirichletPosterior(
        n_hat=payload["N_hat"],
        n_i_hat=payload["N_i_hat"],
        n_ialpha_hat=payload["N_ialpha_hat"],
    )
    return posterior, responsibilities, payload["elbo_trace"]


def write_restart_csv(path, report):
    """Per-restart diagnostics: index, seed, final objective, iterations,
    accuracy, converged (1/0), the final |delta L| and the wall time in
    seconds; failed restarts leave the objective, converged, delta and
    wall-time cells empty."""
    rows = []
    for r in range(len(report.seeds)):
        acc = ""
        if report.all_accuracies is not None and np.isfinite(report.all_accuracies[r]):
            acc = f"{report.all_accuracies[r]:.6f}"
        obj = report.all_objectives[r]
        delta = report.all_final_deltas[r]
        wall = report.all_wall_s[r]
        rows.append([
            r,
            report.seeds[r],
            "" if np.isnan(obj) else repr(float(obj)),
            int(report.all_iterations[r]),
            acc,
            "" if np.isnan(obj) else int(report.all_converged[r]),
            "" if np.isnan(delta) else repr(float(delta)),
            "" if np.isnan(wall) else repr(float(wall)),
        ])
    write_table(path, ["restart", "seed", "final_objective", "iterations", "accuracy",
                       "converged", "final_abs_delta", "wall_s"], rows)


def write_confusion_csv(path, matrix):
    write_table(path, ["true\\est"] + [str(c) for c in matrix.col_labels],
                ([str(row_label)] + [int(v) for v in matrix.counts[i]]
                 for i, row_label in enumerate(matrix.row_labels)))


def _json_safe(value):
    """Map infinities to the string 'inf' so documents stay standard JSON."""
    if isinstance(value, float) and not np.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return value


def write_kl_report(path, report: KlReport):
    write_json(path, {
        "horizon": report.horizon,
        "pairwise": [[_json_safe(float(v)) for v in row] for row in report.pairwise],
        "rates": [[_json_safe(float(v)) for v in row] for row in report.rates],
        "bound": float(report.bound),
    }, indent=2)


def read_points_csv(path) -> np.ndarray:
    """Read real-valued point vectors, one per line, separated by commas or
    ASCII whitespace; the file is read as bytes, with lines as in `read_labels`."""
    rows = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith(b"#"):
            continue
        try:
            rows.append([float(tok) for tok in text.replace(b",", b" ").split()])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: no points found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"{path}: inconsistent point dimensions {sorted(widths)}")
    return np.asarray(rows, dtype=np.float64)


def write_points_csv(path, points):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in np.asarray(points, dtype=np.float64):
            writer.writerow([repr(float(v)) for v in row])


def write_assignments_csv(path, assignments):
    write_table(path, ["index", "cluster"], ([i, int(c)] for i, c in enumerate(assignments)))


def write_spectral_model(path, model: SpectralModel):
    """A model with a `GaussianKernel` as JSON; the reader ignores `r` and `s`."""
    write_json(path, {
        "kernel": {"name": "gaussian", "sigma": float(model.kernel.sigma)},
        "nystrom_alpha": model.alpha.tolist(),
        "centers": model.centers.tolist(),
        "training_points": model.points.tolist(),
        "r": model.r,
        "s": model.s,
    })


def read_spectral_model(path) -> SpectralModel:
    """The model `write_spectral_model` wrote, read without evaluating its kernel."""
    payload = _read_fields(path, "spectral model file", ("kernel",),
                           {"training_points": 2, "nystrom_alpha": 2, "centers": 2})
    spec = payload["kernel"]
    if not (isinstance(spec, dict) and spec.get("name") == "gaussian"):
        raise ValidationError(f"{path}: unknown kernel spec {spec!r}")
    try:
        kernel = GaussianKernel(sigma=spec.get("sigma"))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return SpectralModel(kernel=kernel,
                         points=payload["training_points"],
                         alpha=payload["nystrom_alpha"],
                         centers=payload["centers"])


def write_misa_csv(path, trajectory):
    """Per-sample rows: time, protein counts, and gene condition codes like '10'."""
    write_table(path, ["t", "a", "b", "gene_a", "gene_b"], (
        [f"{t:g}", int(a), int(b), f"{ga[0]}{ga[1]}", f"{gb[0]}{gb[1]}"]
        for t, a, b, ga, gb in zip(trajectory.times, trajectory.a, trajectory.b,
                                   trajectory.gene_a, trajectory.gene_b)))


def write_table(path, header, rows, fmt: str = "csv"):
    """Write a result table as CSV or as a JSON list of row objects."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_json_safe(v) for v in row])
    elif fmt == "json":
        write_json(path, [dict(zip(header, [_json_safe(v) for v in row])) for row in rows],
                   indent=2)
    else:
        raise ValidationError(f"unknown table format {fmt!r}")

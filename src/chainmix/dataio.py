"""File formats: trajectory text files, label sidecars, JSON parameter and
posterior documents, CSV diagnostics.

Trajectory files hold one trajectory per line, states written as ASCII
digits and separated by ASCII whitespace or commas, with an optional header
line `# s=<int>` declaring the state count.  States are 0-based by default; pass
one_based=True to convert on read/write.  Ground-truth labels live in a
sidecar file with one integer per line.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from .clustering import SpectralModel
from .errors import ValidationError
from .model_core import MixtureParams, TrajectoryDataset
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


def _tokens_per_line(first, breaks, trailing: bool):
    """Number of token starts on each line, from the marks `first` of token
    starts and the mask `breaks` of line-break bytes.

    Breaks are marked in `first` too (in place; no break byte is a token), so
    one compress lists the marks in file order with True at each break, and
    a line's count is the number of marks between its break and the one
    before.  `trailing` says that a last line runs to the end of the file
    without a break.  No per-byte integer array is made.
    """
    first |= breaks
    marks = np.compress(first, breaks)
    ends = np.flatnonzero(marks)
    if trailing:
        ends = np.append(ends, marks.size)
    return np.diff(ends, prepend=-1) - 1


def read_trajectories(path, one_based: bool = False) -> TrajectoryDataset:
    """Parse a trajectory file; infers s from the data unless a header declares it.

    The file is read as bytes once.  Lines end at \\n, \\r\\n or a lone \\r.
    A line whose first non-blank byte is '#' is a comment (or the `# s=<int>`
    header) and blank lines are skipped; every other line is one trajectory
    of ASCII-digit tokens separated by ASCII whitespace or commas.  All
    tokens are parsed together; only comment, header and blank lines are
    visited one at a time.  Errors name the file and the 1-based line.

    Memory: besides the file's bytes (read into one bytearray, in which
    comment lines are blanked) and the returned states, the parse holds
    three file-sized masks (line breaks, token bytes, token starts) and the
    token bytes as digit values, which one `bytes.translate` extracts;
    '\\r' and '#' are searched for only when the file contains them.
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
    line_starts = np.concatenate(([0], at + 1))
    line_ends = np.append(at, buf.size)
    del at
    trailing = line_starts[-1] < buf.size
    if not trailing:  # nothing follows the last line break
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
                try:
                    declared_s = int(body[2:].strip())
                except ValueError as exc:
                    header_error = (li, exc)
                    break
            buf[lo:hi] = ord(" ")

    token = np.frombuffer(raw.translate(_TOKEN_BYTES), dtype=bool)
    first = np.empty_like(token)
    first[:1] = token[:1]
    np.greater(token[1:], token[:-1], out=first[1:])  # a token byte after a separator
    counts = _tokens_per_line(first, breaks, trailing)
    del breaks

    for li in np.flatnonzero(counts == 0).tolist():
        if header_error is not None and li > header_error[0]:
            break
        if raw[line_starts[li]:line_ends[li]].strip():
            raise ValidationError(f"{path}:{li + 1}: empty trajectory")
    if header_error is not None:
        li, exc = header_error
        raise ValidationError(f"{path}:{li + 1}: bad header: {exc}") from exc

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
    offset = 1 if one_based else 0
    labels = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                labels.append(int(text) - offset)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
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
    with open(path) as handle:
        try:
            value = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return value


def read_params(path) -> MixtureParams:
    payload = read_json_object(path, "model file")
    for key in ("k", "s", "mu", "nu", "P"):
        if key not in payload:
            raise ValidationError(f"{path}: missing field {key!r}")
    params = MixtureParams(
        mu=np.asarray(payload["mu"], dtype=np.float64),
        nu=np.asarray(payload["nu"], dtype=np.float64),
        P=np.asarray(payload["P"], dtype=np.float64),
    )
    if params.k != payload["k"] or params.s != payload["s"]:
        raise ValidationError(f"{path}: declared k/s disagree with array shapes")
    return params


def write_params(path, params: MixtureParams):
    payload = {
        "k": params.k,
        "s": params.s,
        "mu": params.mu.tolist(),
        "nu": params.nu.tolist(),
        "P": params.P.tolist(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_posterior(path, posterior: DirichletPosterior, elbo_trace):
    payload = {
        "N_hat": posterior.n_hat.tolist(),
        "N_i_hat": posterior.n_i_hat.tolist(),
        "N_ialpha_hat": posterior.n_ialpha_hat.tolist(),
        "responsibilities": posterior.responsibilities.gamma.tolist(),
        "elbo_trace": np.asarray(elbo_trace).tolist(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def read_posterior(path):
    """Returns (DirichletPosterior, elbo_trace array)."""
    from .model_core import Responsibilities

    payload = read_json_object(path, "posterior file")
    posterior = DirichletPosterior(
        n_hat=np.asarray(payload["N_hat"], dtype=np.float64),
        n_i_hat=np.asarray(payload["N_i_hat"], dtype=np.float64),
        n_ialpha_hat=np.asarray(payload["N_ialpha_hat"], dtype=np.float64),
        responsibilities=Responsibilities(np.asarray(payload["responsibilities"])),
    )
    return posterior, np.asarray(payload["elbo_trace"], dtype=np.float64)


def write_restart_csv(path, report):
    """Per-restart diagnostics: index, seed, final objective, iterations,
    accuracy, converged (1/0), the final |delta L| and the wall time in
    seconds; failed restarts leave the objective, converged, delta and
    wall-time cells empty."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["restart", "seed", "final_objective", "iterations", "accuracy",
                         "converged", "final_abs_delta", "wall_s"])
        for r in range(len(report.seeds)):
            acc = ""
            if report.all_accuracies is not None and np.isfinite(report.all_accuracies[r]):
                acc = f"{report.all_accuracies[r]:.6f}"
            obj = report.all_objectives[r]
            delta = report.all_final_deltas[r]
            wall = report.all_wall_s[r]
            writer.writerow([
                r,
                report.seeds[r],
                "" if np.isnan(obj) else repr(float(obj)),
                int(report.all_iterations[r]),
                acc,
                "" if np.isnan(obj) else int(report.all_converged[r]),
                "" if np.isnan(delta) else repr(float(delta)),
                "" if np.isnan(wall) else repr(float(wall)),
            ])


def write_confusion_csv(path, matrix):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["true\\est"] + [str(c) for c in matrix.col_labels])
        for i, row_label in enumerate(matrix.row_labels):
            writer.writerow([str(row_label)] + [int(v) for v in matrix.counts[i]])


def _json_safe(value):
    """Map infinities to the string 'inf' so documents stay standard JSON."""
    if isinstance(value, float) and not np.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return value


def write_kl_report(path, report: KlReport):
    payload = {
        "horizon": report.horizon,
        "pairwise": [[_json_safe(float(v)) for v in row] for row in report.pairwise],
        "rates": [[_json_safe(float(v)) for v in row] for row in report.rates],
        "bound": float(report.bound),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def read_points_csv(path) -> np.ndarray:
    """Read real-valued point vectors, one per line, comma- or space-separated."""
    rows = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in text.replace(",", " ").split()])
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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "cluster"])
        for i, c in enumerate(assignments):
            writer.writerow([i, int(c)])


def write_spectral_model(path, model: SpectralModel):
    with open(path, "w") as handle:
        json.dump(model.to_dict(), handle)
        handle.write("\n")


def read_spectral_model(path) -> SpectralModel:
    return SpectralModel.from_dict(read_json_object(path, "spectral model file"))


def write_misa_csv(path, trajectory):
    """Per-sample rows: time, protein counts, and gene condition codes like '10'."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "a", "b", "gene_a", "gene_b"])
        for idx in range(trajectory.times.size):
            ga = trajectory.gene_a[idx]
            gb = trajectory.gene_b[idx]
            writer.writerow([
                f"{trajectory.times[idx]:g}",
                int(trajectory.a[idx]),
                int(trajectory.b[idx]),
                f"{ga[0]}{ga[1]}",
                f"{gb[0]}{gb[1]}",
            ])


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
        payload = [dict(zip(header, [_json_safe(v) for v in row])) for row in rows]
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    else:
        raise ValidationError(f"unknown table format {fmt!r}")

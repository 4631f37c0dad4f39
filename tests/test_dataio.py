import json

import numpy as np
import pytest

from chainmix import (
    Responsibilities,
    TrajectoryDataset,
    ValidationError,
    random_mixture_params,
    sufficient_stats,
    vem_fit,
    VemConfig,
)
from chainmix import dataio

from helpers import reference_read_trajectories


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path):
        ds = TrajectoryDataset(([0, 1, 2], [2, 2], [1]), s=3)
        path = tmp_path / "traj.txt"
        dataio.write_trajectories(path, ds)
        loaded = dataio.read_trajectories(path)
        assert loaded.s == 3
        assert loaded.n == 3
        for a, b in zip(loaded.trajectories, ds.trajectories):
            assert np.array_equal(a, b)

    def test_one_based_round_trip(self, tmp_path):
        ds = TrajectoryDataset(([0, 1], [1, 0]), s=2)
        path = tmp_path / "traj.txt"
        dataio.write_trajectories(path, ds, one_based=True)
        raw = path.read_text().splitlines()
        assert raw[1] == "1 2"  # states shifted up on disk
        loaded = dataio.read_trajectories(path, one_based=True)
        assert np.array_equal(loaded.trajectories[0], [0, 1])

    def test_comma_separated_and_header(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# s=4\n0,1,2\n3 3 0\n")
        loaded = dataio.read_trajectories(path)
        assert loaded.s == 4
        assert np.array_equal(loaded.trajectories[0], [0, 1, 2])
        assert np.array_equal(loaded.trajectories[1], [3, 3, 0])

    def test_state_count_inferred_without_header(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 2\n1 0\n")
        assert dataio.read_trajectories(path).s == 3

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 1\noops\n")
        with pytest.raises(ValidationError, match=":2"):
            dataio.read_trajectories(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("\n")
        with pytest.raises(ValidationError):
            dataio.read_trajectories(path)

    def test_writer_golden_bytes(self, tmp_path):
        # recorded from the per-value str(int(v)) writer this one replaced
        ds = TrajectoryDataset(([0, 11, 5, 10], [9], [3, 3, 11, 0, 1, 2], [10, 10]), s=12)
        path = tmp_path / "traj.txt"
        dataio.write_trajectories(path, ds, one_based=True)
        assert path.read_bytes() == b"# s=12\n1 12 6 11\n10\n4 4 12 1 2 3\n11 11\n"
        dataio.write_trajectories(path, ds)
        assert path.read_bytes() == b"# s=12\n0 11 5 10\n9\n3 3 11 0 1 2\n10 10\n"

    def test_random_ragged_round_trips(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "traj.txt"
        for trial in range(40):
            s = int(rng.integers(1, 130))
            lengths = rng.choice([1, 1, 2, int(rng.integers(1, 60))], size=rng.integers(1, 25))
            ds = TrajectoryDataset(tuple(rng.integers(0, s, size=n) for n in lengths), s=s)
            one_based = bool(trial % 2)
            dataio.write_trajectories(path, ds, one_based=one_based)
            loaded = dataio.read_trajectories(path, one_based=one_based)
            assert loaded.s == s
            assert np.array_equal(loaded.sizes, ds.sizes)
            assert np.array_equal(loaded.states, ds.states)
            assert loaded.zero_transition_indices == ds.zero_transition_indices

    # (file bytes, s, trajectories), each as the line-by-line int() reader
    # this one replaced returned them
    READER_CASES = {
        "crlf": (b"# s=4\r\n0 1 2\r\n3 3\r\n", 4, [[0, 1, 2], [3, 3]]),
        "tabs": (b"0\t1\t2\n\t3 \t 3\t\n", 4, [[0, 1, 2], [3, 3]]),
        "trailing_commas": (b"0,1,2,\n3,3,\n", 4, [[0, 1, 2], [3, 3]]),
        "double_commas": (b"0,,1\n2,,,3\n", 4, [[0, 1], [2, 3]]),
        "comments_and_blanks_mid_file":
            (b"0 1\n\n# note\n  # s=5\n2 3\n   \n\n4\n# end", 5, [[0, 1], [2, 3], [4]]),
        "lone_cr": (b"0 1\r2 3\r", 4, [[0, 1], [2, 3]]),
        "leading_zeros_no_final_newline": (b"007 1 00", 8, [[7, 1, 0]]),
    }

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_reader_edge_cases(self, tmp_path, case):
        raw, s, trajs = self.READER_CASES[case]
        path = tmp_path / "traj.txt"
        path.write_bytes(raw)
        loaded = dataio.read_trajectories(path)
        assert loaded.s == s
        assert [t.tolist() for t in loaded.trajectories] == trajs

    @pytest.mark.parametrize("raw, line", [
        (b"0 1\n\n\n# c\n1 x 0\n", 5),
        (b"0 1\r\n\r\n2 y\r\n", 3),
        (b"0 1\n , ,\n", 2),  # separators only: an empty trajectory
    ])
    def test_error_line_number_counts_blank_lines(self, tmp_path, raw, line):
        path = tmp_path / "traj.txt"
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match=f"{path.name}:{line}: "):
            dataio.read_trajectories(path)

    def test_malformed_header_is_a_validation_error(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 1\n# s=abc\n1 0\n")
        with pytest.raises(ValidationError, match=f"{path.name}:2: "):
            dataio.read_trajectories(path)

    @pytest.mark.parametrize("token", ["1_0", "+1", "-1", "\u0663", "1.0", "1" * 19])
    def test_only_ascii_digit_tokens(self, tmp_path, token):
        path = tmp_path / "traj.txt"
        path.write_text(f"0 1\n0 {token}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"{path.name}:2: "):
            dataio.read_trajectories(path)


def _outcome(read, path):
    """What a reader returns, or the text and cause of the error it raises."""
    try:
        data = read(path)
    except ValidationError as exc:
        return "error", str(exc), type(exc.__cause__).__name__
    return "data", data.s, data.sizes.tolist(), data.states.tolist()


_SEPARATORS = [b" ", b",", b"\t", b", ", b"  ", b"\x0b", b"\x0c", b" ,", b",,"]
_LINE_ENDS = [b"\n", b"\r\n", b"\r"]


def _random_line(rng, faulty):
    r = rng.random()
    if r < 0.08:
        return bytes(rng.choice([b"# note", b"  # s=7", b"#s=12", b"# s= 3 ", b"#"]))
    if r < 0.14:
        return bytes(rng.choice([b"", b"   ", b"\t", b" \x0b "]))
    if faulty and r < 0.18:
        return bytes(rng.choice([b"# s=abc", b",", b" , ,", b"# s=", b"#s=1.5"]))
    tokens = []
    for _ in range(int(rng.integers(1, 8))):
        width = int(rng.choice([1, 1, 1, 2, 3, 18] + ([19, 25] if faulty else [])))
        token = bytes(rng.integers(ord("0"), ord("9") + 1, size=width, dtype=np.uint8))
        if faulty and rng.random() < 0.05:
            token = bytes(rng.choice([b"x", b"1a", b"+1", b"#", b"\xd9\xa3", b"-2"]))
        tokens.append(token)
    seps = [_SEPARATORS[int(i)] for i in rng.integers(len(_SEPARATORS), size=len(tokens))]
    body = b"".join(t + sep for t, sep in zip(tokens, seps[:-1] + [b""]))
    return bytes(rng.choice([b"", b" ", b"\t", b","])) + body + bytes(
        rng.choice([b"", b" ", b",", b"\t"]))


def _random_file(rng, faulty):
    """Bytes of a trajectory file with random line endings (\\n, \\r\\n, lone
    \\r, mixed, none at the end, a stray \\r at EOF), comments, headers, blank
    lines, commas and tabs, and tokens of up to 18 digits; with `faulty`,
    malformed headers, separator-only lines, bad and over-long tokens too."""
    lines = [_random_line(rng, faulty) for _ in range(int(rng.integers(0, 9)))]
    end = _LINE_ENDS[int(rng.integers(3))] if rng.random() < 0.7 else None
    raw = b"".join(line + (end or _LINE_ENDS[int(rng.integers(3))]) for line in lines)
    if lines and rng.random() < 0.3:
        raw = raw.rstrip(b"\r\n")
    if rng.random() < 0.05:
        raw += b"\r"
    return raw


class TestReaderMatchesWholeFileMaskReader:
    """`read_trajectories` against the reader it replaced (tests/helpers.py):
    the same dataset, or the same error text, on every file."""

    ERROR_TEXTS = ("no trajectories found", "bad header", "empty trajectory",
                   "invalid state token", "longer than 18 digits", "state indices must lie")

    @pytest.mark.parametrize("faulty", [False, True])
    def test_random_files(self, tmp_path, faulty):
        rng = np.random.default_rng(41 + faulty)
        path = tmp_path / "traj.txt"
        seen = set()
        for _ in range(400):
            path.write_bytes(_random_file(rng, faulty))
            got = _outcome(dataio.read_trajectories, path)
            assert got == _outcome(reference_read_trajectories, path), path.read_bytes()
            seen.update(["data"] if got[0] == "data" else
                        [t for t in self.ERROR_TEXTS if t in got[1]])
        # the faulty files reach every error text
        assert seen >= ({"data", *self.ERROR_TEXTS} if faulty else {"data"})

    @pytest.mark.parametrize("raw, text", [
        (b"# s=3\r\n0 1\r\n\r\n", None),
        (b"0 1\r2\r", None),
        (b"0 1\r2 0\r", None),
        (b"0 1\n2\r", None),
        (b"\r\r0\r\n\n\r1", None),
        (b"# s=20\n 12, 7,\t19\n#c\n\n000000000000000011 3\n", None),
        (b"123456789012345678 0\n", None),
        (b"", "no trajectories found"),
        (b"# s=3\n# only comments\n\n", "no trajectories found"),
        (b"0 1\n# s=x\n", "2: bad header: invalid literal"),
        (b"0 1\n ,\t,\n# s=x\n", "2: empty trajectory"),
        (b"# s=x\n ,\n", "1: bad header"),
        (b"0 1\n2 q3\n", "2: invalid state token 'q3'"),
        (b"0 1\n# s=2\n2 1\n", "state indices must lie in [0, 2)"),
        (b"0\n1\n" + b"1" * 19 + b"\n", "3: state token longer than 18 digits"),
        (b"0 x\n" + b"1" * 19 + b"\n", "1: invalid state token 'x'"),
    ])
    def test_edge_cases_and_every_error_text(self, tmp_path, raw, text):
        path = tmp_path / "traj.txt"
        path.write_bytes(raw)
        got = _outcome(dataio.read_trajectories, path)
        assert got == _outcome(reference_read_trajectories, path)
        if text is None:
            assert got[0] == "data"
        else:
            assert got[0] == "error" and text in got[1]


class TestDatasetValidation:
    @pytest.mark.parametrize("trajs, s", [
        (([0, 1], []), 2),
        ((), 2),
        (([0, 1], [1, 3]), 3),
        (([0, -1],), 2),
        (([0, 1],), 0),
    ])
    def test_tuple_and_flat_forms_raise_the_same_text(self, trajs, s):
        with pytest.raises(ValidationError) as from_tuple:
            TrajectoryDataset(trajs, s=s)
        states = np.concatenate([np.asarray(t, dtype=np.int64) for t in trajs] or [[]])
        sizes = [len(t) for t in trajs]
        with pytest.raises(ValidationError) as from_flat:
            TrajectoryDataset.from_flat(states.astype(np.int64), sizes, s=s)
        assert str(from_flat.value) == str(from_tuple.value)

    def test_flat_sizes_must_cover_the_states(self):
        with pytest.raises(ValidationError, match="sizes sum to 3"):
            TrajectoryDataset.from_flat(np.zeros(4, dtype=np.int64), [1, 2], s=1)

    def test_trajectories_are_read_only_views(self):
        ds = TrajectoryDataset(([0, 1, 2], [2], [1, 1]), s=3)
        assert np.array_equal(ds.states, [0, 1, 2, 2, 1, 1])
        assert np.array_equal(ds.sizes, [3, 1, 2])
        for traj in ds.trajectories:
            assert np.shares_memory(traj, ds.states)
            assert not traj.flags.writeable
        assert not ds.states.flags.writeable


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        dataio.write_labels(path, [0, 2, 1])
        assert np.array_equal(dataio.read_labels(path), [0, 2, 1])

    def test_one_based(self, tmp_path):
        path = tmp_path / "labels.txt"
        dataio.write_labels(path, [0, 1], one_based=True)
        assert path.read_text() == "1\n2\n"
        assert np.array_equal(dataio.read_labels(path, one_based=True), [0, 1])


class TestParamsJson:
    def test_round_trip(self, tmp_path):
        params = random_mixture_params(3, 4, seed=1)
        path = tmp_path / "model.json"
        dataio.write_params(path, params)
        loaded = dataio.read_params(path)
        assert loaded.k == 3 and loaded.s == 4
        assert np.allclose(loaded.mu, params.mu)
        assert np.allclose(loaded.nu, params.nu)
        assert np.allclose(loaded.P, params.P)

    def test_declared_shape_mismatch(self, tmp_path):
        params = random_mixture_params(2, 2, seed=2)
        path = tmp_path / "model.json"
        dataio.write_params(path, params)
        payload = json.loads(path.read_text())
        payload["k"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            dataio.read_params(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"k": 1, "s": 1, "mu": [1.0]}))
        with pytest.raises(ValidationError, match="nu"):
            dataio.read_params(path)

    @pytest.mark.parametrize("content, text", [('{"k": 1,', "is not valid JSON"),
                                               ('"model"', "must hold a JSON object")])
    def test_unusable_json_is_a_validation_error(self, tmp_path, content, text):
        path = tmp_path / "model.json"
        path.write_text(content)
        for reader in (dataio.read_params, dataio.read_posterior,
                       dataio.read_spectral_model):
            with pytest.raises(ValidationError, match=text):
                reader(path)


class TestPosteriorJson:
    def test_round_trip(self, tmp_path):
        params = random_mixture_params(2, 2, seed=3)
        from chainmix import sample_mixture
        data, _ = sample_mixture(params, 10, 8, seed=4)
        stats = sufficient_stats(data)
        from chainmix import sample_simplex_rows
        fit, post = vem_fit(stats, sample_simplex_rows(10, 3, seed=5),
                            VemConfig(k_max=3))
        path = tmp_path / "posterior.json"
        dataio.write_posterior(path, post, fit.objective_trace)
        loaded, trace = dataio.read_posterior(path)
        assert np.allclose(loaded.n_hat, post.n_hat)
        assert np.allclose(loaded.n_ialpha_hat, post.n_ialpha_hat)
        assert np.allclose(trace, fit.objective_trace)
        payload = json.loads(path.read_text())
        assert set(payload) == {"N_hat", "N_i_hat", "N_ialpha_hat",
                                "responsibilities", "elbo_trace"}


class TestTablesAndPoints:
    def test_points_round_trip(self, tmp_path):
        pts = np.array([[0.5, -1.25], [3.0, 4.5]])
        path = tmp_path / "points.csv"
        dataio.write_points_csv(path, pts)
        assert np.allclose(dataio.read_points_csv(path), pts)

    def test_points_dimension_mismatch(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValidationError):
            dataio.read_points_csv(path)

    def test_kl_report_infinities_are_json_safe(self, tmp_path):
        from chainmix.theory import KlReport
        report = KlReport(pairwise=np.array([[0.0, np.inf], [1.0, 0.0]]),
                          rates=np.array([[0.0, 2.0], [np.inf, 0.0]]),
                          bound=0.125, horizon=3)
        path = tmp_path / "kl.json"
        dataio.write_kl_report(path, report)
        payload = json.loads(path.read_text())  # strict JSON must parse
        assert payload["pairwise"][0][1] == "inf"
        assert payload["bound"] == 0.125

    def test_table_csv_and_json(self, tmp_path):
        header = ["a", "b"]
        rows = [[1, 2.5], [3, np.inf]]
        dataio.write_table(tmp_path / "t.csv", header, rows, fmt="csv")
        dataio.write_table(tmp_path / "t.json", header, rows, fmt="json")
        assert (tmp_path / "t.csv").read_text().splitlines()[0] == "a,b"
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload[1]["b"] == "inf"

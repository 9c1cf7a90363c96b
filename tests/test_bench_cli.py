import concurrent.futures
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modepuma import (
    CriterionValue,
    Scenario,
    ValidationError,
    bench,
    cli,
    simulate_snapshots,
    snapshot_io,
)
from modepuma.bench import (
    noise_power_for_snr,
    parse_method_token,
    parse_sweep_config,
    run_sweep,
    verify_properties,
    write_csv,
)
from modepuma.snapshot_io import read_snapshots, write_snapshots

SWEEP_TEXT = """\
# comment line
m = 6
r = 2
angles = -0.4, 0.7
source_cov = identity
n_snapshots = 100
snr_db_list = 10
snapshots_list = 50
methods = mode, puma
n_trials = 4
base_seed = 42
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "modepuma.cli", *args],
        capture_output=True,
        text=True,
    )


def _run_cli_in_2_gib(*args):
    """``run_cli`` on one BLAS thread under a 2 GiB address-space limit, so
    that a build that did allocate an oversized array would end in a
    MemoryError, not exhaust memory."""
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 2 * 1024**3 if hard == resource.RLIM_INFINITY else min(2 * 1024**3, hard)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "modepuma.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
    )


class TestSweepConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT)
        sweep = parse_sweep_config(path)
        assert sweep.base.m == 6
        assert sweep.snapshots_list == (50,)
        assert sweep.methods[0].method == "MODE"
        assert sweep.n_trials == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT + "snapshotz = 5\n")
        with pytest.raises(ValidationError, match="unknown key"):
            parse_sweep_config(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("m = 6\n")
        with pytest.raises(ValidationError, match="missing"):
            parse_sweep_config(path)

    def test_method_tokens(self):
        assert parse_method_token("mode").solver == "MODE"
        assert parse_method_token("puma").solver == "PUMA"
        cfg = parse_method_token("modex:2")
        assert cfg.solver == "MODE" and cfg.p_extra == 2
        cfg = parse_method_token("epuma:1")
        assert cfg.solver == "PUMA" and cfg.p_extra == 1
        with pytest.raises(ValidationError):
            parse_method_token("music")

    @pytest.mark.parametrize(
        "old,new,line",
        [
            ("angles = -0.4, 0.7", "angles = -0.4, abc", 4),
            ("n_trials = 4", "n_trials = four", 10),
            ("snr_db_list = 10", "snr_db_list = nan", 7),
            ("methods = mode, puma", "methods = mode, modex:x", 9),
        ],
    )
    def test_bad_value_names_line(self, tmp_path, old, new, line):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT.replace(old, new))
        with pytest.raises(ValidationError, match=f"sweep.cfg:{line}: "):
            parse_sweep_config(path)

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("n_trials = 4", "n_trials = 0", 10, "bad n_trials value: need n_trials >= 1, got 0"),
            ("base_seed = 42", "base_seed = -1", 11, "bad base_seed value: need base_seed >= 0, got -1"),
        ],
        ids=["zero-trials", "negative-seed"],
    )
    def test_out_of_range_count_names_its_line(self, tmp_path, old, new, line, message):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT.replace(old, new))
        with pytest.raises(ValidationError) as info:
            parse_sweep_config(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"snr_db_list = 10": "snr_db_list = 4000"}, "SNR 4000.0 dB is out of float range"),
            ({"snr_db_list = 10": "snr_db_list = 10, -4000"}, "SNR -4000.0 dB is out of float range"),
            (
                {
                    "source_cov = identity": "source_cov = 1e306, 1e306",
                    "snr_db_list = 10": "snr_db_list = -30",
                },
                "SNR -30.0 dB with source_cov trace 2e+306 gives a noise power out of float range",
            ),
        ],
        ids=["snr-4000", "snr-minus-4000", "noise-power-overflow"],
    )
    def test_snr_past_float_range_names_its_line(self, tmp_path, edits, message):
        text = SWEEP_TEXT
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        expected = f"{cfg}:7: bad snr_db_list value: {message}"
        with pytest.raises(ValidationError) as info:
            parse_sweep_config(cfg)
        assert str(info.value) == expected
        proc = run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1 and proc.stderr == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "edits, line, message",
        [
            ({"m = 6": "m = 3", "r = 2": "r = 3", "-0.4, 0.7": "-0.4, 0.3, 0.7"}, 3, "need r < m, got r=3, m=3"),
            ({"m = 6": "m = 0"}, 2, "bad m value: need m >= 2, got 0"),
            ({"-0.4, 0.7": "-0.4, 0.3, 0.7"}, 4, "angles needs 2 entries, got 3"),
            (
                {"source_cov = identity": "source_cov = -1, 1"},
                5,
                "bad source_cov value: source covariance must be positive semidefinite",
            ),
        ],
        ids=["r-not-below-m", "m-zero", "angle-count", "negative-source-power"],
    )
    def test_values_no_scenario_takes_name_their_line(self, tmp_path, edits, line, message):
        # Each parses, but the Scenario built from the config would reject it.
        text = SWEEP_TEXT
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert f"sweep.cfg:{line}: {message}\n" in proc.stderr
        assert "Traceback" not in proc.stderr and not out.exists()

    def test_bad_value_exits_with_validation_code(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT.replace("0.7", "abc"))
        proc = run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert "sweep.cfg:4:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "edits, message",
        [
            # p must be < m - r = 4.
            ({"mode, puma": "mode, modex:9"}, "p_extra must satisfy p < m - r, got p=9, m=6, r=2"),
            # C(21, 9) subsets, over the 100 000 limit.
            (
                {
                    "m = 6": "m = 30",
                    "r = 2": "r = 9",
                    "-0.4, 0.7": "-2.4, -1.8, -1.2, -0.6, 0.0, 0.6, 1.2, 1.8, 2.4",
                    "mode, puma": "epuma:3",
                },
                "MODEX would score C(21, 9) = 293930 candidate subsets",
            ),
        ],
    )
    def test_modex_sizes_that_cannot_run_exit_with_validation_code(self, tmp_path, edits, message):
        # Every trial of such a method would fail, so the config itself is rejected.
        text = SWEEP_TEXT
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        proc = run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert f"sweep.cfg:9: bad methods value: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            # Parsed values are compared, so 10 and 1e1 are one SNR.
            ("snr_db_list = 10", "snr_db_list = 10, 1e1", 7, "snr_db_list value: repeated entry 10.0"),
            ("snapshots_list = 50", "snapshots_list = 50, 50", 8, "snapshots_list value: repeated entry 50"),
            ("methods = mode, puma", "methods = mode, puma, MODE", 9, "methods value: repeated entry mode"),
            (
                "snapshots_list = 50",
                "snapshots_list = 50, 0",
                8,
                "snapshots_list value: need a snapshot count >= 1, got 0",
            ),
        ],
        ids=["repeated-snr", "repeated-snapshots", "repeated-method", "zero-snapshots"],
    )
    def test_bad_list_entry_exits_with_validation_code(self, tmp_path, old, new, line, message):
        # A repeated entry would write two rows under the same key columns.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT.replace(old, new))
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert f"sweep.cfg:{line}: bad {message}" in proc.stderr
        assert "Traceback" not in proc.stderr and not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("snr_db_list", (10.0, 10.0), "bad snr_db_list: repeated entry 10.0"),
            ("snapshots_list", (50, 50), "bad snapshots_list: repeated entry 50"),
            ("snapshots_list", (50, 0), "bad snapshots_list: need a snapshot count >= 1, got 0"),
            ("methods", "repeat", "bad methods: repeated entry mode"),
            (
                "methods",
                (parse_method_token("modex:9"),),
                "bad methods: p_extra must satisfy p < m - r, got p=9, m=6, r=2",
            ),
            # Counts and seeds are integers: a float base_seed would be
            # truncated to the rows of its integer part.
            ("n_trials", 2.5, "n_trials must be an integer, got 2.5"),
            ("base_seed", 1.5, "base_seed must be an integer, got 1.5"),
            ("base_seed", "3", "base_seed must be an integer, got '3'"),
            ("base_seed", True, "base_seed must be an integer, got True"),
            ("snapshots_list", (50.5,), "bad snapshots_list: a snapshot count must be an integer, got 50.5"),
            ("snr_db_list", (), "sweep lists must be non-empty"),
            ("snapshots_list", (), "sweep lists must be non-empty"),
            ("methods", (), "sweep lists must be non-empty"),
        ],
        ids=[
            "repeated-snr", "repeated-snapshots", "zero-snapshots", "repeated-method", "modex-size",
            "float-trials", "float-seed", "str-seed", "bool-seed", "float-snapshots",
            "empty-snr", "empty-snapshots", "empty-methods",
        ],
    )
    def test_a_spec_built_in_code_rejects_the_same_entries(self, tmp_path, key, value, message):
        # run_sweep's callers may build a spec with dataclasses.replace,
        # without the parser; the spec itself rejects what the parser does.
        sweep = _sweep_from_text(tmp_path)
        if value == "repeat":
            value = sweep.methods + sweep.methods[:1]
        with pytest.raises(ValidationError) as info:
            replace(sweep, **{key: value})
        assert str(info.value) == message

    def test_numpy_integer_counts_and_seeds_are_accepted(self, tmp_path):
        sweep = replace(_sweep_from_text(tmp_path), n_trials=2, base_seed=7)
        numpy_ints = replace(sweep, n_trials=np.int64(2), base_seed=np.int64(7))
        assert run_sweep(numpy_ints) == run_sweep(sweep)

    def test_a_snapshot_count_past_the_draw_cap_names_its_line(self, tmp_path):
        # Nothing is allocated: the parser rejects the count before any trial.
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT.replace("m = 6", "m = 300000000"))
        with pytest.raises(ValidationError) as info:
            parse_sweep_config(path)
        assert str(info.value) == (
            f"{path}:8: bad snapshots_list value: simulating 50 snapshots at m=300000000, r=2 "
            "would draw T (r + m) = 15000000100 complex values, over the limit of 16777216"
        )

    def test_a_covariance_past_the_cap_names_the_m_line(self, tmp_path):
        # m = 100000 is within the draw cap at T = 50 (about 5e6 draws), but
        # its m x m sample covariance would hold 1e10 complex values.
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT.replace("m = 6", "m = 100000"))
        with pytest.raises(ValidationError) as info:
            parse_sweep_config(path)
        assert str(info.value) == (
            f"{path}:2: bad m value: a sample covariance at m=100000 would hold "
            "m^2 = 10000000000 complex values, over the limit of 16777216"
        )
        sweep = _sweep_from_text(tmp_path)
        with pytest.raises(ValidationError, match="at m=4097 would hold m"):
            replace(sweep, base=replace(sweep.base, m=4097))

    def test_a_line_without_equals_names_its_line(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT.replace("r = 2", "r 2"))
        with pytest.raises(ValidationError) as info:
            parse_sweep_config(path)
        assert str(info.value) == f"{path}:3: expected 'key = value'"

    def test_a_key_given_twice_names_the_second_line(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT + "m = 8\n")
        with pytest.raises(ValidationError) as info:
            parse_sweep_config(path)
        assert str(info.value) == f"{path}:12: duplicate key 'm'"

    def test_the_template_scenario_takes_the_first_snapshot_count(self, tmp_path):
        # No trial reads n_snapshots, so a count a Scenario would reject there
        # does not fail the sweep.
        path = tmp_path / "sweep.cfg"
        path.write_text(
            SWEEP_TEXT.replace("n_snapshots = 100", "n_snapshots = 0").replace(
                "snapshots_list = 50", "snapshots_list = 50, 20"
            )
        )
        sweep = parse_sweep_config(path)
        assert sweep.base.n_snapshots == 50 and sweep.snapshots_list == (50, 20)

    def test_snr_to_noise_power(self):
        # tr(P) = 2, r = 2, 10 dB -> sigma^2 = 0.1
        assert abs(noise_power_for_snr(np.eye(2), 2, 10.0) - 0.1) <= 1e-15

    @pytest.mark.parametrize("line", ["noise_power = 0.5", "seed = 3"])
    def test_keys_the_sweep_sets_per_trial_are_unknown(self, tmp_path, line):
        # run_sweep derives sigma^2 from snr_db_list and the seed from
        # base_seed, so these keys would be silently ignored.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT + line + "\n")
        proc = run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert "sweep.cfg:12: unknown key" in proc.stderr and "Traceback" not in proc.stderr

    def test_diagonal_source_cov(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT.replace("source_cov = identity", "source_cov = 2, 0.5"))
        assert np.array_equal(parse_sweep_config(path).base.source_cov, np.diag([2.0, 0.5]))

    def test_diagonal_source_cov_needs_r_entries(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_TEXT.replace("source_cov = identity", "source_cov = 2, 0.5, 1"))
        with pytest.raises(ValidationError, match="sweep.cfg:5: source_cov needs 2 "):
            parse_sweep_config(path)

    @pytest.mark.parametrize("source_cov", ["identity", "2, 0.5"])
    def test_negative_r_exits_with_validation_code(self, tmp_path, source_cov):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            SWEEP_TEXT.replace("r = 2", "r = -2")
            .replace("source_cov = identity", f"source_cov = {source_cov}")
        )
        proc = run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert "sweep.cfg:3: bad r value: need r >= 1, got -2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_source_cov_entry_exits_with_validation_code(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT.replace("source_cov = identity", "source_cov = 2, -0.5"))
        proc = run_cli("mc", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert "positive semidefinite" in proc.stderr and "Traceback" not in proc.stderr


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        path = tmp_path / "snaps.txt"
        write_snapshots(path, Y)
        assert np.array_equal(read_snapshots(path), Y)

    def test_written_bytes_equal_per_entry_format(self, tmp_path):
        # Reference: one f"{re:.17g}{im:+.17g}j" per entry, space-joined.
        parts = [0.0, -0.0, 5e-324, 1e-300, 1e308, np.inf, -np.inf, np.nan]
        Y = np.array([[complex(a, b) for b in parts] for a in parts])
        path = tmp_path / "snaps.txt"
        write_snapshots(path, Y)
        expected = "# m=8 T=8\n" + "".join(
            " ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in Y[:, t]) + "\n"
            for t in range(8)
        )
        assert path.read_text() == expected

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1+0j 2+0j\n")
        with pytest.raises(ValidationError, match="header"):
            read_snapshots(path)

    def test_bad_token_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# m=2 T=1\n1+0j nope\n")
        with pytest.raises(ValidationError, match="column 2"):
            read_snapshots(path)

    @pytest.mark.parametrize("token", ["nan+0j", "1+infj", "-inf-1j"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"# m=2 T=2\n1+0j 2+0j\n3+0j {token}\n")
        with pytest.raises(ValidationError, match=r"bad.txt:3: column 2: non-finite"):
            read_snapshots(path)

    def test_zero_snapshots_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# m=2 T=0\n")
        with pytest.raises(ValidationError):
            read_snapshots(path)

    def test_a_covariance_past_the_cap_names_the_header_before_the_body(self, tmp_path):
        # The body is one line short; the header's m is rejected first.
        path = tmp_path / "big.txt"
        path.write_text("# m=4097 T=1\n")
        with pytest.raises(ValidationError) as info:
            read_snapshots(path)
        assert str(info.value) == (
            f"{path}:1: a sample covariance at m=4097 would hold m^2 = 16785409 complex "
            "values, over the limit of 16777216"
        )


def reference_read_snapshots(path):
    """The per-token reader that ``read_snapshots`` must match bit for bit.

    Kept as it was before numpy's C parser took the common case, except that
    the file is opened as UTF-8, as ``read_snapshots`` opens it.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValidationError(f"{path}:1: missing '# m=<m> T=<T>' header")
        try:
            fields = dict(tok.split("=") for tok in header[1:].split())
            m, T = int(fields["m"]), int(fields["T"])
        except (ValueError, KeyError) as exc:
            raise ValidationError(f"{path}:1: malformed header: {exc}") from exc
        if T < 1 or m < 1:
            raise ValidationError(f"{path}:1: need m >= 1 and T >= 1")
        values = []
        for lineno, line in enumerate(fh, 2):
            tokens = line.split()
            if len(tokens) != m:
                raise ValidationError(
                    f"{path}:{lineno}: expected {m} entries, got {len(tokens)}"
                )
            for k, tok in enumerate(tokens):
                try:
                    values.append(complex(tok))
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}:{lineno}: column {k + 1}: bad complex token {tok!r}"
                    ) from exc
    rows = np.array(values, dtype=complex).reshape(-1, m)  # row t = snapshot t
    if len(rows) != T:
        raise ValidationError(
            f"{path}:{min(len(rows), T) + 2}: expected {T} snapshot lines, got {len(rows)}"
        )
    bad = np.argwhere(~np.isfinite(rows))  # (t, k) pairs in file order
    if bad.size:
        t, k = bad[0]
        raise ValidationError(
            f"{path}:{t + 2}: column {k + 1}: non-finite value {rows[t, k]}"
        )
    return rows.T.copy()


# Separators str.split() and numpy both take as whitespace, beyond space and tab.
_SEPARATORS = [" ", "\t", "\f", "\x0b", "\x1c", "\xa0", "\x85"]
_ODD_TOKENS = [
    "1+-2j", "1++2j", "(1+-2j)", "nan+-infj", "1e5+-3j",  # numpy reads, complex() rejects
    "j", "-J", "1+2J", "1_0", "١٢", "+infinity+j",  # complex() reads, numpy rejects
    "nan", "-nan+0j", "inf", "1+infj", "1e400",  # non-finite
    "#", "1#", '"1"', "0x1", "1+2jj", "(1+2j", "abc",  # junk
]


@st.composite
def snapshot_texts(draw):
    """A snapshot file's text: mostly well formed, sometimes with odd tokens or lines."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    T = n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    value = st.tuples(finite, finite).map(lambda re_im: "%.17g%+.17gj" % re_im)  # as written
    if draw(st.booleans()):
        value = st.one_of(value, st.sampled_from(_ODD_TOKENS))
    odd_lines = draw(st.booleans())
    gap = st.text(alphabet=_SEPARATORS, min_size=1, max_size=2)
    edge = st.text(alphabet=_SEPARATORS, max_size=1)
    lines = []
    for _ in range(n):
        count = m + (draw(st.sampled_from([0, 0, -1, 1])) if odd_lines else 0)
        tokens = [draw(value) for _ in range(max(count, 0))]
        body = "".join(tok + draw(gap) for tok in tokens[:-1]) + "".join(tokens[-1:])
        lines.append(draw(edge) + body + draw(edge))
    for _ in range(draw(st.integers(0, 2)) if odd_lines else 0):
        lines.insert(draw(st.integers(0, len(lines))), draw(edge))  # blank or whitespace only
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = newline if draw(st.booleans()) else ""
    return newline.join([f"# m={m} T={T}", *lines]) + final


def _read_or_message(reader, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
            return reader(path)
    except ValidationError as exc:
        return str(exc)


class TestSnapshotReader:
    @settings(max_examples=400, deadline=None)
    @given(snapshot_texts())
    def test_matches_the_per_token_reader(self, tmp_path_factory, text):
        self.check_against_reference(tmp_path_factory.getbasetemp() / "snapshots.txt", text)

    @pytest.mark.parametrize(
        "text",
        [
            "# m=2 T=2\n1+0j 2-1j\n3+0j 4e-3+5j\n",
            "# m=2 T=2\r\n1+0j 2-1j\r\n3+0j 4+5j",
            "# m=2 T=2\r1+0j\x852-1j\r3+0j\xa04+5j\r",
            "# m=1 T=2\n1+-2j\n3+0j\n",
            "# m=1 T=2\n1+0j\n(1++2j)\n",
            "# m=2 T=1\nj 1+2J\n",
            "# m=2 T=1\n1_0 \u0661\u0662\n",
            "# m=2 T=1\n1+0j 2+0j#\n",
            "# m=2 T=1\n1+0j 2+0j #\n",
            "# m=1 T=1\n#\n",
            "# m=2 T=1\n\n1+0j 2+0j\n",
            "# m=2 T=1\n \x0c\n1+0j 2+0j\n",
            "# m=2 T=2\n1+0j 2+0j\n\n3+0j 4+0j\n",
            "# m=2 T=1\n1+0j 2+0j\n\n",
            "# m=2 T=1\n\t\n",
            "# m=2 T=1\n",
            "# m=2 T=1\n1+0j\n",
            "# m=2 T=2\n1+0j 1e400\n3+0j 4+0j\n",
        ],
        ids=[
            "plain", "crlf-no-final-newline", "cr-nel-nbsp", "plus-minus", "plus-plus",
            "j-and-capital-j", "underscore-and-unicode-digits", "hash-in-token",
            "hash-token", "hash-line", "blank-first-line", "whitespace-first-line",
            "blank-middle-line", "blank-last-line", "whitespace-only-body", "no-body", "short-line", "overflow",
        ],
    )
    def test_edge_cases_match_the_per_token_reader(self, tmp_path, text):
        self.check_against_reference(tmp_path / "snapshots.txt", text)

    @staticmethod
    def check_against_reference(path, text):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = _read_or_message(read_snapshots, path)
        want = _read_or_message(reference_read_snapshots, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_written_files_take_the_c_parser(self, tmp_path, monkeypatch):
        def unexpected(path, lines, m):
            raise AssertionError(f"{path} fell back to the per-token reader")

        monkeypatch.setattr(snapshot_io, "_token_rows", unexpected)
        rng = np.random.default_rng(3)
        for m, T in [(1, 1), (1, 5), (4, 1), (10, 200)]:
            Y = rng.standard_normal((m, T)) + 1j * rng.standard_normal((m, T))
            path = tmp_path / f"snaps-{m}-{T}.txt"
            write_snapshots(path, Y)
            assert np.array_equal(read_snapshots(path), Y)


class TestVerifyCommand:
    def test_default_pass(self):
        proc = run_cli("verify", "--instances", "100", "--seed", "5")
        assert proc.returncode == 0
        assert proc.stdout.count("ok") == 6

    def test_empty_report(self):
        proc = run_cli("verify", "--instances", "0")
        assert proc.returncode == 0

    def test_fault_injection_detected(self):
        proc = run_cli("verify", "--instances", "50", "--inject-fault")
        assert proc.returncode == 2
        assert "FAIL" in proc.stdout

    def test_negative_instance_count_rejected(self):
        with pytest.raises(ValidationError, match="n_instances"):
            verify_properties(n_instances=-5)
        proc = run_cli("verify", "--instances", "-5")
        assert proc.returncode == 1
        assert "ok" not in proc.stdout and "Traceback" not in proc.stderr

    def test_negative_seed_rejected(self):
        proc = run_cli("verify", "--instances", "5", "--seed", "-1")
        assert proc.returncode == 1
        assert "need seed >= 0, got -1" in proc.stderr and "Traceback" not in proc.stderr

    def test_infeasible_max_r_exits_instead_of_hanging(self):
        # Seed 2 draws r = 36 for the projector suite: 36 angles 0.05 rad
        # apart are accepted by roughly one uniform draw in 10^5.
        proc = subprocess.run(
            [sys.executable, "-m", "modepuma.cli", "verify", "--max-m", "60",
             "--max-r", "59", "--instances", "5", "--seed", "2"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "r=36 angles 0.05 rad apart" in proc.stderr and "Traceback" not in proc.stderr

    def test_oversized_kronecker_weight_rejected_before_any_instance(self):
        # At m=200, r=100 one V_PUMA Kronecker weight would hold 10^8 entries
        # (1.6 GB); the check runs before the first instance is drawn.
        with pytest.raises(ValidationError, match="100000000 entries"):
            verify_properties(n_instances=1, max_m=200, max_r=150)
        proc = run_cli("verify", "--max-m", "200", "--max-r", "150")
        assert proc.returncode == 1
        assert "Kronecker" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestMcCommand:
    @pytest.mark.parametrize(
        "old, new, extra, message",
        [
            ("", "", ("--seed", "-1"), "need base_seed >= 0, got -1"),
            ("base_seed = 42", "base_seed = -3", (), "need base_seed >= 0, got -3"),
            ("snr_db_list = 10", "snr_db_list = 4000", (), "SNR 4000.0 dB"),
            ("snr_db_list = 10", "snr_db_list = -4000", (), "SNR -4000.0 dB"),
        ],
        ids=["seed-override-negative", "base-seed-negative", "snr-4000", "snr-minus-4000"],
    )
    def test_out_of_range_value_exits_with_validation_code(self, tmp_path, old, new, extra, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT.replace(old, new))
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out), *extra)
        assert proc.returncode == 1
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_non_utf8_config_exits_with_validation_code(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(SWEEP_TEXT.encode() + b"# \xff\n")
        message = "sweep.cfg: not UTF-8 text (byte 0xff: invalid start byte)"
        with pytest.raises(ValidationError) as info:
            parse_sweep_config(cfg)
        assert message in str(info.value)
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "source_cov, snr_db, message",
        [
            ("1e308, 1e308", "10", "SNR 10.0 dB with source_cov trace inf"),
            ("1e306, 1e306", "-300", "SNR -300.0 dB with source_cov trace 2e+306"),
        ],
    )
    def test_noise_power_past_float_range_names_snr_and_source_cov(
        self, tmp_path, source_cov, snr_db, message
    ):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            SWEEP_TEXT.replace("source_cov = identity", f"source_cov = {source_cov}").replace(
                "snr_db_list = 10", f"snr_db_list = {snr_db}"
            )
        )
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert "noise power must be finite" not in proc.stderr
        assert not out.exists()
        with pytest.raises(ValidationError, match=re.escape(message)):
            noise_power_for_snr(np.diag([float(v) for v in source_cov.split(",")]), 2, float(snr_db))

    def test_deterministic_across_jobs(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT)
        outs = []
        for name, jobs in [("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")]:
            out = tmp_path / name
            proc = run_cli("mc", "--config", str(cfg), "--out", str(out), "--jobs", jobs)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize(
        "trials, jobs, cpus, workers",
        [(2, 8, 4, None), (20, 8, 4, 3), (20, 8, 2, 2), (20, 2, 4, 2), (40, 16, 64, 5), (40, 8, 1, None)],
    )
    def test_pool_is_sized_to_its_chunks_and_cpus(
        self, tmp_path, monkeypatch, trials, jobs, cpus, workers
    ):
        # A pool starts every worker at once, so it gets no more than the
        # chunks of 8 tasks and the usable CPUs; with one worker the sweep
        # runs in process.  The fake pool records its size and starts nothing.
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        sweep = replace(_sweep_from_text(tmp_path), n_trials=trials)
        rows = run_sweep(sweep, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert rows == run_sweep(sweep)

    def test_noiseless_cell_recovers_truth(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT.replace("snr_db_list = 10", "snr_db_list = 200"))
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out), "--trials", "1")
        assert proc.returncode == 0, proc.stderr
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        header = rows[0].split(",")
        for row in rows[1:]:
            rec = dict(zip(header, row.split(",")))
            if rec["trial_index"] != "-1":
                assert float(rec["rmse_rad"]) <= 1e-6

    def test_aggregates_recomputable(self, tmp_path):
        sweep = _sweep_from_text(tmp_path)
        rows = run_sweep(sweep)
        per_trial = [r for r in rows if r[5] != "-1"]
        agg = [r for r in rows if r[5] == "-1"]
        assert len(agg) == 2  # one per method cell
        for cell in agg:
            members = [r for r in per_trial if r[0] == cell[0]]
            rmse = np.sqrt(np.mean([float(r[6]) ** 2 for r in members]))
            assert abs(rmse - float(cell[6])) <= 1e-12
            succ = np.mean([float(r[9]) for r in members])
            assert abs(succ - float(cell[9])) <= 1e-12

    def test_each_trial_simulated_once(self, tmp_path, monkeypatch):
        calls = {"simulate_snapshots": 0, "subspace_decomposition": 0}
        for name in calls:
            original = getattr(bench, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(bench, name, counted)
        sweep = replace(
            _sweep_from_text(tmp_path),
            snr_db_list=(0.0, 10.0),
            methods=tuple(parse_method_token(t) for t in ("mode", "puma", "modex:2", "epuma:2")),
            n_trials=3,
        )
        rows = run_sweep(sweep)
        assert len(rows) == 2 * 4 * (3 + 1)
        # One simulation and one decomposition per (cell, trial).
        assert calls == {"simulate_snapshots": 6, "subspace_decomposition": 6}

    def test_failed_trials_write_nan_rows(self, tmp_path):
        # Three sources 0.05 rad apart on m = 4 at -10 dB, T = 5: on 5 of 20
        # trials the MODEX candidates give no valid subset, and only those
        # rows fail.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "m = 4\nr = 3\nangles = -0.05, 0, 0.05\nn_snapshots = 5\n"
            "snr_db_list = -10\nsnapshots_list = 5\n"
            "methods = mode, puma, modex:0, epuma:0\nn_trials = 20\nbase_seed = 3\n"
        )
        rows = run_sweep(parse_sweep_config(cfg))
        failed = {label: [] for label in ("mode", "puma", "modex:0", "epuma:0")}
        for row in rows:
            if row[5] != "-1" and row[6] == "nan":
                assert row[7:10] == ("nan", "0", "0")
                failed[row[0]].append(int(row[5]))
            elif row[5] != "-1":
                assert np.isfinite(float(row[6])) and np.isfinite(float(row[7]))
        assert failed == {
            "mode": [], "puma": [], "modex:0": [5, 7, 9, 11, 17], "epuma:0": [],
        }
        aggregate = {row[0]: row for row in rows if row[5] == "-1"}
        assert np.isfinite(float(aggregate["modex:0"][6]))

    def test_weights_past_float_range_give_nan_rows(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            SWEEP_TEXT.replace("source_cov = identity", "source_cov = 1e160, 1e160")
            .replace("methods = mode, puma", "methods = mode, puma, modex:2, epuma:2")
        )
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
        assert len(rows) == 4 * (4 + 1)
        assert all(row[6] == row[7] == "nan" for row in rows)

    def test_weights_below_float_range_give_nan_rows(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            SWEEP_TEXT.replace("source_cov = identity", "source_cov = 1e-200, 1e-200")
            .replace("methods = mode, puma", "methods = mode, puma, modex:2, epuma:2")
        )
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == ""
        rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
        assert len(rows) == 4 * (4 + 1)
        assert all(row[6] == row[7] == "nan" for row in rows)
        assert all(row[8:10] == ["0", "0"] for row in rows if row[5] != "-1")

    def test_covariance_past_float_range_gives_nan_rows(self, tmp_path):
        # The sample covariance overflows, so every method of every trial fails.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            SWEEP_TEXT.replace("source_cov = identity", "source_cov = 1e306, 1e306")
            .replace("snr_db_list = 10", "snr_db_list = 0")
            .replace("snapshots_list = 50", "snapshots_list = 100")
            .replace("methods = mode, puma", "methods = mode, puma, modex:2, epuma:2")
        )
        out = tmp_path / "out.csv"
        proc = run_cli("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
        assert len(rows) == 4 * (4 + 1)
        assert all(row[6:10] == ["nan", "nan", "0", "0"] for row in rows if row[5] != "-1")

    def test_timing_fills_only_trial_rows(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT)
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        assert run_cli("mc", "--config", str(cfg), "--out", str(plain)).returncode == 0
        proc = run_cli("mc", "--config", str(cfg), "--out", str(timed), "--timing")
        assert proc.returncode == 0, proc.stderr
        lines = timed.read_text().splitlines(keepends=True)
        header = lines[2].rstrip("\n").split(",")
        assert header[-1] == "wall_time_ms"
        for line in lines[3:]:
            rec = dict(zip(header, line.rstrip("\n").split(",")))
            if rec["trial_index"] == "-1":
                assert rec["wall_time_ms"] == ""
            else:
                wall = float(rec["wall_time_ms"])
                assert np.isfinite(wall) and wall >= 0
        stripped = lines[:3] + [line.rsplit(",", 1)[0] + ",\n" for line in lines[3:]]
        assert "".join(stripped).encode() == plain.read_bytes()

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1], ids=["nan", "negative"])
    def test_bad_success_threshold_rejected(self, tmp_path, threshold):
        with pytest.raises(ValidationError, match="success threshold"):
            run_sweep(_sweep_from_text(tmp_path), success_threshold=threshold)
        out = tmp_path / "out.csv"
        code = cli.main([
            "mc", "--config", str(tmp_path / "sweep.cfg"), "--out", str(out),
            "--success-threshold", str(threshold),
        ])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"jobs": 2.5}, "jobs must be an integer, got 2.5"),
            ({"jobs": "2"}, "jobs must be an integer, got '2'"),
            ({"jobs": True}, "jobs must be an integer, got True"),
            ({"success_threshold": "0.1"}, "success threshold must be a real number, got '0.1'"),
        ],
        ids=["float-jobs", "str-jobs", "bool-jobs", "str-threshold"],
    )
    def test_jobs_and_threshold_types_rejected(self, tmp_path, kwargs, message):
        with pytest.raises(ValidationError) as info:
            run_sweep(_sweep_from_text(tmp_path), **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        sweep = _sweep_from_text(tmp_path)
        with pytest.raises(ValidationError, match="jobs"):
            run_sweep(sweep, jobs=int(jobs))
        out = tmp_path / "out.csv"
        code = cli.main([
            "mc", "--config", str(tmp_path / "sweep.cfg"), "--out", str(out), "--jobs", jobs,
        ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"need jobs >= 1, got {jobs}" in err and "Traceback" not in err

    def test_unwritable_out_fails_before_any_trial(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT)
        trials = []
        original = bench._run_trial

        def counted(args):
            trials.append(1)
            return original(args)

        monkeypatch.setattr(bench, "_run_trial", counted)
        missing = tmp_path / "missing" / "out.csv"
        assert cli.main(["mc", "--config", str(cfg), "--out", str(missing)]) == 3
        assert trials == []
        assert "i/o error" in capsys.readouterr().err
        out = tmp_path / "out.csv"
        assert cli.main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(trials) == 4 and out.exists()

    def test_csv_header_and_columns(self, tmp_path):
        sweep = _sweep_from_text(tmp_path)
        rows = run_sweep(sweep)
        out = tmp_path / "out.csv"
        write_csv(out, rows, sweep, 0.1)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "method,m,r,snr_db,n_snapshots,trial_index" in lines[2]


def _sweep_from_text(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_TEXT)
    return parse_sweep_config(cfg)


class TestEstimateCommand:
    def test_round_trip_through_file(self, tmp_path):
        snaps = tmp_path / "snaps.txt"
        proc = run_cli(
            "simulate", "--out", str(snaps), "--m", "4", "--angles", "0.5",
            "--snapshots", "64", "--noise-power", "0", "--seed", "2",
        )
        assert proc.returncode == 0
        proc = run_cli("estimate", str(snaps), "--r", "1", "--method", "puma")
        assert proc.returncode == 0, proc.stderr
        angle = float(proc.stdout.splitlines()[0].split(":")[1])
        assert abs(angle - 0.5) <= 1e-6

    def test_modex_bound_validation(self, tmp_path):
        snaps = tmp_path / "snaps.txt"
        run_cli(
            "simulate", "--out", str(snaps), "--m", "4", "--angles", "0.5",
            "--snapshots", "16", "--seed", "1",
        )
        proc = run_cli(
            "estimate", str(snaps), "--r", "1", "--method", "modex", "--p-extra", "3"
        )
        assert proc.returncode == 1
        assert "p < m - r" in proc.stderr

    @pytest.mark.parametrize("r", ["0", "4"])
    def test_source_count_out_of_range(self, tmp_path, r):
        snaps = tmp_path / "snaps.txt"
        run_cli(
            "simulate", "--out", str(snaps), "--m", "4", "--angles", "0.5",
            "--snapshots", "16", "--seed", "1",
        )
        proc = run_cli("estimate", str(snaps), "--r", r)
        assert proc.returncode == 1
        assert "need 0 < r < m" in proc.stderr and "Traceback" not in proc.stderr

    def test_subset_cap_exits_with_validation_code(self, tmp_path):
        snaps = tmp_path / "snaps.txt"
        angles = ",".join(str(a) for a in np.linspace(-2.5, 2.5, 8))
        proc = run_cli(
            "simulate", "--out", str(snaps), "--m", "13", f"--angles={angles}",
            "--snapshots", "40", "--seed", "1",
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "estimate", str(snaps), "--r", "8", "--method", "modex", "--p-extra", "4"
        )
        assert proc.returncode == 1
        assert "125970" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("scale", [1e80, 1e150])
    @pytest.mark.parametrize("method", ["puma", "epuma"])
    def test_weights_past_float_range_exit_numerical(self, tmp_path, scale, method):
        sc = Scenario(
            m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
            noise_power=0.1, n_snapshots=50, seed=1,
        )
        snaps = tmp_path / "snaps.txt"
        write_snapshots(snaps, simulate_snapshots(sc) * scale)
        proc = run_cli("estimate", str(snaps), "--r", "2", "--method", method, "--p-extra",
                       "2" if method == "epuma" else "0")
        assert proc.returncode == 2
        assert "float range" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("scale", [1e-78, 1e-100])
    @pytest.mark.parametrize("method", ["mode", "puma", "modex", "epuma"])
    def test_weights_below_float_range_exit_numerical(self, tmp_path, scale, method):
        # (lambda - sigma^2)^2 underflows: every weight would read 0, and
        # with them every Q, so c would be arbitrary.
        sc = Scenario(
            m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
            noise_power=0.1, n_snapshots=100, seed=3,
        )
        snaps = tmp_path / "snaps.txt"
        write_snapshots(snaps, simulate_snapshots(sc) * scale)
        proc = run_cli("estimate", str(snaps), "--r", "2", "--method", method, "--p-extra",
                       "2" if method in ("modex", "epuma") else "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "numerical error: signal weights underflow float range\n"

    def test_covariance_past_float_range_exits_numerical(self, tmp_path):
        sc = Scenario(
            m=6, r=2, angles=[-0.4, 0.7], source_cov=np.eye(2),
            noise_power=0.1, n_snapshots=50, seed=1,
        )
        snaps = tmp_path / "snaps.txt"
        write_snapshots(snaps, simulate_snapshots(sc) * 1e160)
        proc = run_cli("estimate", str(snaps), "--r", "2")
        assert proc.returncode == 2
        assert "float range" in proc.stderr and "RuntimeWarning" not in proc.stderr

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# m=2 T=1\n1+0j wat\n")
        proc = run_cli("estimate", str(bad), "--r", "1")
        assert proc.returncode == 1

    def test_non_finite_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# m=2 T=2\n1+0j 2+0j\n3+0j nan+0j\n")
        proc = run_cli("estimate", str(bad), "--r", "1")
        assert proc.returncode == 1
        assert "bad.txt:3: column 2" in proc.stderr and "Traceback" not in proc.stderr

    def test_missing_file_is_io_error(self, tmp_path):
        proc = run_cli("estimate", str(tmp_path / "nope.txt"), "--r", "1")
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--r", "1", "--method", "nope"), "unknown method 'nope'"),
            (("--r", "1", "--p-extra", "2"), "--p-extra requires"),
            (("--r", "1", "--method", "modex:3"), "give MODEX's p by --p-extra"),
            (("--r", "1", "--method", "modex:3", "--p-extra", "2"), "give MODEX's p by --p-extra"),
            (("--r", "1", "--method", "EPUMA:2"), "give MODEX's p by --p-extra"),
            (("--r", "1", "--method", "mode:0"), "give MODEX's p by --p-extra"),
            (("--r", "0"), "need 0 < r < m, got r=0"),
        ],
        ids=["method", "p-extra", "tagged-p", "tagged-p-and-p-extra", "tagged-epuma", "tagged-mode", "r"],
    )
    def test_bad_arguments_exit_before_the_file_is_read(self, tmp_path, monkeypatch, capsys,
                                                        args, message):
        proc = run_cli("estimate", str(tmp_path / "nope.txt"), *args)
        assert proc.returncode == 1
        assert message in proc.stderr and "Traceback" not in proc.stderr

        def unread(path):
            raise AssertionError(f"read {path} before checking the arguments")

        monkeypatch.setattr(cli.snapshot_io, "read_snapshots", unread)
        assert cli.main(["estimate", str(tmp_path / "nope.txt"), *args]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "# m=2 T=10000000000000\n1+0j 2+0j\n",
                "bad.txt:3: expected 10000000000000 snapshot lines, got 1",
            ),
            (
                "# m=2 T=2\n1+0j 2+0j\n3+0j 4+0j\n5+0j 6+0j\n",
                "bad.txt:4: expected 2 snapshot lines, got 3",
            ),
            (
                "# m=4096 T=1\n1+0j\n",
                "bad.txt:2: expected 4096 entries, got 1",
            ),
            (
                "# m=10000000000000 T=1\n1+0j\n",
                "bad.txt:1: a sample covariance at m=10000000000000 would hold",
            ),
        ],
        ids=[
            "header-T-above-line-count", "line-past-header-T", "header-m-above-token-count",
            "header-m-past-covariance-cap",
        ],
    )
    def test_header_counts_checked_against_file(self, tmp_path, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_snapshots(bad)
        assert message in str(info.value)
        proc = run_cli("estimate", str(bad), "--r", "1")
        assert proc.returncode == 1
        assert message in proc.stderr and "Traceback" not in proc.stderr


    def test_non_utf8_file_exits_with_validation_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# m=2 T=1\n\xff\xfe 1\n")
        message = "bad.txt: not UTF-8 text (byte 0xff: invalid start byte)"
        with pytest.raises(ValidationError) as info:
            read_snapshots(bad)
        assert message in str(info.value)
        proc = run_cli("estimate", str(bad), "--r", "1")
        assert proc.returncode == 1
        assert message in proc.stderr and "Traceback" not in proc.stderr


class TestBadArguments:
    @pytest.mark.parametrize(
        "args, message",
        [
            (("verify", "--instances", "5", "--max-m", "2"), "need max_m >= 3, got 2"),
            (("verify", "--instances", "5", "--max-r", "0"), "need max_r >= 1, got 0"),
        ],
        ids=["max-m-2", "max-r-0"],
    )
    def test_verify_bounds(self, args, message):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "extra",
        [
            ("--angles", "a,0.2"),
            ("--angles", "nan"),
            ("--angles", "0.1", "--noise-power", "nan"),
            ("--angles", "0.1", "--snr-db", "nan"),
        ],
        ids=["angle-not-a-number", "angle-nan", "noise-power-nan", "snr-db-nan"],
    )
    def test_simulate_rejects_bad_values(self, tmp_path, extra):
        out = tmp_path / "snaps.txt"
        proc = run_cli("simulate", "--out", str(out), "--m", "4", "--snapshots", "8", *extra)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (("estimate", "f.txt", "--r", "x"), "invalid int value: 'x'"),
            (("mc", "--config", "c.cfg"), "the following arguments are required: --out"),
            (
                ("simulate", "--out", "s.txt", "--m", "4", "--snapshots", "8",
                 "--angles", "-0.4,0.7"),
                "argument --angles: expected one argument",
            ),
            (
                ("simulate", "--out", "s.txt", "--m", "4", "--snapshots", "8",
                 "--angles", "0.1", "--noise-power", "1", "--snr-db", "10"),
                "argument --snr-db: not allowed with argument --noise-power",
            ),
        ],
        ids=[
            "estimate-r-not-int", "mc-without-out", "simulate-angles-leading-minus",
            "simulate-noise-power-and-snr-db",
        ],
    )
    def test_usage_error_exits_with_validation_code(self, args, message):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: modepuma ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_simulate_rejects_snr_past_float_range(self, tmp_path):
        out = tmp_path / "snaps.txt"
        proc = run_cli("simulate", "--out", str(out), "--m", "4", "--snapshots", "8",
                       "--angles", "0.1", "--snr-db", "4000")
        assert proc.returncode == 1
        assert "SNR 4000.0 dB" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_simulate_past_the_draw_cap_exits_with_validation_code(self, tmp_path):
        out = tmp_path / "snaps.txt"
        proc = _run_cli_in_2_gib(
            "simulate", "--out", str(out), "--m", "300000000", "--angles=0.1", "--snapshots", "5"
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: simulating 5 snapshots at m=300000000, r=1 would draw "
            "T (r + m) = 1500000005 complex values, over the limit of 16777216\n"
        )
        assert not out.exists()

    def test_mc_past_the_covariance_cap_exits_with_validation_code(self, tmp_path):
        # m = 100000 at T = 100 is within the draw cap; its sample covariance
        # (1e10 complex values) is not.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            SWEEP_TEXT.replace("m = 6", "m = 100000")
            .replace("r = 2", "r = 1")
            .replace("angles = -0.4, 0.7", "angles = 0.1")
            .replace("snapshots_list = 50", "snapshots_list = 100")
        )
        out = tmp_path / "out.csv"
        proc = _run_cli_in_2_gib("mc", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {cfg}:2: bad m value: a sample covariance at m=100000 would hold "
            "m^2 = 10000000000 complex values, over the limit of 16777216\n"
        )
        assert not out.exists()

    def test_estimate_past_the_covariance_cap_exits_with_validation_code(self, tmp_path):
        # A well-formed file of one snapshot at m = 100000.
        path = tmp_path / "snaps.txt"
        path.write_text("# m=100000 T=1\n" + " ".join(["1+0j"] * 100000) + "\n")
        proc = _run_cli_in_2_gib("estimate", str(path), "--r", "1")
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {path}:1: a sample covariance at m=100000 would hold "
            "m^2 = 10000000000 complex values, over the limit of 16777216\n"
        )
        assert proc.stdout == ""

    def test_help_exits_zero(self):
        proc = run_cli("simulate", "--help")
        assert proc.returncode == 0 and "--angles=-0.4,0.7" in proc.stdout


    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        sc = Scenario(
            m=4, r=1, angles=[0.5], source_cov=np.eye(1),
            noise_power=0.1, n_snapshots=32, seed=2,
        )
        snaps = tmp_path / "snaps.txt"
        write_snapshots(snaps, simulate_snapshots(sc))
        for args in [
            ("estimate", str(snaps), "--r", "x"),
            ("estimate", str(snaps), "--r", "1", "--method", "puma"),
            ("verify", "--instances", "1"),
        ]:
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            proc = run_cli(*args)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), args


class TestVerifyProperties:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_instances": 2.5}, "n_instances must be an integer, got 2.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"max_m": 12.5}, "max_m must be an integer, got 12.5"),
            ({"max_r": 2.5}, "max_r must be an integer, got 2.5"),
        ],
        ids=["float-instances", "float-seed", "bool-seed", "float-max-m", "float-max-r"],
    )
    def test_counts_and_seed_must_be_integers(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            verify_properties(**{"n_instances": 2, **kwargs})
        assert str(info.value) == message

    def test_reports_cover_all_suites(self):
        reports = verify_properties(n_instances=25, seed=1)
        names = {r.name for r in reports}
        assert names == {
            "criterion_equivalence",
            "projector_identity",
            "annihilation",
            "gauge_invariance",
            "vec_of_product",
            "trace_as_inner_product",
        }
        assert all(r.ok for r in reports)

    def test_gauge_check_sees_covariance_dependent_v_ml(self, monkeypatch):
        # At cov = I, V_ML(c) = m - q for every c, so a V_ML that breaks the
        # gauge only through its covariance term would pass unseen there.
        v_ml_coefs = bench.v_ml_coefs

        def gauge_variant(coefs, cov):
            v = v_ml_coefs(coefs, cov).value
            m, q = cov.shape[0], len(coefs) - 1
            return CriterionValue(value=v + (v - (m - q)) * (abs(coefs[0]) - 1))

        monkeypatch.setattr(bench, "v_ml_coefs", gauge_variant)
        reports = {r.name: r for r in verify_properties(n_instances=50, seed=1)}
        assert not reports["gauge_invariance"].ok
        assert reports["criterion_equivalence"].ok

    def test_clustered_projector_seed_passes(self):
        # This seed draws four clustered sources at m=5 for the projector
        # suite; the identity must hold there at the unchanged 1e-10.
        proc = run_cli("verify", "--instances", "25", "--seed", "658043762")
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.count("ok") == 6

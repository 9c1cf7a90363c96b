"""Fuzzed sweep configs end in a typed error or a finished sweep, never another exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from modepuma import NumericalError, SingularityError, ValidationError
from modepuma.bench import parse_sweep_config, run_sweep

# Small per-key alphabets.  A config takes a valid value for every key, then
# swaps in an invalid one for up to two keys, so most configs reach the
# checks after the first.  None leaves the key out.
VALID = {
    "m": ["6", "4"],
    "r": ["2"],
    "angles": ["-0.4, 0.7", "-0.05, 0.05", "-3.1, 3.1"],
    "source_cov": [
        None, "identity", "identity", "2, 0.5", "0, 0", "1e160, 1e160", "1e306, 1e306",
        "1e308, 1e308",
    ],
    "n_snapshots": ["100"],
    "snr_db_list": ["0", "10", "0, 10", "-300", "200"],
    "snapshots_list": ["8", "20", "8, 20", "1"],
    "methods": ["mode", "puma", "modex:0", "modex:1", "epuma:2", "mode, puma, modex:2, epuma:2"],
    "n_trials": ["1"],
    "base_seed": ["0", "11", str(2**64 + 3)],
}
INVALID = {
    "m": [None, "2", "0", "-3", "4.5"],
    "r": ["-2", "0", "1", "two"],
    "angles": ["0.7, -0.4", "0.5", "3.5, 0", "nan, 0"],
    "source_cov": ["-1, 1", "1", "1, 2, 3", "inf, 1", "a"],
    "n_snapshots": [None, "0", "x"],
    "snr_db_list": ["4000", "-4000", "nan", ""],
    "snapshots_list": ["0", "-3", "2.5"],
    "methods": ["modex:9", "modex:-1", "epuma:x", "music"],
    "n_trials": ["0", "-1", "x"],
    "base_seed": ["-1", "x"],
}

TYPED = (ValidationError, NumericalError, SingularityError)


@st.composite
def sweep_configs(draw):
    config = {key: draw(st.sampled_from(values)) for key, values in VALID.items()}
    for key in draw(st.lists(st.sampled_from(sorted(INVALID)), max_size=2, unique=True)):
        config[key] = draw(st.sampled_from(INVALID[key]))
    return config


@settings(max_examples=250, deadline=None, derandomize=True)
@given(sweep_configs())
def test_fuzzed_config_ends_in_typed_error_or_rows(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "fuzz_sweep.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items() if v is not None))
    try:
        rows = run_sweep(parse_sweep_config(path))
    except TYPED:
        return
    assert all(len(row) == 11 for row in rows)

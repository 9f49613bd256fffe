import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aclab import serialize
from aclab.diagnostics import fit_rate
from helpers import rate_fit_rows_reference


def test_float_format_round_trips():
    for x in (math.pi, 1.0 / 3.0, 2.0 ** -52, 1e300, -0.0):
        assert float(serialize.fmt(x)) == x


def test_fmt_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.fmt(float("nan"))


def test_ground_state_record_carries_both_residuals(gs_cache):
    # the profile's PDE residual and the peak solve's, read back to the bit
    gs = gs_cache(0.5)
    record = json.loads(serialize.dumps(serialize.ground_state_record(gs)))
    assert record["residual"] == gs.residual
    assert record["peak_residual"] == gs.peak.residual
    assert 0.0 < record["residual"] < 1e-8
    assert 0.0 <= record["peak_residual"] < 1e-12


def test_dumps_is_valid_json_with_numpy_scalars():
    obj = {
        "flag": np.bool_(True),
        "count": np.int64(3),
        "value": np.float64(0.1),
        "arr": np.array([1.5, 2.5]),
        "text": 'line "quoted"\nnext',
        "none": None,
    }
    parsed = json.loads(serialize.dumps(obj))
    assert parsed["flag"] is True
    assert parsed["count"] == 3
    assert parsed["value"] == 0.1
    assert parsed["arr"] == [1.5, 2.5]
    assert parsed["none"] is None


def test_write_csv_formats_floats(tmp_path):
    path = tmp_path / "t.csv"
    serialize.write_csv(path, ("a", "b"), [(0.1, 2), ("x", 0.25)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.10000000000000001,2"
    assert lines[2] == "x,0.25"


def test_rate_fit_rows_exponential():
    t = np.linspace(1.0, 3.0, 40)
    y = 2.0 * np.exp(-3.0 * t)
    fit = fit_rate(t, y, "exponential", window=(1.0, 3.0))
    rows = list(serialize.rate_fit_rows(fit))
    assert len(rows) == 40
    assert all(abs(r[3]) < 1e-9 for r in rows)


@st.composite
def fitted_series(draw):
    # y = A e^(-r t + noise) on increasing t > 0, and a window over at least
    # 20 of its samples; the ranges keep y above the fit's round-off floor
    n = draw(st.integers(20, 60))
    t = draw(st.floats(0.05, 5.0)) + np.cumsum(
        draw(st.lists(st.floats(0.05, 0.25), min_size=n, max_size=n)))
    noise = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    y = np.exp(draw(st.floats(-3.0, 3.0)) - draw(st.floats(-1.0, 1.0)) * t + noise)
    i0 = draw(st.integers(0, n - 20))
    i1 = draw(st.integers(i0 + 19, n - 1))
    window = (t[i0] * draw(st.floats(0.5, 1.0)), t[i1] * draw(st.floats(1.0, 1.5)))
    return t, y, window


@given(series=fitted_series(), model=st.sampled_from(["exponential", "algebraic"]))
def test_rate_fit_rows_match_the_reselected_window(series, model):
    # the table is read off the fit, and equals the one selected again from
    # the series and rebuilt from the fit's parameters bit for bit
    t, y, window = series
    fit = fit_rate(t, y, model, window)
    rows = serialize.rate_fit_rows(fit)
    reference = rate_fit_rows_reference(t, y, fit)
    assert rows.shape == reference.shape
    assert np.array_equal(rows, reference)
    assert np.max(np.abs(rows[:, 3])) == fit.residual


def test_algebraic_fit_from_t_zero_writes_only_its_samples(tmp_path):
    # the fit skips t = 0; the table once added it back with y_fit = inf,
    # and write_csv raised ValueError
    t = np.linspace(0.0, 5.0, 60)
    y = np.full_like(t, 5.0)
    y[1:] = 2.0 * t[1:] ** -0.5
    fit = fit_rate(t, y, "algebraic", window=(0.0, 5.0))
    rows = serialize.rate_fit_rows(fit)
    assert np.array_equal(rows[:, 0], t[1:]) and np.array_equal(rows[:, 1], y[1:])
    path = tmp_path / "fit.csv"
    serialize.write_csv(path, serialize.RATE_FIT_HEADER, rows)
    lines = path.read_text().splitlines()
    assert len(lines) == 60 and lines[0] == "t,y,y_fit,relative_residual"
    assert np.max(np.abs(rows[:, 3])) == fit.residual


def test_check_record_keeps_detail():
    from aclab.verify import CheckResult

    result = CheckResult(True, "obs", "exp", "1e-12", detail="|error| = 0", name="g_zero")
    record = serialize.check_record(result)
    assert record["detail"] == "|error| = 0"
    assert record["check_name"] == "g_zero" and record["pass"] is True

import json
import math

import numpy as np
import pytest

from aclab import serialize


def test_float_format_round_trips():
    for x in (math.pi, 1.0 / 3.0, 2.0 ** -52, 1e300, -0.0):
        assert float(serialize.fmt(x)) == x


def test_fmt_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.fmt(float("nan"))


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
    from aclab.diagnostics import fit_rate

    t = np.linspace(1.0, 3.0, 40)
    y = 2.0 * np.exp(-3.0 * t)
    fit = fit_rate(t, y, "exponential", window=(1.0, 3.0))
    rows = list(serialize.rate_fit_rows(t, y, fit))
    assert len(rows) == 40
    assert all(abs(r[3]) < 1e-9 for r in rows)


def test_check_record_keeps_detail():
    from aclab.verify import CheckResult

    result = CheckResult(True, "obs", "exp", "1e-12", detail="|error| = 0", name="g_zero")
    record = serialize.check_record(result)
    assert record["detail"] == "|error| = 0"
    assert record["check_name"] == "g_zero" and record["pass"] is True

import io
import json
import math

import numpy as np

from pfold.output import format_float, json_dumps, write_csv


def test_format_float_seventeen_significant_digits():
    assert format_float(2.0) == "2"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(10.0 / 9.0) == "1.1111111111111112"
    assert float(format_float(math.pi)) == math.pi
    # the non-finite values as %.17g writes them, numpy's too; a NaN has no sign
    for x, text in (("nan", "nan"), ("-nan", "nan"), ("inf", "inf"), ("-inf", "-inf")):
        assert format_float(float(x)) == format_float(np.float64(x)) == text


def test_json_sorted_keys_and_quoted_nonfinite():
    text = json_dumps({"b": 1, "a": [1.5, None, True], "c": float("inf")})
    assert text == '{"a": [1.5, null, true], "b": 1, "c": "inf"}'
    assert json.loads(text)["c"] == "inf"


def test_csv_lf_endings():
    buf = io.StringIO()
    write_csv(buf, ("x", "label"), [(1.0, "one"), (0.5, "half")])
    assert buf.getvalue() == "x,label\n1,one\n0.5,half\n"

"""Property tests: exact homogeneity of the instance path, and exit code 2
for malformed matrix files."""

import contextlib
import functools
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqnorm.cli import main
from pqnorm.factorization import solve_dual
from pqnorm.krivine import NormPair, compute_c_ab
from pqnorm.relaxation import ProblemInstance, solve_cp
from pqnorm.rounding import build_transformed_gram, sample_round

PAIRS = [NormPair(math.inf, 1.0), NormPair(4.0, 4.0 / 3.0), NormPair(3.0, 1.5)]


@functools.cache
def c_ab(pair):
    """c_ab and the inverse series at K = 60, computed once per pair."""
    return compute_c_ab(pair, K=60)[:2]


def instance_values(A, pair):
    """The relaxation value, the best rounded value (512 samples) and the
    dual value of one instance."""
    inst = ProblemInstance(A, pair)
    sol = solve_cp(inst)
    tg = build_transformed_gram(sol, pair, *c_ab(pair))
    return (sol.value, sample_round(inst, tg, num_samples=512).value,
            solve_dual(inst, primal=sol).value)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pair=st.sampled_from(PAIRS),
       k=st.sampled_from([600, -600, 1000, -1000]))
def test_power_of_two_scaling_is_exact(seed, pair, k):
    # every stage divides by the scale or is linear in A, so scaling A by
    # 2^k scales each value by exactly 2^k: no bit may move
    A = np.random.default_rng(seed).standard_normal((7, 5))
    scale = math.ldexp(1.0, k)
    for base, scaled in zip(instance_values(A, pair), instance_values(A * scale, pair)):
        assert scaled == base * scale


_NUMBER = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
_BAD_TOKEN = st.sampled_from(["nan", "NaN", "inf", "-inf", "x", "1e", "--1", "", "1;2", "one"])


@st.composite
def _grid(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[draw(_NUMBER) for _ in range(n)] for _ in range(m)]


@st.composite
def _csv_with_bad_token(draw):
    rows = draw(_grid())
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    # an empty token alone on its line is a blank line, which the loader skips
    rows[i][j] = draw(_BAD_TOKEN if len(rows[0]) > 1 else _BAD_TOKEN.filter(bool))
    return "\n".join(",".join(r) for r in rows) + "\n"


@st.composite
def _ragged_csv(draw):
    rows = draw(_grid())
    i = draw(st.integers(0, len(rows)))
    n = len(rows[0]) + draw(st.sampled_from([-1, 1]) if len(rows[0]) > 1 else st.just(1))
    rows.insert(i, [draw(_NUMBER) for _ in range(n)])
    return "\n".join(",".join(r) for r in rows) + "\n"


@st.composite
def _csv_with_header(draw):
    rows = draw(_grid())
    header = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=4),
                           min_size=len(rows[0]), max_size=len(rows[0])))
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


@st.composite
def _json_with_wrong_count(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = draw(st.integers(0, 20).filter(lambda s: s != m * n))
    return json.dumps({"rows": m, "cols": n, "data": [1.0] * size})


@st.composite
def _json_with_bad_fields(draw):
    obj = {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}
    key = draw(st.sampled_from(sorted(obj)))
    bad = draw(st.sampled_from([None, "2", True, 0, -1, 2.5, [], {}, [1.0, "a", 0.0, 1.0],
                                [1.0, None, 0.0, 1.0], [1.0, float("nan"), 0.0, 1.0]]))
    if draw(st.booleans()):
        obj[key] = bad
    else:
        del obj[key]
    return json.dumps(obj)


MALFORMED = st.one_of(
    _csv_with_bad_token(), _ragged_csv(), _csv_with_header(),
    _json_with_wrong_count(), _json_with_bad_fields(),
    st.sampled_from(["", "\n", "  \n\n", "{", "{}", "[]", "null", "{\"rows\": 1"]),
)


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed") / "A.txt"


@pytest.mark.parametrize("command", ["round", "factorize"])
@settings(max_examples=150, deadline=None)
@given(text=MALFORMED)
def test_malformed_matrix_is_exit_2(matrix_path, command, text):
    matrix_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--in", str(matrix_path)])
    assert code == 2, text
    assert out.getvalue() == "" and err.getvalue().startswith("input error: "), err.getvalue()

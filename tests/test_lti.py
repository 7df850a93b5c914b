from __future__ import annotations

import random
import re
from fractions import Fraction as F

import pytest

from tickflow.errors import MatrixError
from tickflow.lti import (
    LtiSystem,
    RationalMatrix,
    controllability_matrix,
    is_controllable,
    is_observable,
    observability_matrix,
    parse_matrix_file,
    rank,
    system_from_file,
)


def naive_rank(rows) -> int:
    """Independent oracle: plain Gaussian elimination with Fraction
    division (no fraction-free trick shared with the implementation)."""
    m = [list(map(F, row)) for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for col in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def _mat(rows):
    return RationalMatrix.from_rows(rows)


def test_rank_zero_matrix():
    assert rank(_mat([[0, 0], [0, 0], [0, 0]])) == 0


def test_rank_identity():
    assert rank(_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_dependent_rows():
    assert rank(_mat([[1, 2], [2, 4]])) == naive_rank([[1, 2], [2, 4]]) == 1


def test_observability_identity_dynamics_hides_state():
    sys = LtiSystem(a=_mat([[1, 0], [0, 1]]), c=_mat([[1, 0]]))
    obs = observability_matrix(sys)
    assert obs.to_rows() == [[1, 0], [1, 0]]
    assert rank(obs) == 1
    assert not is_observable(sys)


def test_observability_shift_register():
    sys = LtiSystem(a=_mat([[1, 1], [0, 1]]), c=_mat([[1, 0]]))
    obs = observability_matrix(sys)
    assert obs.to_rows() == [[1, 0], [1, 1]]
    assert rank(obs) == naive_rank(obs.to_rows()) == 2
    assert is_observable(sys)


def test_observability_scalar():
    sys = LtiSystem(a=_mat([[F(5)]]), c=_mat([[F(3)]]))
    assert observability_matrix(sys).to_rows() == [[F(3)]]
    assert is_observable(sys)


def test_controllability_identity_dynamics():
    sys = LtiSystem(a=_mat([[1, 0], [0, 1]]), b=_mat([[1], [0]]))
    assert rank(controllability_matrix(sys)) == 1
    assert not is_controllable(sys)


def test_controllability_integrator_chain():
    sys = LtiSystem(a=_mat([[0, 1], [0, 0]]), b=_mat([[0], [1]]))
    ctr = controllability_matrix(sys)
    assert ctr.to_rows() == [[0, 1], [1, 0]]
    assert is_controllable(sys)


def test_controllability_scalar():
    sys = LtiSystem(a=_mat([[F(2)]]), b=_mat([[F(7)]]))
    assert is_controllable(sys)


def test_dimension_mismatch():
    with pytest.raises(MatrixError):
        LtiSystem(a=_mat([[1, 0], [0, 1]]), c=_mat([[1, 0, 0]]))
    with pytest.raises(MatrixError):
        LtiSystem(a=_mat([[1, 0], [0, 1]]), b=_mat([[1, 0]]))
    sys = LtiSystem(a=_mat([[1]]))
    with pytest.raises(MatrixError):
        observability_matrix(sys)
    with pytest.raises(MatrixError):
        controllability_matrix(sys)


def _random_matrix(rng, rows, cols):
    return _mat(
        [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_rank_equals_transpose_rank_randomized():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == rank(m.transpose())


def test_rank_invariant_under_row_permutation_and_scaling():
    rng = random.Random(11)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(2, 5), rng.randint(1, 5))
        rows = m.to_rows()
        rng.shuffle(rows)
        scale = F(rng.randint(1, 9), rng.randint(1, 9))
        rows[0] = [scale * v for v in rows[0]]
        assert rank(_mat(rows)) == rank(m)


def test_rank_matches_oracle_randomized():
    rng = random.Random(13)
    for _ in range(100):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == naive_rank(m.to_rows())


def test_verdicts_match_oracle_on_random_systems():
    rng = random.Random(17)
    agree = 0
    for _ in range(50):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        c = _random_matrix(rng, rng.randint(1, 2), n)
        b = _random_matrix(rng, n, rng.randint(1, 2))
        sys = LtiSystem(a=a, c=c, b=b)
        obs_rows = observability_matrix(sys).to_rows()
        ctr_rows = controllability_matrix(sys).to_rows()
        assert is_observable(sys) == (naive_rank(obs_rows) == n)
        assert is_controllable(sys) == (naive_rank(ctr_rows) == n)
        agree += 1
    assert agree == 50


def test_delayed_output_builds_identical_observability_matrix():
    # reading y one tick later still stacks the same powers of A:
    # [y(1);...;y(n)] = [C; CA; ...; CA^(n-1)] x(0) either way
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        c = _random_matrix(rng, 1, n)
        stacked = observability_matrix(LtiSystem(a=a, c=c))
        delayed = c
        block = c
        for _ in range(n - 1):
            block = block.matmul(a)
            delayed = delayed.vstack(block)
        assert delayed == stacked


def test_matrix_file_roundtrip():
    text = "A 2 2\n1 1/2\n0 1\nC 1 2\n1 0\nB 2 1\n3\n-1/3\n"
    matrices = parse_matrix_file(text)
    assert matrices["A"].at(0, 1) == F(1, 2)
    system = system_from_file(text)
    assert system.n == 2 and system.b is not None and system.c is not None
    assert matrices["B"].to_rows() == [[F(3)], [F(-1, 3)]]


def test_matrix_file_errors():
    with pytest.raises(MatrixError):
        parse_matrix_file("A 2 2\n1 1\n")  # truncated
    with pytest.raises(MatrixError):
        parse_matrix_file("A 1 2\n1\n")  # short row
    with pytest.raises(MatrixError):
        system_from_file("C 1 1\n1\n")  # no A
    with pytest.raises(MatrixError, match="bad dimensions"):
        parse_matrix_file("A \u0662 2\n1 0\n0 1\n")  # an Arabic-Indic 2
    with pytest.raises(MatrixError, match="matrix 'A' is defined twice"):
        parse_matrix_file("A 2 2\n1 0\n0 1\nA 1 1\n1\nC 1 1\n1\n")
    # a dimension below 1 is refused at its header, which a truncated
    # matrix names too
    for text, message in (
        ("A -1 2\n", "1: bad dimensions in 'A -1 2'"),
        ("A 0 0\n", "1: bad dimensions in 'A 0 0'"),
        ("A 1 1\n1\nC 1 0\n\n", "3: bad dimensions in 'C 1 0'"),
        ("A 1 1\n1\n\nC 2 1\n1\n", "4: matrix 'C' is truncated"),
    ):
        with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
            parse_matrix_file(text)

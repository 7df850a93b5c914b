"""Discrete-time LTI observability and controllability over exact rationals.

Rank is computed by fraction-free (Bareiss) elimination, so "rank n" is a
theorem about the matrix, not a statement about a floating-point threshold.
The module validates that a user-supplied discretized plant is observable
and controllable at the chosen tick resolution; it does not construct the
discretization itself.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MatrixError
from .rational import parse_int, parse_rational
from .struct import Struct


class RationalMatrix(Struct):
    rows: int
    cols: int
    entries: tuple  # row-major Fractions, rows*cols of them

    def __post_init__(self):
        if self.rows * self.cols != len(self.entries):
            raise MatrixError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows) -> "RationalMatrix":
        data = [list(map(Fraction, row)) for row in rows]
        if not data:
            raise MatrixError("empty matrix")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise MatrixError("ragged rows")
        return RationalMatrix(
            len(data), width, tuple(v for row in data for v in row)
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise MatrixError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(
                    sum(
                        (self.at(i, k) * other.at(k, j) for k in range(self.cols)),
                        Fraction(0),
                    )
                )
        return RationalMatrix(self.rows, other.cols, tuple(out))

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise MatrixError("column mismatch in vertical stack")
        return RationalMatrix(
            self.rows + other.rows, self.cols, self.entries + other.entries
        )


class LtiSystem(Struct):
    """x(k+1) = A x(k) [+ B u(k)], y(k) = C x(k); everything rational."""

    a: RationalMatrix
    c: "RationalMatrix | None" = None
    b: "RationalMatrix | None" = None

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise MatrixError("state matrix must be square")
        if self.c is not None and self.c.cols != self.a.rows:
            raise MatrixError("output matrix width must match the state dimension")
        if self.b is not None and self.b.rows != self.a.rows:
            raise MatrixError("input matrix height must match the state dimension")

    @property
    def n(self) -> int:
        return self.a.rows


def observability_matrix(sys: LtiSystem) -> RationalMatrix:
    """[C; CA; CA^2; ...; CA^(n-1)], a (p*n) x n stack."""
    if sys.c is None:
        raise MatrixError("no output matrix given")
    block = sys.c
    stacked = block
    for _ in range(sys.n - 1):
        block = block.matmul(sys.a)
        stacked = stacked.vstack(block)
    return stacked


def controllability_matrix(sys: LtiSystem) -> RationalMatrix:
    """[B, AB, ..., A^(n-1)B], an n x (m*n) strip: the transpose of the
    dual system's (A^T, B^T) observability matrix."""
    if sys.b is None:
        raise MatrixError("no input matrix given")
    return observability_matrix(LtiSystem(sys.a.transpose(), c=sys.b.transpose())).transpose()


def rank(m: RationalMatrix) -> int:
    """Exact rank by fraction-free Gaussian elimination."""
    rows = m.to_rows()
    n_rows, n_cols = m.rows, m.cols
    r = 0
    prev_pivot = Fraction(1)
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, n_rows):
            for j in range(col + 1, n_cols):
                rows[i][j] = (pivot * rows[i][j] - rows[i][col] * rows[r][j]) / prev_pivot
            rows[i][col] = Fraction(0)
        prev_pivot = pivot
        r += 1
        if r == n_rows:
            break
    return r


def is_observable(sys: LtiSystem) -> bool:
    return rank(observability_matrix(sys)) == sys.n


def is_controllable(sys: LtiSystem) -> bool:
    return rank(controllability_matrix(sys)) == sys.n


# --- matrix files ---------------------------------------------------------------
#
# Plain text, one or more named matrices:
#
#     A 2 2
#     1 1
#     0 1
#     C 1 2
#     1 0
#
# Entries are rationals: p, p/q, or exact decimals. '#' starts a comment.


def parse_matrix_file(text: str) -> dict:
    matrices: dict = {}
    lines = [
        line.split("#", 1)[0].strip()
        for line in text.splitlines()
    ]
    i = 0
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        header = lines[i].split()
        if len(header) != 3:
            raise MatrixError(f"bad matrix header: {lines[i]!r}", i + 1)
        name = header[0]
        if name in matrices:
            raise MatrixError(f"matrix {name!r} is defined twice", i + 1)
        try:
            rows, cols = parse_int(header[1]), parse_int(header[2])
        except ValueError as exc:
            raise MatrixError(f"bad dimensions in {lines[i]!r}", i + 1) from exc
        if rows < 1 or cols < 1:
            raise MatrixError(f"bad dimensions in {lines[i]!r}", i + 1)
        header_line = i + 1
        i += 1
        data = []
        while len(data) < rows:
            if i >= len(lines):
                raise MatrixError(f"matrix {name!r} is truncated", header_line)
            if not lines[i]:
                i += 1
                continue
            parts = lines[i].split()
            if len(parts) != cols:
                raise MatrixError(
                    f"matrix {name!r} row {len(data)} has {len(parts)} entries, "
                    f"expected {cols}",
                    i + 1,
                )
            try:
                data.append([parse_rational(p) for p in parts])
            except ValueError as exc:
                raise MatrixError(f"bad entry in matrix {name!r}: {exc}", i + 1) from exc
            i += 1
        matrices[name] = RationalMatrix.from_rows(data)
    return matrices


def system_from_file(text: str) -> LtiSystem:
    matrices = parse_matrix_file(text)
    if "A" not in matrices:
        raise MatrixError("matrix file must define A")
    return LtiSystem(a=matrices["A"], c=matrices.get("C"), b=matrices.get("B"))


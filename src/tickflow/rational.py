"""Exact rational parsing and formatting.

All continuous quantities, signal values, matrix entries and times in this
package are `fractions.Fraction`. Nothing is ever converted to float.

Every number a user writes, in a program, a flag, a JSON file or a matrix
file, is read with the one grammar of the language's numeric literals: a
NUMBER (the pattern `NUMBER`, which the lexer's number token is too) is
ASCII digits with an optional `.digits` part, a rational is a NUMBER with
an optional `/` NUMBER denominator, and outside a program a leading `-`
negates. There is no exponent, `_`, `+` or inner space, all of which
`int()` and `Fraction()` would take.

A rational computed from integers, such as a flow step's exact sum, is
built by `ratio`, and its integers are read from the same slots, with no
call. `ratio` reduces `n/d` by one gcd and writes the two integers into the
`Fraction`'s slots, without `Fraction.__new__`'s argument handling; it is
exact because a fraction divided through by the gcd of its terms is its
reduced form. It assumes `d > 0`, which holds for every product of
`Fraction` denominators. `coprime` writes the slots with no gcd, for terms
already in lowest terms, such as those of `w + c` for a `Fraction`
`w = n/d` and an integer `c`: `gcd(n + c*d, d) = gcd(n, d) = 1`. This
module is the only one that writes the slots, and it spells the read that
generated code makes (`INTEGERS`); the one function that flattens a
store into a state key, `kernel.flat_key`, reads them in place, where a
call would cost more than the read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

# The NUMBER literal, in ASCII digits only: `\d` and `str.isdigit` also
# take digits such as '٣' or '²', which `int()` reads or refuses
NUMBER = r"[0-9]+(?:\.[0-9]+)?"
_number = re.compile(NUMBER).fullmatch


def parse_number(text: str) -> Fraction:
    """Parse a NUMBER, 'digits' or 'digits.digits', exactly. Raises
    ValueError on anything else."""
    if _number(text) is None:
        raise ValueError(f"not a number: {text!r}")
    whole, _, frac = text.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac))


def parse_int(text: str) -> int:
    """Parse a NUMBER with no '.' part and an optional leading '-'. Raises
    ValueError on anything else."""
    if _number(text[1:] if text[:1] == "-" else text) is None or "." in text:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse 'p', 'p/q' or '-' and either, p and q NUMBERs such as '3' or
    '0.25', into a Fraction.

    Raises ValueError on anything else, a zero denominator included.
    """
    negative = text[:1] == "-"
    num, slash, den = (text[1:] if negative else text).partition("/")
    try:
        value = parse_number(num)
        divisor = parse_number(den) if slash else 1
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    if divisor == 0:
        raise ValueError(f"zero denominator in {text!r}")
    value /= divisor
    return -value if negative else value


_new = object.__new__  # bound once: its lookup is a share of `ratio`'s cost


def ratio(n: int, d: int) -> Fraction:
    """The `Fraction` n/d for integers `n` and `d > 0`, reduced by one gcd
    and written directly into the class's slots, as
    `Fraction._from_coprime_ints` does from Python 3.12 on. A `d` of 0 or
    below gives a value no `Fraction` operation expects."""
    g = gcd(n, d)
    value = _new(Fraction)
    value._numerator = n // g
    value._denominator = d // g
    return value


def coprime(n: int, d: int) -> Fraction:
    """The `Fraction` n/d for coprime integers `n` and `d > 0`, written
    into the class's slots as `ratio` writes them, with no gcd. Terms with
    a common factor give an unreduced value, which no `Fraction` operation
    expects."""
    value = _new(Fraction)
    value._numerator = n
    value._denominator = d
    return value


# The source that reads the (numerator, denominator) of the `Fraction` whose
# source is `{0}` from its slots: generated code reads a rational so, with no
# call, where `as_integer_ratio()` is a Python function in `fractions.py`.
INTEGERS = "{0}._numerator, {0}._denominator"


def format_rational(value: Fraction) -> str:
    """Render p/q, or just p when the denominator is 1. An `int` renders
    as itself."""
    if value.__class__ is Fraction:
        n, d = value._numerator, value._denominator
    else:
        n, d = value.as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}"


def format_value(value) -> str:
    """Render a signal's value: `true` or `false` for a boolean, else as
    `format_rational` does."""
    if value.__class__ is bool:
        return "true" if value else "false"
    return format_rational(value)

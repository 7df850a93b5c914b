from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from tickflow.errors import LexError, ParseError
from tickflow.rational import coprime, format_rational, parse_number, parse_rational, ratio
from tickflow.syntax import lex, parse


def _pairs() -> list:
    """Seeded integer pairs (n, d), d >= 1: negative and zero numerators,
    numerators and denominators past 10**30, pairs with a common factor
    and pairs already in lowest terms."""
    rng = random.Random(25)
    pairs = [(0, 1), (0, 7), (1, 1), (-1, 1), (6, 4), (-6, 4), (10**31, 10**30), (-(3**70), 3**65)]
    for _ in range(400):
        n = rng.choice((rng.randint(-50, 50), rng.randint(-(10**40), 10**40)))
        d = rng.choice((rng.randint(1, 60), rng.randint(1, 10**35)))
        common = rng.choice((1, 1, rng.randint(2, 10**12)))
        pairs.append((n * common, d * common))
    return pairs


def test_ratio_is_the_fraction_of_its_integers():
    # `ratio` writes the two slots of a `Fraction` itself; if a later
    # Python lays the class out differently, or a change skips the gcd,
    # this test is where it shows
    pairs = _pairs()
    built = [(ratio(n, d), F(n, d)) for n, d in pairs]
    for (n, d), (got, want) in zip(pairs, built):
        assert type(got) is F, (n, d)
        assert got == want and want == got, (n, d)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (n, d)
        assert got.as_integer_ratio() == want.as_integer_ratio(), (n, d)
        assert hash(got) == hash(want) and repr(got) == repr(want), (n, d)
        assert str(got) == str(want) and format_rational(got) == format_rational(want), (n, d)
        assert -got == -want and abs(got) == abs(want), (n, d)
    for (got, want), (other, its) in zip(built, built[1:] + built[:1]):
        assert got + other == want + its and got - other == want - its
        assert got * other == want * its and got + 1 == want + 1
        for compare in (F.__lt__, F.__le__, F.__gt__, F.__ge__, F.__eq__):
            assert compare(got, other) == compare(want, its), (got, other)
            assert compare(got, 0) == compare(want, 0), got


def test_coprime_builds_a_whole_step_as_ratio_does():
    # a step `w + c` for a reduced `w = n/d` and an integer `c` has coprime
    # terms `c*d + n` and `d`, so `coprime` gives the slots `ratio` gives
    # after its gcd: over the reduced values of `_pairs` (negative, zero and
    # past 10**30) and integers `c` (zero, negative, small and large)
    rng = random.Random(26)
    steps = (0, 1, -1, 2, -3, 10**25, -(10**33))
    for n, d in _pairs():
        w = F(n, d)
        n, d = w._numerator, w._denominator
        for c in (*steps, rng.randint(-(10**40), 10**40)):
            got, want = coprime(c * d + n, d), ratio(c * d + n, d)
            assert type(got) is F, (n, d, c)
            assert (got._numerator, got._denominator) == (want._numerator, want._denominator)
            assert got == w + c and hash(got) == hash(w + c), (n, d, c)


# spellings of a number that the language takes, with their values, and
# the exclusions docs/language.md lists
ACCEPTED = {"0.25": F(1, 4), "007": F(7), "3/4": F(3, 4)}
REFUSED = ("1e3", ".5", "5.", "1_0", "+1", "\u00b2", "\u0663")


def _lexed(text: str):
    """The (kind, text) of each token of `text` but the end, or `LexError`."""
    try:
        return [(tok.kind, tok.text) for tok in lex(text)[:-1]]
    except LexError:
        return LexError


def _literal(text: str):
    """The value a program reads `text` as, or the class of the error that
    refuses it."""
    try:
        return parse(f"cont x = {text}; pause").root.init.value
    except (LexError, ParseError) as err:
        return type(err)


@pytest.mark.parametrize("text", [*ACCEPTED, *REFUSED])
def test_program_literals_and_rationals_share_one_number_grammar(text):
    # the lexer's number token is `rational.NUMBER`, so a spelling is one
    # number token exactly when `parse_number` reads it, and a program
    # reads a literal as `parse_rational` reads it outside one
    whole, _, den = text.partition("/")
    if text in ACCEPTED:
        assert parse_rational(text) == _literal(text) == ACCEPTED[text]
        spelled = [("number", whole)] + ([("punct", "/"), ("number", den)] if den else [])
        assert _lexed(text) == spelled
        assert parse_number(whole) / (parse_number(den) if den else 1) == ACCEPTED[text]
    else:
        for read in (parse_rational, parse_number):
            with pytest.raises(ValueError):
                read(text)
        assert _lexed(text) != [("number", text)]
        assert _literal(text) in (LexError, ParseError)

"""Exact rational parsing and formatting.

All continuous quantities, signal values, matrix entries and times in this
package are `fractions.Fraction`. Nothing is ever converted to float.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse 'p', 'p/q' or an exact decimal like '0.25' into a Fraction.

    Raises ValueError on anything else, a zero denominator included.
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    if "." in text or "e" in text or "E" in text:
        # Fraction(str) parses decimals exactly; floats never enter.
        return Fraction(text)
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Render p/q, or just p when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

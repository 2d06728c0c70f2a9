"""Exact scalar helpers.

All arithmetic in the library is exact rational arithmetic on
fractions.Fraction. Floats are rejected at every entry point.
"""

import re
import sys
from fractions import Fraction

from .errors import ValueTooLarge


def as_scalar(x) -> Fraction:
    """Coerce an int, Fraction or "p/q" or decimal text to a Fraction, a Fraction as it is since Fractions
    are immutable. No floats, and no text whose exponent is past the digits Python prints (ValueTooLarge)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:  # Fraction("1ek") builds 10^k: refuse a k past the digits Python prints; a limit has under 20 digits
            k = re.fullmatch(r"[+-]?(?=\.?\d)\d*(_\d+)*(\.(\d+(_\d+)*)?)?[eE][+-]?(?P<k>\d+(_\d+)*)", x.strip())
            if k and 0 < sys.get_int_max_str_digits() < int(k["k"].replace("_", "").lstrip("0")[:20] or 0):
                raise ValueTooLarge(f"exact value has more than {sys.get_int_max_str_digits()} digits to print")
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x.strip()!r}") from None
    raise TypeError(f"not an exact scalar: {x!r}")


def as_exact(x):
    """An int as it is and anything else through as_scalar, so integer work stays in ints."""
    return x if type(x) is int else as_scalar(x)


def as_int(x) -> int:
    """Coerce an int, or an integral Fraction or "p/q" string, to an int. Floats
    and booleans raise TypeError as in as_scalar, other non-integers ValueError."""
    if type(x) is int:
        return x
    x = as_scalar(x)
    if x.denominator != 1:
        raise ValueError(f"not an integer: {format_scalar(x)}")
    return x.numerator


def format_scalar(x: Fraction) -> str:
    """Render exactly, "p" for integers and "p/q" otherwise.

    Python refuses to convert an int of more than a set number of digits
    (4300 by default) to text; such a value raises ValueTooLarge.
    """
    if type(x) is not Fraction and type(x) is not int:
        x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise ValueTooLarge(f"exact value has more than {sys.get_int_max_str_digits()} digits to print") from None


def format_vector(xs) -> str:
    """Render a vector of scalars as "(p, p/q, ...)" for messages."""
    return "(" + ", ".join(format_scalar(x) for x in xs) + ")"


def is_integer(x) -> bool:
    return type(x) is int or (x if type(x) is Fraction else Fraction(x)).denominator == 1

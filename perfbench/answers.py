"""Canonical answers, their digests, and the digests recorded at the seed commit.

Numbers are rendered as exact "p/q" whatever their Python type, so an
implementation that returns an int where the seed returned an equal
Fraction still gives the same answer.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DIGEST_LENGTH = 10


class Raised:
    """Stands for an operation that raised a DomainError."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"raise:{self.name}"


def canon(value) -> str:
    if value is None:
        return "N"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        return f"{q.numerator}/{q.denominator}"
    if isinstance(value, (str, bytes, Raised)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(value.items(), key=lambda kv: canon(kv[0]))) + "}"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    return hashlib.sha256(canon(value).encode()).hexdigest()[:DIGEST_LENGTH]


def expected_path(workload):
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload):
    """{stratum key: [digest per pool index]} as recorded at the seed commit."""
    with open(expected_path(workload), encoding="utf-8") as fh:
        packed = json.load(fh)["digests"]
    return {key: text.split() for key, text in packed.items()}


def save_expected(workload, digests, note):
    packed = {key: " ".join(values) for key, values in sorted(digests.items())}
    with open(expected_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"note": note, "digests": packed}, fh, indent=0, sort_keys=True)
        fh.write("\n")

"""Seeded mutation fuzz of the JSON decoders over the golden `--json` payloads.

Every library value inside a decodable golden payload is a seed: the
top-level value and the ones nested in it (a report's weight, an
induction datum's character, a rational function's factors). No payload
prints a profile, so the profiles of the printed weights' dominant rows
stand in for them. Each decoder is drawn as often as the next. A mutation
picks a seed and one node in it, and drops, renames or adds a key,
swaps the node for another JSON value or for a non-canonical text of the
same number, or drops, duplicates or reverses a list item. The seed's
decoder must then either return a value whose `to_json` is the mutated
data exactly, compared with == and as sorted JSON text, or refuse it
with a ValueError or a DomainError. A ValueError that _rebuilt made of a
TypeError or ZeroDivisionError counts as a refusal only when that cause
was raised where a payload value meets a reader (READERS); from anywhere
else it is a fault in the library that the ValueError would hide. The
standard library is enough:

    PYTHONPATH=src python tests/test_decoder_fuzz.py

prints the counts per decoder and exits 1 when any decode was neither.
"""

import json
import random
import sys
import time
from collections import Counter
from functools import cache
from pathlib import Path

from golden_replay import CORPUS, run
from sympl.ehw import ehw_normalize
from sympl.errors import DomainError
from sympl.serialize import (
    character_from_json,
    classification_from_json,
    expansion_from_json,
    grid_from_json,
    induction_from_json,
    infchar_from_json,
    poly_from_json,
    profile_from_json,
    rational_from_json,
    report_from_json,
    to_json,
    verdict_from_json,
    weight_from_json,
)

MUTATIONS = 20_000
SEED = 23
# values swapped in for a node; the node itself in a list is one more
SWAPS = (2.0, True, None, "x", {}, 0, -1, "1/2")
# (module, function) of the frames where a payload value of the wrong type meets the library
READERS = {
    ("scalars", "as_scalar"),  # a float, bool, null, list or dict where a scalar belongs
    ("weights", "as_vector"),  # a scalar or null where a vector belongs
    ("orbitclassify", "_shape"),  # the same for an inner weight
    ("laurent", "__init__"),  # generator names that do not hash, or do not order among themselves
    ("fourier", "_normalize_bounds"),  # grid position indices that do not order among themselves
    ("lfactors", "__init__"),  # a zero factor in a rational function's denominator
}


# Per command, (decoder, data) for each library value at the top of its payload p;
# commands whose payloads hold only bools and scalars are left out.
TOP = {
    "infchar": lambda p: [(infchar_from_json, p)],
    "dominant": lambda p: [(weight_from_json, w) for w in p["weights"]],
    "embed": lambda p: [(induction_from_json, d) for d in p.get("places", ())],  # --invert prints a plain row
    "principal": lambda p: [(character_from_json, c) for place in p["places"] for c in place],
    "degenerate": lambda p: [(character_from_json, c) for c in p["places"]],
    "classify-levels": lambda p: [(classification_from_json, p)],
    "report": lambda p: [(report_from_json, p)],
    "surjectivity": lambda p: [(verdict_from_json, p)],
    "xi": lambda p: [(rational_from_json, p)],
    "gk": lambda p: [(rational_from_json, p)],
    "fourier": lambda p: [(expansion_from_json, p["expansion"])],
    "phi": lambda p: [(expansion_from_json, p)],
    "grid": lambda p: [(grid_from_json, p)],
}


def _nested(decoder, data):
    """(decoder, data) for data and each library value nested in it."""
    yield decoder, data
    if decoder is report_from_json:
        yield weight_from_json, data["weight"]
    elif decoder is induction_from_json:
        yield character_from_json, data["character"]
    elif decoder is rational_from_json:
        for poly in data["numerator_factors"] + data["denominator_factors"]:
            yield poly_from_json, poly


@cache
def seeds():
    """{decoder: [(data, the path of every node in data)]} for each library value in the golden payloads."""
    out = {}
    for entry in json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]:
        argv = entry["argv"]
        if entry["exit"] != 0 or "--json" not in argv or argv[0] not in TOP:
            continue
        code, stdout, _ = run(entry)
        assert code == 0, argv
        for top in TOP[argv[0]](json.loads(stdout)):
            for decoder, data in _nested(*top):
                out.setdefault(decoder, []).append((data, tuple(_paths(data))))
    rows = dict.fromkeys(tuple(row) for data, _ in out[weight_from_json] for row in data["rows"])
    out[profile_from_json] = [(data, tuple(_paths(data))) for data in map(_profile, rows) if data]
    return out


def _profile(row):
    """The JSON of row's profile, or None when row has none."""
    try:
        return to_json(ehw_normalize(row))
    except DomainError:
        return None


def _paths(data, path=()):
    """The path of every node in data, data's own () first."""
    yield path
    if type(data) is dict:
        for key, value in data.items():
            yield from _paths(value, path + (key,))
    elif type(data) is list:
        for k, value in enumerate(data):
            yield from _paths(value, path + (k,))


def _replaced(data, path, new):
    """data with the node at path replaced by new, copying only the containers on the path."""
    if not path:
        return new
    copy = dict(data) if type(data) is dict else list(data)
    copy[path[0]] = _replaced(data[path[0]], path[1:], new)
    return copy


def _noncanonical(node):
    """Another text of the same number, or None when node is no scalar."""
    if type(node) is int:
        return f"{2 * node}/2"
    if type(node) is str and node.lstrip("-").replace("/", "", 1).isdigit():
        p, _, q = node.partition("/")
        return f"{2 * int(p)}/{2 * int(q or 1)}"
    return None


def _mutants(rng, node, is_root):
    """The mutations of node that one draw chooses between, each as a function of nothing."""
    out = []
    if type(node) is dict:
        if node:
            key = rng.choice(list(node))
            out.append(lambda: {k: v for k, v in node.items() if k != key})
            out.append(lambda: {(k + "_" if k == key else k): v for k, v in node.items()})
        out.append(lambda: dict(node, extra=1))
    if type(node) is list and node:
        k = rng.randrange(len(node))
        out.append(lambda: node[:k] + node[k + 1:])
        out.append(lambda: node[:k] + [node[k]] + node[k:])
        out.append(lambda: node[::-1])
    if not is_root:
        out.append(lambda: rng.choice(SWAPS + ([node],)))
        text = _noncanonical(node)
        if text is not None:
            out.append(lambda: text)
    return out


def _raised_by_a_reader(error):
    """Whether error's TypeError or ZeroDivisionError cause, if it has one, was raised in READERS,
    or is serialize's own dictionary of payload keys refusing an unhashable one."""
    cause = error.__cause__
    if not isinstance(cause, (TypeError, ZeroDivisionError)):
        return True
    trace = cause.__traceback__
    while trace.tb_next is not None:
        trace = trace.tb_next
    code = trace.tb_frame.f_code
    module = Path(code.co_filename).stem
    return (module, code.co_name) in READERS or module == "serialize" and str(cause).startswith("unhashable type")


def check(decoder, data):
    """"exact" when decoder(data) returns a value encoding exactly to data, "refused" when it
    raises a DomainError or a ValueError not made of a fault, and otherwise what went wrong."""
    try:
        encoded = to_json(decoder(data))
    except DomainError:
        return "refused"
    except ValueError as error:
        return "refused" if _raised_by_a_reader(error) else f"hid {type(error.__cause__).__name__}"
    except Exception as error:  # the gate reports every other exception by its class
        return f"raised {type(error).__name__}"
    if encoded == data and json.dumps(encoded, sort_keys=True) == json.dumps(data, sort_keys=True):
        return "exact"
    return "inexact"


PASSED = ("exact", "refused")


def fuzz():
    """Counter of (decoder name, check's outcome) over the seeded mutations, and up to five failures."""
    rng = random.Random(SEED)
    pool = seeds()
    decoders = sorted(pool, key=lambda decoder: decoder.__name__)
    counts, examples = Counter(), []
    for _ in range(MUTATIONS):
        decoder = rng.choice(decoders)
        data, paths = rng.choice(pool[decoder])
        path = rng.choice(paths)
        node = data
        for key in path:
            node = node[key]
        mutant = _replaced(data, path, rng.choice(_mutants(rng, node, not path))())
        outcome = check(decoder, mutant)
        counts[decoder.__name__, outcome] += 1
        if outcome not in PASSED and len(examples) < 5:
            examples.append((decoder.__name__, outcome, mutant))
    return counts, examples


def test_every_mutated_payload_decodes_exactly_or_is_refused_by_name():
    counts, examples = fuzz()
    assert sum(counts.values()) == MUTATIONS
    failed = sum(n for (_, outcome), n in counts.items() if outcome not in PASSED)
    assert failed == 0, f"{failed} of {MUTATIONS} mutations; first: {examples}"


if __name__ == "__main__":
    seeds()
    start = time.perf_counter()
    counts, examples = fuzz()
    seconds = time.perf_counter() - start
    values = sum(map(len, seeds().values()))
    print(f"python {sys.version.split()[0]}: {MUTATIONS} mutations of {values} values, seed {SEED}, "
          f"{seconds:.2f} s")
    for outcome in sorted({o for _, o in counts}):
        by = {name: n for (name, o), n in sorted(counts.items()) if o == outcome}
        print(f"  {outcome}: {sum(by.values())} ({', '.join(f'{name} {n}' for name, n in by.items())})")
    for name, outcome, mutant in examples:
        print(f"  e.g. {name} {outcome}: {json.dumps(mutant)[:200]}")
    sys.exit(1 if any(o not in PASSED for _, o in counts) else 0)

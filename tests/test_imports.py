"""What importing sympl and running a subcommand loads.

`import sympl` resolves its public names lazily, each subcommand
imports only the layers it calls, and --json adds only the encoder, so
a cold command line call does not pay for the rest. No call loads
dataclasses or the inspect it imports: the value types are Frozen. The
footprint checks run in fresh interpreters.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sympl

# The public names `sympl/__init__.py` imported eagerly before it became
# lazy, by submodule; every one must still resolve.
PUBLIC = {
    "ehw": "EhwProfile ehw_normalize first_reduction_point is_unitary_highest_weight",
    "embeddings": "CharacterDatum InductionDatum gl_degenerate_convergence klingen_convergence "
    "klingen_embedding_datum klingen_embedding_inverse principal_series_datum siegel_degenerate_datum",
    "errors": "DomainError",
    "fourier": "FourierExpansion PdGrid SymMatrix build_pd_grid corank cusp_condition_check "
    "filtration_index format_expansion gl_transform grid_variable in_sym_j is_cuspidal is_pd is_psd "
    "parse_expansion pit_vanishes rank rigidity_check siegel_phi slash_invariance_check",
    "laurent": "LaurentPoly",
    "lfactors": "RationalFunction SatakeDatum abelian_L evaluate gk_value standard_L xi",
    "orbitclassify": "DecompositionReport OrbitClassification SurjectivityVerdict classify_levels "
    "decomposition_report duality_check hc_parameter is_squarefree level_from_primes "
    "siegel_surjectivity_check theorem_main_necessary",
    "scalars": "as_scalar format_scalar",
    "weights": "VanishingVerdict Weight format_weight holomorphy_vanishing is_integral is_k_dominant "
    "parity_class parse_weight rho",
    "weyl": "InfChar WeylElement act compose dominant_orbit_elements dot_act identity "
    "infchar_canonical infchar_equal inverse is_regular is_sufficiently_regular "
    "orbit_dichotomy_check",
}

# perfbench/tracer.py wraps these layers after importing sympl.cli and sympl.serialize
TRACED_LAYERS = ("scalars", "weights", "weyl", "embeddings", "ehw", "orbitclassify",
                 "laurent", "lfactors", "fourier", "serialize", "cli")


def _loaded_by(script):
    """Modules a fresh interpreter holds after `script` that it did not hold before."""
    path = [str(Path(sympl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{script}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def _sympl_modules(loaded):
    return {name for name in loaded if name.startswith("sympl.")}


def test_import_sympl_loads_no_submodule():
    loaded = _loaded_by("import sympl")
    assert "sympl" in loaded
    assert _sympl_modules(loaded) == set()


EXPANSION = str(Path(__file__).with_name("cli_golden") / "n2.txt")

# one text argv per subcommand; only these four call the fourier layer
FOURIER_COMMANDS = {"fourier", "phi", "grid", "pit"}
TEXT_ARGVS = [
    ["infchar", "--weight", "5,3;5,4"],
    ["xi", "--i", "2", "--m", "1"],
    ["surjectivity", "--weight", "11,11", "--level", "6"],
    ["surjectivity", "--weight", "11,11", "--primes", "2,3"],
    ["orbit", "--weight", "9,9"],
    ["dominant", "--weight", "2,1"],
    ["suffreg", "--weight", "9,9", "--i", "2"],
    ["embed", "--weight", "7,5,5", "--i", "2"],
    ["principal", "--weight", "5,3"],
    ["degenerate", "--weight", "5,5"],
    ["reduction-point", "--weight", "4,3,3"],
    ["unitary", "--weight", "4,3,3"],
    ["classify-levels", "--n", "2", "--i", "1", "--inner", "5"],
    ["report", "--weight", "12,12", "--i", "1"],
    ["gk", "--i", "1", "--j", "1", "--m", "1"],
    ["eval", "--kind", "xi", "--i", "1", "--at", "X=1,Q=2,T=1/3"],
    ["fourier", EXPANSION],
    ["phi", EXPANSION],
    ["grid", "--n", "2", "--bounds", "1"],
    ["pit", "--poly", "x_1_1_1 - x_1_1_1", "--n", "1", "--bounds", "1"],
]


def test_text_argvs_cover_every_subcommand():
    assert len({argv[0] for argv in TEXT_ARGVS}) == 19


# neither is a dependency of the command line
NEVER_LOADED = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", TEXT_ARGVS)
def test_text_commands_skip_fourier_and_serialize(argv):
    loaded = _loaded_by(f"from sympl.cli import main\nassert main({argv!r}) == 0")
    assert "sympl.cli" in loaded
    assert not loaded & {"sympl.serialize", "json", *NEVER_LOADED}
    assert ("sympl.fourier" in loaded) == (argv[0] in FOURIER_COMMANDS)


@pytest.mark.parametrize(("argv", "code"), [(["-h"], 0), (["infchar", "--weight", "3,2", "--bogus"], 2)],
                         ids=["help", "usage-error"])
def test_help_and_usage_errors_load_neither_dataclasses_nor_inspect(argv, code):
    loaded = _loaded_by(f"from sympl.cli import main\nassert main({argv!r}) == {code}")
    assert "sympl.cli" in loaded and not loaded & NEVER_LOADED


def _footprint(loaded):
    return _sympl_modules(loaded) | (loaded & {"json"})


@pytest.mark.parametrize("argv", TEXT_ARGVS)
def test_json_loads_only_the_encoder_beyond_the_text_call(argv):
    # so infchar --json loads neither fourier nor lfactors, and xi --json neither fourier nor orbitclassify
    text = _loaded_by(f"from sympl.cli import main\nassert main({argv!r}) == 0")
    loaded = _loaded_by(f"from sympl.cli import main\nassert main({argv + ['--json']!r}) == 0")
    assert _footprint(loaded) == _footprint(text) | {"sympl.encode", "json"}
    assert not loaded & NEVER_LOADED


def test_serialize_loads_every_layer():
    # the tracer relies on these two imports putting every layer in sys.modules
    library = _sympl_modules(_loaded_by("import sympl.serialize"))
    assert library >= {f"sympl.{layer}" for layer in TRACED_LAYERS if layer != "cli"}
    both = _sympl_modules(_loaded_by("import sympl.cli\nimport sympl.serialize"))
    assert both >= {f"sympl.{layer}" for layer in TRACED_LAYERS}


def test_public_names_resolve_to_submodule_objects():
    import importlib

    names = {name: module for module, text in PUBLIC.items() for name in text.split()}
    assert set(sympl.__all__) == set(names)
    listing = dir(sympl)
    for name, module_name in names.items():
        module = importlib.import_module(f"sympl.{module_name}")
        assert getattr(sympl, name) is getattr(module, name), name
        assert name in listing
    for module_name in PUBLIC:
        assert getattr(sympl, module_name) is importlib.import_module(f"sympl.{module_name}")
        assert module_name in listing
    from sympl import Weight, weyl  # noqa: F401
    assert sympl.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        sympl.no_such_name


def test_public_names_are_not_cached(monkeypatch):
    # a rebinding in the submodule, and its undoing, show through the package
    from sympl import weyl

    original = weyl.infchar_canonical
    monkeypatch.setattr(weyl, "infchar_canonical", len)
    assert sympl.infchar_canonical is len
    monkeypatch.undo()
    assert sympl.infchar_canonical is original
    assert "infchar_canonical" not in vars(sympl)

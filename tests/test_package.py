"""The package namespace: lazy public names, and the layers each CLI
subcommand loads in a fresh interpreter."""

from __future__ import annotations

import argparse
import doctest
import json
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import afftrans

SRC = str(Path(afftrans.__file__).resolve().parents[1])


def test_every_public_name_is_the_object_of_its_defining_module():
    for name in afftrans.__all__:
        obj = getattr(afftrans, name)
        layer = import_module(f"afftrans.{afftrans._LAYER_OF[name]}")
        assert getattr(layer, name) is obj, name
        assert getattr(obj, "__module__", layer.__name__) == layer.__name__, name


def test_dir_lists_every_public_name_and_layer():
    listed = set(dir(afftrans))
    assert set(afftrans.__all__) <= listed
    assert {"affine", "rootsys", "translate", "__version__"} <= listed


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from afftrans import *", namespace)
    assert {name: namespace[name] for name in afftrans.__all__} == {
        name: getattr(afftrans, name) for name in afftrans.__all__}


def test_layers_are_the_submodules():
    from afftrans import affine

    assert affine is sys.modules["afftrans.affine"] is afftrans.affine


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'afftrans' has no attribute 'nope'$"):
        afftrans.nope
    with pytest.raises(ImportError):
        from afftrans import nope  # noqa: F401


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert (failed, attempted) == (0, 8)


def test_records_pickle_through_the_package():
    level = afftrans.Level(5, 1)
    g = afftrans.theta_wall_reflection(afftrans.root_system("A2"), level)
    assert pickle.loads(pickle.dumps(level)) == level
    assert pickle.loads(pickle.dumps(g)) == g


# Every lru_cache in the package, by layer and name, with its maxsize.
CACHES = {
    "affine._alcove_flags": 4096,
    "affine._alcove_rep_coords": 200_000,
    "affine._finite_dot": 4096,
    "affine._in_coroot_lattice": 4096,
    "affine._theta_reflection": None,
    "finchar._character": 4096,
    "finchar._dim": 4096,
    "finchar._flat_orbit": 16384,
    "finchar._orbit": 4096,
    "finchar._packed": 4096,
    "finchar._product_plan": 4096,
    "finchar._root_data": None,
    "rootsys._build_root_system": None,
    "translate._survivors": 4096,
    "weyl._canonical": 4096,
    "weyl._dominant": 4096,
    "weyl._order": None,
    "weyl.longest_element": None,
}


def test_cache_inventory():
    found = {}
    for layer in sorted({*afftrans._LAYER_OF.values(), "cli"}):
        module = import_module(f"afftrans.{layer}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[f"{layer}.{attr}"] = obj.cache_parameters()["maxsize"]
    assert found == CACHES


def _loaded(code: str) -> set:
    """The afftrans layers loaded after ``code`` runs in a fresh interpreter."""
    script = (f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
              "print(' '.join(sorted(m[9:] for m in sys.modules if m.startswith('afftrans.'))))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_import_loads_no_layer():
    assert _loaded("import afftrans") == set()
    assert _loaded("import afftrans; afftrans.Weight") == {"errors", "rootsys"}


CLI = {"cli", "errors", "rootsys"}
ALCOVE = CLI | {"weyl", "affine"}
TRANSLATE = ALCOVE | {"finchar", "translate"}

# argv -> exit code and the layers loaded once ``cli.main(argv)`` returns
LAYERS_PER_COMMAND = [
    (["info", "A2"], 0, CLI),
    (["info", "A2", "--format", "json-lines"], 0, CLI),
    (["dominant", "Z9", "--level", "5/1"], 2, CLI),
    (["tensor", "A2", "[1,0]"], 2, CLI),
    (["orbit", "A2", "[1,0]"], 0, CLI | {"weyl"}),
    (["info", "A2", "--level", "4/1"], 0, ALCOVE),
    (["orbit", "A1", "[0]", "--level", "5/1", "--bound", "20"], 0, ALCOVE),
    (["alcove", "A1", "[7]", "--level", "5/1"], 0, ALCOVE),
    (["dominant", "A2", "--level", "6/1"], 0, ALCOVE),
    (["tensor", "A2", "[1,1]", "[1,0]"], 0, CLI | {"weyl", "finchar"}),
    (["tensor", "A1", "[1]", "[1]", "--oracle"], 0, CLI | {"weyl", "finchar"}),
    (["admissible", "A2", "--level", "5/1"], 0, ALCOVE | {"annihilator"}),
    (["generator", "A1", "--level", "5/1"], 0, ALCOVE | {"annihilator"}),
    (["filtration", "A1", "[2]", "[0]"], 0, TRANSLATE),
    (["datum", "A1", "--level", "5/1", "[1]", "[1]", "[0]"], 0, TRANSLATE),
    (["translate-weyl", "A1", "--level", "5/1", "--element", "saff",
      "--from", "[0]", "--to", "[2]"], 0, TRANSLATE),
    (["translate-char", "A1", "--level", "5/1", "--from", "[0]", "--to", "[2]",
      "--char", "e:1"], 0, TRANSLATE),
    (["verify-lemma", "A1", "--level", "5/1", "--lam", "[2]", "--mu", "[0]",
      "--element", "saff", "--bound", "20"], 0, TRANSLATE),
    (["transport", "A1", "--level", "5/1", "--to", "[2]", "--generators", "saff"], 0,
     TRANSLATE | {"annihilator"}),
]


@pytest.mark.parametrize("argv,code,layers", [
    pytest.param(argv, code, layers, id=" ".join(argv)) for argv, code, layers in LAYERS_PER_COMMAND])
def test_each_command_loads_only_its_layers(argv, code, layers):
    run = ("import contextlib, io\nfrom afftrans import cli\n"
           "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
           f"    code = cli.main({argv!r})\n"
           f"assert code == {code}, code")
    assert _loaded(run) == layers


def test_every_subcommand_is_benchmarked_and_layer_pinned():
    # a new subcommand must join perfbench's cli-oneshot cases and the layer
    # pins above; cli_cases.json is read, never written
    from afftrans import cli
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    cases = json.loads((Path(__file__).parents[1] / "perfbench" / "cli_cases.json").read_text())
    assert set(commands) == set(cases) - {"usage-error", "domain-error"}
    assert set(commands) == {argv[0] for argv, _, _ in LAYERS_PER_COMMAND}

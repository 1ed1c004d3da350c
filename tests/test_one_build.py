"""Each model record has one builder in the package: an `OperatingPoint` is
made only by `hybridize._operating_point`, and a `PumpConfig` only by
`config.load_config`; other code takes the run's pump and varies it with
`dataclasses.replace`.  The S matrix is evaluated whole: the package's
readers unpack `response.scattering`, and the per-entry
`transfer_from_rates` serves the oracles in the tests and `perfbench`.
The sources are parsed, not run."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "moptrans"


def _call_sites(name: str) -> list[str]:
    """'module.function' (the dotted path of nested definitions) of every
    call `name(...)` or `x.name(...)` in the package's sources."""
    sites = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    sites.append(where)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}")
            else:
                walk(child, where)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return sites


@pytest.mark.parametrize("name, sites", [
    ("OperatingPoint", ["hybridize._operating_point"]),
    ("PumpConfig", ["config.load_config"]),
    ("transfer_from_rates", []),
], ids=lambda v: "-".join(v) or "nowhere" if isinstance(v, list) else v)
def test_one_builder(name, sites):
    assert _call_sites(name) == sites

"""The benchmark harness in perfbench/ calls the package by name; each name
it uses must exist, so that deleting a public name fails here rather than
as a failed benchmark run.  The harness files are parsed, not run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _references(path: Path) -> set[str]:
    """Dotted moptrans names that `path` imports or reads as attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = {}  # local name -> module it is bound to
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "moptrans":
                    refs.add(alias.name)
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        aliases["moptrans"] = "moptrans"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "moptrans":
            for alias in node.names:
                refs.add(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            refs.add(".".join([aliases[node.id], *reversed(parts)]))
    return refs


def _lookup(dotted: str):
    """The object a dotted name refers to; AttributeError if there is none."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:  # a submodule not imported yet
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                pass
        obj = getattr(obj, part)
    return obj


def _resolves(dotted: str) -> bool:
    try:
        _lookup(dotted)
    except AttributeError:
        return False
    return True


def _traced_layers() -> tuple[str, ...]:
    """`tracing.LAYERS`, read from the harness source."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


HARNESS = sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("path", HARNESS, ids=[p.name for p in HARNESS])
def test_harness_names_resolve(path):
    missing = sorted(ref for ref in _references(path) if not _resolves(ref))
    assert not missing, f"{path.name} uses names moptrans does not define: {missing}"


def test_harness_reads_every_layer():
    """The walker finds the harness's calls into every layer, so the test
    above cannot pass by finding nothing."""
    refs = set().union(*map(_references, HARNESS))
    layers = ("calibrate", "cli", "hybridize", "quantumstats", "response", "sfg", "timedomain")
    assert {ref.split(".")[1] for ref in refs if ref.count(".") >= 2} >= set(layers)


def test_traced_callables_are_plain_functions():
    """The tracer wraps only what `inspect.isfunction` accepts, so a public
    function of a traced layer that the harness calls must stay a plain
    function: a decorated one (an lru_cache wrapper, say) would go untraced
    and leave its per-layer metric without calls."""
    layers = {f"moptrans.{layer}" for layer in _traced_layers()}
    refs = set().union(*map(_references, HARNESS))
    wrapped = sorted(
        ref for ref in refs if ref.rpartition(".")[0] in layers and _resolves(ref)
        and callable(obj := _lookup(ref)) and not inspect.isclass(obj) and not inspect.isfunction(obj)
    )
    assert not wrapped, f"the tracer cannot wrap these: {wrapped}"

"""The span names the traced benchmark reads must exist in the package.

``perfbench/spans.py`` wraps every public function of each augmi layer, and
a few public methods, and computes its per-layer metrics from spans named
``"<layer>.<function>"`` or ``"<layer>.<Class>.<method>"``.  After a rename
in augmi such a metric silently reads 0, so every such name in that file
must resolve.  The file is read as text, never imported or edited.
"""

import ast
import importlib
from pathlib import Path
from types import FunctionType

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_tree() -> ast.Module:
    return ast.parse(SPANS.read_text(encoding="utf-8"))


def _assigned(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py no longer assigns {name}")


def _unresolved(layer: str, names: list[str]) -> str | None:
    """Why ``augmi.<layer>`` has no traced function or method at ``names``."""
    module = importlib.import_module(f"augmi.{layer}")
    if len(names) == 1:
        fn = getattr(module, names[0], None)
        if not isinstance(fn, FunctionType) or fn.__module__ != module.__name__:
            return "is not a function defined in the module"
        if names[0].startswith("_"):
            return "is private, and the tracer wraps only public functions"
        return None
    cls_name, method = names
    cls = getattr(module, cls_name, None)
    if not isinstance(cls, type):
        return f"has no class {cls_name}"
    if not callable(cls.__dict__.get(method)):
        return f"class {cls_name} does not define {method}"
    if method.startswith("_") and not (method.startswith("__") and method.endswith("__")):
        return "is a private method"
    return None


def test_traced_names_resolve():
    tree = _spans_tree()
    layers = set(_assigned(tree, "LAYERS"))
    metrics = {name for name, _unit in _assigned(tree, "PER_LAYER")}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if (
                parts[0] in layers
                and len(parts) in (2, 3)
                and all(part.isidentifier() for part in parts)
                and node.value not in metrics
            ):
                names.add(node.value)
    names.update(".".join(triple) for triple in _assigned(tree, "METHODS"))
    # the names the per-layer metrics are computed from, at the least
    assert {"state.marginalize_gaussian", "smc.mismc_update", "planner.solve"} <= names
    missing = {}
    for name in sorted(names):
        layer, *rest = name.split(".")
        reason = _unresolved(layer, rest)
        if reason is not None:
            missing[name] = reason
    assert not missing, f"perfbench/spans.py reads spans augmi no longer has: {missing}"

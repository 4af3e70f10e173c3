"""The names ``perfbench/tracer.py`` wraps must exist in ``m2t``.

The benchmark traces the program from outside by rebinding module
functions and methods by name, and it may not be edited together with the
program. This test reads the tracer's tables with ``ast`` (it neither
imports nor runs the tracer) and checks them against the package, so a
rename that would silently drop a traced layer fails here instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Listed by the tracer but deliberately gone from the program; the tracer
# skips and reports them.
KNOWN_ABSENT = {"engine.slice_rows", "engine.concat_rows", "trainer.lars_step"}


def tracer_tables() -> dict:
    """Module-level literal assignments of the tracer, by name."""
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                tables[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:  # not a literal
                pass
    return tables


def module(layer: str):
    return importlib.import_module(f"m2t.{layer}")


def test_traced_functions_resolve():
    missing = [f"{layer}.{name}"
               for layer, names in tracer_tables()["LAYER_FUNCTIONS"].items()
               for name in names
               if f"{layer}.{name}" not in KNOWN_ABSENT
               and not callable(getattr(module(layer), name, None))]
    assert missing == []


def test_traced_methods_resolve():
    for layer, cls, meth in tracer_tables()["LAYER_METHODS"]:
        assert callable(getattr(getattr(module(layer), cls), meth))


def test_comm_bytes_and_signatures():
    assert callable(module("normalization").comm_bytes)
    train_step = module("trainer").Trainer.train_step
    assert list(inspect.signature(train_step).parameters) == [
        "self", "batch", "k"]
    # The tracer reads (x, layout) off the leading arguments of each BN
    # forward whose traffic it models.
    for fname in tracer_tables()["_BN_KIND"]:
        params = list(inspect.signature(
            getattr(module("normalization"), fname)).parameters)
        assert params[:2] == ["x", "layout"], fname

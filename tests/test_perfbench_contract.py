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
# skips and reports them. Every BN layer is normalized by its spec inside
# ``engine.dense``, so the per-kind BN forwards are gone. The engine holds
# only the ops a run executes (``batch_norm``, ``dense`` and the fused
# losses), each returning its backward closure, so a run's backward is
# their chain: ``backward`` and the tape are gone, and ``add``, like the
# composed ops no run reaches, lives in ``tests/engine_reference.py``.
# ``neg`` is deleted.
KNOWN_ABSENT = {"engine.slice_rows", "engine.concat_rows", "trainer.lars_step",
                "engine.add", "engine.backward",
                "normalization.plain_bn_forward",
                "normalization.synced_bn_forward",
                "normalization.shuffling_bn_forward",
                "normalization.momentum_bn_forward",
                *(f"engine.{op}" for op in (
                    "sub", "mul", "div", "neg", "relu", "sqrt", "exp", "log",
                    "matmul", "mean", "sum", "var", "gather_rows"))}


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


def test_known_absent_names_are_absent():
    # Keeps the allowlist from going stale: a name back in the program must
    # leave it, so the test above checks it again.
    present = sorted(name for name in KNOWN_ABSENT
                     if hasattr(module(name.partition(".")[0]),
                                name.partition(".")[2]))
    assert present == []


def test_traced_methods_resolve():
    for layer, cls, meth in tracer_tables()["LAYER_METHODS"]:
        assert callable(getattr(getattr(module(layer), cls), meth))


def test_comm_bytes_and_signatures():
    assert callable(module("normalization").comm_bytes)
    train_step = module("trainer").Trainer.train_step
    assert list(inspect.signature(train_step).parameters) == [
        "self", "batch", "k"]
    # The tracer reads (x, layout) off the leading arguments of each BN
    # forward whose traffic it models; it never wraps an absent one.
    for fname in tracer_tables()["_BN_KIND"]:
        if f"normalization.{fname}" in KNOWN_ABSENT:
            continue
        params = list(inspect.signature(
            getattr(module("normalization"), fname)).parameters)
        assert params[:2] == ["x", "layout"], fname


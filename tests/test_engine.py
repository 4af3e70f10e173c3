import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2t import engine, gradcheck
from m2t.engine import (
    DimensionError,
    Tensor,
    backward,
    constant,
    finite_diff_check,
    parameter,
    record,
)
from m2t.normalization import NormParams


class TestMatmul:
    def test_identity(self):
        a = constant([[1.0, 0.0], [0.0, 1.0]])
        b = constant([[3.0, 4.0], [5.0, 6.0]])
        out = engine.matmul(a, b)
        np.testing.assert_array_equal(out.values, [[3.0, 4.0], [5.0, 6.0]])

    def test_row_times_column(self):
        out = engine.matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            engine.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        a = parameter([[1.0, 2.0]])
        b = constant([[3.0], [4.0]])

        def f():
            return engine.sum(engine.matmul(a, b))

        report = finite_diff_check(f, [("a", a)], h=1e-6)
        assert report.passed
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]], rtol=1e-12)


class TestElementwise:
    def test_relu(self):
        out = engine.relu(constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_add(self):
        out = engine.add(constant([1.0, 2.0]), constant([3.0, 4.0]))
        np.testing.assert_array_equal(out.values, [4.0, 6.0])

    def test_relu_gradient_tie_at_zero(self):
        x = parameter([-1.0, 0.0, 2.0])
        with record():
            loss = engine.sum(engine.relu(x))
        backward(loss)
        # The tie at zero passes no gradient by convention; asserted exactly.
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_incompatible_broadcast_raises(self):
        with pytest.raises(DimensionError, match="broadcast"):
            engine.add(constant(np.zeros(3)), constant(np.zeros(4)))

    def test_row_vector_broadcast(self):
        x = constant(np.arange(6.0).reshape(2, 3))
        b = constant([10.0, 20.0, 30.0])
        out = engine.add(x, b)
        np.testing.assert_array_equal(out.values, x.values + b.values)

    def test_broadcast_gradient_sums_over_expanded_axis(self):
        b = parameter([1.0, 2.0, 3.0])
        x = constant(np.ones((4, 3)))
        with record():
            loss = engine.sum(engine.mul(x, b))
        backward(loss)
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])


class TestReduce:
    def test_mean(self):
        assert engine.mean(constant([1.0, 2.0, 3.0])).item() == 2.0

    def test_var_is_biased(self):
        # 1/m sum of squared deviations: ((1)^2 + 0 + 1^2) / 3.
        assert engine.var(constant([1.0, 2.0, 3.0])).item() == pytest.approx(2.0 / 3.0)

    def test_var_constant_input(self):
        assert engine.var(constant([7.0, 7.0, 7.0])).item() == 0.0

    def test_empty_reduction(self):
        with pytest.raises(ValueError, match="empty reduction"):
            engine.mean(constant(np.zeros((0, 3))), axis=0)

    def test_axis_and_keepdims(self):
        x = constant([[1.0, 2.0], [3.0, 4.0]])
        out = engine.mean(x, axis=0)
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        out = engine.sum(x, axis=1, keepdims=True)
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=16))
    def test_var_matches_two_pass_reference(self, xs):
        x = np.asarray(xs)
        mu = x.sum() / x.size
        ref = ((x - mu) ** 2).sum() / x.size
        got = engine.var(constant(x)).item()
        assert got == pytest.approx(ref, abs=1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter([5.0, 6.0, 7.0])
        with record():
            loss = engine.sum(x)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = parameter([1.0, 2.0])
        with record():
            loss = engine.sum(engine.mul(x, x))
        backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = parameter([1.0, 2.0])
        with record():
            y = engine.mul(x, x)
        with pytest.raises(DimensionError):
            backward(y)

    def test_off_tape_loss_rejected(self):
        x = parameter([[1.0]])
        y = engine.sum(x)  # no tape active
        with pytest.raises(ValueError, match="tape"):
            backward(y)

    def test_second_backward_over_swept_tape_rejected(self):
        x = parameter([1.0, 2.0])
        with record() as tape:
            loss = engine.sum(engine.mul(x, x))
        backward(loss)
        assert len(tape) == 0
        with pytest.raises(ValueError, match="swept"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_first_gradient_of_negative_zero_is_positive_zero(self):
        x = parameter([1.0, 2.0])
        with record():
            loss = engine.sum(engine.mul(x, constant([-0.0, 3.0])))
        backward(loss)
        assert x.grad.tobytes() == np.array([0.0, 3.0]).tobytes()

    def test_first_gradient_broadcasts_into_the_input_shape(self):
        x = parameter(np.ones((2, 3)))
        with record():
            loss = engine._emit("total", (x,), np.asarray(6.0),
                                lambda g: (g,))
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_constant_never_accumulates(self):
        c = constant([1.0, 2.0])
        x = parameter([3.0, 4.0])
        with record():
            loss = engine.sum(engine.mul(x, c))
        backward(loss)
        assert c.grad is None

    def test_accumulation_equals_duplicated_parameters(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-2, 2, size=(3, 3))

        # One tensor used twice...
        x = parameter(vals.copy())
        with record():
            loss = engine.sum(engine.matmul(x, x))
        backward(loss)

        # ...must equal the sum of gradients of two distinct copies.
        x1, x2 = parameter(vals.copy()), parameter(vals.copy())
        with record():
            loss2 = engine.sum(engine.matmul(x1, x2))
        backward(loss2)
        np.testing.assert_allclose(x.grad, x1.grad + x2.grad, rtol=1e-12)


class TestRowOps:
    def test_gather_rows_backward_scatter_adds(self):
        x = parameter(np.arange(6.0).reshape(3, 2))
        idx = np.array([2, 0, 2])
        with record():
            loss = engine.sum(engine.gather_rows(x, idx))
        backward(loss)
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


class TestDense:
    """The fused layer equals matmul + add + batch_norm + relu bit for bit,
    forward and backward."""

    GIVEN = (np.array([0.3, -0.2, 0.1, 0.0, 0.5]),
             np.array([1.5, 0.7, 2.0, 1.0, 0.9]))
    PERM = np.array([5, 2, 7, 0, 3, 6, 1, 4])

    # (groups, stats, perm) per BN variant; None for a layer without BN.
    NORMS = {
        "no-bn": None,
        "groups-1": (1, None, None),
        "groups-2": (2, None, None),
        "groups-4": (4, None, None),
        "given-stats": (1, GIVEN, None),
        "stats-function": (1, "function", None),
        "permutation": (4, "record", PERM),
    }

    def run(self, norm, relu, x_requires_grad=True, fused=True):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=x_requires_grad)
        weight = parameter(rng.normal(size=(3, 5)))
        bias = parameter(rng.normal(size=5))
        gamma = parameter(rng.uniform(0.5, 2.0, size=5))
        beta = parameter(rng.normal(size=5))
        w = constant(rng.normal(size=(8, 5)))
        seen = []
        with record() as tape:
            if norm is None:
                spec = None
            else:
                groups, stats, perm = norm
                if stats == "function":
                    stats = lambda h: seen.append(h.copy()) or self.GIVEN
                elif stats == "record":
                    stats = lambda h: seen.append(h.copy())
                spec = engine.BNSpec(NormParams(gamma, beta), groups, stats,
                                     perm)
            if fused:
                y = engine.dense(x, weight, bias, relu, spec)
            else:
                y = engine.matmul(x, weight) + bias
                if spec is not None:
                    if callable(spec.stats):
                        stats = spec.stats(y.values)
                    else:
                        stats = spec.stats
                    if perm is not None:
                        y = engine.gather_rows(y, perm)
                    y = engine.batch_norm(y, groups, gamma, beta, 1e-5, stats)
                    if perm is not None:
                        y = engine.gather_rows(y, np.argsort(perm))
                if relu:
                    y = engine.relu(y)
            loss = engine.sum(y * w)
        entries = tape.entries
        backward(loss)
        grads = [t.grad for t in (x, weight, bias, gamma, beta)]
        return y.values, grads, seen, entries

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("norm", list(NORMS), ids=list(NORMS))
    def test_equals_composed_ops(self, norm, relu):
        out, grads, seen, entries = self.run(self.NORMS[norm], relu)
        want_out, want_grads, want_seen, _ = self.run(self.NORMS[norm], relu,
                                                      fused=False)
        assert [e.op for e in entries] == ["dense", "mul", "sum"]
        np.testing.assert_array_equal(out, want_out)
        for got, want in zip(grads, want_grads):
            if want is None:  # BN affines of a layer without BN
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
        # A statistics function sees the pre-BN rows in their own order.
        assert len(seen) == len(want_seen)
        for got, want in zip(seen, want_seen):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("norm", ["no-bn", "groups-4", "permutation"])
    def test_no_input_gradient_for_constant_input(self, norm):
        out, grads, _, entries = self.run(self.NORMS[norm], True,
                                          x_requires_grad=False)
        want_out, want_grads, _, _ = self.run(self.NORMS[norm], True,
                                              x_requires_grad=False,
                                              fused=False)
        assert grads[0] is None
        assert entries[0].backward(np.ones_like(out))[0] is None
        np.testing.assert_array_equal(out, want_out)
        for got, want in zip(grads[1:], want_grads[1:]):
            if want is not None:
                np.testing.assert_array_equal(got, want)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="inner dimensions"):
            engine.dense(constant(np.zeros((2, 3))), parameter(np.zeros((2, 3))),
                         parameter(np.zeros(3)), relu=False)


class TestFiniteDiffCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(1)
        w = parameter(rng.uniform(-2, 2, size=(4, 4)))
        a = constant(rng.uniform(-1, 1, size=(4, 4)))

        def f():
            return engine.sum(engine.mul(engine.matmul(w, a), engine.matmul(w, a)))

        report = finite_diff_check(f, [("w", w)])
        assert report.max_rel_error < 1e-6

    def test_constant_function_has_exactly_zero_grads(self):
        w = parameter([1.0, 2.0])

        def f():
            return engine.sum(engine.mul(constant([3.0]), constant([4.0])))

        report = finite_diff_check(f, [("w", w)])
        assert report.per_block["w"] == 0.0
        assert report.passed


def emitted_op_names() -> set:
    """Every op name a module of ``src/m2t`` passes to ``engine._emit``."""
    names = set()
    for path in Path(engine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and node.args and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "_emit":
                op = node.args[0]
                assert isinstance(op, ast.Constant), f"{path.name}: op name"
                names.add(op.value)
    return names


def test_every_op_has_a_gradcheck_suite():
    # Every op that records a tape entry joins the gradient oracle.
    ops = emitted_op_names()
    assert {"dense", "normalized_mse", "info_nce", "cross_entropy"} <= ops
    assert sorted(ops - set(gradcheck.SUITES)) == []


def test_bn_reductions_equal_numpy_mean():
    # _bn spells a.mean(axis) as np.add.reduce(a, axis) / n; the statistics,
    # the output and dx must be the mean-based expressions' bit for bit.
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 5))
    gamma, beta = rng.uniform(0.5, 2.0, size=5), rng.normal(size=5)
    g = rng.normal(size=(12, 5))
    for groups in (1, 3):
        out, bn_backward = engine._bn(x, groups, gamma, beta, 1e-5, None)
        dx, _, _ = bn_backward(g, True)
        x3 = x.reshape(groups, -1, 5)
        mu = x3.mean(axis=1, keepdims=True)
        dev = x3 - mu
        std = np.sqrt(np.mean(dev * dev, axis=1, keepdims=True) + 1e-5)
        xhat = dev / std
        g_hat = g.reshape(x3.shape) * gamma
        g_hat = (g_hat - g_hat.mean(axis=1, keepdims=True)
                 - xhat * (g_hat * xhat).mean(axis=1, keepdims=True))
        np.testing.assert_array_equal(out, (gamma * xhat + beta).reshape(12, 5))
        np.testing.assert_array_equal(dx, ((1.0 / std) * g_hat).reshape(12, 5))


@pytest.mark.parametrize("seed", range(5))
def test_all_ops_gradcheck(seed):
    """Autodiff vs central differences for every differentiable op."""
    rng = np.random.default_rng(seed)
    x = parameter(rng.uniform(-2.0, 2.0, size=(3, 4)))
    y = parameter(rng.uniform(0.2, 2.0, size=(3, 4)))  # positive: sqrt/log/div
    w = parameter(rng.uniform(-2.0, 2.0, size=(4, 2)))
    gamma = parameter(rng.uniform(0.5, 2.0, size=4))
    beta = parameter(rng.uniform(-1.0, 1.0, size=4))

    cases = {
        "add": lambda: engine.sum(engine.add(x, y)),
        "sub": lambda: engine.sum(engine.mul(engine.sub(x, y), engine.sub(x, y))),
        "mul": lambda: engine.sum(engine.mul(x, y)),
        "div": lambda: engine.sum(engine.div(x, y)),
        "relu": lambda: engine.sum(engine.relu(x)),
        "sqrt": lambda: engine.sum(engine.sqrt(y)),
        "exp": lambda: engine.sum(engine.exp(x)),
        "log": lambda: engine.sum(engine.log(y)),
        "neg": lambda: engine.sum(engine.mul(engine.neg(x), x)),
        "matmul": lambda: engine.sum(engine.mul(engine.matmul(x, w), engine.matmul(x, w))),
        "mean": lambda: engine.mean(engine.mul(x, x)),
        "var": lambda: engine.sum(engine.var(x, axis=0)),
        "batch_norm": lambda: engine.sum(engine.mul(engine.batch_norm(x, 1, gamma, beta, 1e-5), y)),
        "gather": lambda: engine.sum(engine.mul(engine.gather_rows(x, np.array([0, 2, 2])), 2.0)),
    }
    for name, f in cases.items():
        report = finite_diff_check(f, [("x", x), ("y", y), ("w", w),
                                       ("gamma", gamma), ("beta", beta)])
        assert report.passed, f"{name}: {report.per_block}"


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(8, 8))
    b = rng.uniform(-2, 2, size=(8, 8))

    def run():
        out = engine.matmul(constant(a), constant(b))
        out = engine.relu(out)
        out = engine.mean(out, axis=0)
        return out.values.tobytes()

    assert run() == run()


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6))
def test_broadcast_matches_numpy_on_valid_shapes(n, c):
    rng = np.random.default_rng(n * 7 + c)
    x = rng.normal(size=(n, c))
    v = rng.normal(size=(c,))
    out = engine.add(constant(x), constant(v))
    np.testing.assert_array_equal(out.values, x + v)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2t import engine
from m2t.engine import (
    DimensionError,
    Tensor,
    backward,
    constant,
    finite_diff_check,
    parameter,
    record,
)


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

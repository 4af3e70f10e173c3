import ast
import gc
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2t import engine, gradcheck
from m2t.engine import DimensionError, GradCheckReport, finite_diff_check
from m2t.normalization import NormParams, constant_batch_stats

import engine_reference as ref
from engine_reference import Tensor, backward, constant, parameter, record


class TestMatmul:
    def test_identity(self):
        a = constant([[1.0, 0.0], [0.0, 1.0]])
        b = constant([[3.0, 4.0], [5.0, 6.0]])
        out = ref.matmul(a, b)
        np.testing.assert_array_equal(out.values, [[3.0, 4.0], [5.0, 6.0]])

    def test_row_times_column(self):
        out = ref.matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ref.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        a = parameter([[1.0, 2.0]])
        b = constant([[3.0], [4.0]])

        def f():
            return ref.matmul(a, b)

        report = finite_diff_check(*ref.check_case(f, [("a", a)]), h=1e-6)
        assert GradCheckReport.passes(report.max_rel_error, report.tol)
        a.zero_grad()
        with record():
            out = f()
        backward(out)  # a 1x1 output: the seed defaults to ones
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]], rtol=1e-12)


class TestElementwise:
    def test_relu(self):
        out = ref.relu(constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_add(self):
        out = ref.add(constant([1.0, 2.0]), constant([3.0, 4.0]))
        np.testing.assert_array_equal(out.values, [4.0, 6.0])

    def test_relu_gradient_tie_at_zero(self):
        x = parameter([-1.0, 0.0, 2.0])
        with record():
            loss = ref.sum(ref.relu(x))
        backward(loss)
        # The tie at zero passes no gradient by convention; asserted exactly.
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_incompatible_broadcast_raises(self):
        with pytest.raises(DimensionError, match="broadcast"):
            ref.add(constant(np.zeros(3)), constant(np.zeros(4)))

    def test_row_vector_broadcast(self):
        x = constant(np.arange(6.0).reshape(2, 3))
        b = constant([10.0, 20.0, 30.0])
        out = ref.add(x, b)
        np.testing.assert_array_equal(out.values, x.values + b.values)

    def test_broadcast_gradient_sums_over_expanded_axis(self):
        b = parameter([1.0, 2.0, 3.0])
        x = constant(np.ones((4, 3)))
        with record():
            loss = ref.sum(ref.mul(x, b))
        backward(loss)
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])


class TestReduce:
    def test_mean(self):
        assert ref.mean(constant([1.0, 2.0, 3.0])).item() == 2.0

    def test_var_is_biased(self):
        # 1/m sum of squared deviations: ((1)^2 + 0 + 1^2) / 3.
        assert ref.var(constant([1.0, 2.0, 3.0])).item() == pytest.approx(2.0 / 3.0)

    def test_var_constant_input(self):
        assert ref.var(constant([7.0, 7.0, 7.0])).item() == 0.0

    def test_empty_reduction(self):
        with pytest.raises(ValueError, match="empty reduction"):
            ref.mean(constant(np.zeros((0, 3))), axis=0)

    def test_axis_and_keepdims(self):
        x = constant([[1.0, 2.0], [3.0, 4.0]])
        out = ref.mean(x, axis=0)
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        out = ref.sum(x, axis=1, keepdims=True)
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=16))
    def test_var_matches_two_pass_reference(self, xs):
        x = np.asarray(xs)
        mu = x.sum() / x.size
        want = ((x - mu) ** 2).sum() / x.size
        got = ref.var(constant(x)).item()
        assert got == pytest.approx(want, abs=1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter([5.0, 6.0, 7.0])
        with record():
            loss = ref.sum(x)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = parameter([1.0, 2.0])
        with record():
            loss = ref.sum(ref.mul(x, x))
        backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = parameter([1.0, 2.0])
        with record():
            y = ref.mul(x, x)
        with pytest.raises(DimensionError, match="seed"):
            backward(y)

    def test_seed_of_another_shape_rejected(self):
        x = parameter([1.0, 2.0])
        for seed in (np.ones(3), np.ones((2, 1)), np.float64(1.0)):
            with record():
                y = ref.mul(x, x)
            with pytest.raises(DimensionError, match="seed"):
                backward(y, seed=seed)
        with record():
            loss = ref.sum(ref.mul(x, x))
        with pytest.raises(DimensionError, match="seed"):
            backward(loss, seed=np.ones(1))
        assert x.grad is None

    def test_off_tape_loss_rejected(self):
        x = parameter([[1.0]])
        y = ref.sum(x)  # no tape active
        with pytest.raises(ValueError, match="tape"):
            backward(y)

    def test_second_backward_over_swept_tape_rejected(self):
        x = parameter([1.0, 2.0])
        with record() as tape:
            loss = ref.sum(ref.mul(x, x))
        backward(loss)
        assert len(tape) == 0
        with pytest.raises(ValueError, match="swept"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_first_gradient_of_negative_zero_is_positive_zero(self):
        x = parameter([1.0, 2.0])
        with record():
            loss = ref.sum(ref.mul(x, constant([-0.0, 3.0])))
        backward(loss)
        assert x.grad.tobytes() == np.array([0.0, 3.0]).tobytes()

    def test_first_gradient_broadcasts_into_the_input_shape(self):
        x = parameter(np.ones((2, 3)))
        with record():
            loss = ref._emit("total", (x,), np.asarray(6.0), lambda g: (g,))
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_constant_never_accumulates(self):
        c = constant([1.0, 2.0])
        x = parameter([3.0, 4.0])
        with record():
            loss = ref.sum(ref.mul(x, c))
        backward(loss)
        assert c.grad is None

    def test_accumulation_equals_duplicated_parameters(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-2, 2, size=(3, 3))

        # One tensor used twice...
        x = parameter(vals.copy())
        with record():
            loss = ref.sum(ref.matmul(x, x))
        backward(loss)

        # ...must equal the sum of gradients of two distinct copies.
        x1, x2 = parameter(vals.copy()), parameter(vals.copy())
        with record():
            loss2 = ref.sum(ref.matmul(x1, x2))
        backward(loss2)
        np.testing.assert_allclose(x.grad, x1.grad + x2.grad, rtol=1e-12)


class TestRowOps:
    def test_gather_rows_backward_scatter_adds(self):
        x = parameter(np.arange(6.0).reshape(3, 2))
        idx = np.array([2, 0, 2])
        with record():
            loss = ref.sum(ref.gather_rows(x, idx))
        backward(loss)
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


class TestDense:
    """The fused layer equals the composed matmul + add + batch_norm + relu
    bit for bit, forward and backward."""

    GIVEN = (np.array([0.3, -0.2, 0.1, 0.0, 0.5]),
             np.array([1.5, 0.7, 2.0, 1.0, 0.9]))
    PERM = np.array([5, 2, 7, 0, 3, 6, 1, 4])
    # An op that reorders rows is tested at small batches too: under
    # OpenBLAS a product's last bits can depend on row position at 6 and at
    # 10 rows.
    PERM_6 = np.array([4, 0, 5, 2, 1, 3])
    PERM_10 = np.array([7, 2, 9, 0, 5, 3, 8, 1, 6, 4])

    # (groups, stats, perm) per BN variant; None for a layer without BN.
    NORMS = {
        "no-bn": None,
        "groups-1": (1, None, None),
        "groups-2": (2, None, None),
        "groups-4": (4, None, None),
        "given-stats": (1, GIVEN, None),
        "stats-function": (1, "function", None),
        "permutation": (4, "record", PERM),
        "permutation-6-rows": (2, "record", PERM_6),
        "permutation-10-rows": (5, "record", PERM_10),
    }

    @staticmethod
    def rows(norm) -> int:
        """A permutation's length, else 8."""
        return 8 if norm is None or norm[2] is None else len(norm[2])

    @staticmethod
    def inputs(rows, x_requires_grad=True, fan_in=3, fan_out=5) -> tuple:
        """``(x, weight, bias, gamma, beta, w)`` for a (rows, fan_in) input
        to a fan_out-wide layer; ``w`` is the upstream weight of the
        output."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(rows, fan_in)),
                   requires_grad=x_requires_grad)
        weight = parameter(rng.normal(size=(fan_in, fan_out)))
        bias = parameter(rng.normal(size=fan_out))
        gamma = parameter(rng.uniform(0.5, 2.0, size=fan_out))
        beta = parameter(rng.normal(size=fan_out))
        w = constant(rng.normal(size=(rows, fan_out)))
        return x, weight, bias, gamma, beta, w

    def spec(self, norm, gamma, beta, seen):
        """The layer's BNSpec; statistics functions append the rows they
        see to ``seen``."""
        if norm is None:
            return None
        groups, stats, perm = norm
        if stats == "function":
            stats = lambda h: seen.append(h.copy()) or self.GIVEN
        elif stats == "record":
            stats = lambda h: seen.append(h.copy())
        return engine.BNSpec(NormParams(gamma, beta), groups, stats, perm)

    def run(self, norm, relu, x_requires_grad=True, fused=True,
            seeded=False):
        """(output, gradients, rows a statistics function saw, tape
        entries) for a batch of :meth:`rows` rows; backward runs from
        ``sum(mul(y, w))``, or from ``y`` seeded with ``w`` when
        ``seeded``."""
        x, weight, bias, gamma, beta, w = self.inputs(self.rows(norm),
                                                      x_requires_grad)
        seen = []
        with record() as tape:
            spec = self.spec(norm, gamma, beta, seen)
            if fused:
                y = ref.dense(x, weight, bias, relu, spec)
            else:
                y = ref.add(ref.matmul(x, weight), bias)
                if spec is not None:
                    groups, perm = spec.groups, spec.perm
                    if callable(spec.stats):
                        stats = spec.stats(y.values)
                    else:
                        stats = spec.stats
                    if perm is not None:
                        y = ref.gather_rows(y, perm)
                    y = ref.batch_norm(y, groups, gamma, beta, 1e-5, stats)
                    if perm is not None:
                        y = ref.gather_rows(y, np.argsort(perm))
                if relu:
                    y = ref.relu(y)
            if not seeded:
                loss = ref.sum(ref.mul(y, w))
        entries = tape.entries
        if seeded:
            backward(y, seed=w.values)
        else:
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

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("norm", list(NORMS), ids=list(NORMS))
    def test_seeded_backward_equals_weighted_sum(self, norm, relu):
        # backward(y, seed=w) is the backward of sum(mul(y, w)), bit for bit.
        out, grads, _, entries = self.run(self.NORMS[norm], relu, seeded=True)
        want_out, want_grads, _, _ = self.run(self.NORMS[norm], relu)
        assert [e.op for e in entries] == ["dense"]
        np.testing.assert_array_equal(out, want_out)
        for got, want in zip(grads, want_grads):
            if want is None:
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("seeded", [False, True], ids=["loss", "seeded"])
    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("norm", list(NORMS), ids=list(NORMS))
    def test_writes_only_buffers_it_owns(self, norm, relu, seeded):
        # The layer normalizes in its own buffers and may scale a gradient
        # in place only where it made the copy: no input, given statistic,
        # upstream gradient or forward output changes under it.
        norm = self.NORMS[norm]
        x, weight, bias, gamma, beta, w = self.inputs(self.rows(norm))
        with record():
            spec = self.spec(norm, gamma, beta, [])
            held = [t.values for t in (x, weight, bias, gamma, beta, w)]
            if spec is not None and isinstance(spec.stats, tuple):
                held += spec.stats
            before = [a.tobytes() for a in held]
            y = ref.dense(x, weight, bias, relu, spec)
            if not seeded:
                loss = ref.sum(ref.mul(y, w))
        out = y.values.tobytes()
        if seeded:
            backward(y, seed=w.values)
        else:
            backward(loss)
        assert [a.tobytes() for a in held] == before
        assert y.values.tobytes() == out
        # The layer's upstream gradient is w either way, and stays w.
        assert y.grad.tobytes() == w.values.tobytes()

    # Beside NORMS, given statistics with one row per group: two groups
    # per view, each view its own rows.
    VIEW_NORMS = dict(NORMS, **{"given-stats-per-group": (2, "per-group",
                                                          None)})

    def view_spec(self, norm, view, gamma, beta, seen):
        """The BNSpec of ``norm`` for view 0 or 1 alone (``view``), or for
        the stack of both views (``view`` None): groups count per view,
        per-group statistics have a row per group of every view, and the
        permutation applies to each view."""
        if norm is None:
            return None
        groups, stats, perm = norm
        views = [0, 1] if view is None else [view]
        if stats == "per-group":
            rng = np.random.default_rng(5)
            mean, var = rng.normal(size=(4, 5)), rng.uniform(0.5, 2.0, (4, 5))
            rows = [2 * v + i for v in views for i in (0, 1)]
            stats = (mean[rows], var[rows])
        elif stats in ("function", "record"):
            given = self.GIVEN if stats == "function" else None
            stats = lambda h: seen.append(h.copy()) or given
        return engine.BNSpec(NormParams(gamma, beta), groups, stats, perm)

    # (rows per view, fan_in, fan_out) where, under OpenBLAS, one product
    # over the stacked rows rounds differently from one per view: the
    # forward at 64 -> 10, and dx at 64 -> 64. Each runs without BN and
    # with one BN group per view.
    BLAS_SHAPES = ((3, 64, 10), (6, 64, 10), (10, 64, 10), (10, 64, 64),
                   (16, 64, 64))
    VIEW_CASES = [(norm, relu, None) for norm in VIEW_NORMS
                  for relu in (False, True)] + [
        (norm, relu, shape) for shape in BLAS_SHAPES
        for norm in ("no-bn", "groups-1") for relu in (False, True)]

    @pytest.mark.parametrize("norm, relu, shape", VIEW_CASES, ids=[
        f"{norm}-{'relu' if relu else 'linear'}"
        + ("" if shape is None else "-{}-rows-{}x{}".format(*shape))
        for norm, relu, shape in VIEW_CASES])
    def test_two_views_equal_one_call_per_view(self, norm, relu, shape):
        # One call over the (2, n, C) stack of both views against one call
        # per view, each view its own input tensor: the output and dx are
        # the per-view ones stacked, and every parameter gradient is the
        # per-view sum the tape accumulates, bit for bit.
        norm = self.VIEW_NORMS[norm]
        n, *widths = shape or (self.rows(norm),)
        x, weight, bias, gamma, beta, w = self.inputs(2 * n, True, *widths)
        halves = [slice(0, n), slice(n, 2 * n)]
        params = (weight, bias, gamma, beta)

        def run(stacked: bool) -> tuple:
            seen = []
            inputs = [Tensor(x.values.reshape(2, n, -1), requires_grad=True)] \
                if stacked else [
                    Tensor(x.values[rows].copy(), requires_grad=True)
                    for rows in halves]
            for t in params:
                t.zero_grad()
            with record():
                if stacked:
                    ys = [ref.dense(inputs[0], weight, bias, relu,
                                       self.view_spec(norm, None, gamma, beta,
                                                      seen))]
                    loss = ref.sum(ref.mul(ys[0], w.values.reshape(2, n, -1)))
                else:
                    ys = [ref.dense(t, weight, bias, relu,
                                       self.view_spec(norm, view, gamma, beta,
                                                      seen))
                          for view, t in enumerate(inputs)]
                    loss = ref.add(*(
                        ref.sum(ref.mul(y, constant(w.values[rows])))
                        for y, rows in zip(ys, halves)))
            backward(loss)
            # Bytes compare a (2, n, C) stack with the (2n, C) per-view rows.
            out = np.concatenate([y.values for y in ys])
            dx = np.concatenate([t.grad for t in inputs])
            grads = [None if t.grad is None else t.grad.copy()
                     for t in params]
            seen = np.concatenate(seen) if seen else None
            return out, dx, grads, seen

        want = run(stacked=False)
        got = run(stacked=True)
        for a, b in zip(got[:2], want[:2]):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(got[2], want[2]):
            assert (a is None) == (b is None)
            assert a is None or a.tobytes() == b.tobytes()
        # A statistics function sees every view's pre-BN rows at once.
        assert (got[3] is None) == (want[3] is None)
        assert got[3] is None or got[3].tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((3,), (3, 2)), ((1, 2, 5, 3), (3, 2)), ((5, 3), (3,)),
        ((2, 5, 3), (1, 3, 2))])
    def test_input_neither_rows_nor_a_stack_rejected(self, x_shape, w_shape):
        with pytest.raises(DimensionError, match="2-D or stacked 3-D"):
            engine.dense(np.zeros(x_shape), np.zeros(w_shape), np.zeros(2),
                         relu=False)

    @pytest.mark.parametrize("rows", [1, 2, 6])
    def test_given_stats_of_neither_c_nor_a_row_per_group_rejected(self,
                                                                  rows):
        # Two views of two groups take 4 rows of statistics, or one per
        # channel; one row per view is not one per group.
        x, weight, bias, gamma, beta, _ = self.inputs(8)
        stats = (np.zeros((rows, 5)), np.ones((rows, 5)))
        spec = engine.BNSpec(NormParams(gamma, beta), 2, stats)
        with pytest.raises(DimensionError, match="stats of shapes"):
            engine.dense(x.values.reshape(2, 4, 3), weight.values,
                         bias.values, False, spec)

    @pytest.mark.parametrize("length", [3, 8])
    def test_permutation_not_of_the_rows_per_view_rejected(self, length):
        # A stack of two 4-row views takes a permutation of 4 rows.
        x, weight, bias, gamma, beta, _ = self.inputs(8)
        spec = engine.BNSpec(NormParams(gamma, beta), 1,
                             perm=np.arange(length)[::-1])
        with pytest.raises(DimensionError, match="4 rows per view"):
            engine.dense(x.values.reshape(2, 4, 3), weight.values,
                         bias.values, False, spec)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="inner dimensions"):
            engine.dense(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3),
                         relu=False)


class TestFiniteDiffCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(1)
        w = parameter(rng.uniform(-2, 2, size=(4, 4)))
        a = constant(rng.uniform(-1, 1, size=(4, 4)))

        def f():
            return ref.sum(ref.mul(ref.matmul(w, a), ref.matmul(w, a)))

        report = finite_diff_check(*ref.check_case(f, [("w", w)]))
        assert report.max_rel_error < 1e-6

    def test_constant_function_has_exactly_zero_grads(self):
        w = parameter([1.0, 2.0])

        def f():
            return ref.sum(ref.mul(constant([3.0]), constant([4.0])))

        report = finite_diff_check(*ref.check_case(f, [("w", w)]))
        assert report.per_block["w"] == 0.0
        assert GradCheckReport.passes(report.max_rel_error, report.tol)


def emitted_op_names(path) -> set:
    """Every op name the module at ``path`` records with ``_emit`` or
    ``recorded`` under a literal name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and node.args and getattr(
                node.func, "id", None) in ("_emit", "recorded") \
                and isinstance(node.args[0], ast.Constant):
            names.add(node.args[0].value)
    return names


def test_every_op_has_a_gradcheck_suite():
    # The engine's public functions are exactly the ops a run executes, its
    # gradient check and unit_rows, and each op has a suite in
    # m2t.gradcheck; the reference records exactly those ops too, and each
    # composed op of it has a suite beside it.
    public = {name for name, value in vars(engine).items()
              if inspect.isfunction(value) and not name.startswith("_")
              and value.__module__ == engine.__name__}
    ops = public - {"finite_diff_check", "unit_rows"}
    assert ops == {"batch_norm", "dense", "normalized_mse", "info_nce",
                   "cross_entropy"}
    assert sorted(ops - set(gradcheck.SUITES)) == []
    recorded = emitted_op_names(Path(ref.__file__))
    assert recorded == ops | set(ref.SUITES)


def test_references_share_no_private_engine_name():
    # An oracle that imports the program's shape check or ReLU mask would
    # agree with the ops it checks on exactly what it should test: no
    # reference module imports a private name of m2t.engine or reaches one
    # through ``engine.``.
    shared = []
    for path in sorted(Path(ref.__file__).parent.glob("*_reference.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "m2t.engine"):
                shared += [f"{path.name}: {alias.name}"
                           for alias in node.names
                           if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "engine" and node.attr.startswith("_")):
                shared.append(f"{path.name}: engine.{node.attr}")
    assert shared == []


@pytest.mark.parametrize("name", list(ref.SUITES))
def test_reference_suite_passes(name):
    worst = gradcheck.run_suite(ref.SUITES[name], trials=100, h=1e-5,
                                tol=1e-4)
    assert worst <= 1e-4


def test_reference_suite_fails_on_a_wrong_backward(monkeypatch):
    # Negative control: the reference relu with a corrupted gradient mask.
    monkeypatch.setattr(ref, "_relu_grad_mask",
                        lambda values: (values > 0.0) * 2.0)
    assert not gradcheck.run_suite(ref.SUITES["relu"], trials=2) <= 1e-4


def test_bn_reductions_equal_numpy_mean():
    # _bn spells a.mean(axis) as np.add.reduce(a, axis) / n; the statistics,
    # the output and dx must be the mean-based expressions' bit for bit.
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 5))
    gamma, beta = rng.uniform(0.5, 2.0, size=5), rng.normal(size=5)
    g = rng.normal(size=(12, 5))
    for groups in (1, 3):
        out, bn_backward, _ = engine._bn(x, groups, gamma, beta, 1e-5, None)
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


@pytest.mark.parametrize("x_grad", [False, True], ids=["data", "param"])
@pytest.mark.parametrize("given", [True, False], ids=["given", "batch"])
def test_batch_norm_writes_no_input(given, x_grad):
    # With given statistics and data features, as the linear probe calls it
    # (a training step through backward, then an inference pass without a
    # tape), and with batch statistics and an input gradient as well.
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=x_grad)
    gamma = parameter(rng.uniform(0.5, 2.0, size=4))
    beta = parameter(rng.normal(size=4))
    stats = (rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
    g = rng.normal(size=(6, 4))
    held = [x.values, gamma.values, beta.values, *stats, g]
    before = [a.tobytes() for a in held]
    stats = stats if given else None
    with record():
        y = ref.batch_norm(x, 2, gamma, beta, 1e-5, stats=stats)
    out = y.values.tobytes()
    backward(y, seed=g)
    inferred, _, _ = engine.batch_norm(x.values, 2, gamma.values,
                                       beta.values, 1e-5, stats=stats)
    assert [a.tobytes() for a in held] == before
    assert y.values.tobytes() == out == inferred.tobytes()
    assert y.grad.tobytes() == g.tobytes()


@pytest.mark.parametrize("groups", [1, 2])
def test_batch_norm_returns_each_groups_batch_stats(groups):
    # The statistics batch_norm normalized with are those of its own
    # groups' rows, bit for bit: the probe commits them to its history.
    rng = np.random.default_rng(14)
    x = 3.0 * rng.normal(size=(12, 5)) + 1.0
    gamma, beta = rng.uniform(0.5, 2.0, size=5), rng.normal(size=5)
    _, _, (mean, var) = engine.batch_norm(x, groups, gamma, beta, 1e-5)
    want = [constant_batch_stats(rows) for rows in np.split(x, groups)]
    assert mean.shape == var.shape == (groups, 5)
    assert mean.tobytes() == np.stack([m for m, _ in want]).tobytes()
    assert var.tobytes() == np.stack([v for _, v in want]).tobytes()
    given = (mean[0], var[0])
    assert engine.batch_norm(x, groups, gamma, beta, 1e-5, given)[2] is given


def test_bn_backward_does_not_keep_its_input_alive():
    # The backward needs the pre-BN activation's shape, not the array: once
    # the caller drops it, it is freed while the backward still lives.
    rng = np.random.default_rng(12)
    gamma, beta = np.ones(3), np.zeros(3)
    for stats in (None, (np.zeros(3), np.ones(3))):
        x = rng.normal(size=(8, 3))
        alive = weakref.ref(x)
        out, bn_backward, _ = engine._bn(x, 2, gamma, beta, 1e-5, stats)
        del x
        gc.collect()
        assert alive() is None
        dx, dgamma, dbeta = bn_backward(np.ones_like(out), True)
        assert dx.shape == (8, 3) and dgamma.shape == dbeta.shape == (3,)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(8, 8))
    b = rng.uniform(-2, 2, size=(8, 8))

    def run():
        out = ref.matmul(constant(a), constant(b))
        out = ref.relu(out)
        out = ref.mean(out, axis=0)
        return out.values.tobytes()

    assert run() == run()


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6))
def test_broadcast_matches_numpy_on_valid_shapes(n, c):
    rng = np.random.default_rng(n * 7 + c)
    x = rng.normal(size=(n, c))
    v = rng.normal(size=(c,))
    for op, np_op in ((ref.add, np.add), (ref.sub, np.subtract),
                      (ref.mul, np.multiply), (ref.div, np.divide)):
        out = op(constant(x), constant(v))
        np.testing.assert_array_equal(out.values, np_op(x, v))

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from m2t.schedules import (
    ScheduleSpec,
    apply_linear_scaling,
    cosine_value,
    schedule_at,
)


class TestCosineValue:
    def test_start_is_base(self):
        assert cosine_value(1.0, 0, 100) == 1.0

    def test_end_is_zero(self):
        assert cosine_value(1.0, 100, 100) == pytest.approx(0.0, abs=1e-16)

    def test_midpoint_halves_base(self):
        assert cosine_value(0.032, 50, 100) == pytest.approx(0.016, abs=1e-15)

    def test_overrun_clamps_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="m2t.schedules"):
            v = cosine_value(1.0, 120, 100)
        assert v == pytest.approx(0.0, abs=1e-16)
        assert any("clamping" in r.message for r in caplog.records)

    @given(st.integers(1, 500), st.integers(1, 500))
    def test_monotone_nonincreasing(self, a, b):
        total = 500
        lo, hi = sorted((a, b))
        assert cosine_value(0.7, lo, total) >= cosine_value(0.7, hi, total)


class TestLrAt:
    """schedule_at on learning-rate specs: warmup ramp, then the decay."""

    def test_warmup_start(self):
        spec = ScheduleSpec(base=0.1, total_steps=1000, warmup_steps=100,
                            warmup_factor=0.001)
        assert schedule_at(spec, 0) == pytest.approx(1e-4)

    def test_warmup_end_is_base_exactly(self):
        spec = ScheduleSpec(base=0.1, total_steps=1000, warmup_steps=100,
                            warmup_factor=0.001)
        assert schedule_at(spec, 100) == 0.1

    def test_final_step_is_zero(self):
        spec = ScheduleSpec(base=0.1, total_steps=1000, warmup_steps=100,
                            warmup_factor=0.001)
        assert schedule_at(spec, 1000) == pytest.approx(0.0, abs=1e-17)

    def test_continuous_at_junction(self):
        spec = ScheduleSpec(base=0.4, total_steps=200, warmup_steps=20,
                            warmup_factor=0.01)
        just_before = schedule_at(spec, 19)
        at = schedule_at(spec, 20)
        assert at == 0.4
        assert just_before < at
        assert at - just_before < 0.4 / 20 + 1e-12

    def test_constant_kind_holds_base(self):
        spec = ScheduleSpec(base=0.25, total_steps=100, kind="constant")
        assert schedule_at(spec, 0) == 0.25
        assert schedule_at(spec, 99) == 0.25
        assert schedule_at(spec, 50) == 0.25

    def test_no_warmup_starts_at_base(self):
        spec = ScheduleSpec(base=0.3, total_steps=50)
        assert schedule_at(spec, 0) == 0.3

    def test_warmup_free_spec_is_the_cosine_exactly(self):
        # The EMA and blend coefficients: the decay alone, to the bit.
        spec = ScheduleSpec(base=0.996, total_steps=50)
        assert all(schedule_at(spec, k) == cosine_value(0.996, k, 50)
                   for k in range(51))


class TestLinearScaling:
    def test_doubling(self):
        assert apply_linear_scaling(0.1, 0.032, 2) == (0.2, 0.064)

    def test_identity(self):
        assert apply_linear_scaling(0.1, 0.032, 1) == (0.1, 0.032)

    def test_large_batch_bases(self):
        lr, m = apply_linear_scaling(0.3, 0.01, 4)
        assert lr == pytest.approx(1.2)
        assert m == pytest.approx(0.04)

    def test_clamp_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="m2t.schedules"):
            _, m = apply_linear_scaling(0.1, 0.5, 4)
        assert m == 1.0
        assert any("clamping" in r.message for r in caplog.records)

    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0))
    def test_multiplicative_before_clamp(self, k1, k2):
        lr0, m0 = 0.05, 0.001
        lr_a, m_a = apply_linear_scaling(*apply_linear_scaling(lr0, m0, k1), k2)
        lr_b, m_b = apply_linear_scaling(lr0, m0, k1 * k2)
        assert lr_a == pytest.approx(lr_b, rel=1e-12)
        assert m_a == pytest.approx(m_b, rel=1e-12)


class TestSpecValidation:
    def test_warmup_must_be_shorter_than_run(self):
        with pytest.raises(ValueError, match="warmup_steps"):
            ScheduleSpec(base=0.1, total_steps=10, warmup_steps=10)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            ScheduleSpec(base=-0.1, total_steps=10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScheduleSpec(base=0.1, total_steps=10, kind="linear")

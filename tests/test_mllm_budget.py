"""Property test: the closed-form frame budget equals a scan of the ledger."""

from dataclasses import replace

import pytest

from lvxattn.mllm import (ActivationPolicy, ToyMllmConfig, analytic_ledger,
                          max_frames_under_budget)

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402


@st.composite
def small_configs(draw):
    blocks = draw(st.integers(0, 4))
    positions = draw(st.lists(st.integers(0, max(blocks - 1, 0)), unique=True,
                              max_size=blocks))
    return ToyMllmConfig(num_lm_blocks=blocks, ca_positions=tuple(positions),
                         d_embed=draw(st.integers(1, 8)), h=draw(st.integers(1, 3)),
                         d=draw(st.integers(1, 4)), frames=draw(st.integers(0, 5)),
                         tokens_per_frame=draw(st.integers(1, 8)),
                         s_q=draw(st.integers(1, 8)),
                         dtype=draw(st.sampled_from(["f32", "f64"])))


@settings(max_examples=300, deadline=None)
@given(config=small_configs(), policy=st.sampled_from(list(ActivationPolicy)),
       frames=st.integers(0, 40), slack=st.integers(-64, 64))
def test_max_frames_equals_ledger_scan(config, policy, frames, slack):
    def peak(f: int) -> int:
        return analytic_ledger(replace(config, frames=f), policy).peak_total

    # budgets at and around the exact peak of some frame count
    budget = max(1, peak(frames) + slack)
    fits = 0
    while peak(fits + 1) <= budget:
        fits += 1
    assert max_frames_under_budget(config, policy, budget) == fits

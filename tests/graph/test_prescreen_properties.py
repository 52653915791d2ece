"""Property tests for the prescreen affinity kernel.

The kernel's contract (symmetry, self-affinity at the ceiling,
invariance to sample order and token labels, purity, and the documented
degenerate value for unmeasurable inputs) is what the equivalence wall
in ``test_prescreen_equivalence.py`` leans on; Hypothesis searches for
corpora that break it.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.prescreen import (
    DEGENERATE_AFFINITY,
    PRESCREEN_METHODS,
    PrescreenConfig,
    pair_affinity,
)
from repro.translation.bleu import mapping_proxy_scores

SETTINGS = settings(max_examples=60, deadline=None)

methods = st.sampled_from(PRESCREEN_METHODS)


@st.composite
def aligned_corpora(draw):
    """Two aligned corpora of uniform-length integer-token sentences."""
    length = draw(st.integers(1, 5))
    count = draw(st.integers(1, 8))
    token = st.integers(0, 4)
    sentence = st.lists(token, min_size=length, max_size=length).map(tuple)
    corpus = st.lists(sentence, min_size=count, max_size=count)
    return draw(corpus), draw(corpus)


class TestKernelProperties:
    @SETTINGS
    @given(corpora=aligned_corpora(), method=methods)
    def test_symmetric(self, corpora, method):
        left, right = corpora
        config = PrescreenConfig(method=method)
        # The proxy swaps its two directional statistics exactly.
        assert pair_affinity(left, right, config) == pair_affinity(right, left, config)

    @SETTINGS
    @given(corpora=aligned_corpora(), method=methods)
    def test_bounded_and_self_affinity_maximal(self, corpora, method):
        left, right = corpora
        config = PrescreenConfig(method=method)
        cross = pair_affinity(left, right, config)
        assert 0.0 <= cross <= 100.0
        # A sensor translated into itself is perfectly predictable:
        # self-affinity sits at the top of the scale, above any pair.
        assert pair_affinity(left, left, config) == DEGENERATE_AFFINITY
        assert pair_affinity(left, left, config) >= cross

    @SETTINGS
    @given(corpora=aligned_corpora(), method=methods, seed=st.integers(0, 2**16))
    def test_sample_order_invariant(self, corpora, method, seed):
        import random

        left, right = corpora
        order = list(range(len(left)))
        random.Random(seed).shuffle(order)
        shuffled_left = [left[i] for i in order]
        shuffled_right = [right[i] for i in order]
        config = PrescreenConfig(method=method)
        base = pair_affinity(left, right, config)
        assert pair_affinity(shuffled_left, shuffled_right, config) == base

    @SETTINGS
    @given(corpora=aligned_corpora(), method=methods)
    def test_token_label_invariant(self, corpora, method):
        # The affinity reads co-occurrence structure, not token values:
        # any injective relabelling of either alphabet preserves it.
        relabel = {value: f"token-{value * 7 + 3}" for value in range(5)}
        left, right = corpora
        renamed_left = [tuple(relabel[t] for t in s) for s in left]
        renamed_right = [tuple(relabel[t] for t in s) for s in right]
        config = PrescreenConfig(method=method)
        base = pair_affinity(left, right, config)
        renamed = pair_affinity(renamed_left, renamed_right, config)
        assert math.isclose(base, renamed, rel_tol=1e-9, abs_tol=1e-9)

    @SETTINGS
    @given(corpora=aligned_corpora(), method=methods)
    def test_pure(self, corpora, method):
        left, right = corpora
        first = pair_affinity(left, right, PrescreenConfig(method=method))
        second = pair_affinity(list(left), list(right), PrescreenConfig(method=method))
        assert first == second

    @SETTINGS
    @given(corpora=aligned_corpora())
    def test_directional_scores_swap_exactly(self, corpora):
        left, right = corpora
        forward, reverse = mapping_proxy_scores(left, right)
        swapped_forward, swapped_reverse = mapping_proxy_scores(right, left)
        assert forward == swapped_reverse
        assert reverse == swapped_forward


class TestDegenerateInputs:
    """Unmeasurable pairs land on the documented ceiling, never raise."""

    def test_empty_corpora(self):
        for method in PRESCREEN_METHODS:
            config = PrescreenConfig(method=method)
            assert pair_affinity([], [], config) == DEGENERATE_AFFINITY
            assert pair_affinity([(1, 2)], [], config) == DEGENERATE_AFFINITY

    def test_zero_length_sentences(self):
        for method in PRESCREEN_METHODS:
            config = PrescreenConfig(method=method)
            assert pair_affinity([()], [()], config) == DEGENERATE_AFFINITY

    def test_constant_sensor(self):
        constant = [(0, 0, 0)] * 4
        varied = [(1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 1)]
        # A constant target is perfectly translatable: the kernel
        # scores it at the ceiling through its normal path, so the pair
        # is kept.
        for method in PRESCREEN_METHODS:
            config = PrescreenConfig(method=method)
            assert pair_affinity(varied, constant, config) == DEGENERATE_AFFINITY
            assert pair_affinity(constant, varied, config) == DEGENERATE_AFFINITY

    def test_disjoint_alphabets_measured_not_degenerate(self):
        left = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
        right = [(10, 20), (20, 10), (10, 20), (20, 20)]
        for method in PRESCREEN_METHODS:
            value = pair_affinity(left, right, PrescreenConfig(method=method))
            assert 0.0 <= value <= 100.0

    def test_no_repeating_context_scores_conservative_ceiling(self):
        # Every context occurs once: leave-one-out counting has no
        # evidence either way, so the proxy must not claim the pair is
        # unpredictable (that would let memorisation-starved corpora be
        # pruned blind).
        left = [(1, 2, 3)]
        right = [(4, 5, 6)]
        forward, reverse = mapping_proxy_scores(left, right)
        assert forward == 100.0
        assert reverse == 100.0

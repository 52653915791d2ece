"""Property-based tests over the baseline models' contracts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DecisionTree, MarkovChainModel
from repro.lang import EventSequence


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(5, 40),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_property_tree_predictions_in_label_set(rows, cols, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(rows, cols))
    labels = rng.integers(0, 3, size=rows)
    tree = DecisionTree(max_depth=4, rng=np.random.default_rng(seed)).fit(features, labels)
    predictions = tree.predict(rng.normal(size=(10, cols)))
    assert set(predictions) <= set(labels)
    proba = tree.predict_proba(features)
    np.testing.assert_allclose(proba.sum(axis=1), np.ones(rows))
    assert (proba >= 0).all()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(["x", "y", "z"]), min_size=8, max_size=60),
    st.integers(1, 3),
)
def test_property_markov_nll_finite_and_nonnegative(events, order):
    if len(set(events)) < 2:
        events = events + ["x", "y"]
    model = MarkovChainModel(order=order).fit(EventSequence("s", events))
    window = tuple(events[: order + 4])
    nll = model.negative_log_likelihood(window)
    assert np.isfinite(nll)
    assert nll >= 0.0

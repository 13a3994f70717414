"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.graph.generators import (
    grid_road_network,
    paper_figure1,
    paper_figure3,
    scale_free_network,
)
from repro.graph.graph import Graph

# Property tests build whole indexes per example; generous deadlines and a
# bounded example count keep the suite fast while still covering widely.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


@pytest.fixture
def figure3() -> Graph:
    """The paper's running example (Figure 3 / Table II)."""
    return paper_figure3()


@pytest.fixture
def figure1():
    """The paper's communication network example (Figure 1)."""
    return paper_figure1()


@pytest.fixture
def small_road() -> Graph:
    return grid_road_network(8, 10, num_qualities=4, seed=3)


@pytest.fixture
def small_social() -> Graph:
    return scale_free_network(60, 3, num_qualities=5, seed=3)


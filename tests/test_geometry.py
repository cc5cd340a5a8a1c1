import itertools
import math

import numpy as np
import pytest

from compatlearn.errors import ConfigError
from compatlearn.geometry import build_simplex


def brute_force_distances(vertices):
    """Oracle: explicit pairwise Euclidean distances."""
    out = []
    for i, j in itertools.combinations(range(len(vertices)), 2):
        out.append(math.dist(vertices[i], vertices[j]))
    return out


def test_two_classes_exact_vertices():
    p = build_simplex(2)
    assert p.vertices.shape[1] == 1
    assert p.vertices[0, 0] == 1.0
    assert p.vertices[1, 0] == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-15)
    (dist,) = brute_force_distances(p.vertices)
    assert dist == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_three_classes_matches_closed_form():
    p = build_simplex(3)
    alpha = p.vertices[-1, 0]
    assert alpha == pytest.approx((1.0 - math.sqrt(3.0)) / 2.0, abs=1e-15)
    assert alpha == pytest.approx(-0.36603, abs=1e-5)
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [alpha, alpha]])
    assert np.array_equal(p.vertices, expected)
    for dist in brute_force_distances(p.vertices):
        assert dist == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_ten_classes_all_45_distances():
    p = build_simplex(10)
    assert p.vertices.shape == (10, 9)
    distances = brute_force_distances(p.vertices)
    assert len(distances) == 45
    for dist in distances:
        assert abs(dist - math.sqrt(2.0)) < 1e-9


@pytest.mark.parametrize("n", [2, 5, 17, 33, 64])
def test_regularity_across_capacities(n):
    p = build_simplex(n)
    diffs = p.vertices[:, None, :] - p.vertices[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    off_diag = dist[~np.eye(n, dtype=bool)]
    assert np.all(np.abs(off_diag - math.sqrt(2.0)) < 1e-9)


def test_rebuild_is_bitwise_identical():
    a = build_simplex(23)
    b = build_simplex(23)
    assert a.vertices.tobytes() == b.vertices.tobytes()


def test_vertices_are_read_only():
    p = build_simplex(4)
    with pytest.raises(ValueError):
        p.vertices[0, 0] = 5.0


def test_capacity_below_two_rejected():
    with pytest.raises(ConfigError):
        build_simplex(1)
    with pytest.raises(ConfigError):
        build_simplex(0)

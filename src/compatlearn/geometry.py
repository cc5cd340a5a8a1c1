"""Fixed classifier prototypes on the vertices of a regular simplex.

The classifier weight matrix used for global feature stationarity is the set
of vertices of a regular simplex: ``n`` maximally separated vectors living in
``n - 1`` dimensions, one row per class slot (already seen classes and slots
reserved for future ones). The matrix is built once in closed form, is never
trained, and is shared by every model in a training sequence. Its ``loss``
is the softmax cross-entropy the trainable baseline classifier also uses. The
record holds the vertices alone: the dimension is ``vertices.shape[1]``, and
``build_simplex``'s ``alpha`` is ``vertices[-1, 0]``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import softmax_cross_entropy


@dataclass(frozen=True, eq=False)
class SimplexPrototypes:
    """Immutable, read-only ``(n, n - 1)`` prototype matrix: one row per class slot."""

    vertices: np.ndarray

    def loss(self, features, labels, normalize_features: bool):
        """Cross-entropy against every prototype row: (loss, dloss/dfeatures, None).

        Samples are also pushed away from slots that no task has used yet.
        """
        return softmax_cross_entropy(
            features, labels, self.vertices, normalize_features, want_weight_grads=False
        )


def build_simplex(total_classes: int) -> SimplexPrototypes:
    """Construct the prototype matrix for ``total_classes`` class slots.

    The vertices are the ``n - 1`` standard basis vectors plus the constant
    vector ``alpha * (1, ..., 1)`` with ``alpha = (1 - sqrt(n)) / (n - 1)``.
    This makes every pairwise vertex distance equal to sqrt(2), the regularity
    property the training objective relies on.
    """
    n = int(total_classes)
    if n < 2:
        raise ConfigError(f"classifier capacity must be at least 2, got {total_classes}")
    dim = n - 1
    alpha = (1.0 - math.sqrt(n)) / (n - 1.0)
    vertices = np.zeros((n, dim), dtype=np.float64)
    vertices[:dim, :] = np.eye(dim, dtype=np.float64)
    vertices[dim, :] = alpha
    vertices.setflags(write=False)
    return SimplexPrototypes(vertices)

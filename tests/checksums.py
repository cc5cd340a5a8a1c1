"""A model's parameters as one digest, for tests that compare or pin them."""

import hashlib


def parameter_checksum(state) -> str:
    """SHA-256 over the raw parameter bytes (weights and biases only)."""
    h = hashlib.sha256()
    for arr in (*state.weights, *state.biases):
        h.update(arr.tobytes())
    return h.hexdigest()

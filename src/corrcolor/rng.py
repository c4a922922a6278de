"""Deterministic named random streams.

All randomness in the package flows from a single integer seed through
`derive_rng(seed, *labels)`. Each distinct label tuple yields an
independent, reproducible stream, so concurrent consumers (per-trial,
per-step, per-retry) can draw without coordinating.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import check_int


def _label_word(label) -> int:
    """Stable 32-bit word for a stream label (str or int)."""
    data = f"{type(label).__name__}:{label!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:4], "big")


def derive_seed_sequence(seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the stream named by `labels` under the root `seed`.

    A seed is an integer of at least 0 with no upper bound, so the 64-bit
    seeds of `derive_int_seed` are seeds too.
    """
    check_int("seed", seed, 0)
    key = tuple(_label_word(lab) for lab in labels)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the named stream; pure function of (seed, labels)."""
    return np.random.default_rng(derive_seed_sequence(seed, *labels))


def derive_int_seed(seed: int, *labels) -> int:
    """Deterministic 64-bit child seed for APIs that take plain integers."""
    return int(derive_seed_sequence(seed, *labels).generate_state(1, np.uint64)[0])

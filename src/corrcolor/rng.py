"""Deterministic named random streams.

All randomness in the package flows from a single integer seed through
`derive_rng(seed, *labels)`. Each distinct label tuple yields an
independent, reproducible stream, so concurrent consumers (per-trial,
per-step, per-retry) can draw without coordinating.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DomainError, is_integer


def _label_word(label) -> int:
    """Stable 32-bit word for a stream label (str or int)."""
    data = f"{type(label).__name__}:{label!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:4], "big")


def check_seed(seed: int) -> None:
    """Raise DomainError unless `seed` can root a stream.

    Only integers qualify: SeedSequence would truncate a float, and a bool
    would stand for 0 or 1.
    """
    if not is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def derive_seed_sequence(seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the stream named by `labels` under the root `seed`."""
    check_seed(seed)
    key = tuple(_label_word(lab) for lab in labels)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the named stream; pure function of (seed, labels)."""
    return np.random.default_rng(derive_seed_sequence(seed, *labels))


def derive_int_seed(seed: int, *labels) -> int:
    """Deterministic 64-bit child seed for APIs that take plain integers."""
    return int(derive_seed_sequence(seed, *labels).generate_state(1, np.uint64)[0])

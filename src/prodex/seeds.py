"""Deterministic, splittable randomness.

Every random quantity in prodex is a pure function of a 64-bit master
seed and a derivation path, computed with keyed blake2b.  There is no
mutable generator state, so

* realizing coordinate 5 of a lazy point and then coordinate 2 yields
  the same symbols as the opposite order,
* verification campaigns run their samples in order, and sample j
  draws only from its own substream
  ``derive_seed(master, "<campaign>-sample", j)``, so no sample's draws
  depend on another's.

A lazy point draws ``unit_bits(seed, "coord", i)`` from a copy of one
hasher per point (`unit_hasher`: keyed, pre-fed ``u/coord/``) fed
``str(i)``, which digests the same bytes, so the same 64 bits.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .errors import ValidationError


def check_seed(seed: int) -> None:
    """Reject a bool or a seed outside [0, 2**64) instead of aliasing it."""
    if type(seed) is not int or not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must be an int in [0, 2**64), got {seed!r}")


def _digest(seed: int, path: bytes) -> bytes:
    key = seed.to_bytes(8, "little")
    return hashlib.blake2b(path, digest_size=8, key=key).digest()


def derive_seed(seed: int, *path) -> int:
    """Derive a 64-bit substream seed from a seed and a label path."""
    check_seed(seed)
    label = "/".join(str(p) for p in path).encode("utf-8")
    return int.from_bytes(_digest(seed, label), "little")


def unit_bits(seed: int, *path) -> int:
    """Uniform 64-bit draw k in [0, 2**64), the numerator of `unit_fraction`."""
    check_seed(seed)
    label = "u/" + "/".join(str(p) for p in path)
    return int.from_bytes(_digest(seed, label.encode("utf-8")), "little")


def unit_hasher(seed: int, *path):
    """Keyed blake2b pre-fed the label of ``unit_bits(seed, *path, i)`` up
    to i: a copy fed ``str(i)`` digests to that draw's 64 bits."""
    check_seed(seed)
    label = "/".join(("u", *map(str, path), ""))
    return hashlib.blake2b(label.encode("utf-8"), digest_size=8,
                           key=seed.to_bytes(8, "little"))


def unit_fraction(seed: int, *path) -> Fraction:
    """Uniform draw in [0, 1) as an exact dyadic rational k / 2**64."""
    return Fraction(unit_bits(seed, *path), 1 << 64)

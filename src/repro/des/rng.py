"""Reproducible random-stream management.

Every stochastic component in the library (trace generators, workload
endpoint selection, P-Q coin flips, …) draws from its *own*
``numpy.random.Generator`` derived from a single master seed through
``numpy.random.SeedSequence``. This gives:

* **Reproducibility** — one integer reproduces an entire sweep.
* **Independence** — streams derived with distinct keys are statistically
  independent, so adding a consumer never perturbs the draws seen by others.
* **Parallel safety** — per-run streams are derived from ``(master, run_id)``
  so replications can execute in any order (or concurrently) and still match.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from functools import lru_cache
from typing import Any

# numpy 2 loads numpy.random on first use; importing it with this module
# keeps that load (nine extension modules) out of the first seed derivation.
from numpy.random import Generator, SeedSequence, default_rng


@lru_cache(maxsize=256)
def _key_to_ints(key: str) -> tuple[int, ...]:
    """Hash a textual key into a stable tuple of uint32 spawn words.

    ``SeedSequence`` accepts extra entropy words; hashing the key keeps the
    mapping stable across Python processes (unlike ``hash()``, which is
    salted). Component names recur constantly (two streams per node per
    run), so the digest is memoised.
    """
    digest = hashlib.sha256(key.encode()).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def derive_seed(master_seed: int, *keys: str | int) -> SeedSequence:
    """Derive a child :class:`numpy.random.SeedSequence` from a master seed.

    Args:
        master_seed: The experiment-level seed.
        *keys: Any mix of strings (component names) and integers (run
            indices) identifying the consumer.

    Returns:
        A seed sequence unique to ``(master_seed, *keys)``.
    """
    words: list[int] = [int(master_seed) & 0xFFFFFFFF, (int(master_seed) >> 32) & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, int):
            words.extend((key & 0xFFFFFFFF, (key >> 32) & 0xFFFFFFFF))
        else:
            words.extend(_key_to_ints(str(key)))
    return SeedSequence(words)


def spawn_streams(master_seed: int, names: Iterable[str]) -> dict[str, Generator]:
    """Create one independent generator per name from a master seed."""
    return {name: default_rng(derive_seed(master_seed, name)) for name in names}


class RngHub:
    """Lazily hands out named, independent random streams.

    Example:
        >>> hub = RngHub(master_seed=7)
        >>> coin = hub.stream("pq-coins")
        >>> endpoints = hub.stream("workload", 3)   # run 3's endpoint draws
        >>> hub.stream("pq-coins") is coin          # cached
        True
    """

    __slots__ = ("master_seed", "_streams")

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[tuple[str | int, ...], Generator] = {}

    def stream(self, *keys: str | int) -> Generator:
        """Return (and cache) the generator identified by ``keys``."""
        if not keys:
            raise ValueError("at least one key is required")
        if keys not in self._streams:
            self._streams[keys] = default_rng(derive_seed(self.master_seed, *keys))
        return self._streams[keys]

    def lazy_stream(self, *keys: str | int) -> LazyStream:
        """A deferred :meth:`stream`: the generator is built on first draw.

        Simulation setup hands two streams to every node, but most
        protocols never draw (pure epidemic consumes no randomness; P-Q
        with P=Q=1 never flips) — deferring skips the SeedSequence/PCG64
        construction for streams that are never touched. A materialised
        lazy stream produces exactly the draws ``stream(*keys)`` would.
        """
        if not keys:
            raise ValueError("at least one key is required")
        return LazyStream(self, keys)


class LazyStream:
    """Attribute proxy that materialises an :class:`RngHub` stream on use."""

    __slots__ = ("_hub", "_keys", "_rng")

    def __init__(self, hub: RngHub, keys: tuple[str | int, ...]) -> None:
        self._hub = hub
        self._keys = keys
        self._rng: Generator | None = None

    @property
    def generator(self) -> Generator:
        """The underlying generator (materialising it if needed)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._hub.stream(*self._keys)
        return rng

    def __getattr__(self, name: str) -> Any:
        # only reached for names not in __slots__, i.e. Generator API
        return getattr(self.generator, name)

    def __repr__(self) -> str:
        state = "materialised" if self._rng is not None else "deferred"
        return f"LazyStream({self._keys!r}, {state})"

"""Seeded, stationary input streams and the key-set model that checks them.

Every key the benchmark ever stores is named by an *id*: ids ``0 .. N-1`` are
the initial population and each insert takes the next unused id, while each
delete takes the oldest live id.  The live set is therefore always one
contiguous id range ``[lo, hi)``, so the model of the table after any prefix
of the stream is two integers, and checking the table's contents is a range
comparison.

Ids map to keys through a seeded bijection on ``[0, 2**31)``: stored ids use
even inputs and guaranteed misses use odd ones, so a miss key can never have
been inserted.  Every key is below ``MAX_USER_KEY`` and every value below
``SEARCH_NOT_FOUND``.

:class:`Gamma1Stream` is the paper's Fig. 7 mix Γ1 (40 % updates, 60 %
searches) in fixed-size admissions with exact per-admission counts: a fifth
inserts of fresh ids, a fifth deletes of the oldest ids, and the searches
split evenly between hits on live ids and guaranteed misses.  The population
is exactly ``N`` at every admission boundary, so a long window measures one
table state.  Hits are drawn at least ``margin`` admissions away from either
end of the live range, so no update of a searched key can be in flight or in
the same batch as the search, and every answer is known in advance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OP_INSERT = 1
OP_DELETE = 2
OP_SEARCH = 3
NOT_FOUND = 0xFFFFFFFF

_KEY_BITS = 31
_KEY_MASK = (1 << _KEY_BITS) - 1


class KeySpace:
    """Seeded bijection from ids to keys and values.

    The bijection is an odd-multiply / xor-shift mixer on 31 bits.  Each step
    is invertible modulo ``2**31``, and the shifts break the arithmetic
    progressions a bare multiply would leave: those fall into a regular
    lattice under the table's linear universal hash and spread over buckets
    far more evenly than real keys do.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0x6B6579])
        draws = rng.integers(1 << 20, 1 << 30, 4)
        self.multipliers = [np.uint64(int(draw) * 2 + 1) for draw in draws[:3]]
        self.offset = np.uint64(int(draws[3]))
        self.value_salt = np.uint64(int(rng.integers(0, 1 << _KEY_BITS)))

    def _scramble(self, inputs: np.ndarray) -> np.ndarray:
        mask = np.uint64(_KEY_MASK)
        mixed = (inputs.astype(np.uint64) * self.multipliers[0] + self.offset) & mask
        for multiplier, shift in zip(self.multipliers[1:], (15, 13)):
            mixed ^= mixed >> np.uint64(shift)
            mixed = (mixed * multiplier) & mask
        return mixed ^ (mixed >> np.uint64(16))

    def keys(self, ids: np.ndarray) -> np.ndarray:
        """Keys of stored ids."""
        return self._scramble(np.asarray(ids, dtype=np.uint64) * np.uint64(2))

    def miss_keys(self, ids: np.ndarray) -> np.ndarray:
        """Keys that no stored id maps to."""
        return self._scramble(np.asarray(ids, dtype=np.uint64) * np.uint64(2) + np.uint64(1))

    def values(self, keys: np.ndarray) -> np.ndarray:
        """The value stored with each key (always below ``NOT_FOUND``)."""
        salted = (np.asarray(keys, dtype=np.uint64) * np.uint64(0x9E3779B1)) ^ self.value_salt
        return (salted & np.uint64(_KEY_MASK)).astype(np.uint32)

    def contents(self, lo: int, hi: int) -> dict:
        """The model table for live ids ``[lo, hi)``: key -> value."""
        keys = self.keys(np.arange(lo, hi, dtype=np.uint64))
        return dict(zip(keys.tolist(), self.values(keys).tolist()))


@dataclass
class Admissions:
    """``count`` admissions of ``size`` ops each, flattened in stream order."""

    size: int
    op_codes: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    expected: np.ndarray


class Gamma1Stream:
    """Stationary Γ1 admissions over a population of ``population`` keys."""

    def __init__(self, seed: int, population: int, admission: int, margin: int) -> None:
        if admission % 10:
            raise ValueError("admission size must be a multiple of 10 for exact Γ1 counts")
        self.space = KeySpace(seed)
        self.seed = seed
        self.population = population
        self.admission = admission
        self.updates = admission // 5  # inserts per admission (and deletes)
        self.hits = (admission - 2 * self.updates) // 2
        self.misses = admission - 2 * self.updates - self.hits
        self.margin_ids = margin * self.updates
        if 2 * self.margin_ids >= population:
            raise ValueError("population too small for the hit margin")
        draws = np.random.default_rng([seed, 0x67316164]).integers(0, 1 << 62, 3)
        self.salts = [np.uint64(int(draw)) for draw in draws]

    def initial(self) -> tuple:
        """Keys and values of the initial population (ids ``0 .. N-1``)."""
        keys = self.space.keys(np.arange(self.population, dtype=np.uint64))
        return keys, self.space.values(keys)

    def live_range(self, admissions_applied: int) -> tuple:
        """Live ids ``[lo, hi)`` after the first ``admissions_applied`` admissions."""
        lo = admissions_applied * self.updates
        return lo, lo + self.population

    def admissions(self, first: int, count: int) -> Admissions:
        """Admissions ``first .. first+count-1``.

        Each admission depends only on the seed and its own index, so any
        split of a range into calls gives the same ops.
        """
        size = self.admission
        index = np.arange(first, first + count, dtype=np.int64)[:, None]
        kinds = np.concatenate([
            np.full(self.updates, 0), np.full(self.updates, 1),
            np.full(self.hits, 2), np.full(self.misses, 3),
        ])
        rank = np.concatenate([
            np.arange(self.updates), np.arange(self.updates),
            np.arange(self.hits), np.arange(self.misses),
        ])
        slot = (index * size + np.arange(size)).astype(np.uint64)
        order = np.argsort(self._draw(0, slot), axis=1, kind="stable")
        hit_draw = self._draw(1, slot[:, : self.hits]) % np.uint64(
            self.population - 2 * self.margin_ids)
        miss_draw = self._draw(2, slot[:, : self.misses]) >> np.uint64(64 - 29)
        lo = index * self.updates
        ids = np.empty((count, size), dtype=np.int64)
        ids[:, : self.updates] = lo + self.population + rank[: self.updates]
        ids[:, self.updates : 2 * self.updates] = lo + rank[self.updates : 2 * self.updates]
        ids[:, 2 * self.updates : 2 * self.updates + self.hits] = (
            lo + self.margin_ids + hit_draw.astype(np.int64))
        ids[:, 2 * self.updates + self.hits :] = miss_draw.astype(np.int64)
        kinds = np.broadcast_to(kinds, (count, size))
        kinds = np.take_along_axis(kinds, order, axis=1).ravel()
        ids = np.take_along_axis(ids, order, axis=1).ravel()

        stored = kinds != 3
        keys = np.empty(count * size, dtype=np.uint64)
        keys[stored] = self.space.keys(ids[stored])
        keys[~stored] = self.space.miss_keys(ids[~stored])
        values = self.space.values(keys)
        op_codes = np.array([OP_INSERT, OP_DELETE, OP_SEARCH, OP_SEARCH], dtype=np.int64)[kinds]
        expected = np.where(kinds == 0, 0, np.where(kinds == 1, 1, values)).astype(np.uint32)
        expected[kinds == 3] = NOT_FOUND
        return Admissions(size, op_codes, keys, values, expected)

    def _draw(self, purpose: int, slots: np.ndarray) -> np.ndarray:
        """Pseudo-random 64-bit words, a pure function of seed, purpose and slot.

        splitmix64's finaliser over ``slot * golden + salt``: a counter-based
        generator, so no draw depends on which others were made before it.
        """
        x = slots * np.uint64(0x9E3779B97F4A7C15) + self.salts[purpose]
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

"""Ordered set partitions (partial rankings): counting, exact probabilities,
sequential sampling, and block-count statistics.

Ties among failure times induce an ordered partition of the individuals, and
the splitting rule of a characteristic index determines its distribution
block by block.  Exact counting uses Python integers throughout; Monte Carlo
helpers take an explicit random generator, so parallel workers should each
own a generator spawned from a shared ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .index import (CharacteristicIndex, ParameterError, SplittingTable,
                    _check_risk_set, _draw_block_sizes,
                    _first_block_reader, _log_unit_total)

__all__ = [
    "OrderedPartition",
    "BlockGrowthRow",
    "bell",
    "ordered_bell",
    "stirling2",
    "enumerate_ordered_partitions",
    "ranking_prob",
    "sample_ranking",
    "sample_rankings",
    "sample_first_block_size",
    "sample_block_sizes",
    "first_block_distribution",
    "expected_blocks",
    "block_growth_probe",
    "block_growth_csv",
]

Rule = Union[CharacteristicIndex, SplittingTable]

# Largest n whose exact mean block count block_growth_csv computes: the
# dynamic program is O(n**2), about 2 s at this n on a 2-CPU machine, and
# a larger n leaves its expected_k empty.
MAX_EXACT_BLOCKS = 2 ** 15


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple:
    """Row n of the Stirling-number-of-the-second-kind triangle, exact."""
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        row[k] = k * prev[k] if k < n else 0
        row[k] += prev[k - 1]
    return tuple(row)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k non-empty blocks."""
    if n < 0 or k < 0:
        raise ParameterError("arguments must be non-negative")
    if k > n:
        return 0
    return _stirling2_row(n)[k]


def bell(n: int) -> int:
    """Number of partitions of an n-set."""
    if n < 0:
        raise ParameterError("n must be non-negative")
    return sum(_stirling2_row(n))


def ordered_bell(n: int) -> int:
    """Number of ordered partitions (partial rankings) of an n-set."""
    if n < 0:
        raise ParameterError("n must be non-negative")
    return sum(math.factorial(k) * s for k, s in enumerate(_stirling2_row(n)))


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered list of disjoint non-empty blocks of particle ids."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen = set()
        for b in blocks:
            if not b:
                raise ParameterError("blocks must be non-empty")
            if seen & b:
                raise ParameterError("blocks must be disjoint")
            seen |= b
        if not blocks:
            raise ParameterError("a partition needs at least one block")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def enumerate_ordered_partitions(items: Iterable) -> Iterator[OrderedPartition]:
    """Yield every ordered partition of the given ids (exponential count)."""

    def rec(rest: tuple):
        if not rest:
            yield ()
            return
        n = len(rest)
        # Choose any non-empty subset as the first block, then recurse.
        for mask in range(1, 1 << n):
            block = frozenset(rest[i] for i in range(n) if mask >> i & 1)
            remaining = tuple(rest[i] for i in range(n) if not mask >> i & 1)
            for tail in rec(remaining):
                yield (block,) + tail

    for blocks in rec(tuple(items)):
        yield OrderedPartition(blocks)


def ranking_prob(partition: OrderedPartition, rule: Rule) -> float:
    """Probability of the ordered partition under the splitting rule.

    Exchangeable: the value depends only on the ordered block sizes.
    """
    remaining = partition.n
    prob = 1.0
    for size in partition.sizes:
        prob *= rule.split_prob(remaining - size, size)
        remaining -= size
    return prob


def first_block_distribution(n: int, rule: Rule) -> np.ndarray:
    """P(first block has size d) for d = 0..n; entry 0 is zero by convention."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    out = np.zeros(n + 1)
    out[1:] = np.exp(_first_block_reader(rule, n)(n)
                     - _log_unit_total(rule, n))
    return out


def sample_rankings(n: int, rule: Rule, rng, reps: int) -> list:
    """Draw ``reps`` ordered partitions of range(n).

    The block sizes of every rep come from one top-down sweep of the
    first-block rows; each rep's blocks are then consecutive slices of a
    uniform random permutation, which picks every block uniformly among
    the ids that remain.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if reps < 1:
        return []
    steps = [(at, d) for _, at, d in _block_sweep(rule, n, reps, rng)]
    rep = np.concatenate([at for at, _ in steps])
    size = np.concatenate([d for _, d in steps])[rep.argsort(kind="stable")]
    out = []
    for sizes in np.split(size, np.cumsum(np.bincount(rep))[:-1]):
        blocks = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
        out.append(OrderedPartition(tuple(b.tolist() for b in blocks)))
    return out


def sample_ranking(n: int, rule: Rule, rng) -> OrderedPartition:
    """Draw one ordered partition of range(n)."""
    return sample_rankings(n, rule, rng, 1)[0]


def sample_first_block_size(m: int, rule: Rule, rng, size=None, *,
                            rows=None):
    """Draw the size of the next failure block out of m at risk: one
    inverse-CDF draw from the first-block row for m.

    With ``size`` the draws are that many independent sizes, as an array.
    ``rows``, a reader from ``_first_block_reader(rule, n)`` with n >= m,
    serves a chain of draws at non-increasing m without rebuilding rows.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if m == 1:
        return 1 if size is None else np.ones(size, dtype=np.int64)
    if rows is None:
        rows = _first_block_reader(rule, m)
    d = _draw_block_sizes(rows(m), rng.random(size))
    return int(d) if size is None else d


def _block_sweep(rule: Rule, n: int, reps: int, rng):
    """Advance ``reps`` block-size chains from n at risk down to none.

    Yields ``(m, at, d)`` for each risk-set size m that some chain visits,
    from the top down: the chains at m (in ascending order) and the block
    sizes they draw, all from one first-block row.
    """
    _check_risk_set(n)
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    first_block = _first_block_reader(rule, n) if n > 1 else None
    level = np.full(reps, n)
    m = n
    while m > 0:
        at = (level == m).nonzero()[0]
        d = sample_first_block_size(m, rule, rng, at.size, rows=first_block)
        yield m, at, d
        level[at] -= d
        m = int(level.max())


def sample_block_sizes(n: int, index: CharacteristicIndex, rng) -> list:
    """Draw the ordered block sizes of a random partial ranking."""
    return [int(d[0]) for _, _, d in _block_sweep(index, n, 1, rng)]


def expected_blocks(n: int, rule: Rule) -> float:
    """Mean number of blocks, by exact dynamic programming.

    Each block leaves one risk-set size m on the way down from n, so the
    mean is the sum over m = 1..n of the chance that the chain visits m.
    Those chances follow from the first-block laws taken top-down: each row
    of ``_first_block_reader``, less log unit_total_rate(m), is built in one
    buffer in survivor order and added to the chances below m, so no row is
    kept.  O(n**2) time, O(n) memory: on a 2-CPU machine about 41 ms for
    harmonic at n = 4,096 and 0.40 s at n = 16,384.
    """
    _check_risk_set(n)
    row = _first_block_reader(rule, n)
    visit = np.zeros(n + 1)
    visit[n] = 1.0
    buf = np.empty(n)
    for m in range(n, 0, -1):
        w = row(m, buf)
        w -= _log_unit_total(rule, m)
        np.exp(w, out=w)
        w *= visit[m]
        visit[:m] += w
    return float(visit[1:].sum())


@dataclass(frozen=True)
class BlockGrowthRow:
    n: int
    mean_blocks: float
    se: float
    reps: int


def block_growth_probe(index: CharacteristicIndex, n_list: Sequence[int],
                       reps: int, rng) -> list:
    """Monte Carlo block-count means with standard errors, one row per n."""
    rows = []
    for n in n_list:
        at = [at for _, at, _ in _block_sweep(index, n, reps, rng)]
        counts = np.bincount(np.concatenate(at), minlength=reps).astype(float)
        rows.append(BlockGrowthRow(
            n=int(n),
            mean_blocks=float(counts.mean()),
            se=float(counts.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
            reps=reps,
        ))
    return rows


def block_growth_csv(rows: Sequence[BlockGrowthRow],
                     index: CharacteristicIndex) -> str:
    """Rows as CSV text, each with the exact mean block count of its n (empty
    above MAX_EXACT_BLOCKS) and the generating family; numbers to six
    significant digits."""
    name, _, params = index.describe().partition("(")
    lines = ["n,mean_k,se,reps,expected_k,family,params"]
    for row in rows:
        exact = (f"{expected_blocks(row.n, index):.6g}"
                 if row.n <= MAX_EXACT_BLOCKS else "")
        lines.append(f"{row.n},{row.mean_blocks:.6g},{row.se:.6g},{row.reps},"
                     f"{exact},{name},\"{params.rstrip(')')}\"")
    return "\n".join(lines) + "\n"

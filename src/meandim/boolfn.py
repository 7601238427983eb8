"""Exact Fourier and ANOVA analysis of functions on the Boolean cube {-1,+1}^n.

A function is represented by its vertex table: a length-2^n array of real
values, one per spin configuration. Vertex index v encodes the configuration
through its bits, bit i set meaning spin i equals -1 (so index 0 is the
all-(+1) corner). Subsets of coordinates are bit masks with the same
convention: bit i set means coordinate i belongs to the subset.

Under the uniform measure on the cube the parity characters
chi_u(s) = prod_{i in u} s_i form an orthonormal basis, so every table has a
unique expansion f = sum_u fhat_u chi_u. The mean dimension of f is the
variance-weighted average interaction order

    MD(f) = sum_{u != 0} |u| fhat_u^2 / sum_{u != 0} fhat_u^2,

which this module computes exactly by two independent routes: the spectrum
(walsh_hadamard + degree_profile) and coordinate-flip averaging
(exact_md_via_anova).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierSpectrum",
    "DegreeProfile",
    "walsh_hadamard",
    "synthesize",
    "degree_profile",
    "exact_md_via_anova",
    "vertex_spins",
    "spins_to_index",
    "table_score_fn",
    "linear_table",
    "parity_table",
    "majority_table",
]

INDEX_ROWS = 1 << 13  # spin rows that spins_to_index converts at once


def _check_table(values: np.ndarray) -> tuple[np.ndarray, int]:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("vertex table must be one-dimensional")
    size = values.shape[0]
    n = size.bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ValueError(f"vertex table length {size} is not a power of two >= 2")
    if not np.all(np.isfinite(values)):
        raise ValueError("vertex table contains non-finite entries")
    return values, n


@dataclass(frozen=True)
class FourierSpectrum:
    """Parity-basis coefficients of a cube function.

    ``coeffs[u]`` is the coefficient of chi_u, with u read as a coordinate
    bit mask; ``coeffs[0]`` is the mean of the function.
    """

    n: int
    coeffs: np.ndarray


@dataclass(frozen=True)
class DegreeProfile:
    """Variance split by interaction order.

    ``weights[k]`` is the fraction of the (non-constant) variance carried by
    subsets of size k, for k = 1..n; ``weights[0]`` is always 0. For a
    constant function the variance is zero and ``mean_dimension`` is None.
    """

    n: int
    variance: float
    weights: np.ndarray
    mean_dimension: float | None


def walsh_hadamard(values: np.ndarray) -> FourierSpectrum:
    """Expand a vertex table in the parity basis.

    Runs the in-place butterfly transform, O(n 2^n) time, and normalizes by
    2^n so that coeffs[u] = E[f chi_u]. The unnormalized transform is an
    involution, which makes ``synthesize`` its exact inverse.
    """
    values, n = _check_table(values)
    coeffs = _butterfly(values.copy())
    coeffs /= coeffs.shape[0]
    return FourierSpectrum(n=n, coeffs=coeffs)


def synthesize(spectrum: FourierSpectrum) -> np.ndarray:
    """Rebuild the vertex table from its spectrum (inverse transform)."""
    return _butterfly(spectrum.coeffs.copy())


def _butterfly(table: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n array, in place."""
    half = 1
    while half < table.shape[0]:
        view = table.reshape(-1, 2, half)
        top, bot = view[:, 0], view[:, 1]
        diff = top - bot
        top += bot
        bot[...] = diff
        half *= 2
    return table


def degree_profile(spectrum: FourierSpectrum) -> DegreeProfile:
    """Collapse a spectrum onto interaction orders.

    Returns the normalized per-order variance weights and the mean dimension
    sum_k k * weights[k]. A zero-variance (constant) function has no defined
    mean dimension and is flagged with ``mean_dimension = None`` rather than
    NaN.
    """
    n = spectrum.n
    orders = _interaction_orders(n)
    energy = spectrum.coeffs**2
    per_order = np.zeros(n + 1)
    np.add.at(per_order, orders, energy)
    per_order[0] = 0.0
    variance = float(per_order.sum())
    if variance <= 0.0:
        return DegreeProfile(n=n, variance=0.0, weights=np.zeros(n + 1), mean_dimension=None)
    weights = per_order / variance
    md = float(np.arange(n + 1) @ weights)
    return DegreeProfile(n=n, variance=variance, weights=weights, mean_dimension=md)


def _interaction_orders(n: int) -> np.ndarray:
    """orders[u] = |u|, the number of set bits of each mask u < 2^n.

    Built by doubling: the masks with bit k set are those below 2^k plus
    2^k, and each has one more element.
    """
    orders = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        orders = np.concatenate((orders, orders + 1))
    return orders


def exact_md_via_anova(values: np.ndarray) -> float:
    """Exact mean dimension by exhaustive coordinate-flip averaging.

    The total variance of the ANOVA components, weighted by their order,
    equals the summed flip influences: for each coordinate,
    tau_i^2 = E[((f(s) - f(s^(flip i))) / 2)^2] with the expectation over all
    2^n vertices. The mean dimension is sum_i tau_i^2 divided by the
    variance. This route never touches the spectrum, so it serves as an
    independent oracle for the Fourier route.

    Raises ValueError for a constant table (zero variance).
    """
    values, n = _check_table(values)
    idx = np.arange(values.shape[0])
    total_influence = 0.0
    for i in range(n):
        diffs = (values - values[idx ^ (1 << i)]) / 2.0
        total_influence += float(np.mean(diffs**2))
    variance = float(np.mean(values**2) - np.mean(values) ** 2)
    if variance <= 0.0:
        raise ValueError("mean dimension is undefined for a constant table")
    return total_influence / variance


def vertex_spins(n: int) -> np.ndarray:
    """All 2^n spin configurations as a (2^n, n) array of +-1 floats."""
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def spins_to_index(spins: np.ndarray) -> np.ndarray:
    """Map rows of +-1 spins back to vertex indices, INDEX_ROWS rows at a
    time, so that no temporary has the size of the batch."""
    spins = np.asarray(spins)
    powers = 1 << np.arange(spins.shape[-1], dtype=np.int64)
    rows = spins.reshape(-1, spins.shape[-1])
    index = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], INDEX_ROWS):
        part = slice(start, start + INDEX_ROWS)
        index[part] = (rows[part] < 0).astype(np.int64) @ powers
    return index.reshape(spins.shape[:-1])


def table_score_fn(values: np.ndarray) -> "_TableScore":
    """Wrap a vertex table as a batched score function over spin rows."""
    values, _ = _check_table(values)
    return _TableScore(values)


class _TableScore:
    """Vertex-table lookup over spin rows, with coordinate probes.

    A call maps each row to its vertex index and keeps those indices;
    ``probe(i, column)`` answers the last batch with column i replaced by
    setting bit i of every kept index from ``column < 0``.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self._index = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self._index = spins_to_index(x)
        return self.values[self._index]

    def probe(self, i: int, column: np.ndarray) -> np.ndarray:
        if self._index is None:
            raise RuntimeError("probe needs a batch evaluated first")
        index = self._index & ~(1 << i)
        index |= (np.asarray(column) < 0).astype(np.int64) << i
        return self.values[index]


def linear_table(n: int, coeffs: np.ndarray | None = None) -> np.ndarray:
    """f(s) = sum_i a_i s_i, with unit coefficients by default."""
    if coeffs is None:
        coeffs = np.ones(n)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n,):
        raise ValueError("need one coefficient per coordinate")
    return vertex_spins(n) @ coeffs


def parity_table(n: int, mask: int) -> np.ndarray:
    """f(s) = chi_mask(s), the parity of the coordinates in mask."""
    if not 0 < mask < (1 << n):
        raise ValueError("parity mask must be a nonempty subset")
    spins = vertex_spins(n)
    coords = [i for i in range(n) if mask >> i & 1]
    return np.prod(spins[:, coords], axis=1)


def majority_table(n: int) -> np.ndarray:
    """f(s) = sign(sum_i s_i); n must be odd so there are no ties."""
    if n % 2 == 0:
        raise ValueError("majority needs an odd number of coordinates")
    return np.sign(vertex_spins(n).sum(axis=1))


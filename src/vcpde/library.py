"""Candidate-term library and the grouped block-diagonal regression system.

Every candidate term evaluated on the grid contributes one column per step of
the varying axis; the stacked per-step regressions form a block-diagonal
design that is never materialized densely; all downstream solvers work on the
(step, row, term) tensor directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .differentiation import DerivativeStack

# Steps per chunk of a loop over steps that would otherwise make a temporary the size
# of all steps (`_group_major_products`, `tbglss._summarize`).
CHUNK_STEPS = 16


@dataclass(frozen=True)
class Term:
    """A product of powers of u and its spatial derivatives.

    factors are (derivative order, power) pairs with order 0 meaning u itself;
    the empty product is the constant term.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        orders = [q for q, _ in self.factors]
        if len(set(orders)) != len(orders):
            raise ValueError("duplicate derivative order in term factors")
        if any(p < 1 for _, p in self.factors):
            raise ValueError("factor powers must be positive")

    @property
    def descriptor(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for q, p in sorted(self.factors):
            base = "u" if q == 0 else "u_" + "x" * q
            parts.append(base if p == 1 else f"{base}^{p}")
        return "*".join(parts)

    @property
    def max_derivative(self) -> int:
        return max((q for q, _ in self.factors), default=0)


@dataclass(frozen=True)
class LibrarySpec:
    """An ordered collection of candidate terms."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        descriptors = [t.descriptor for t in self.terms]
        if len(set(descriptors)) != len(descriptors):
            raise ValueError("duplicate terms in library")
        if not self.terms:
            raise ValueError("library must contain at least one term")

    @property
    def descriptors(self) -> tuple[str, ...]:
        return tuple(t.descriptor for t in self.terms)

    @property
    def max_derivative(self) -> int:
        return max(t.max_derivative for t in self.terms)

    @classmethod
    def standard(cls, max_poly_power: int = 3, max_deriv_order: int = 4) -> "LibrarySpec":
        """All products u^p * (d^q u / dx^q), p <= max_poly_power, q <= max_deriv_order."""
        terms = []
        for q in range(max_deriv_order + 1):
            for p in range(max_poly_power + 1):
                factors = []
                if p > 0:
                    factors.append((0, p))
                if q > 0:
                    factors.append((q, 1))
                terms.append(Term(tuple(factors)))
        return cls(tuple(terms))


def evaluate_terms(stack: DerivativeStack, spec: LibrarySpec, varying_axis: str) -> np.ndarray:
    """Evaluate every candidate term on the valid region, step-major: (n_t, n_x, n_terms) when
    time varies, (n_x, n_t, n_terms) when space does.

    This is the layout `assemble_grouped_system` takes, so the design, the largest
    array of a run, is allocated once.
    """
    if spec.max_derivative > stack.max_order:
        missing = [t.descriptor for t in spec.terms if t.max_derivative > stack.max_order]
        raise ValueError(f"derivative stack (order {stack.max_order}) cannot evaluate {missing}")
    if varying_axis not in ("time", "space"):
        raise ValueError("varying_axis must be 'time' or 'space'")
    n_x, n_t = stack.u.shape
    steps_rows = (n_t, n_x) if varying_axis == "time" else (n_x, n_t)
    blocks = np.empty((*steps_rows, len(spec.terms)))
    for g, term in enumerate(spec.terms):
        col = np.ones((n_x, n_t))
        for q, p in term.factors:
            base = stack.u if q == 0 else stack.space[q]
            col = col * base**p
        blocks[:, :, g] = col.T if varying_axis == "time" else col
    return blocks


class ZeroColumnError(ValueError):
    """A design column is identically zero and cannot be normalized."""


@dataclass(frozen=True)
class GroupedLinearSystem:
    """Stacked per-step regressions u_t^(i) = Theta(u^(i)) xi^(i).

    blocks[i] is the i-th step's design block (n_rows x n_groups); the implied
    global design is block-diagonal with column i*G + g belonging to group g.
    """

    blocks: np.ndarray  # (n_steps, n_rows, n_groups)
    target: np.ndarray  # (n_steps, n_rows)
    descriptors: tuple[str, ...]
    varying_axis: str
    step_coords: np.ndarray
    scales: np.ndarray  # (n_steps, n_groups) the column norms the blocks were divided by
    # The Gram and Theta^T y once computed (`_products`), and the Gram's eigendecomposition
    # (`gram_eigh`).  Not an init field, so `replace` starts every derived system with an
    # empty cache.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n, g = self.blocks.shape
        if self.target.shape != (m, n):
            raise ValueError("target shape does not match blocks")
        if len(self.descriptors) != g:
            raise ValueError("descriptor count does not match group count")
        if self.step_coords.shape != (m,):
            raise ValueError("step coordinate count does not match step count")
        if self.scales.shape != (m, g):
            raise ValueError("scales shape does not match blocks")
        if np.any(self.scales <= 0):  # a scale is a column's norm
            step, group = np.argwhere(self.scales <= 0)[0]
            raise ZeroColumnError(f"term {self.descriptors[group]!r} has a zero column at step "
                                  f"{self.step_coords[step]:g}")

    @property
    def n_steps(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_rows(self) -> int:
        return self.blocks.shape[1]

    @property
    def n_groups(self) -> int:
        return self.blocks.shape[2]

    @property
    def n_observations(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    def matvec(self, beta: np.ndarray) -> np.ndarray:
        """Apply the block-diagonal design to step-major coefficients (m, G) -> (m, n)."""
        return np.einsum("mng,mg->mn", self.blocks, beta)

    def residual_norm_sq(self, beta: np.ndarray) -> float:
        r = self.target - self.matvec(beta)
        return float((r * r).sum())

    def gram(self) -> np.ndarray:
        """Per-step Gram matrices Theta_i^T Theta_i, shape (m, G, G), read-only."""
        return self._products()[0]

    def design_target(self) -> np.ndarray:
        """Per-step Theta_i^T y_i, shape (m, G), read-only."""
        return self._products()[1]

    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Every step's Gram as `np.linalg.eigh` decomposes it, (m, G) eigenvalues and (m, G, G)
        eigenvectors, computed once and read-only (a derived system computes its own)."""
        if "eigh" not in self._cache:
            eigvals, eigvecs = np.linalg.eigh(self._products()[0])
            eigvals.flags.writeable = eigvecs.flags.writeable = False
            self._cache["eigh"] = eigvals, eigvecs
        return self._cache["eigh"]

    def _products(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gram and Theta^T y, computed once."""
        if "gram" not in self._cache:
            gram, cty = _group_major_products(self.blocks, self.target)
            gram.flags.writeable = cty.flags.writeable = False
            self._cache.update(gram=gram, cty=cty)
        return self._cache["gram"], self._cache["cty"]

    def group_products(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """The Gram and Theta^T y of the groups `indices` alone, (m, k, k) and (m, k): slices of
        this system's, bit-identical to those computed from `blocks[:, :, indices]`."""
        indices = np.asarray(indices, dtype=int)
        gram, cty = self.gram(), self.design_target()
        return gram[:, indices[:, None], indices], cty[:, indices]


def _group_major_products(blocks: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step Gram and Theta^T y, summed in group-major order, CHUNK_STEPS steps at a time.

    `einsum`'s summation order follows the memory layout of its operands.
    Indexing the group axis (`blocks[:, :, indices]`) lays the blocks out
    group-major, so computing on a group-major copy makes every slice of the
    result bit-identical to the products computed from those indexed blocks.
    Each step is independent, so chunking the steps changes no bit and
    bounds the copy.
    """
    m, _, n_groups = blocks.shape
    gram = np.empty((m, n_groups, n_groups))
    cty = np.empty((m, n_groups))
    for start in range(0, m, CHUNK_STEPS):
        steps = slice(start, start + CHUNK_STEPS)
        chunk = np.ascontiguousarray(blocks[steps].transpose(2, 0, 1)).transpose(1, 2, 0)
        gram[steps] = np.einsum("mng,mnh->mgh", chunk, chunk)
        cty[steps] = np.einsum("mng,mn->mg", chunk, target[steps])
    return gram, cty


def assemble_grouped_system(
    blocks: np.ndarray,
    u_t: np.ndarray,
    varying_axis: str,
    step_coords: np.ndarray,
    descriptors: tuple[str, ...],
) -> GroupedLinearSystem:
    """The column-normalized grouped system on step-major `blocks` (`evaluate_terms`).

    Takes ownership of `blocks`: they are divided by their column norms in
    place and become the system's blocks.  The target u_t is given (n_x, n_t)
    and laid out like the blocks: transposed when time varies, so steps index
    time, and as it is when space varies.
    """
    if blocks.ndim != 3:
        raise ValueError("blocks must be (n_steps, n_rows, n_terms)")
    if varying_axis == "time":
        target = np.ascontiguousarray(u_t.T)
    elif varying_axis == "space":
        target = np.ascontiguousarray(u_t)
    else:
        raise ValueError("varying_axis must be 'time' or 'space'")
    if target.shape != blocks.shape[:2]:
        raise ValueError(f"u_t shape {u_t.shape} does not match the {varying_axis}-varying "
                         f"blocks {blocks.shape[:2]}")
    return _normalized_system(blocks, target, descriptors, varying_axis, step_coords)


def normalize_columns(blocks: np.ndarray, target: np.ndarray, descriptors: tuple[str, ...],
                      varying_axis: str, step_coords: np.ndarray) -> GroupedLinearSystem:
    """The system on a copy of step-major `blocks` (n_steps, n_rows, n_groups) with every column
    rescaled to unit L2 norm, remembering the scales.

    For a system built by hand; `blocks` itself is left as it is.
    """
    return _normalized_system(np.array(blocks, dtype=float, order="K"), np.asarray(target),
                              descriptors, varying_axis, step_coords)


def _normalized_system(blocks: np.ndarray, target: np.ndarray, descriptors: tuple[str, ...],
                       varying_axis: str, step_coords: np.ndarray) -> GroupedLinearSystem:
    """The system on `blocks` divided by their column norms in place, those norms its scales.

    The norms are summed over the blocks in their own memory layout, which
    `normalize_columns`' copy keeps.  The system checks its shapes and its
    scales (a zero column) before the blocks are divided.
    """
    norms = np.sqrt(np.einsum("mng,mng->mg", blocks, blocks))
    system = GroupedLinearSystem(blocks, target, tuple(descriptors), varying_axis,
                                 np.asarray(step_coords, dtype=float), norms)
    blocks /= norms[:, None, :]
    return system


@dataclass(frozen=True)
class CoefficientTrajectories:
    """Per-term coefficient values along the varying axis, with a group mask."""

    values: np.ndarray  # (n_steps, n_groups), physical scale
    active: np.ndarray  # (n_groups,) bool
    descriptors: tuple[str, ...]
    step_coords: np.ndarray
    varying_axis: str

    def __post_init__(self):
        m, g = self.values.shape
        if len(self.descriptors) != g or self.active.shape != (g,) or self.step_coords.shape != (m,):
            raise ValueError("inconsistent trajectory shapes")
        inactive = ~self.active
        if inactive.any() and np.any(self.values[:, inactive] != 0.0):
            raise ValueError("excluded groups must have exactly-zero trajectories")

    @property
    def selected(self) -> tuple[str, ...]:
        return tuple(d for d, a in zip(self.descriptors, self.active) if a)

    def group(self, descriptor: str) -> np.ndarray:
        return self.values[:, self.descriptors.index(descriptor)]

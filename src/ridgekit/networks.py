"""Dictionary-based activations and shallow-network builders.

A countable dictionary u_1, u_2, ... of rational-coefficient polynomials is
realized through an explicit bijection between positive integers and sparse
coefficient maps, so both directions (index -> polynomial, polynomial ->
index) are exactly computable.  The activation tau stores the whole dictionary
along the first axis: tau(x + 3m e_1) = u_m(x) inside the unit-ball cell at
3m e_1, with smooth fade-out between cells; the complex activation phi does the
same on the complex line with bidegree profiles.
"""

import math
from fractions import Fraction

import numpy as np

from .polycore import (ComplexBiPolynomial, ExactComplex, MultiIndexPolynomial,
                       contract_terms, point_rows, rank_grlex, unrank_grlex)
from .quasiproj import smooth_step

CELL_SPACING = 3.0
BLEND_OUTER = 1.4  # cell value fades to zero by this radius; cells stay disjoint
# largest excess of a unit's input-map norm over 1 that the builders accept
UNIT_NORM_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Index codec

# hex digit -> its two base-4 digits
_QUATERNARY = {ord(h): f"{v // 4}{v % 4}" for v, h in enumerate("0123456789abcdef")}


def _index_from_lists(lists):
    """Bijection from nonempty lists of nonempty lists of naturals onto the
    naturals: the bijective base-4 numeral (digits 1-4) that writes each
    natural n in bijective binary (digits 1, 2), separates the items of a list
    by 3 and the lists by 4.  With every digit lowered by one, the numeral is
    the ordinary base-4 string D of its k digits, worth int(D, 4) +
    (4^k - 1) / 3, and the bijective binary of n is the binary of n + 1
    without its leading 1."""
    digits = "3".join("2".join(format(n + 1, "b")[1:] for n in items) for items in lists)
    return (int(digits, 4) if digits else 0) + (1 << 2 * len(digits)) // 3


def _lists_from_index(index):
    """Inverse of `_index_from_lists`."""
    # k digits, the most with (4^k - 1) / 3 <= index; 4^k marks the k-th digit from the right
    power = 1 << 2 * (((3 * index + 1).bit_length() - 1) // 2)
    marked = format(index - power // 3 + power, "x").translate(_QUATERNARY)
    digits = marked[marked.index("1") + 1:]
    return [[int("1" + bits, 2) - 1 for bits in items.split("2")] for items in digits.split("3")]


def _coefficient_items(c):
    """Bijection from nonzero Fractions onto finite lists of naturals, with
    1 -> [] and c < 0 exactly when the first item is odd.  The canonical
    continued fraction [a0; a1, ..., an] of |c| (an >= 2 once n >= 1) gives
    [2 a0, a1 - 1, ..., a(n-1) - 1, an - 2]; an integer |c| = a0 gives
    [2 (a0 - 2)], or [2 (a0 - 1)] when c < 0; then 1 is added to the first
    item when c < 0."""
    negative, p, q = c < 0, abs(c.numerator), c.denominator
    if q == 1:
        return [] if c == 1 else [2 * (p - 2 + negative) + negative]
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p % q
    return [2 * terms[0] + negative] + [t - 1 for t in terms[1:-1]] + [terms[-1] - 2]


def _coefficient_from_items(items):
    """Inverse of `_coefficient_items`."""
    if not items:
        return Fraction(1)
    head, negative = divmod(items[0], 2)
    if len(items) == 1:
        value = Fraction(head + 2 - negative)
    else:
        terms = [head] + [t + 1 for t in items[1:-1]] + [items[-1] + 2]
        # convergent recurrence: t + 1 / (p / q) = (t p + q) / p, already in lowest terms
        p, q = terms[-1], 1
        for t in reversed(terms[:-1]):
            p, q = t * p + q, p
        value = Fraction(p, q)
    return -value if negative else value


class _Dictionary:
    """Index <-> polynomial maps shared by both dictionaries: index 1 is the
    zero polynomial, and index i > 1 is `_index_from_lists` of one list per
    nonzero slot, in slot order, plus 2: the count of empty slots before it
    since the previous nonzero slot, then the slot's items
    (`_coefficient_items`).  A coefficient has `_parts` real parts (1 in a
    real dictionary; real and imaginary, 2, in a complex one), and part p of
    the coefficient whose flat key has grlex rank r sits in slot
    `_parts * r + p`.  Subclasses give `_parts`, the polynomial class `_poly`
    and `_coefficient`, which makes a coefficient from its parts."""

    def __init__(self, var_count):
        if var_count < 1:
            raise ValueError("need at least one variable")
        self.var_count = var_count
        self._cache = {}

    def polynomial_at(self, index):
        if index < 1:
            raise ValueError("indices start at 1")
        if index in self._cache:
            return self._cache[index]
        coefficients, slot = {}, -1
        for gap, *items in (_lists_from_index(index - 2) if index > 1 else []):
            slot += gap + 1
            rank, part = divmod(slot, self._parts)
            coefficients.setdefault(rank, [Fraction(0)] * self._parts)[part] = (
                _coefficient_from_items(items))
        width = self._poly._halves * self.var_count
        return self._remember(index, self._poly._from_flat(self.var_count, {
            unrank_grlex(width, rank): self._coefficient(*parts)
            for rank, parts in coefficients.items()}))

    def _remember(self, index, poly):
        """Cache the entry `poly` at `index` (up to 4096 entries) and return it."""
        if len(self._cache) < 4096:
            self._cache[index] = poly
        return poly

    def index_of(self, poly):
        if poly.dim != self.var_count:
            raise ValueError("variable count mismatch")
        if poly.is_zero():
            return 1
        # the terms are in grlex order, so their slots ascend
        lists, previous = [], -1
        for key, c in poly._terms.items():
            for slot, value in enumerate(map(Fraction, self._split(c)),
                                         self._parts * rank_grlex(key)):
                if value:
                    lists.append([slot - previous - 1] + _coefficient_items(value))
                    previous = slot
        return _index_from_lists(lists) + 2

    def _split(self, c):
        """The `_parts` parts of the coefficient c (see `_parts_of`)."""
        parts = _parts_of(c)
        if parts[1] and self._parts == 1:
            raise ValueError(f"coefficient {c!r} is not real")
        return parts[:self._parts]

    def _find_index(self, profile, tol):
        """Dictionary entry within `tol` of a float-coefficient profile in the
        l1 norm of the coefficients' parts, by one dyadic rounding: each of
        the T parts goes to the nearest multiple of 2^-j with
        j = ceil(log2(T / tol)) - 1 (at least 0), so it moves by at most
        2^(-j-1) <= tol / T.  Every monomial is at most 1 in modulus on the
        unit ball, so the entry is within `tol` of the profile there too.
        Returns (index, entry) and caches the entry, so `polynomial_at(index)`
        need not decode it."""
        if profile.dim != self.var_count:
            raise ValueError("variable count mismatch")
        j = _denominator_exponent(self._parts * len(profile._terms), tol)
        entry = self._poly._from_keys(self.var_count, {
            key: self._coefficient(*(_round_dyadic(part, j) for part in self._split(c)))
            for key, c in profile._terms.items()})
        index = self.index_of(entry)
        return index, self._remember(index, entry)


class PolynomialDictionary(_Dictionary):
    """Indexed enumeration of rational-coefficient polynomials in `var_count`
    real variables.  Index 1 is the zero polynomial; the index <-> polynomial
    maps are mutually inverse for every index."""

    _poly, _parts, _coefficient = MultiIndexPolynomial, 1, Fraction

    def find_index(self, profile, tol):
        """(index, entry) of the entry within `tol` of `profile` (see `_find_index`)."""
        return self._find_index(profile, tol)


class ComplexPolynomialDictionary(_Dictionary):
    """Enumeration of univariate bidegree polynomials (in w and conj w) with
    Gaussian-rational coefficients.  Real and imaginary parts are rounded
    separately, so `find_index` bounds sum |d re| + |d im| (at least the l1
    distance, with no square roots) with one more bit than the real rule."""

    _poly, _parts, _coefficient = ComplexBiPolynomial, 2, ExactComplex

    def __init__(self):
        super().__init__(1)

    def find_index(self, profile, tol):
        """(index, entry) of the entry within `tol` of `profile` (see `_find_index`)."""
        return self._find_index(profile, tol)


def _parts_of(c):
    """Real and imaginary parts of a coefficient: floats for a complex, a
    coefficient's own parts for an ExactComplex, and c and 0 for a real c."""
    if isinstance(c, ExactComplex):
        return c.re, c.im
    if isinstance(c, (complex, np.complexfloating)):
        return c.real, c.imag
    return c, 0


def _denominator_exponent(count, tol):
    """Least j >= 0 with count * 2^(-j-1) <= tol, that is
    ceil(log2(count / tol)) - 1 when tol < count, found without rounding:
    rounding `count` numbers to multiples of 2^-j moves them by at most tol
    in total."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    j = 0
    while math.ldexp(tol, j + 1) < count:
        j += 1
    return j


def _round_dyadic(value, j):
    """Nearest multiple of 2^-j to `value`, ties to even.  A float is scaled
    by ldexp, exact short of overflow, and rounded as a float (which also
    rounds half to even); any other value, or a float whose scaling
    overflows, is rounded as a Fraction."""
    if isinstance(value, float):
        try:
            return Fraction(round(math.ldexp(value, j)), 1 << j)
        except OverflowError:
            pass
    return Fraction(round(Fraction(value) * (1 << j)), 1 << j)


# ---------------------------------------------------------------------------
# Activations


def tau_eval(dictionary, x):
    """Activation value at x in R^ell: the dictionary polynomial of the nearest
    cell, faded out smoothly away from the cell ball.  The m = 0 cell is zero.

    x is a double, so only cells of small index are reachable: where
    |x_1| >= 2^53 this raises ValueError (`_cell_index`).  The indices of
    built networks run to hundreds of bits, so networks evaluate each unit in
    its own cell, without this function."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = _cell_index(x[0])
    if m <= 0:
        return 0.0
    shifted = x.copy()
    shifted[0] -= CELL_SPACING * m
    radius = np.linalg.norm(shifted)
    weight = _blend_weight(radius)
    if weight == 0.0:
        return 0.0
    poly = dictionary.polynomial_at(m)
    return weight * float(poly.map_coefficients(float).eval_many(shifted[None, :])[0])


def _cell_index(first):
    """Index m of the cell nearest the first input coordinate `first`.  Past
    2^53 in modulus a double holds neither m nor the offset in the cell, so
    there this raises ValueError instead of reading another entry's cell."""
    if not abs(first) < 2.0 ** 53:
        raise ValueError(f"activation input {first!r} along the cell axis is not below 2^53 "
                         "in modulus, so its cell and its offset there are lost in a double")
    return round(first / CELL_SPACING)


def _blend_weight(radius):
    """1 inside the unit ball, smooth decay to 0 at the blend radius."""
    return 1.0 - smooth_step((radius - 1.0) / (BLEND_OUTER - 1.0))


def phi_eval(dictionary, z):
    """Complex activation: phi(z + 3m) = u_m(z) on the unit square cell.
    Reaches only cells of small index, and raises where |Re z| >= 2^53, as
    `tau_eval` does."""
    z = complex(z)
    m = _cell_index(z.real)
    if m <= 0:
        return 0j
    w = z - CELL_SPACING * m
    weight = (_blend_weight(abs(w.real)) * _blend_weight(abs(w.imag)))
    if weight == 0.0:
        return 0j
    poly = dictionary.polynomial_at(m)
    return weight * complex(poly.eval_many(np.array([[w]]))[0])


# ---------------------------------------------------------------------------
# Networks


class _Network:
    """What both networks share: their units, read once, at construction.

    Each unit is a dict of its input map, in-cell bias and outer weight (the
    fields `_fields`) and its `dict_index`.  The fields are copied into frozen
    stacks of dtype `_dtype`, `units` holds a dict per unit of read-only
    views of them, and the units' profiles are laid out for evaluation, one
    stacked layout per group of units whose layouts share shape and heads.  A
    unit maps a point to `ell` inputs.  Subclasses give the blend weight and
    sum through `_unit_sum`."""

    def __init__(self, d, units, dictionary):
        self.d = d
        self.dictionary = dictionary
        stacks = [np.array([u[name] for u in units], dtype=self._dtype) for name in self._fields]
        for stack in stacks:
            stack.setflags(write=False)
        self.units = [dict(zip(self._fields, entries), dict_index=int(u["dict_index"]))
                      for u, *entries in zip(units, *stacks)]
        maps, shifts, self._outer = stacks
        self._maps = maps.reshape(self.n * self.ell, d).T
        self._shifts = shifts.reshape(self.n * self.ell)
        groups = {}
        for k, u in enumerate(self.units):
            grouped, heads = dictionary.polynomial_at(u["dict_index"]).layout(self._dtype)
            members, layouts, _ = groups.setdefault((grouped.shape, heads.tobytes()),
                                                    ([], [], heads))
            members.append(k)
            layouts.append(grouped)
        # a run of consecutive units is a slice, so its inputs are read without a copy
        self._groups = [(slice(members[0], members[-1] + 1)
                         if members[-1] - members[0] == len(members) - 1 else members,
                         (np.stack(layouts), heads))
                        for members, layouts, heads in groups.values()]

    @property
    def n(self):
        return len(self.units)

    def _local(self, points):
        """The (N, n, ell) inputs of the units, in their own cells, at an
        (N, d) array of points (or one point)."""
        points = point_rows(points, self._dtype, self.d)
        return (points @ self._maps + self._shifts).reshape(points.shape[0], self.n, self.ell)

    def _unit_sum(self, inputs, weights):
        """sum_k outer_k * weights[:, k] * P_k(inputs[:, k]) at N points: the
        (N, n, width) flat profile inputs of the n units and their (N, n)
        blend weights.  Each group's units are contracted in one stack, each
        at its own inputs."""
        values = np.empty(weights.shape, dtype=inputs.dtype)
        for members, layout in self._groups:
            values[:, members] = contract_terms(layout, inputs[:, members].swapaxes(0, 1)).T
        return (weights * values) @ self._outer


class GTNetwork(_Network):
    """Shallow generalized-translation network sum c_k tau(A_k x + b_k)."""

    _dtype, _fields, _header = float, ("A", "b", "c"), ("ell", "d")

    def __init__(self, ell, d, units, dictionary):
        self.ell = ell
        super().__init__(d, units, dictionary)

    def eval_many(self, points):
        """sum_k c_k w(|y_k|) u_k(y_k), y_k = A_k x + b_k, at an (N, d) array
        of points (or one point): each unit is evaluated in its own cell, with
        w the blend weight and u_k its dictionary entry, so this is
        sum_k c_k tau(y_k + 3 m_k e_1) while each y_k is nearest to that cell."""
        local = self._local(points)
        return self._unit_sum(local, _blend_weight(np.linalg.norm(local, axis=2)))

    __call__ = eval_many


class CVNNetwork(_Network):
    """Shallow complex-valued network sum gamma_k phi(alpha_k . z + beta_k)."""

    _dtype, _fields, _header = complex, ("alpha", "beta", "gamma"), ("d",)
    ell = 1

    def eval_many(self, points):
        """sum_k gamma_k phi(alpha_k . z + beta_k + 3 m_k) at an (N, d) complex
        array of points (or one point), each unit evaluated in its own cell as
        in `GTNetwork.eval_many`; a profile is read at (w, conj w)."""
        local = self._local(points)
        weights = _blend_weight(np.abs(local.real)) * _blend_weight(np.abs(local.imag))
        return self._unit_sum(np.concatenate([local, local.conj()], axis=2), weights[..., 0])

    __call__ = eval_many


def gtn_from_decomposition(decomp, dictionary, tol):
    """Network with one unit per ridge block: each profile P_k is rounded into
    the dictionary by `find_index`, and the unit's input A_k x stays in that
    entry's cell.  `net.certificate`, at most n * tol, bounds
    sup |net - sum_k P_k(A_k x)| over the unit ball (see `_build`)."""
    if dictionary.var_count != decomp.ell:
        raise ValueError("dictionary variable count must match ell")
    return _build(GTNetwork, decomp, decomp.matrices, dictionary, tol, "spectral norm of A",
                  "row-orthonormalize it with orthonormalize_rows(A, P)")


def cvnn_from_decomposition(cdecomp, dictionary, tol):
    """Complex counterpart of `gtn_from_decomposition`, one unit
    phi(alpha_k . z) per ridge term."""
    return _build(CVNNetwork, cdecomp, cdecomp.vectors, dictionary, tol, "norm of alpha",
                  "divide alpha by its norm r and use the profile P(r w)")


def _build(cls, decomp, maps, dictionary, tol, name, remedy):
    """The `cls` network with one unit of weight 1 and bias 0 per ridge term
    of `decomp`: input map `maps[k]` and profile P_k rounded into `dictionary`
    by `find_index`.  `net.certificate` is sum_k mismatch_k *
    max(1, |maps[k]|_2)^deg P_k, rounded up to a float.  mismatch_k, the exact
    sum |d re| + |d im| over the coefficients, is at most tol, and every
    monomial of degree e is at most r^e in modulus where |y| <= r.  A unit's
    input stays in the unit ball, where the blend weight is 1, only while its
    map's norm is at most 1; past 1 + UNIT_NORM_SLACK this raises ValueError
    naming the norm and the `remedy`."""
    units, certificate = [], Fraction(0)
    for unit, (M, P) in enumerate(zip(maps, decomp.profiles)):
        norm = np.linalg.norm(M, 2)
        if norm > 1 + UNIT_NORM_SLACK:
            raise ValueError(f"unit {unit}: {name} is {norm:.6g} > 1, so its input can leave "
                             f"the cell where the activation equals its profile; {remedy}")
        index, entry = dictionary.find_index(P, tol)
        rounded = entry.terms
        mismatch = sum(abs(Fraction(a) - b) for key, c in P.terms.items()
                       for a, b in zip(_parts_of(c), _parts_of(rounded.get(key, 0))))
        degree = max((key.order() for key in P._terms), default=0)
        certificate += mismatch * Fraction(max(1.0, float(norm))) ** degree
        units.append(dict(zip(cls._fields, (M, np.zeros(M.shape[:-1]), 1.0)), dict_index=index))
    net = cls(*(getattr(decomp, key) for key in cls._header), units, dictionary)
    net.certificate = float(certificate)  # rounded up below if float() rounded down
    if net.certificate < certificate:
        net.certificate = math.nextafter(net.certificate, math.inf)
    return net

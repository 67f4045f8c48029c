"""Rational transfer functions with exact coefficient arithmetic.

Polynomials are stored densely in ascending coefficient order; a rational
transfer function keeps a monic denominator so equal functions have equal
coefficient vectors.  Pole/zero cancellation is explicit (``simplify``),
never silent, and all root finding goes through companion-matrix
eigenvalues.  ``simplify`` cancels at the means of clusters of
denominator roots, so a repeated root, which the companion matrix splits
by about the square root of machine precision, cancels to full accuracy.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NumericalError, ValidationError

MAX_DEGREE = 64
DEFAULT_TOL_ZERO = 1e-12
DEFAULT_TOL_CANCEL = 1e-8

# The floor of the relative root-cluster radius of ``simplify``,
# ``10 max(tol_cancel, _REAL_ROOT_IMAG_TOL)``; a cluster whose mean lies
# within that radius of the real axis counts as real.
_REAL_ROOT_IMAG_TOL = 1e-9


class ExcessiveDegree(ValidationError):
    """Polynomial degree exceeds the supported maximum."""


class ZeroFunctionInverse(ValidationError):
    """Attempted to invert the identically-zero transfer function."""


class DegenerateMean(ValidationError):
    """The inverses of the given transfer functions sum to zero."""


class IndeterminateAt(NumericalError):
    """Numerator and denominator both vanish at the evaluation point."""

    def __init__(self, s: complex):
        super().__init__(f"numerator and denominator both vanish at s = {s}")
        self.s = s


class _AtInfinityType:
    """Singleton marking an evaluation that diverges (pole hit exactly)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AtInfinity"


AT_INFINITY = _AtInfinityType()

ExtComplex = Union[complex, _AtInfinityType]


def is_at_infinity(value: ExtComplex) -> bool:
    return value is AT_INFINITY


class Properness(enum.Enum):
    STRICTLY_PROPER = "strictly_proper"
    PROPER_BIPROPER = "proper_biproper"
    IMPROPER = "improper"


class Polynomial:
    """Real polynomial ``c0 + c1 s + ... + cd s^d`` (ascending coefficients).

    Trailing coefficients whose magnitude is at most ``DEFAULT_TOL_ZERO``
    times the largest coefficient are trimmed on construction, so the stored
    degree is the numerically supported one.  The zero polynomial is stored
    as ``[0.0]`` and reports degree ``-1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[Sequence[float], np.ndarray]):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float)).ravel()
        if arr.size == 0:
            raise ValidationError("polynomial needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("polynomial coefficients must be finite")
        scale = float(np.max(np.abs(arr)))
        if scale == 0.0:
            arr = np.zeros(1)
        else:
            significant = np.nonzero(np.abs(arr) > DEFAULT_TOL_ZERO * scale)[0]
            if significant.size == 0:
                arr = np.zeros(1)
            else:
                arr = np.array(arr[: significant[-1] + 1])
        if arr.size - 1 > MAX_DEGREE:
            raise ExcessiveDegree(
                f"polynomial degree {arr.size - 1} exceeds the supported "
                f"maximum of {MAX_DEGREE}"
            )
        arr.setflags(write=False)
        self.coeffs = arr

    @classmethod
    def _trimmed(cls, coeffs: np.ndarray) -> "Polynomial":
        """The polynomial of read-only ``coeffs`` that ``__init__`` would
        store unchanged: finite, trimmed, within ``MAX_DEGREE``."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"


def _trim_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors along the last axis, each trimmed as
    ``Polynomial`` trims one at the default tolerance, and their degrees
    (-1 for a zero vector).  Trimmed slots hold +0.0; no degree limit is
    enforced.

    The last axis is short (a few coefficients), so the scale and the
    degree are taken column by column: a numpy reduction over a short
    last axis costs far more than the elementwise ops, with equal results.
    """
    mag = np.abs(rows)
    width = rows.shape[-1]
    scale = mag[..., 0]
    for col in range(1, width):
        scale = np.maximum(scale, mag[..., col])
    limit = DEFAULT_TOL_ZERO * scale
    degree = np.full(rows.shape[:-1], -1, dtype=np.intp)
    for col in range(width):
        degree[mag[..., col] > limit] = col
    return np.where(np.arange(width) <= degree[..., None], rows, 0.0), degree


def _normalized_table(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows ``(num, den)`` of a ``(k, 2, w)`` coefficient table
    normalized as ``RationalTF`` normalizes one pair: trimmed, divided by
    the leading denominator coefficient, trimmed again.

    Returns the normalized table, its ``(k, 2)`` degrees and the mask of
    the rows ``RationalTF`` rejects: a coefficient that is not finite,
    before or after the division, a zero denominator, or a degree above
    ``MAX_DEGREE``.  Rejected rows hold no meaningful coefficients.
    """
    trimmed, degree = _trim_rows(table)
    lead = np.where(degree[:, 1] < 0, 1.0, trimmed[np.arange(len(table)), 1, degree[:, 1]])
    with np.errstate(over="ignore"):  # such rows are rejected below
        scaled = trimmed / lead[:, None, None]
    flat = len(table), -1
    rejected = (
        ~np.isfinite(table.reshape(flat)).all(axis=1)
        | ~np.isfinite(scaled.reshape(flat)).all(axis=1)
        | (degree[:, 1] < 0)
        | (np.maximum(degree[:, 0], degree[:, 1]) > MAX_DEGREE)
    )
    normalized, degree = _trim_rows(scaled)
    return normalized, degree, rejected


def _tfs_from_table(table: np.ndarray) -> list[RationalTF]:
    """``[RationalTF(num, den) for num, den in table]`` for a ``(k, 2, w)``
    coefficient table, bit for bit, normalized as one table.

    Only the rows ``RationalTF`` rejects are built one by one, in row
    order, so the first of them raises its error.
    """
    normalized, degree, rejected = _normalized_table(table)
    normalized.setflags(write=False)
    return [
        RationalTF(*table[k]) if rejected[k]
        else RationalTF._normalized(normalized[k, 0, : max(dn, 0) + 1], normalized[k, 1, : dd + 1])
        for k, (dn, dd) in enumerate(degree.tolist())
    ]


def poly_eval(p: Polynomial, s: complex) -> complex:
    """Evaluate ``p`` at ``s`` by Horner's scheme."""
    return complex(npoly.polyval(complex(s), p.coeffs))


def _poly_envelope(coeffs: np.ndarray, radius: float) -> float:
    """Sum of |c_k| * radius^k; the natural magnitude scale of an evaluation."""
    powers = radius ** np.arange(len(coeffs))
    return float(np.abs(coeffs) @ powers)


def poly_roots(p: Polynomial) -> np.ndarray:
    """Roots via the companion matrix, sorted by (real, imaginary) part."""
    if p.degree <= 0:
        return np.zeros(0, dtype=complex)
    roots = np.asarray(npoly.polyroots(p.coeffs), dtype=complex)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


class RationalTF:
    """Ratio of two real polynomials, normalized to a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ValidationError("denominator polynomial is zero")
        lead = den.coeffs[-1]
        with np.errstate(over="ignore"):  # Polynomial rejects the overflow
            self.num = Polynomial(num.coeffs / lead)
            self.den = Polynomial(den.coeffs / lead)

    @classmethod
    def _normalized(cls, num: np.ndarray, den: np.ndarray) -> "RationalTF":
        """The function of read-only coefficients that ``__init__`` would
        store unchanged (see ``_normalized_table``)."""
        g = object.__new__(cls)
        g.num, g.den = Polynomial._trimmed(num), Polynomial._trimmed(den)
        return g

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __repr__(self) -> str:
        return f"RationalTF(num={list(self.num.coeffs)}, den={list(self.den.coeffs)})"


def tf_eval(g: RationalTF, s: complex,
            tol_zero: float = DEFAULT_TOL_ZERO) -> ExtComplex:
    """Evaluate ``g`` at ``s`` on the extended complex plane.

    A vanishing denominator with non-vanishing numerator yields
    :data:`AT_INFINITY`; both vanishing raises :class:`IndeterminateAt`.
    Vanishing is judged against the evaluation envelope ``sum |c_k| |s|^k``,
    which tracks the cancellation actually achievable in floating point.
    """
    s = complex(s)
    radius = abs(s)
    num_val = complex(npoly.polyval(s, g.num.coeffs))
    den_val = complex(npoly.polyval(s, g.den.coeffs))
    num_small = abs(num_val) <= tol_zero * _poly_envelope(g.num.coeffs, radius)
    den_small = abs(den_val) <= tol_zero * _poly_envelope(g.den.coeffs, radius)
    if den_small:
        if num_small:
            raise IndeterminateAt(s)
        return AT_INFINITY
    return num_val / den_val


def tf_add(a: RationalTF, b: RationalTF) -> RationalTF:
    """Exact sum, followed by one simplification pass.

    Equal denominators add their numerators: cross multiplying squares each
    pole, and ``simplify`` cannot always rejoin the copies (``g + g`` over
    eight real poles in [0.5, 2] would keep 15 of 16, off by 6.7e-8).
    """
    if np.array_equal(a.den.coeffs, b.den.coeffs):
        return simplify(RationalTF(npoly.polyadd(a.num.coeffs, b.num.coeffs), a.den))
    num = npoly.polyadd(npoly.polymul(a.num.coeffs, b.den.coeffs),
                        npoly.polymul(b.num.coeffs, a.den.coeffs))
    den = npoly.polymul(a.den.coeffs, b.den.coeffs)
    return simplify(RationalTF(num, den))


def tf_mul(a: RationalTF, b: RationalTF) -> RationalTF:
    num = npoly.polymul(a.num.coeffs, b.num.coeffs)
    den = npoly.polymul(a.den.coeffs, b.den.coeffs)
    return simplify(RationalTF(num, den))


def tf_scale(g: RationalTF, c: float) -> RationalTF:
    return RationalTF(g.num.coeffs * float(c), g.den.coeffs)


def tf_inv(g: RationalTF) -> RationalTF:
    if g.num.is_zero:
        raise ZeroFunctionInverse("cannot invert the zero transfer function")
    return RationalTF(g.den.coeffs, g.num.coeffs)


def _horner(coeffs: np.ndarray, s: complex) -> tuple[complex, float]:
    """``p(s)`` and the envelope ``sum |c_k| |s|^k`` in one pure-Python
    Horner pass, cheaper than numpy for the few coefficients of a node."""
    value, envelope, radius = 0.0, 0.0, abs(s)
    for c in reversed(coeffs.tolist()):
        value = value * s + c
        envelope = envelope * radius + abs(c)
    return value, envelope


def _root_clusters(roots: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Single-link clusters of ``roots`` as ``(mean, size)``, in the order
    of their first members: two roots ``r``, ``q`` are linked when
    ``|r - q| <= radius * (1 + max(|r|, |q|))``."""
    roots = roots.tolist()
    label = list(range(len(roots)))
    for i, r in enumerate(roots):
        for j, q in enumerate(roots[:i]):
            if label[j] != label[i] and abs(r - q) <= radius * (1.0 + max(abs(r), abs(q))):
                low, high = sorted((label[i], label[j]))
                label = [low if k == high else k for k in label]
    members: dict[int, list[complex]] = {}
    for k, r in zip(label, roots):
        members.setdefault(k, []).append(r)
    return [(sum(c) / len(c), len(c)) for c in members.values()]


def simplify(g: RationalTF, tol_cancel: float = DEFAULT_TOL_CANCEL) -> RationalTF:
    """Cancel shared numerator/denominator roots.

    The denominator roots are grouped by ``_root_clusters`` at the radius
    ``10 max(tol_cancel, _REAL_ROOT_IMAG_TOL)`` and cancelled at each
    cluster's mean: the companion matrix splits a well-conditioned double
    root by about the square root of machine epsilon, around a mean
    accurate to machine precision.  (A triple root splits by about
    eps^(1/3), beyond the radius; its members cancel one by one.)  A
    cluster whose mean lies within the radius of the real axis cancels
    ``s - r``; one above the axis cancels ``(s - r)(s - conj r)`` for
    itself and its mirror image.

    The factor is divided out of the numerator up to the cluster's size
    while the remainder is at most ``tol_cancel`` times the evaluation
    envelope ``sum |c_k| |r|^k``, the root-distance test weighted by the
    local derivative.  Uncancelled members stay in the denominator at the
    cluster mean.  When nothing cancels the input is returned unchanged,
    with its exact coefficients.
    """
    if g.num.is_zero:
        return RationalTF(np.zeros(1), np.ones(1))
    if g.num.degree == 0:  # no numerator root to cancel
        return g
    radius = 10.0 * max(tol_cancel, _REAL_ROOT_IMAG_TOL)
    num = g.num.coeffs
    kept: list[complex] = []
    for mean, size in _root_clusters(poly_roots(g.den), radius):
        if abs(mean.imag) <= radius * (1.0 + abs(mean)):
            root, factor = mean.real, np.array([-mean.real, 1.0])
        elif mean.imag > 0.0:
            root, factor = mean, np.array([abs(mean) ** 2, -2.0 * mean.real, 1.0])
        else:
            continue  # its mirror cluster above the axis stands for it
        left = size
        while left and len(num) >= len(factor):
            # The remainder R of a division by the factor has R(root) =
            # num(root), so no division cancels where num(root) is not small.
            value, envelope = _horner(num, root)
            if abs(value) > tol_cancel * envelope:
                break
            quot, rem = npoly.polydiv(num, factor)
            if _poly_envelope(rem, max(1.0, abs(root))) > tol_cancel * envelope:
                break
            num, left = quot, left - 1
        roots = [complex(root)] if len(factor) == 2 else [mean.conjugate(), mean]
        kept += roots * left

    if num is g.num.coeffs:
        return g
    lead = g.den.coeffs[-1]
    if kept:
        den_new = npoly.polyfromroots(kept)
        den_new = np.real_if_close(den_new, tol=1000)
        den_new = np.asarray(den_new.real, dtype=float) * lead
    else:
        den_new = np.array([lead])
    return RationalTF(num, den_new)


def harmonic_mean(gs: Iterable[RationalTF]) -> RationalTF:
    """Harmonic mean ``( (1/n) sum g_i^{-1} )^{-1}`` of transfer functions.

    The sum of inverses is accumulated by exact cross multiplication, or by
    adding numerators over proportional denominators (with monic
    renormalization to keep magnitudes in range), and a single
    simplification runs at the very end, so intermediate cancellations can
    never change the result.
    """
    gs = list(gs)
    if not gs:
        raise ValidationError("harmonic_mean needs at least one transfer function")
    for g in gs:
        if g.num.is_zero:
            raise ZeroFunctionInverse(
                "harmonic_mean is undefined when a node function is zero")

    acc_num = np.array(gs[0].den.coeffs)
    acc_den = np.array(gs[0].num.coeffs)
    for g in gs[1:]:
        inv_num, inv_den = g.den.coeffs, g.num.coeffs
        if np.array_equal(acc_den / acc_den[-1], inv_den / inv_den[-1]):
            # Proportional denominators add their numerators directly, as in
            # ``tf_add``: cross multiplying would raise the multiplicity of
            # every common root.
            scale = acc_den[-1] / inv_den[-1]
            acc_num = npoly.polytrim(npoly.polyadd(acc_num, scale * inv_num), 0.0)
        else:
            acc_num = npoly.polytrim(npoly.polyadd(npoly.polymul(acc_num, inv_den),
                                                   npoly.polymul(inv_num, acc_den)), 0.0)
            acc_den = npoly.polymul(acc_den, inv_den)
        lead = acc_den[-1]
        acc_num = acc_num / lead
        acc_den = acc_den / lead
        if len(acc_num) - 1 > MAX_DEGREE or len(acc_den) - 1 > MAX_DEGREE:
            raise ExcessiveDegree(
                f"harmonic mean exceeds the supported polynomial degree of {MAX_DEGREE}")

    mean_num = Polynomial(acc_num / len(gs))
    if mean_num.is_zero:
        raise DegenerateMean("the inverses sum identically to zero")
    return simplify(RationalTF(acc_den, mean_num.coeffs))


def poles(g: RationalTF) -> np.ndarray:
    """Denominator roots of a simplified transfer function, sorted."""
    return poly_roots(g.den)


def zeros(g: RationalTF) -> np.ndarray:
    """Numerator roots of a simplified transfer function, sorted."""
    return poly_roots(g.num)


def properness(g: RationalTF) -> Properness:
    num_deg, den_deg = g.num.degree, g.den.degree
    if num_deg < den_deg:
        return Properness.STRICTLY_PROPER
    if num_deg == den_deg:
        return Properness.PROPER_BIPROPER
    return Properness.IMPROPER


def tf_approx_equal(a: RationalTF, b: RationalTF, tol: float = 1e-9) -> bool:
    """Compare canonical (monic-denominator) coefficient vectors."""
    if a.num.degree != b.num.degree or a.den.degree != b.den.degree:
        return False
    scale = max(
        1.0,
        float(np.max(np.abs(a.num.coeffs))), float(np.max(np.abs(b.num.coeffs))),
        float(np.max(np.abs(a.den.coeffs))), float(np.max(np.abs(b.den.coeffs))),
    )
    return (np.allclose(a.num.coeffs, b.num.coeffs, rtol=0.0, atol=tol * scale)
            and np.allclose(a.den.coeffs, b.den.coeffs, rtol=0.0, atol=tol * scale))


def _coeffs_text(p: Polynomial) -> str:
    """``p``'s coefficients, ascending, as round-trip exact reprs."""
    return " ".join(repr(float(c)) for c in p.coeffs)


def tf_to_text(g: RationalTF) -> str:
    """Serialize as ``num: c0 c1 ... / den: d0 d1 ...`` (round-trip exact)."""
    return f"num: {_coeffs_text(g.num)} / den: {_coeffs_text(g.den)}"


def _tf_fields(text: str) -> tuple[list[float], list[float]]:
    """The numerator and denominator coefficients written in ``text``, in
    the grammar of :func:`tf_from_text`; the values are not checked."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValidationError(f"expected 'num: ... / den: ...', got {text!r}")
    num_tokens = parts[0].split()
    den_tokens = parts[1].split()
    if not num_tokens or num_tokens[0].rstrip(":") != "num":
        raise ValidationError(f"transfer function text must start with 'num': {text!r}")
    if not den_tokens or den_tokens[0].rstrip(":") != "den":
        raise ValidationError(f"missing 'den' section in {text!r}")
    try:
        num = [float(tok) for tok in num_tokens[1:]]
        den = [float(tok) for tok in den_tokens[1:]]
    except ValueError as exc:
        raise ValidationError(f"bad coefficient in {text!r}: {exc}") from exc
    if not num or not den:
        raise ValidationError(f"empty coefficient list in {text!r}")
    return num, den


def tf_from_text(text: str) -> RationalTF:
    """Parse the textual form produced by :func:`tf_to_text`.

    The ``num``/``den`` keywords are accepted with or without a trailing
    colon so network-file node lines share the same grammar.
    """
    return RationalTF(*_tf_fields(text))

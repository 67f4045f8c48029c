"""Rational transfer functions with exact coefficient arithmetic.

Polynomials are stored densely in ascending coefficient order; a rational
transfer function keeps a monic denominator so equal functions have equal
coefficient vectors.  Pole/zero cancellation is explicit (``simplify``),
never silent, and all root finding goes through companion-matrix
eigenvalues.
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

# Imaginary parts below this (relative) size mark a companion-matrix root
# as real when regrouping conjugate pairs.
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

    Trailing coefficients whose magnitude is at most ``tol_zero`` times the
    largest coefficient are trimmed on construction, so the stored degree is
    the numerically supported one.  The zero polynomial is stored as ``[0.0]``
    and reports degree ``-1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[Sequence[float], np.ndarray],
                 tol_zero: float = DEFAULT_TOL_ZERO):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float)).ravel()
        if arr.size == 0:
            raise ValidationError("polynomial needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("polynomial coefficients must be finite")
        scale = float(np.max(np.abs(arr)))
        if scale == 0.0:
            arr = np.zeros(1)
        else:
            significant = np.nonzero(np.abs(arr) > tol_zero * scale)[0]
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
    enforced."""
    mag = np.abs(rows)
    significant = mag > DEFAULT_TOL_ZERO * mag.max(axis=-1, keepdims=True)
    degree = rows.shape[-1] - 1 - np.argmax(significant[..., ::-1], axis=-1)
    degree[~significant.any(axis=-1)] = -1
    return np.where(np.arange(rows.shape[-1]) <= degree[..., None], rows, 0.0), degree


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


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return npoly.polymul(a, b)


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return npoly.polyadd(a, b)


class RationalTF:
    """Ratio of two real polynomials, normalized to a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, tol_zero: float = DEFAULT_TOL_ZERO):
        num = num if isinstance(num, Polynomial) else Polynomial(num, tol_zero)
        den = den if isinstance(den, Polynomial) else Polynomial(den, tol_zero)
        if den.is_zero:
            raise ValidationError("denominator polynomial is zero")
        lead = den.coeffs[-1]
        self.num = Polynomial(num.coeffs / lead, tol_zero)
        self.den = Polynomial(den.coeffs / lead, tol_zero)

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


def tf_add(a: RationalTF, b: RationalTF,
           tol_cancel: float = DEFAULT_TOL_CANCEL) -> RationalTF:
    """Exact sum, followed by one simplification pass.

    Equal denominators add their numerators directly: cross multiplying
    would square every denominator root, and a double root is located
    only to about the square root of machine precision, too coarsely for
    ``simplify`` to cancel it back to full accuracy.
    """
    if np.array_equal(a.den.coeffs, b.den.coeffs):
        return simplify(RationalTF(_poly_add(a.num.coeffs, b.num.coeffs), a.den), tol_cancel)
    num = _poly_add(_poly_mul(a.num.coeffs, b.den.coeffs),
                    _poly_mul(b.num.coeffs, a.den.coeffs))
    den = _poly_mul(a.den.coeffs, b.den.coeffs)
    return simplify(RationalTF(num, den), tol_cancel)


def tf_mul(a: RationalTF, b: RationalTF,
           tol_cancel: float = DEFAULT_TOL_CANCEL) -> RationalTF:
    num = _poly_mul(a.num.coeffs, b.num.coeffs)
    den = _poly_mul(a.den.coeffs, b.den.coeffs)
    return simplify(RationalTF(num, den), tol_cancel)


def tf_scale(g: RationalTF, c: float) -> RationalTF:
    return RationalTF(g.num.coeffs * float(c), g.den.coeffs)


def tf_inv(g: RationalTF) -> RationalTF:
    if g.num.is_zero:
        raise ZeroFunctionInverse("cannot invert the zero transfer function")
    return RationalTF(g.den.coeffs, g.num.coeffs)


def _deflate_linear(coeffs: np.ndarray, root: float) -> tuple[np.ndarray, float]:
    """Long division by (s - root); returns (quotient, remainder)."""
    deg = len(coeffs) - 1
    work = np.array(coeffs)
    quot = np.empty(deg)
    for k in range(deg, 0, -1):
        f = work[k]
        quot[k - 1] = f
        work[k - 1] += root * f
    return quot, float(work[0])


def _deflate_quadratic(coeffs: np.ndarray,
                       root: complex) -> tuple[np.ndarray, np.ndarray]:
    """Long division by the real factor (s - root)(s - conj(root)).

    Returns (quotient, remainder) with the degree-1 remainder as ``[r0, r1]``.
    """
    p = -2.0 * root.real
    q = abs(root) ** 2
    deg = len(coeffs) - 1
    work = np.array(coeffs)
    quot = np.zeros(deg - 1)
    for k in range(deg, 1, -1):
        f = work[k]
        quot[k - 2] = f
        work[k] = 0.0
        work[k - 1] -= p * f
        work[k - 2] -= q * f
    return quot, work[:2]


def _try_linear_cancel(num_work: np.ndarray, root: float,
                       tol_cancel: float) -> np.ndarray | None:
    """Quotient of num_work by (s - root) if the remainder is negligible."""
    if len(num_work) < 2:
        return None
    quot, rem = _deflate_linear(num_work, root)
    if abs(rem) <= tol_cancel * _poly_envelope(num_work, abs(root)):
        return quot
    return None


def simplify(g: RationalTF, tol_cancel: float = DEFAULT_TOL_CANCEL) -> RationalTF:
    """Cancel shared numerator/denominator roots.

    Each denominator root is tested by division: the factor is cancelled
    when dividing the numerator by it leaves a remainder at most
    ``tol_cancel`` times the evaluation envelope ``sum |c_k| |root|^k``.
    This is the root-distance test weighted by the local derivative, and it
    stays reliable for repeated roots, whose companion-matrix locations are
    only accurate to a fractional power of machine epsilon.  Conjugate
    pairs are deflated jointly so coefficients remain real; a pair whose
    imaginary part is within the cancellation scale is also retried as a
    twice-repeated real root, because that is how split double roots
    surface.  When nothing cancels the input is returned unchanged,
    preserving its exact coefficients.
    """
    if g.num.is_zero:
        return RationalTF(np.zeros(1), np.ones(1))
    den_roots = poly_roots(g.den)
    if den_roots.size == 0:
        return g

    num_work = np.array(g.num.coeffs)
    kept: list[complex] = []
    used = np.zeros(den_roots.size, dtype=bool)
    changed = False

    for idx, root in enumerate(den_roots):
        if used[idx]:
            continue
        used[idx] = True
        if abs(root.imag) <= _REAL_ROOT_IMAG_TOL * (1.0 + abs(root)):
            quot = _try_linear_cancel(num_work, float(root.real), tol_cancel)
            if quot is not None:
                num_work = quot
                changed = True
            else:
                kept.append(complex(root.real))
        else:
            partner = None
            best = np.inf
            for jdx in range(idx + 1, den_roots.size):
                if used[jdx]:
                    continue
                dist = abs(den_roots[jdx] - root.conjugate())
                if dist < best:
                    best = dist
                    partner = jdx
            if partner is None:
                # Unpaired complex root (defensive; real input coefficients
                # produce exact conjugate pairs).  Keep it as-is.
                kept.append(complex(root))
                continue
            used[partner] = True
            cancelled = False
            if len(num_work) >= 3:
                quot, rem = _deflate_quadratic(num_work, root)
                rem_size = abs(rem[0]) + abs(rem[1]) * max(1.0, abs(root))
                if rem_size <= tol_cancel * _poly_envelope(num_work, abs(root)):
                    num_work = quot
                    changed = True
                    cancelled = True
            if not cancelled:
                near_real_span = 10.0 * max(tol_cancel, _REAL_ROOT_IMAG_TOL)
                if abs(root.imag) <= near_real_span * (1.0 + abs(root)):
                    # A conjugate pair this flat is a split double real root.
                    # Cancel it factor by factor against the numerator.
                    rho = float(root.real)
                    remaining = 2
                    while remaining:
                        quot = _try_linear_cancel(num_work, rho, tol_cancel)
                        if quot is None:
                            break
                        num_work = quot
                        changed = True
                        remaining -= 1
                    kept.extend([complex(rho)] * remaining)
                else:
                    kept.append(complex(root))
                    kept.append(complex(den_roots[partner]))

    if not changed:
        return g
    lead = g.den.coeffs[-1]
    if kept:
        den_new = npoly.polyfromroots(kept)
        den_new = np.real_if_close(den_new, tol=1000)
        den_new = np.asarray(den_new.real, dtype=float) * lead
    else:
        den_new = np.array([lead])
    return RationalTF(num_work, den_new)


def harmonic_mean(gs: Iterable[RationalTF],
                  tol_cancel: float = DEFAULT_TOL_CANCEL) -> RationalTF:
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
            acc_num = npoly.polytrim(_poly_add(acc_num, scale * inv_num), 0.0)
        else:
            acc_num = npoly.polytrim(_poly_add(_poly_mul(acc_num, inv_den),
                                               _poly_mul(inv_num, acc_den)), 0.0)
            acc_den = _poly_mul(acc_den, inv_den)
        lead = acc_den[-1]
        acc_num = acc_num / lead
        acc_den = acc_den / lead
        if len(acc_num) - 1 > MAX_DEGREE or len(acc_den) - 1 > MAX_DEGREE:
            raise ExcessiveDegree(
                f"harmonic mean exceeds the supported polynomial degree of {MAX_DEGREE}")

    mean_num = Polynomial(acc_num / len(gs))
    if mean_num.is_zero:
        raise DegenerateMean("the inverses sum identically to zero")
    return simplify(RationalTF(acc_den, mean_num.coeffs), tol_cancel)


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


def tf_to_text(g: RationalTF) -> str:
    """Serialize as ``num: c0 c1 ... / den: d0 d1 ...`` (round-trip exact)."""
    num = " ".join(repr(float(c)) for c in g.num.coeffs)
    den = " ".join(repr(float(c)) for c in g.den.coeffs)
    return f"num: {num} / den: {den}"


def tf_from_text(text: str) -> RationalTF:
    """Parse the textual form produced by :func:`tf_to_text`.

    The ``num``/``den`` keywords are accepted with or without a trailing
    colon so network-file node lines share the same grammar.
    """
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
    return RationalTF(num, den)

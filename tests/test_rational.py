import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coherelab.rational import (
    AT_INFINITY,
    DEFAULT_TOL_CANCEL,
    MAX_DEGREE,
    DegenerateMean,
    ExcessiveDegree,
    IndeterminateAt,
    Polynomial,
    Properness,
    RationalTF,
    ZeroFunctionInverse,
    harmonic_mean,
    is_at_infinity,
    poles,
    poly_eval,
    poly_roots,
    properness,
    simplify,
    tf_add,
    tf_approx_equal,
    tf_eval,
    tf_from_text,
    tf_inv,
    tf_mul,
    tf_scale,
    tf_to_text,
    zeros,
)
from coherelab.errors import ValidationError


# ---------------------------------------------------------------------------
# strategies

_ROOT_POOL = [-2.5, -2.0, -1.5, -1.0, -0.5, 0.5, 1.0]


@st.composite
def separated_root_tfs(draw, max_degree=3):
    """Simplified transfer functions built from well-separated real roots."""
    pool = draw(st.lists(st.sampled_from(_ROOT_POOL), min_size=0,
                         max_size=2 * max_degree, unique=True))
    split = draw(st.integers(min_value=0, max_value=len(pool)))
    num_roots = pool[:min(split, max_degree)]
    den_roots = pool[split:split + max_degree]
    gain = draw(st.floats(min_value=0.5, max_value=2.0))
    num = np.polynomial.polynomial.polyfromroots(num_roots) * gain
    den = np.polynomial.polynomial.polyfromroots(den_roots)
    return RationalTF(num, den)


_coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_lead = st.floats(min_value=0.3, max_value=3.0)


@st.composite
def coefficient_tfs(draw, max_degree=3):
    num_deg = draw(st.integers(min_value=0, max_value=max_degree))
    den_deg = draw(st.integers(min_value=0, max_value=max_degree))
    num = [draw(_coeff) for _ in range(num_deg)] + [draw(_lead)]
    den = [draw(_coeff) for _ in range(den_deg)] + [draw(_lead)]
    return RationalTF(num, den)


_GENERIC_S = 0.73 + 1.31j


def _finite_eval(g, s):
    value = tf_eval(g, s)
    assume(not is_at_infinity(value))
    return value


# ---------------------------------------------------------------------------
# polynomials

def test_polynomial_trims_trailing_dust():
    p = Polynomial([1.0, 2.0, 1e-15])
    assert p.degree == 1
    assert list(p.coeffs) == [1.0, 2.0]


def test_zero_polynomial_has_negative_degree():
    p = Polynomial([0.0, 0.0])
    assert p.is_zero
    assert p.degree == -1


def test_degree_guard():
    with pytest.raises(ExcessiveDegree):
        Polynomial(np.ones(MAX_DEGREE + 2))


def test_poly_eval_horner():
    p = Polynomial([1.0, -2.0, 3.0])
    s = 0.5 + 0.25j
    assert poly_eval(p, s) == pytest.approx(1 - 2 * s + 3 * s * s)


def test_roots_sorted_lexicographically():
    p = Polynomial(np.polynomial.polynomial.polyfromroots([-1, 2, -1 + 1j, -1 - 1j]).real)
    r = poly_roots(p)
    keys = [(z.real, z.imag) for z in r]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# canonical form and evaluation

def test_monic_denominator_normalization():
    g = RationalTF([2.0], [6.0, 4.0])
    assert g.den.coeffs[-1] == 1.0
    assert g.num.coeffs[0] == pytest.approx(0.5)
    assert tf_eval(g, 0.0) == pytest.approx(2.0 / 6.0)


def test_zero_denominator_rejected():
    with pytest.raises(ValidationError):
        RationalTF([1.0], [0.0])


def test_eval_at_pole_is_infinite():
    g = RationalTF([1.0], [0.0, 1.0])
    assert is_at_infinity(tf_eval(g, 0.0))


def test_eval_indeterminate_when_both_vanish():
    g = RationalTF([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(IndeterminateAt):
        tf_eval(g, 0.0)


def test_inverse_of_zero_function_rejected():
    g = RationalTF([0.0], [1.0, 1.0])
    with pytest.raises(ZeroFunctionInverse):
        tf_inv(g)


@given(coefficient_tfs(), coefficient_tfs())
@example(RationalTF([2.0], [3.0, 0.0, 4.0, 1.0]), RationalTF([2.0], [3.0, 0.0, 4.0, 1.0]))
@settings(max_examples=60, deadline=None)
def test_add_is_pointwise(a, b):
    va, vb = _finite_eval(a, _GENERIC_S), _finite_eval(b, _GENERIC_S)
    total = tf_add(a, b)
    vt = tf_eval(total, _GENERIC_S)
    assume(not is_at_infinity(vt))
    assert vt == pytest.approx(va + vb, rel=1e-7, abs=1e-9)


@given(coefficient_tfs(), coefficient_tfs())
@settings(max_examples=60, deadline=None)
def test_mul_is_pointwise(a, b):
    va, vb = _finite_eval(a, _GENERIC_S), _finite_eval(b, _GENERIC_S)
    prod = tf_mul(a, b)
    vp = tf_eval(prod, _GENERIC_S)
    assume(not is_at_infinity(vp))
    assert vp == pytest.approx(va * vb, rel=1e-7, abs=1e-9)


@given(coefficient_tfs(), st.floats(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_scale_is_pointwise(g, c):
    v = _finite_eval(g, _GENERIC_S)
    assert tf_eval(tf_scale(g, c), _GENERIC_S) == pytest.approx(c * v, abs=1e-10)


@given(separated_root_tfs())
@settings(max_examples=60, deadline=None)
def test_double_inverse_is_identity(g):
    assume(not g.num.is_zero)
    assert tf_approx_equal(tf_inv(tf_inv(g)), g, 1e-12)


@given(separated_root_tfs())
@settings(max_examples=60, deadline=None)
def test_product_with_inverse_is_one(g):
    assume(not g.num.is_zero)
    one = tf_mul(g, tf_inv(g))
    assert one.num.degree == 0 and one.den.degree == 0
    assert float(one.num.coeffs[0]) == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# simplify

def test_simplify_cancels_repeated_numerator_root():
    g = simplify(RationalTF([1.0, 2.0, 1.0], [1.0, 1.0]))
    assert tf_approx_equal(g, RationalTF([1.0, 1.0], [1.0]), 1e-12)


def test_simplify_cancels_nearby_roots_within_tolerance():
    g = simplify(RationalTF([1.0, 1.0], [1.000000001, 1.0]), tol_cancel=1e-6)
    assert g.num.degree == 0 and g.den.degree == 0
    assert float(g.num.coeffs[0]) == pytest.approx(1.0, abs=1e-6)


def test_simplify_cancels_a_double_root_split_into_a_conjugate_pair():
    # The companion matrix of (s - 1.1)^2 returns 1.1 +- 1.6e-8j.
    den = np.polynomial.polynomial.polyfromroots([1.1, 1.1])
    assert np.all(np.abs(poly_roots(Polynomial(den)).imag) > 1e-9)
    raw = RationalTF([-1.1, 1.0], den)
    g = simplify(raw)
    assert g.num.coeffs.tolist() == [1.0] and g.den.coeffs.tolist() == [-1.1, 1.0]
    for s in (0.4 + 0.9j, 2.0, -1.0 + 3.0j):
        assert tf_eval(g, s) == pytest.approx(tf_eval(raw, s), rel=1e-12)


def test_simplify_keeps_distinct_roots():
    g = RationalTF([1.0, 1.0], [2.0, 1.0])
    out = simplify(g)
    assert out is g  # untouched, exact coefficients preserved


@given(separated_root_tfs(), separated_root_tfs())
@settings(max_examples=40, deadline=None)
def test_simplify_preserves_function_values(a, b):
    raw = RationalTF(
        np.polynomial.polynomial.polymul(a.num.coeffs, b.num.coeffs),
        np.polynomial.polynomial.polymul(a.den.coeffs, b.den.coeffs),
    )
    slim = simplify(raw)
    for s in (0.4 + 0.9j, 1.7 - 0.3j):
        v_raw = tf_eval(raw, s)
        v_slim = tf_eval(slim, s)
        assume(not is_at_infinity(v_raw) and not is_at_infinity(v_slim))
        assert v_slim == pytest.approx(v_raw, rel=1e-6, abs=1e-9)


def test_simplify_has_no_shared_roots_afterwards():
    g = simplify(RationalTF(
        np.polynomial.polynomial.polyfromroots([-1.0, -2.0, -3.0]),
        np.polynomial.polynomial.polyfromroots([-2.0, -3.0, -4.0]),
    ))
    num_roots = poly_roots(g.num)
    den_roots = poly_roots(g.den)
    for r in num_roots:
        assert np.min(np.abs(den_roots - r)) > DEFAULT_TOL_CANCEL


# ---------------------------------------------------------------------------
# harmonic mean

def test_harmonic_mean_worked_example():
    g1 = RationalTF([1.0, 1.0], [0.0, 0.0, 1.0])
    g2 = RationalTF([1.1, 1.0], [0.0, 0.0, 1.0])
    hm = harmonic_mean([g1, g2])
    assert np.allclose(poles(hm), [-1.05, 0.0, 0.0], atol=1e-8)
    assert np.allclose(zeros(hm), [-1.1, -1.0], atol=1e-8)


def test_harmonic_mean_of_first_order_pair():
    hm = harmonic_mean([RationalTF([1.0], [2.0, 1.0]),
                        RationalTF([1.0], [4.0, 3.0])])
    assert tf_approx_equal(hm, RationalTF([1.0], [3.0, 2.0]), 1e-12)


@given(separated_root_tfs(), st.integers(min_value=1, max_value=4))
@example(RationalTF([5.0, 9.5, 5.5, 1.0], [1.5, 1.0]), 4)  # (s+1)(s+2)(s+2.5)/(s+1.5)
@settings(max_examples=40, deadline=None)
def test_harmonic_mean_idempotent_on_constant_sequences(g, n):
    assume(not g.num.is_zero)
    hm = harmonic_mean([g] * n)
    assert tf_approx_equal(hm, g, 1e-9)


@given(st.lists(separated_root_tfs(max_degree=2), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_harmonic_mean_matches_pointwise_formula(gs):
    for g in gs:
        assume(not g.num.is_zero)
    hm = harmonic_mean(gs)
    s = _GENERIC_S
    inv_sum = 0.0
    for g in gs:
        v = _finite_eval(g, s)
        assume(abs(v) > 1e-9)
        inv_sum += 1.0 / v
    assume(abs(inv_sum) > 1e-9)
    expected = len(gs) / inv_sum
    got = tf_eval(hm, s)
    assume(not is_at_infinity(got))
    assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_harmonic_mean_degenerate_pair():
    g = RationalTF([2.0, 1.0], [3.0, 4.0, 1.0])
    with pytest.raises(DegenerateMean):
        harmonic_mean([g, tf_scale(g, -1.0)])


def test_harmonic_mean_rejects_zero_member():
    with pytest.raises(ZeroFunctionInverse):
        harmonic_mean([RationalTF([0.0], [1.0]), RationalTF([1.0], [1.0, 1.0])])


# ---------------------------------------------------------------------------
# properness and serialization

def test_properness_classification():
    assert properness(RationalTF([1.0], [0.0, 1.0])) is Properness.STRICTLY_PROPER
    assert properness(RationalTF([1.0, 1.0], [2.0, 1.0])) is Properness.PROPER_BIPROPER
    assert properness(RationalTF([0.0, 0.0, 1.0], [1.0, 1.0])) is Properness.IMPROPER


@given(coefficient_tfs())
@settings(max_examples=60, deadline=None)
def test_text_round_trip_is_exact(g):
    back = tf_from_text(tf_to_text(g))
    assert np.array_equal(back.num.coeffs, g.num.coeffs)
    assert np.array_equal(back.den.coeffs, g.den.coeffs)


def test_text_parse_accepts_colonless_keywords():
    g = tf_from_text("num 1.0 2.0 / den 0.0 1.0")
    assert tf_approx_equal(g, RationalTF([1.0, 2.0], [0.0, 1.0]), 1e-15)


def test_text_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        tf_from_text("num 1.0 2.0")
    with pytest.raises(ValidationError):
        tf_from_text("num 1.0 / den x")

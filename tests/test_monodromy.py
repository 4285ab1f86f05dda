"""Exact circuit matrices, ring arithmetic and the affine action."""

from __future__ import annotations

import dataclasses
import functools
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lemnis import (
    CircuitMatrix,
    ClosureSummary,
    CycInt,
    DomainError,
    IterationLimitError,
    SchwarzVariant,
    base_change_affine,
    e_of,
    general_m0_m1,
    group_closure,
    invariant_hermitian_form,
    m0_m1_closed_form,
    n_matrices,
    ring_gen,
    ring_one,
    units,
)
import lemnis
from lemnis.verify import SUITES, max_abs_diff as _max_abs_diff, sweep
from lemnis.monodromy import _is_unit, _unit_subgroup

G = SchwarzVariant.QUARTIC
E = SchwarzVariant.SEXTIC


def test_ring_generators_square():
    i = ring_gen(G)
    assert i * i == CycInt(-1, 0, G)
    z = ring_gen(E)
    # the hexagonal generator satisfies z^2 = z - 1
    assert z * z == CycInt(-1, 1, E)
    assert abs(z.value - complex(0.5, 3.0**0.5 / 2.0)) < 1e-15


def test_ring_arithmetic_matches_complex():
    rng = random.Random(111)
    for ring in (G, E):
        for _ in range(100):
            a = CycInt(rng.randrange(-9, 10), rng.randrange(-9, 10), ring)
            b = CycInt(rng.randrange(-9, 10), rng.randrange(-9, 10), ring)
            assert abs((a * b).value - a.value * b.value) < 1e-9
            assert abs((a + b).value - (a.value + b.value)) < 1e-12
            assert abs((a - b).value - (a.value - b.value)) < 1e-12
            assert abs((-a).value + a.value) < 1e-12


def test_ring_rejects_mixing_and_floats():
    with pytest.raises(DomainError):
        CycInt(1, 0, G) + CycInt(1, 0, E)
    with pytest.raises(DomainError):
        CycInt(1.5, 0, G)


def test_units_are_generator_powers():
    for ring, count in ((G, 4), (E, 6)):
        us = units(ring)
        assert len(us) == count
        g = ring_gen(ring)
        acc = ring_one(ring)
        for u in us:
            assert u == acc
            assert _is_unit(u.x, u.y, u.ring.trace)
            assert (u * u.unit_inverse()).is_one()
            acc = acc * g
        assert acc == ring_one(ring)  # the powers cycle
    assert not _is_unit(2, 0, G.trace)
    with pytest.raises(DomainError):
        CycInt(2, 0, G).unit_inverse()


def test_circuit_matrix_requires_unit_determinant():
    one, zero, two = ring_one(G), CycInt(0, 0, G), CycInt(2, 0, G)
    with pytest.raises(DomainError):
        CircuitMatrix(two, zero, zero, one)
    m = CircuitMatrix(one, two, zero, one)  # determinant 1, entry 2 is fine
    assert m.det().is_one()


def test_matrix_inverse_and_identity():
    rng = random.Random(112)
    for variant in (SchwarzVariant.QUARTIC, SchwarzVariant.SEXTIC):
        mats = n_matrices(variant)
        ident = CircuitMatrix.identity(mats[0].ring)
        for m in mats:
            assert m @ m.inverse() == ident
            assert m.inverse() @ m == ident
        # associativity spot check on random words
        for _ in range(20):
            a, b, c = (mats[rng.randrange(3)] for _ in range(3))
            assert (a @ b) @ c == a @ (b @ c)


def test_n_matrix_entries_quartic():
    n0, n1, ninf = n_matrices(SchwarzVariant.QUARTIC)
    i = ring_gen(G)
    one, zero = ring_one(G), CycInt(0, 0, G)
    assert n0 == CircuitMatrix(-one, i, zero, one)
    assert n1 == CircuitMatrix(i, zero, zero, one)
    assert ninf == CircuitMatrix(i, one, zero, one)


def test_n_matrix_entries_sextic():
    n0, n1, ninf = n_matrices(SchwarzVariant.SEXTIC)
    z = ring_gen(E)
    one, zero = ring_one(E), CycInt(0, 0, E)
    assert n0 == CircuitMatrix(-one, z, zero, one)
    assert n1 == CircuitMatrix(z, zero, zero, one)
    # zeta^2 = zeta - 1 sits in the corner of the third generator
    assert ninf == CircuitMatrix(z * z, one, zero, one)


def test_triangle_group_orders_exact():
    for variant, expected in (
        (SchwarzVariant.QUARTIC, (2, 4, 4)),
        (SchwarzVariant.SEXTIC, (2, 6, 3)),
    ):
        orders = tuple(m.order() for m in n_matrices(variant))
        assert orders == expected


def test_order_raises_on_infinite_element():
    one, zero = ring_one(G), CycInt(0, 0, G)
    shear = CircuitMatrix(one, one, zero, one)
    with pytest.raises(IterationLimitError, match="order exceeds 24"):
        shear.order()


def test_group_closure_rejects_general_matrix():
    one, zero, i = ring_one(G), CycInt(0, 0, G), ring_gen(G)
    lower = CircuitMatrix(i, zero, one, one)
    with pytest.raises(DomainError, match=re.escape("matrix is not in affine normal form (bottom row must be (0, 1))")):
        group_closure([CircuitMatrix.identity(G), lower])


def test_affine_homomorphism_exact():
    # [[u, s], [0, 1]] [[v, t], [0, 1]] = [[uv, ut + s], [0, 1]]: the product of
    # two normal forms is a normal form, the composition of their affine maps
    rng = random.Random(113)
    for variant in (SchwarzVariant.QUARTIC, SchwarzVariant.SEXTIC):
        n0, n1, ninf = n_matrices(variant)
        words = [n0, n1, ninf, n0 @ n1, n1 @ n0 @ n1]
        for _ in range(60):
            a = words[rng.randrange(len(words))]
            b = words[rng.randrange(len(words))]
            ab = a @ b
            assert ab.e21.is_zero() and ab.e22.is_one()
            assert (ab.e11, ab.e12) == (a.e11 * b.e11, a.e11 * b.e12 + a.e12)


def test_value_objects_keep_their_checks_and_dataclass_behaviour():
    one, zero, g = ring_one(G), CycInt(0, 0, G), ring_gen(G)
    for make, message in (
        (lambda: CycInt(1.0, 0, G), "CycInt coordinates must be integers"),
        (lambda: CycInt(0, "1", E), "CycInt coordinates must be integers"),
        (lambda: CircuitMatrix(one, zero, zero, ring_one(E)), "matrix entries must share one ring"),
        (lambda: CircuitMatrix(CycInt(2, 0, G), zero, zero, one), "determinant must be a unit"),
        # was a raw AttributeError
        (lambda: CircuitMatrix(1, 2, 3, 4), "matrix entries must be CycInt, got 1"),
        (lambda: CircuitMatrix(one, zero, 0, one), "matrix entries must be CycInt, got 0"),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            make()
    c = CycInt(x=2, y=-1, ring=G)
    m = CircuitMatrix(e11=one, e12=g, e21=zero, e22=one)
    for obj, same, other in (
        (c, CycInt(2, -1, G), CycInt(2, -1, E)),
        (m, CircuitMatrix(one, g, zero, one), CircuitMatrix.identity(G)),
    ):
        assert obj == same and hash(obj) == hash(same) and obj != other
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(other, field.name))
        assert dataclasses.replace(obj) == obj
    assert repr(c) == "CycInt(x=2, y=-1, ring=<SchwarzVariant.QUARTIC: 4>)"
    assert repr(m) == f"CircuitMatrix(e11={one!r}, e12={g!r}, e21={zero!r}, e22={one!r})"
    assert dataclasses.replace(c, y=3) == CycInt(2, 3, G)
    assert dataclasses.replace(m, e12=zero) == CircuitMatrix.identity(G)
    for obj, change, message in (
        (c, {"x": 0.5}, "CycInt coordinates must be integers"),
        (m, {"e11": CycInt(2, 0, G)}, "determinant must be a unit"),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            dataclasses.replace(obj, **change)


def test_circuit_routes_agree():
    m0a, m1a = general_m0_m1(0.3, 0.2, 0.7)
    m0b, m1b = m0_m1_closed_form(0.3, 0.2, 0.7)
    assert _max_abs_diff(m0a, m0b) < 1e-12
    assert _max_abs_diff(m1a, m1b) < 1e-12


def test_circuit_routes_agree_random():
    rng = random.Random(115)
    for _ in range(25):
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.05, 0.95)
        g = rng.uniform(1.05, 1.95)
        if min(abs(a - g + 1), abs(b - g + 1), abs(a), abs(b)) < 0.03:
            continue
        m0a, m1a = general_m0_m1(a, b, g)
        m0b, m1b = m0_m1_closed_form(a, b, g)
        assert _max_abs_diff(m0a, m0b) < 1e-11
        assert _max_abs_diff(m1a, m1b) < 1e-11


def test_circuit_eigenvalues():
    a, b, g = 0.3, 0.2, 0.7
    m0, m1 = general_m0_m1(a, b, g)
    for m, lam in ((m0, e_of(-g)), (m1, e_of(g - a - b))):
        eig = sorted(np.linalg.eigvals(np.array(m)), key=lambda w: abs(w - 1.0))
        assert abs(eig[0] - 1.0) < 1e-10
        assert abs(eig[1] - lam) < 1e-10


def test_form_rejects_integral_parameters():
    with pytest.raises(DomainError):
        invariant_hermitian_form(1.0, 0.2, 0.7)
    with pytest.raises(DomainError):
        invariant_hermitian_form(0.3, 0.2, 1.2)  # beta - gamma = -1
    with pytest.raises(DomainError):
        invariant_hermitian_form(0.7, 0.2, 1.7)  # alpha - gamma = -1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_non_finite_parameters_are_domain_errors(bad, slot):
    # round() in the integer-distance test raised ValueError (NaN) or
    # OverflowError (inf) before the parameters were checked
    params = [0.25, 0.3, 0.7]
    params[slot] = bad
    with pytest.raises(DomainError, match="finite"):
        general_m0_m1(*params)
    with pytest.raises(DomainError, match="finite"):
        invariant_hermitian_form(*params)


@pytest.mark.parametrize(
    "params",
    [(0.3, 0.2, 1.0), (0.3, 0.2, 0.5), (0.3, 0.2, 1.5), (0.3, 0.2, 0.0)]
    + [(0.3, 0.2, g) for g in (1.0 + 1e-7, 1.0 - 1e-7, 1.5 + 1e-7, 1.5 - 1e-7)],
)
def test_invariant_form_route_rejects_integer_pivots(params):
    # h22 vanishes at an integer gamma and h11 at an integer gamma - alpha - beta;
    # the route returned an all-NaN circuit there, or the identity for M1, and
    # 1e-7 away it was off by 6.4e-10 (about 7e-17 over the distance)
    with pytest.raises(DomainError, match="integer"):
        general_m0_m1(*params)


@pytest.mark.parametrize("gamma", [1.0 + 2e-6, 1.0 - 2e-6, 1.5 + 2e-6, 1.5 - 2e-6])
def test_invariant_form_route_is_accurate_just_outside_the_guard(gamma):
    # gamma next to 1 puts h22 next to zero, gamma next to 1.5 puts h11 there
    m0a, m1a = general_m0_m1(0.3, 0.2, gamma)
    m0b, m1b = m0_m1_closed_form(0.3, 0.2, gamma)
    assert _max_abs_diff(m0a, m0b) <= 1e-10
    assert _max_abs_diff(m1a, m1b) <= 1e-10


@pytest.mark.parametrize("alpha", [0.0, 1.0, -3.0, 1e-320])
def test_base_change_rejects_integer_alpha(alpha):
    # 1 - e(alpha) is 0 at an integer, and 1 / (1 - e(alpha)) overflows next to one
    m0, _ = m0_m1_closed_form(0.3, 0.2, 0.7)
    with pytest.raises(DomainError, match="alpha"):
        base_change_affine(m0, alpha)


def test_specialization_matches_exact_generators():
    for variant, alpha in (
        (SchwarzVariant.QUARTIC, 0.25),
        (SchwarzVariant.SEXTIC, 1.0 / 3.0),
    ):
        m0, m1 = general_m0_m1(alpha, 0.0, 0.5)
        n0, n1, _ = n_matrices(variant)
        assert _max_abs_diff(base_change_affine(m0, alpha), n0.as_complex()) < 1e-12
        assert _max_abs_diff(base_change_affine(m1, alpha), n1.as_complex()) < 1e-12


def test_group_closure_saturates_units():
    for variant, n_units in ((SchwarzVariant.QUARTIC, 4), (SchwarzVariant.SEXTIC, 6)):
        summary = group_closure(list(n_matrices(variant)), cap=2000)
        assert len(summary.units) == n_units
        assert summary.has_translation_basis
        assert summary.elements_explored <= 2000


def test_group_closure_translation_only():
    one, zero = ring_one(G), CycInt(0, 0, G)
    summary = group_closure([CircuitMatrix(one, one, zero, one)], cap=300)
    assert set(summary.units) == {ring_one(G)}
    assert not summary.has_translation_basis


def test_group_closure_summaries_are_pinned():
    quartic = group_closure(list(n_matrices(SchwarzVariant.QUARTIC)), cap=2000)
    assert quartic == ClosureSummary(units(G), True, 17)
    sextic = group_closure(list(n_matrices(SchwarzVariant.SEXTIC)), cap=2000)
    assert sextic == ClosureSummary(units(E), True, 30)
    one, zero = ring_one(G), CycInt(0, 0, G)
    translation = group_closure([CircuitMatrix(one, one, zero, one)], cap=300)
    assert translation == ClosureSummary((ring_one(G),), False, 301)


def test_is_unit_is_the_norm_test():
    for ring in (G, E):
        us = units(ring)
        for x in range(-3, 4):
            for y in range(-3, 4):
                u = CycInt(x, y, ring)
                assert _is_unit(u.x, u.y, u.ring.trace) == (u in us)


def test_integer_products_equal_the_ring_sums():
    # words in the generators and their inverses, multiplied on integer pairs,
    # against the entrywise CycInt sums of products
    rng = random.Random(113)
    for variant in (G, E):
        gens = n_matrices(variant)
        gens += tuple(m.inverse() for m in gens)
        for _ in range(60):
            a, b = (
                functools.reduce(operator.matmul, (rng.choice(gens) for _ in range(rng.randrange(1, 7))))
                for _ in range(2)
            )
            ab = a @ b
            assert (ab.e11, ab.e12, ab.e21, ab.e22) == (
                a.e11 * b.e11 + a.e12 * b.e21,
                a.e11 * b.e12 + a.e12 * b.e22,
                a.e21 * b.e11 + a.e22 * b.e21,
                a.e21 * b.e12 + a.e22 * b.e22,
            )
            for m in (a, b, ab):
                d = m.det()
                assert d == m.e11 * m.e22 - m.e12 * m.e21 and _is_unit(d.x, d.y, d.ring.trace)
    with pytest.raises(DomainError, match=re.escape("mixed-ring arithmetic is not defined")):
        CircuitMatrix.identity(G) @ CircuitMatrix.identity(E)
    two, zero, one = CycInt(2, 0, E), CycInt(0, 0, E), ring_one(E)
    with pytest.raises(DomainError, match=re.escape("determinant must be a unit")):
        CircuitMatrix(one, zero, zero, two)


def test_a_product_builds_only_its_entries(monkeypatch):
    built = {CycInt: 0, CircuitMatrix: 0}
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    a, b, _ = n_matrices(E)
    built.update(dict.fromkeys(built, 0))
    a @ b
    assert built == {CycInt: 4, CircuitMatrix: 1}
    units(G), units(E)  # built once per process, before the count
    built[CycInt] = 0
    for seed in range(1, 6):
        sweep(list(SUITES), seed, 20)
    assert built[CycInt] == 1685  # 337 per 20-sample sweep


def test_group_closure_validation():
    with pytest.raises(DomainError):
        group_closure([])
    with pytest.raises(DomainError):
        group_closure([CircuitMatrix.identity(G)], cap=20000)
    with pytest.raises(DomainError):
        group_closure([CircuitMatrix.identity(G), CircuitMatrix.identity(E)])
    # each was a raw AttributeError
    for bad in (1, ring_one(G)):
        with pytest.raises(DomainError, match=re.escape(f"generators must be CircuitMatrix, got {bad!r}")):
            group_closure([bad])


# Properties of the ring rule g^2 = e*g - 1, on a fixed, bounded set of examples.
_RING_RULE = settings(derandomize=True, max_examples=100, deadline=None, database=None)
_coord = st.integers(-1000, 1000)


@_RING_RULE
@given(st.sampled_from(list(SchwarzVariant)), _coord, _coord, _coord, _coord)
def test_ring_product_is_the_complex_product(ring, x1, y1, x2, y2):
    a, b = CycInt(x1, y1, ring), CycInt(x2, y2, ring)
    assert abs((a * b).value - a.value * b.value) <= 1e-12 * (1.0 + abs(a.value) * abs(b.value))


@_RING_RULE
@given(st.sampled_from(list(SchwarzVariant)), _coord, _coord)
def test_is_unit_holds_exactly_on_the_units(ring, x, y):
    u = CycInt(x, y, ring)
    assert _is_unit(u.x, u.y, u.ring.trace) == (u in units(ring))


def _unit_subgroup_by_closure(gen_units, ring):
    # the set closure `_unit_subgroup` replaced, kept here as its reference
    group = {ring_one(ring)}
    frontier = set(group)
    gens = set(gen_units) | {u.unit_inverse() for u in gen_units}
    while frontier:
        nxt = {f * g for f in frontier for g in gens} - group
        group |= nxt
        frontier = nxt
    order = units(ring)
    return tuple(sorted(group, key=order.index))


@_RING_RULE
@given(st.sampled_from(list(SchwarzVariant)), st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_unit_subgroup_matches_the_set_closure(ring, powers):
    us = units(ring)
    gens = [us[k % len(us)] for k in powers]
    assert all((u * u.unit_inverse()).is_one() for u in gens)
    assert _unit_subgroup(gens, ring) == _unit_subgroup_by_closure(gens, ring)


_NO_NUMPY = """
import inspect
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError

import lemnis as L
from lemnis import curves, hypergeometric, meaniter, monodromy, numerics, theta, verify

zp = L.abel_jacobi(L.lift_branch(L.SchwarzVariant.QUARTIC, 2.0))
zs = L.abel_jacobi(L.lift_branch(L.SchwarzVariant.SEXTIC, -3.0 + 2.0j))
m0, m1 = L.general_m0_m1(0.3, 0.2, 0.7)
pair = L.MeanPair(2.0, 1.0)
CALLS = {
    "gamma_real": lambda: L.gamma_real(0.25),
    "beta": lambda: L.beta(0.25, 0.5),
    "e_of": lambda: L.e_of(0.125),
    "canonical_torus_point": lambda: L.canonical_torus_point(L.TAU_I, 2.3 + 1.1j),
    "lattice_distance": lambda: L.lattice_distance(L.TAU_ZETA, 0.4 + 0.1j, 0),
    "theta": lambda: L.theta(L.ThetaChar(0, 0), 0.1, L.TAU_I),
    "theta_dz": lambda: L.theta_dz(L.ThetaChar(1, 1), 0.1, L.TAU_I),
    "theta_four": lambda: L.theta_four(0.1 + 0.2j, L.TAU_ZETA),
    "quasi_period_factor": lambda: L.quasi_period_factor(L.ThetaChar(0, 0), 1, 1, 0.1, L.TAU_I),
    "transform": lambda: L.transform(L.ThetaChar(0, 0), 0.1, L.TAU_I, "S"),
    "theta_constants": lambda: L.theta_constants(L.TAU_ZETA),
    "gauss_2f1_pair": lambda: L.gauss_2f1_pair(L.GaussParams(0.25, 0.5, 1.25), 0.5, 0.5),
    "gauss_2f1": lambda: L.gauss_2f1(L.GaussParams(0.25, 0.5, 1.25), 2 + 1j),
    "gauss_kummer_value": lambda: L.gauss_kummer_value(L.GaussParams(0.25, 0.5, 1.25)),
    "schwarz_map": lambda: L.schwarz_map(L.SchwarzVariant.SEXTIC, 0.3),
    "special_point": lambda: L.special_point(L.SchwarzVariant.SEXTIC, "Pinf1"),
    "lift_branch": lambda: L.lift_branch(L.SchwarzVariant.QUARTIC, 2.0),
    "abel_jacobi": lambda: L.abel_jacobi(L.lift_branch(L.SchwarzVariant.SEXTIC, 0.5j)),
    "inverse_quartic": lambda: L.inverse_quartic(zp),
    "inverse_sextic": lambda: L.inverse_sextic(zs),
    "mul_one_plus_i": lambda: L.mul_one_plus_i(L.lift_branch(L.SchwarzVariant.QUARTIC, 2.0)),
    "mul_one_plus_zeta": lambda: L.mul_one_plus_zeta(L.lift_branch(L.SchwarzVariant.SEXTIC, -3.0 + 2.0j)),
    "equivalent_mod_group": lambda: L.equivalent_mod_group(zs, zs),
    "ring_one": lambda: L.ring_one(L.SchwarzVariant.QUARTIC),
    "ring_gen": lambda: L.ring_gen(L.SchwarzVariant.SEXTIC),
    "units": lambda: L.units(L.SchwarzVariant.SEXTIC),
    "invariant_hermitian_form": lambda: L.invariant_hermitian_form(0.3, 0.2, 0.7),
    "general_m0_m1": lambda: L.general_m0_m1(0.3, 0.2, 0.7),
    "m0_m1_closed_form": lambda: L.m0_m1_closed_form(0.3, 0.2, 0.7),
    "base_change_affine": lambda: L.base_change_affine(m0, 0.3),
    "n_matrices": lambda: L.n_matrices(L.SchwarzVariant.SEXTIC),
    "group_closure": lambda: L.group_closure(list(L.n_matrices(L.SchwarzVariant.QUARTIC))),
    "closed_form_limit": lambda: L.closed_form_limit(pair, L.SchwarzVariant.QUARTIC),
    "iterate_until_converged": lambda: L.iterate_until_converged(pair, L.SchwarzVariant.SEXTIC),
    "cubic_preimage_x0": lambda: L.cubic_preimage_x0(L.MeanPair(1.0, 2.0)),
    "CircuitMatrix.as_complex": lambda: L.n_matrices(L.SchwarzVariant.QUARTIC)[0].as_complex(),
    "addition_check": lambda: verify.addition_check(0.1, 0.2j, L.TAU_I),
    "one_plus_i_multiple": lambda: verify.one_plus_i_multiple(0.1, L.theta_four(0.1, L.TAU_I)),
    "one_plus_zeta_multiple": lambda: verify.one_plus_zeta_multiple(0.1, L.theta_four(0.1, L.TAU_ZETA)),
    "inverse_quartic_t_routes": lambda: verify.inverse_quartic_t_routes(*curves._quartic_with_thetas(zp)),
    "ratio_identities_quartic": lambda: verify.ratio_identities_quartic(*curves._quartic_with_thetas(zp)),
    "ratio_identities_sextic": lambda: verify.ratio_identities_sextic(*curves._sextic_with_thetas(zs)),
    "one_form_constant": lambda: verify.one_form_constant(L.SchwarzVariant.SEXTIC),
    "hgf_theta_roundtrip": lambda: verify.hgf_theta_roundtrip(0.1 + 0.05j, L.SchwarzVariant.QUARTIC),
    "format_complex": lambda: verify.format_complex(0.1 - 0.2j),
    "max_abs_diff": lambda: verify.max_abs_diff(m0, m1),
    "limit_residual": lambda: verify.limit_residual(1.5, 1.5),
    "sweep": lambda: verify.sweep(list(verify.SUITES), 7, 2),
}
public = {
    name
    for module in (numerics, theta, hypergeometric, curves, monodromy, meaniter, verify)
    for name, obj in vars(module).items()
    if not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
    and getattr(obj, "__module__", None) == module.__name__
}
assert public <= CALLS.keys(), f"no call for {sorted(public - CALLS.keys())}"
results = {name: call() for name, call in CALLS.items()}
for name in ("invariant_hermitian_form", "base_change_affine", "CircuitMatrix.as_complex"):
    assert all(type(x) is complex for row in results[name] for x in row), name
for name in ("general_m0_m1", "m0_m1_closed_form"):
    assert all(type(x) is complex for m in results[name] for row in m for x in row), name
"""


def test_the_library_runs_with_numpy_blocked():
    # a fresh interpreter, since this one has numpy loaded already
    path = [str(Path(lemnis.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr

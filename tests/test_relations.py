import numpy as np
import pytest

from maccretive.relations import (
    ContractionMap,
    InnerSpace,
    LinearRelation,
    OperatorPair,
    cayley_to_relation,
    estimate_operator_norm,
    is_accretive_linear,
    is_m_accretive_linear,
    operator_norm,
    relation_to_cayley,
    st_criterion,
    st_relation,
)

R2 = InnerSpace.euclidean(2)
R1 = InnerSpace.euclidean(1)


def graph_of(space: InnerSpace, matrix: np.ndarray) -> LinearRelation:
    basis = [np.stack([e, matrix @ e]) for e in np.eye(space.dim)]
    return LinearRelation(space, np.array(basis))


# ----------------------------------------------------------------------
# space and relation basics
# ----------------------------------------------------------------------


def test_inner_space_rejects_indefinite_gram():
    with pytest.raises(ValueError):
        InnerSpace(2, np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_relation_rejects_dependent_basis():
    with pytest.raises(ValueError):
        LinearRelation(R1, np.array([[[1.0], [1.0]], [[2.0], [2.0]]]))


def test_accretivity_of_identity_and_negations():
    assert is_accretive_linear(graph_of(R2, np.eye(2)))
    assert not is_accretive_linear(graph_of(R2, -np.eye(2)))


def test_vertical_relation_is_accretive():
    vertical = LinearRelation(R1, np.array([[[0.0], [1.0]]]))
    assert is_accretive_linear(vertical)
    assert is_m_accretive_linear(vertical)


def test_m_accretive_identity_and_zero_graphs():
    assert is_m_accretive_linear(graph_of(R2, np.eye(2)))
    assert is_m_accretive_linear(graph_of(R2, np.zeros((2, 2))))


def test_one_dimensional_diagonal_lines():
    up = LinearRelation(R1, np.array([[[1.0], [1.0]]]))
    down = LinearRelation(R1, np.array([[[1.0], [-1.0]]]))
    assert is_m_accretive_linear(up)
    assert not is_m_accretive_linear(down)  # accretivity fails


def test_contains_uses_relative_tolerance():
    ident = graph_of(R2, np.eye(2))
    assert ident.contains(np.array([3.0, -1.0]), np.array([3.0, -1.0]))
    assert not ident.contains(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


# ----------------------------------------------------------------------
# Cayley correspondence
# ----------------------------------------------------------------------


def test_cayley_of_zero_map_is_identity_graph():
    rel = cayley_to_relation(ContractionMap.zero(R2))
    assert rel.linear is not None
    for e in np.eye(2):
        assert rel.linear.contains(e, e)
        assert rel.contains(e, e)
    assert not rel.contains(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert rel.linear.dim == 2


def test_cayley_of_identity_is_zero_graph():
    rel = cayley_to_relation(ContractionMap.identity(R2))
    for e in np.eye(2):
        assert rel.contains(e, np.zeros(2))
        assert not rel.contains(e, e)
    assert rel.linear.dim == 2
    assert np.allclose(rel.linear.basis[:, 1, :], 0.0)


def test_cayley_of_negated_identity_is_vertical():
    rel = cayley_to_relation(ContractionMap.identity(R2, scale=-1.0))
    for e in np.eye(2):
        assert rel.contains(np.zeros(2), e)
        assert not rel.contains(e, np.zeros(2))
    assert np.allclose(rel.linear.basis[:, 0, :], 0.0)


def test_resolvent_roundtrip_trivial_cases():
    f0 = relation_to_cayley(R2, lambda x: 0.5 * x)
    f0.sampled_check(np.random.default_rng(0), 200, 1e-8)
    assert np.allclose(f0(np.array([1.0, 2.0])), 0.0, atol=1e-12)
    f1 = relation_to_cayley(R2, lambda x: x)
    f1.sampled_check(np.random.default_rng(0), 200, 1e-8)
    assert np.allclose(f1(np.array([1.0, 2.0])), [1.0, 2.0], atol=1e-12)


def test_relation_to_cayley_flags_expansive_resolvent():
    with pytest.raises(ValueError):
        relation_to_cayley(R2, lambda x: 2.0 * x).sampled_check(np.random.default_rng(0), 200, 1e-8)


def test_cayley_roundtrip_on_random_contractions():
    rng = np.random.default_rng(42)
    for _ in range(20):
        raw = rng.standard_normal((2, 2))
        matrix = raw / max(1.0, np.linalg.norm(raw, 2)) * rng.uniform(0.1, 1.0)
        f = ContractionMap.from_matrix(R2, matrix)
        rel = cayley_to_relation(f)
        back = relation_to_cayley(R2, rel.resolvent)
        for x in rng.standard_normal((100, 2)):
            assert np.linalg.norm(back(x) - f(x)) <= 1e-8 * (1 + np.linalg.norm(x))


def test_cayley_membership_roundtrip_via_resolvent():
    rng = np.random.default_rng(3)
    matrix = np.array([[0.2, -0.5], [0.4, 0.1]])
    rel = cayley_to_relation(ContractionMap.from_matrix(R2, matrix))
    back = relation_to_cayley(R2, rel.resolvent)
    rel2 = cayley_to_relation(
        ContractionMap(R2, back.func, 1.0, matrix=matrix)
    )
    for x in rng.standard_normal((100, 2)):
        u = rel.resolvent(x)
        v = x - u
        assert rel2.contains(u, v)


def test_cayley_image_is_accretive_sampled():
    rng = np.random.default_rng(11)

    def squash(x):
        # nonexpansive but nonlinear
        return 0.8 * np.tanh(x)

    f = ContractionMap(R2, squash, lipschitz_cert=0.8)
    f.sampled_check(rng, samples=200)
    rel = cayley_to_relation(f)
    for _ in range(200):
        z1, z2 = rng.standard_normal((2, 2))
        u1 = rel.resolvent(z1)
        u2 = rel.resolvent(z2)
        v1, v2 = z1 - u1, z2 - u2
        pairing = float((u1 - u2) @ (v1 - v2))
        assert pairing >= -1e-9 * (1 + np.linalg.norm(z1) + np.linalg.norm(z2))


def test_constructive_surjectivity():
    rng = np.random.default_rng(4)
    matrix = np.array([[0.0, 0.9], [-0.9, 0.0]])
    f = ContractionMap.from_matrix(R2, matrix)
    rel = cayley_to_relation(f)
    for x in rng.standard_normal((50, 2)):
        u = f(0.5 * x) + 0.5 * x
        assert rel.contains(u, x - u)


def test_certificate_cap():
    with pytest.raises(ValueError):
        ContractionMap.identity(R2, scale=1.5)
    with pytest.raises(ValueError):
        ContractionMap(R2, lambda x: 3.0 * x, lipschitz_cert=1.01)


def test_sampled_check_falsifies_bad_certificate():
    f = ContractionMap(R2, lambda x: 3.0 * x, lipschitz_cert=1.0)
    with pytest.raises(ValueError):
        f.sampled_check(np.random.default_rng(0), samples=50)


# ----------------------------------------------------------------------
# (S, T) relations and criterion
# ----------------------------------------------------------------------


def test_st_relation_vertical_and_zero():
    vert = st_relation(OperatorPair(R2, np.eye(2), np.zeros((2, 2))))
    assert vert.dim == 2
    assert np.allclose(vert.basis[:, 0, :], 0.0)
    zero = st_relation(OperatorPair(R2, np.zeros((2, 2)), np.eye(2)))
    assert np.allclose(zero.basis[:, 1, :], 0.0)


def test_st_relation_scalar_line():
    rel = st_relation(OperatorPair(R1, [[1.0]], [[2.0]]))
    assert rel.dim == 1
    u, v = rel.basis[0]
    assert v[0] == pytest.approx(u[0] / 2.0, rel=1e-12)


def test_st_criterion_trivial_cases():
    hold = st_criterion(OperatorPair(R2, np.eye(2), np.zeros((2, 2))))
    assert hold.holds and hold.norm_value == pytest.approx(1.0, abs=1e-12)
    fail = st_criterion(OperatorPair(R2, np.eye(2), -np.eye(2)))
    assert not fail.holds
    assert "injective" in fail.which_failed


def test_st_criterion_scalar_sweep_against_relation_oracle():
    grid = np.linspace(-2.0, 2.0, 17)
    for s in grid:
        for t in grid:
            pair = OperatorPair(R1, [[s]], [[t]])
            report = st_criterion(pair)
            expected = (s * t >= 0.0) and not (s == 0.0 and t == 0.0)
            assert report.holds == expected, (s, t, report)
            assert report.holds == is_m_accretive_linear(st_relation(pair))


def test_st_criterion_matches_relation_test_on_random_pairs():
    rng = np.random.default_rng(8)
    agree = 0
    for _ in range(200):
        pair = OperatorPair(
            R2, rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        )
        lhs = st_criterion(pair).holds
        rhs = is_m_accretive_linear(st_relation(pair))
        assert lhs == rhs
        agree += 1
    assert agree == 200


def test_operator_norm_respects_gram():
    space = InnerSpace(2, np.diag([4.0, 1.0]))
    matrix = np.array([[0.0, 1.0], [0.0, 0.0]])  # (x1,x2) -> (x2, 0)
    # maps unit vector (0,1) to (1,0): gram norm 2 over 1
    assert operator_norm(space, matrix) == pytest.approx(2.0, rel=1e-12)
    est = estimate_operator_norm(
        space, lambda x: matrix @ x, np.random.default_rng(0), samples=2000
    )
    assert est <= 2.0 + 1e-9
    assert est >= 1.9

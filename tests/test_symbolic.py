import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abiwave.state import ConstantState
from abiwave.symbolic import _kernel_py
from abiwave.symbolic.poly import IntPolynomial, pack, unpack
from abiwave.symbolic import ideal, tensors
from abiwave.symbolic import certify as C


STATE = ConstantState(tau0=0.8, b0=(0.6, 0.2, -0.1), d0=(-0.3, 0.5, 0.2))


# ----------------------------------------------------------------------
# packing and polynomial basics
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 127), min_size=18, max_size=18))
def test_pack_roundtrip(exps):
    assert list(unpack(pack(exps))) == exps


def test_polynomial_text_and_arithmetic():
    x1 = IntPolynomial.variable(0)
    x2 = IntPolynomial.variable(1)
    p = x1 * x1 * 3 - x2 * 2 + IntPolynomial.const(1)
    assert p.to_text() == "1 + 3 * X1^2 - 2 * X2^1"
    assert (p - p).is_zero()
    assert p.degree == 2
    q = p * p
    assert q.degree == 4
    assert q.evaluate_raw([1.5] + [0.5] * 17) == pytest.approx(
        (1 + 3 * 1.5 ** 2 - 2 * 0.5) ** 2)


def _rand_terms(rng, n=15, emax=2, cmax=40):
    t = {}
    for _ in range(n):
        exps = rng.integers(0, emax + 1, 18)
        c = int(rng.integers(-cmax, cmax + 1))
        if c:
            t[pack(exps)] = c
    return t


# ----------------------------------------------------------------------
# reduction normal form
# ----------------------------------------------------------------------

def test_reduce_fixed_examples():
    one = IntPolynomial.const(1)
    assert ideal.reduce_poly(one, 1).to_text() == "1"
    sq = sum((IntPolynomial.variable(i) * IntPolynomial.variable(i)
              for i in range(3)), IntPolynomial.zero())
    assert ideal.reduce_poly(sq, 1).to_text() == "1"
    dot = sum((IntPolynomial.variable(3 + i) * IntPolynomial.variable(6 + i)
               for i in range(3)), IntPolynomial.zero())
    assert ideal.reduce_poly(dot, +1).to_text() == "1"
    assert ideal.reduce_poly(dot, -1).to_text() == "-1"


def test_reduce_eliminates_dependent_variables(rng):
    p = IntPolynomial(_rand_terms(rng))
    for s in (1, -1):
        r = ideal.reduce_poly(p, s)
        for key in r.terms:
            exps = unpack(key)
            assert all(exps[v] == 0 for v in (6, 7, 8, 15, 16, 17))
            assert all(exps[v] <= 1 for v in (2, 5, 11, 14))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 31), a=st.integers(-10 ** 12, 10 ** 12),
       b=st.integers(-10 ** 12, 10 ** 12), s=st.sampled_from([1, -1]))
def test_reduce_idempotent_and_linear(seed, a, b, s):
    rng = np.random.default_rng(seed)
    p = IntPolynomial(_rand_terms(rng))
    q = IntPolynomial(_rand_terms(rng))
    lin = ideal.reduce_poly(p * a + q * b, s)
    split = ideal.reduce_poly(p, s) * a + ideal.reduce_poly(q, s) * b
    assert lin.terms == split.terms
    assert ideal.reduce_poly(lin, s).terms == lin.terms


def test_reduce_soundness_on_resonant_samples(rng):
    # p - reduce(p) must vanish at the numeric embedding of resonant points
    for s in (1, -1):
        xi, eta = C.resonant_configurations(s, 50, seed=3)
        X = ideal.numeric_embedding(xi, eta, STATE)
        for _ in range(10):
            p = IntPolynomial(_rand_terms(rng))
            d = p - ideal.reduce_poly(p, s)
            vals = np.array([d.evaluate_raw(X[i]) for i in range(len(X))])
            scale = max(1.0, max(abs(c) for c in p.terms.values()) * 10)
            assert np.max(np.abs(vals)) <= 1e-8 * scale


# ----------------------------------------------------------------------
# generators and cofactors
# ----------------------------------------------------------------------

def test_generators_reject_kernel_signs():
    with pytest.raises(ValueError):
        ideal.build_ideal_generators(0, 1)


def test_generator_annihilation_both_orientations():
    for e2, e3 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        worst = C.preflight_annihilation(e2, e3, STATE, n=500, seed=5)
        assert worst <= 1e-12


def test_orientation_sign_matches_samplers():
    # on eta = lambda xi with 0 < lambda < 1 both unit vectors agree,
    # so P7 = X4 - X7 must vanish there (s = +1); opposite branch flips it
    gens_p = ideal.build_ideal_generators(1, 1)
    gens_m = ideal.build_ideal_generators(1, -1)
    xi = np.array([0.6, -0.2, 0.9])
    X_same = ideal.numeric_embedding(xi, 0.4 * xi, STATE)
    X_opp = ideal.numeric_embedding(xi, 2.5 * xi, STATE)
    assert abs(gens_p[6].evaluate_raw(X_same)) <= 1e-14
    assert abs(gens_m[6].evaluate_raw(X_opp)) <= 1e-14
    assert abs(gens_p[6].evaluate_raw(X_opp)) > 0.1


def test_cofactors_zero_poly_and_degree_bound(rng):
    cof, res = ideal.extract_cofactors(IntPolynomial.zero(), 1, 1)
    assert res.is_zero() and all(q.is_zero() for q in cof)
    for _ in range(5):
        p = IntPolynomial(_rand_terms(rng, n=8))
        cof, res = ideal.extract_cofactors(p, 1, -1)  # re-expansion asserted
        for q in cof:
            if not q.is_zero():
                assert q.degree <= p.degree


# ----------------------------------------------------------------------
# kernel products and the packing bound
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 31), c=st.integers(-10 ** 6, 10 ** 6))
def test_mul_add_into_matches_mul_then_add(seed, c):
    rng = np.random.default_rng(seed)
    p, q, acc = _rand_terms(rng), _rand_terms(rng), _rand_terms(rng)
    r = _rand_terms(rng, n=6)
    before = dict(acc)
    want = dict(acc)
    _kernel_py.add_into(want, _kernel_py.mul(_kernel_py.mul(p, q), r), c)
    _kernel_py.mul_add_into(acc, c, p, q, r)
    assert acc == want
    _kernel_py.mul_add_into(acc, -c, p, q, r)  # cancelled terms are dropped
    assert acc == before


def _x1_x2(a, b):
    return {pack([a, b] + [0] * 16): 1}


def test_mul_rejects_total_degree_128():
    assert _kernel_py.mul(_x1_x2(64, 0), _x1_x2(63, 0)) == _x1_x2(127, 0)
    with pytest.raises(OverflowError):
        _kernel_py.mul(_x1_x2(64, 0), _x1_x2(0, 64))


def test_reduce_rejects_total_degree_128():
    assert ideal.reduce_terms(_x1_x2(64, 63), 1) == _x1_x2(64, 63)
    with pytest.raises(OverflowError):
        ideal.reduce_terms(_x1_x2(64, 64), 1)


def test_tensor_build_rejects_total_degree_128(monkeypatch):
    # slot degrees 42 (xi), 42 + 1 derivative (xi - eta) and 43 (eta)
    def fake_projector_terms(branch, slot):
        d = 43 if slot == tensors.SLOT_ETA else 42
        return [[_x1_x2(d, 0) for _ in range(10)] for _ in range(10)]

    monkeypatch.setattr(tensors, "projector_terms", fake_projector_terms)
    with pytest.raises(OverflowError):
        tensors.build_interaction_tensor((1, 1, 1))


# ----------------------------------------------------------------------
# interaction tensors
# ----------------------------------------------------------------------

def test_tensor_entries_are_integer_and_nonempty():
    T = tensors.build_interaction_tensor((1, 1, 1))
    n = sum(1 for _, t in T.iter_entries() if t)
    assert n > 0
    assert all(isinstance(c, int) for _, t in T.iter_entries() for c in t.values())
    assert T.scale_log2 == 3 and T.max_degree() <= 13


def test_tensor_matches_float_composition():
    T = tensors.build_interaction_tensor((-1, 1, -1))
    assert C.preflight_float_crosscheck(T, STATE, n=50) <= 1e-8
    Tc = tensors.build_interaction_tensor((0, -1, 1), "constraint")
    assert C.preflight_float_crosscheck(Tc, STATE, n=50) <= 1e-8


def _chaplygin_hand_tensor(eps):
    """Independent 4-component oracle: (tau, v) system, alpha = 1 case.

    Projectors 2P_4^{+-}(u) = [[1, +-u^T], [+-u, u(x)u]] in the slot unit
    variables; quadratic terms -v.grad v + tau grad tau and
    -v.grad tau + tau div v with the derivative in the xi-eta slot.
    """
    def proj(sign, base):
        u = [IntPolynomial.variable(base + i) for i in range(3)]
        P = [[IntPolynomial.zero() for _ in range(4)] for _ in range(4)]
        P[0][0] = IntPolynomial.const(1)
        for i in range(3):
            P[0][1 + i] = u[i] * sign
            P[1 + i][0] = u[i] * sign
            for j in range(3):
                P[1 + i][1 + j] = u[i] * u[j]
        return P

    terms = []
    for j in range(3):
        terms.append((0, 1 + j, 0, j, -1))
        terms.append((0, 0, 1 + j, j, +1))
    for i in range(3):
        for j in range(3):
            terms.append((1 + i, 1 + j, 1 + i, j, -1))
        terms.append((1 + i, 0, 0, i, +1))

    P1 = proj(eps[0], 0)
    P2 = proj(eps[1], 6)
    P3 = proj(eps[2], 3)
    out = [[[IntPolynomial.zero() for _ in range(4)] for _ in range(4)]
           for _ in range(4)]
    for row, a_un, c_di, jdir, sg in terms:
        dvar = IntPolynomial.variable(6 + jdir)
        for i in range(4):
            if P1[i][row].is_zero():
                continue
            for j in range(4):
                if P2[c_di][j].is_zero():
                    continue
                m = P1[i][row] * P2[c_di][j] * dvar * sg
                for k in range(4):
                    if not P3[a_un][k].is_zero():
                        out[i][j][k] = out[i][j][k] + m * P3[a_un][k]
    return out


@pytest.mark.parametrize("eps", [(1, 1, 1), (1, -1, 1), (-1, 1, -1),
                                 (1, 1, -1)])
def test_chaplygin_subblock_matches_hand_oracle(eps):
    T = tensors.build_interaction_tensor(eps)
    hand = _chaplygin_hand_tensor(eps)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                got = tensors.chaplygin_substitute(T.entries[i][j][k])
                assert got == hand[i][j][k].terms, (i, j, k)


def test_certified_tensor_vanishes_on_resonant_configurations():
    # the factorization consequence: numeric symbol ~ 0 on the resonant set
    eps = (1, 1, 1)
    T = tensors.build_interaction_tensor(eps)
    xi, eta = C.resonant_configurations(+1, 40, seed=9)
    X = ideal.numeric_embedding(xi, eta, STATE)
    vals = T.evaluator()(X)
    off_xi, off_eta = C.resonant_configurations(-1, 40, seed=9)
    scale = np.max(np.abs(T.evaluator()(
        ideal.numeric_embedding(off_xi, off_eta, STATE))))
    assert np.max(np.abs(vals)) <= 1e-8 * scale


# ----------------------------------------------------------------------
# certification driver
# ----------------------------------------------------------------------

def test_certify_single_interaction_and_mutation():
    cert = C.certify((1, -1, -1), "evolution", STATE, float_checks=20)
    assert cert.verified and cert.entries_total == 1000
    bad = C.certify((1, -1, -1), "evolution", STATE, preflight=False,
                    mutate_entry=(3, 4, 5))
    assert not bad.verified
    assert bad.entries_nonzero == 1
    assert bad.witnesses[0]["entry"] == [3, 4, 5]


def test_certify_constraint_interaction():
    cert = C.certify((0, 1, 1), "constraint", STATE, float_checks=20)
    assert cert.verified
    assert cert.which == "Nprime"


def test_certify_chaplygin_subsystem():
    cert = C.certify((1, 1, 1), "evolution", STATE, preflight=False,
                     subsystem="chaplygin")
    assert cert.verified and cert.entries_total > 0


def test_certificate_json_roundtrip(tmp_path):
    certs = [C.certify((1, 1, 1), "evolution", STATE, preflight=False)]
    path = tmp_path / "certs.json"
    C.write_certificates(certs, path)
    import json
    data = json.loads(path.read_text())
    assert data["all_verified"] is True
    assert data["certificates"][0]["interaction"] == "+,++"
    assert data["certificates"][0]["entries_nonzero"] == 0

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abiwave.resonance import resonant_samples
from abiwave.state import ConstantState
from abiwave.symbolic import _kernel_py
from abiwave.symbolic._kernel_py import (TermTable, add_into, mul, pack,
                                         to_text, unpack, variable)
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


def _sum(polys, c=1):
    out = {}
    for p in polys:
        add_into(out, p, c)
    return out


def test_polynomial_text_and_arithmetic():
    x1, x2 = variable(0), variable(1)
    p = {0: 1}
    add_into(p, mul(x1, x1), 3)
    add_into(p, x2, -2)
    assert to_text(p) == "1 + 3 * X1^2 - 2 * X2^1"
    assert to_text(_sum([p], -1)) == "-1 - 3 * X1^2 + 2 * X2^1"
    assert to_text({}) == "0"
    assert _sum([p, _sum([p], -1)]) == {}
    assert _kernel_py.degree(p) == 2
    q = mul(p, p)
    assert _kernel_py.degree(q) == 4
    assert _kernel_py.evaluator(TermTable([q]))([[1.5] + [0.5] * 17])[0, 0] \
        == pytest.approx((1 + 3 * 1.5 ** 2 - 2 * 0.5) ** 2)
    assert variable(17) == {pack([0] * 17 + [1]): 1}
    with pytest.raises(ValueError):
        variable(18)


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
    assert to_text(ideal.reduce_poly({0: 1}, 1)) == "1"
    sq = _sum(mul(variable(i), variable(i)) for i in range(3))
    assert to_text(ideal.reduce_poly(sq, 1)) == "1"
    dot = _sum(mul(variable(3 + i), variable(6 + i)) for i in range(3))
    assert to_text(ideal.reduce_poly(dot, +1)) == "1"
    assert to_text(ideal.reduce_poly(dot, -1)) == "-1"


def test_reduce_eliminates_dependent_variables(rng):
    p = _rand_terms(rng)
    for s in (1, -1):
        r = ideal.reduce_poly(p, s)
        for key in r:
            exps = unpack(key)
            assert all(exps[v] == 0 for v in (6, 7, 8, 15, 16, 17))
            assert all(exps[v] <= 1 for v in (2, 5, 11, 14))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 31), a=st.integers(-10 ** 12, 10 ** 12),
       b=st.integers(-10 ** 12, 10 ** 12), s=st.sampled_from([1, -1]))
def test_reduce_idempotent_and_linear(seed, a, b, s):
    rng = np.random.default_rng(seed)
    p = _rand_terms(rng)
    q = _rand_terms(rng)
    pq = _sum([p], a)
    add_into(pq, q, b)
    lin = ideal.reduce_poly(pq, s)
    split = _sum([ideal.reduce_poly(p, s)], a)
    add_into(split, ideal.reduce_poly(q, s), b)
    assert lin == split
    assert ideal.reduce_poly(lin, s) == lin


def test_reduce_soundness_on_resonant_samples(rng):
    # p - reduce(p) must vanish at the numeric embedding of resonant points
    for s in (1, -1):
        xi, eta = resonant_samples(s, np.random.default_rng(3), 50)
        X = ideal.numeric_embedding(xi, eta, STATE)
        for _ in range(10):
            p = _rand_terms(rng)
            d = dict(p)
            add_into(d, ideal.reduce_poly(p, s), -1)
            vals = _kernel_py.evaluator(TermTable([d]))(X)
            scale = max(1.0, max(abs(c) for c in p.values()) * 10)
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
    # at[point, generator] with points (X_same, X_opp)
    at = _kernel_py.evaluator(TermTable([gens_p[6], gens_m[6]]))(
        [X_same, X_opp])
    assert abs(at[0, 0]) <= 1e-14
    assert abs(at[1, 1]) <= 1e-14
    assert abs(at[1, 0]) > 0.1


def test_cofactors_zero_poly_and_degree_bound(rng):
    cof, res = ideal.extract_cofactors({}, 1, 1)
    assert res == {} and cof == [{}] * 12
    for _ in range(5):
        p = _rand_terms(rng, n=8)
        cof, res = ideal.extract_cofactors(p, 1, -1)  # re-expansion asserted
        for q in cof:
            if q:
                assert _kernel_py.degree(q) <= _kernel_py.degree(p)


# ----------------------------------------------------------------------
# kernel products and the packing bound
# ----------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 31), c=st.integers(-10 ** 6, 10 ** 6))
def test_mul_add_into_matches_mul_then_add(seed, c):
    rng = np.random.default_rng(seed)
    p, q, acc = _rand_terms(rng), _rand_terms(rng), _rand_terms(rng)
    before = dict(acc)
    want = dict(acc)
    _kernel_py.add_into(want, _kernel_py.mul(p, q), c)
    _kernel_py.mul_add_into(acc, c, p, q)
    assert acc == want
    _kernel_py.mul_add_into(acc, -c, p, q)  # cancelled terms are dropped
    assert acc == before


def _x1_x2(a, b):
    return {pack([a, b] + [0] * 16): 1}


def test_mul_rejects_total_degree_128():
    assert _kernel_py.mul(_x1_x2(64, 0), _x1_x2(63, 0)) == _x1_x2(127, 0)
    with pytest.raises(OverflowError):
        _kernel_py.mul(_x1_x2(64, 0), _x1_x2(0, 64))


def test_reduce_rejects_total_degree_128():
    assert ideal.reduce_terms(TermTable([_x1_x2(64, 63)]), 1) \
        == {0: _x1_x2(64, 63)}
    with pytest.raises(OverflowError):
        ideal.reduce_terms(TermTable([_x1_x2(64, 64)]), 1)


def test_tensor_build_rejects_total_degree_128(monkeypatch):
    # slot degrees 42 (xi), 42 + 1 derivative (xi - eta) and 43 (eta)
    def fake_projector_terms(branch, slot):
        d = 43 if slot == tensors.SLOT_ETA else 42
        return [[_x1_x2(d, 0) for _ in range(10)] for _ in range(10)]

    monkeypatch.setattr(tensors, "projector_terms", fake_projector_terms)
    with pytest.raises(OverflowError):
        tensors.build_interaction_tensor((1, 1, 1))


# ----------------------------------------------------------------------
# vectorized key scans against the loops they replaced
# ----------------------------------------------------------------------

def _bitloop_degree(terms):
    """The per-key bit loop that ``_kernel_py.degree`` replaced."""
    best = 0
    for key in terms:
        d = 0
        k = key
        while k:
            d += k & _kernel_py.MASK
            k >>= _kernel_py.BITS
        best = max(best, d)
    return best


def _dense_evaluate(polys, points):
    """The dense ``points ** exps`` evaluation the sparse evaluator replaced.

    Term dicts at (npoints, 18) points -> (npoints, len(polys)); taken in
    blocks of ten points to bound the (points x monomials x 18) tensor.
    """
    keys = sorted({k for t in polys for k in t})
    index = {k: n for n, k in enumerate(keys)}
    exps = np.array([unpack(k) for k in keys], dtype=np.int64).reshape(-1, 18)
    out = np.zeros((len(points), len(polys)))
    for lo in range(0, len(points), 10):
        block = points[lo:lo + 10]
        mono = np.prod(block[:, None, :] ** exps[None, :, :], axis=2)
        for n, terms in enumerate(polys):
            if terms:
                idx = np.array([index[k] for k in terms], dtype=np.int64)
                coef = np.array(list(terms.values()), dtype=float)
                out[lo:lo + 10, n] = mono[:, idx] @ coef
    return out


_exps = st.lists(st.integers(0, 127), min_size=18, max_size=18)


@settings(deadline=None, max_examples=150)
@given(st.lists(_exps, max_size=30))
@example([[0] * 17 + [127]])
@example([[0] * 17 + [127]] * 9 + [[127] * 18])
@example([])
def test_exponents_and_degree_match_bit_loop(rows):
    # rows with a nonzero exponent in X10..X18 pack to keys >= 2^63;
    # lists below and above _VECTOR_MIN take both paths of degree
    keys = [pack(r) for r in rows]
    got = _kernel_py.exponents(keys)
    assert got.shape == (len(keys), 18) and got.dtype == np.int64
    assert got.tolist() == [list(unpack(k)) for k in keys]
    want = _bitloop_degree(keys)
    assert _kernel_py.degree(keys) == want
    assert _kernel_py.degree(dict.fromkeys(keys, 1)) == want
    assert _kernel_py.degree(k for k in keys) == want
    assert _kernel_py.degree(set(keys)) == want


def test_exponents_reject_keys_past_eighteen_fields():
    assert _kernel_py.exponents([(1 << 126) - 1]).tolist() == [[127] * 18]
    with pytest.raises(OverflowError):
        _kernel_py.exponents([1 << 126])


def test_reduce_rejects_total_degree_128_in_a_large_entry():
    # a row of many keys: the bound is read off the table's exponent array
    terms = {pack([d, 1] + [0] * 16): 1 for d in range(20)}
    terms[pack([0] * 17 + [127])] = 1
    assert ideal.reduce_terms(TermTable([terms]), 1)
    terms[pack([1] * 17 + [111])] = 1
    with pytest.raises(OverflowError):
        ideal.reduce_terms(TermTable([terms]), 1)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 31), npolys=st.integers(0, 6))
def test_kernel_evaluator_matches_dense(seed, npolys):
    rng = np.random.default_rng(seed)
    polys = [_rand_terms(rng, n=int(rng.integers(0, 12)), emax=5)
             for _ in range(npolys)]
    points = rng.uniform(-1.2, 1.2, (7, 18))
    got = _kernel_py.evaluator(TermTable(polys))(points)
    want = _dense_evaluate(polys, points)
    assert got.shape == (7, npolys)
    bound = max((sum(abs(c) for c in t.values()) for t in polys), default=0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * (bound * 5 + 1)


@pytest.fixture(scope="module", ids=["+,++", "-,+-", "',+-"],
                params=[((1, 1, 1), "evolution"), ((-1, 1, -1), "evolution"),
                        ((0, 1, -1), "constraint")])
def oracle_case(request):
    """Tensor, the float cross-check's 30 points and the dense oracle there."""
    from abiwave.resonance import sample_off_axis

    T = tensors.build_interaction_tensor(*request.param)
    xi, eta = sample_off_axis(np.random.default_rng(1), 30)
    X = ideal.numeric_embedding(xi, eta, STATE)
    dense = _dense_evaluate([t for _, t in T.iter_entries()], X)
    return T, xi, eta, dense.reshape((len(X),) + T.shape) / 2.0 ** T.scale_log2


def test_tensor_evaluator_matches_dense_oracle(oracle_case):
    T, xi, eta, dense = oracle_case
    got = T.evaluator()(ideal.numeric_embedding(xi, eta, STATE))
    assert got.shape == dense.shape
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_float_crosscheck_error_matches_dense_oracle(oracle_case):
    # the gate's worst error stays at the dense evaluator's round-off
    from abiwave.spectral import compose_interaction

    T, xi, eta, dense = oracle_case
    worst = 0.0
    for i in range(len(xi)):
        ref = compose_interaction(xi[i], eta[i], STATE, T.eps, T.which)
        scale = max(float(np.max(np.abs(ref))), 1e-30)
        worst = max(worst, float(np.max(np.abs(dense[i] - ref))) / scale)
    got = C.preflight_float_crosscheck(T, STATE, n=len(xi))
    assert worst / 2 <= got <= 2 * worst
    assert got <= 1e-12


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
        u = [variable(base + i) for i in range(3)]
        P = [[{} for _ in range(4)] for _ in range(4)]
        P[0][0] = {0: 1}
        for i in range(3):
            P[0][1 + i] = mul(u[i], {0: sign})
            P[1 + i][0] = mul(u[i], {0: sign})
            for j in range(3):
                P[1 + i][1 + j] = mul(u[i], u[j])
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
    out = [[[{} for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for row, a_un, c_di, jdir, sg in terms:
        dvar = variable(6 + jdir)
        for i in range(4):
            if not P1[i][row]:
                continue
            for j in range(4):
                if not P2[c_di][j]:
                    continue
                m = mul(mul(P1[i][row], P2[c_di][j]), dvar)
                for k in range(4):
                    if P3[a_un][k]:
                        add_into(out[i][j][k], mul(m, P3[a_un][k]), sg)
    return out


@pytest.mark.parametrize("eps", [(1, 1, 1), (1, -1, 1), (-1, 1, -1),
                                 (1, 1, -1)])
def test_chaplygin_subblock_matches_hand_oracle(eps):
    entries = dict(tensors.build_interaction_tensor(eps).iter_entries())
    hand = _chaplygin_hand_tensor(eps)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                got = tensors.chaplygin_substitute(entries[i, j, k])
                assert got == hand[i][j][k], (i, j, k)


def test_certified_tensor_vanishes_on_resonant_configurations():
    # the factorization consequence: numeric symbol ~ 0 on the resonant set
    eps = (1, 1, 1)
    T = tensors.build_interaction_tensor(eps)
    xi, eta = resonant_samples(+1, np.random.default_rng(9), 40)
    X = ideal.numeric_embedding(xi, eta, STATE)
    vals = T.evaluator()(X)
    off_xi, off_eta = resonant_samples(-1, np.random.default_rng(9), 40)
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


@pytest.mark.parametrize("preflight", [True, False])
def test_certificate_times_its_stages(preflight):
    cert = C.certify((0, 1, -1), "constraint", STATE, preflight=preflight,
                     float_checks=5)
    stages = (cert.build_ms, cert.preflight_ms, cert.reduce_ms)
    assert min(stages) >= 0.0
    assert sum(stages) <= cert.millis
    assert (cert.preflight_ms > 0.0) is preflight
    out = cert.to_dict()
    assert [out[k] for k in ("build_ms", "preflight_ms", "reduce_ms")] \
        == list(stages)

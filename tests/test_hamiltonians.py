"""Hamiltonian builders, expectation values, extrema, and AR/SP metrics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoqmap import (PortfolioSpec, ProblemHamiltonian, brute_force_extrema,
                    build_maxcut_hamiltonian, build_portfolio_hamiltonian, distribution, energy,
                    expectation, hamiltonian_from_dict, hamiltonian_to_dict, metrics,
                    reference_circuit, sample, QaoaParams)


def brute_energies(h):
    """Direct per-bitstring evaluation, independent of the vectorized path."""
    out = {}
    for bits in itertools.product("01", repeat=h.n):
        s = "".join(bits)
        z = [1 if ch == "0" else -1 for ch in s]
        val = h.constant
        for i, j, c in h.zz:
            val += c * z[i] * z[j]
        for i, c in h.z:
            val += c * z[i]
        out[s] = val
    return out


def test_portfolio_symbolic_substitution():
    spec = PortfolioSpec(lam=2.0, q=0.0, penalty=1.0, budget=1,
                         sigma=((0.0, 0.0), (0.0, 0.0)), mu=(0.0, 0.0))
    h = build_portfolio_hamiltonian(spec)
    assert h.zz == ((0, 1, 1.0),)
    assert all(c == 0.0 for _, c in h.z)  # A(2B-n) = 0 here
    assert h.budget == 1


def test_portfolio_paper_instance_zero_penalty():
    sigma = ((0.01, 0.0018, 0.0012), (0.0018, 0.0088, 0.002), (0.0012, 0.002, 0.012))
    spec = PortfolioSpec(lam=20.97, q=0.33, penalty=0.0, budget=2, sigma=sigma,
                         mu=(0.072, 0.061, 0.048))
    h = build_portfolio_hamiltonian(spec)
    for i, j, c in h.zz:
        assert c == pytest.approx((20.97 / 2) * 0.33 * sigma[i][j])


def test_portfolio_q1_drops_mu():
    sigma = ((0.0, 0.1), (0.1, 0.0))
    with_mu = build_portfolio_hamiltonian(
        PortfolioSpec(lam=1.0, q=1.0, penalty=0.2, budget=1, sigma=sigma, mu=(5.0, -3.0)))
    without_mu = build_portfolio_hamiltonian(
        PortfolioSpec(lam=1.0, q=1.0, penalty=0.2, budget=1, sigma=sigma, mu=(0.0, 0.0)))
    assert with_mu.z == without_mu.z  # c_i independent of mu when q = 1


def test_portfolio_dimension_mismatch():
    with pytest.raises(ValueError):
        PortfolioSpec(lam=1, q=0, penalty=0, budget=1, sigma=((0.0,),), mu=(0.0, 0.0))


def test_maxcut_single_edge():
    h = build_maxcut_hamiltonian([(0, 1)], 2)
    assert h.zz == ((0, 1, 0.5),)
    assert h.constant == -0.5
    assert h.z == ()
    assert energy(h, "10") == -1.0
    assert energy(h, "01") == -1.0
    assert energy(h, "00") == 0.0


def test_maxcut_triangle_minimum():
    h = build_maxcut_hamiltonian([(0, 1), (0, 2), (1, 2)], 3)
    table = brute_energies(h)
    assert min(table.values()) == -2.0  # max cut of K3 is 2
    f_opt, f_max, optimal = brute_force_extrema(h)
    assert f_opt == -2.0 and f_max == 0.0
    assert set(optimal) == {s for s, v in table.items() if v == -2.0}
    assert len(optimal) == 6


def test_maxcut_empty_and_errors():
    h = build_maxcut_hamiltonian([], 3)
    assert h.zz == () and h.constant == 0.0
    with pytest.raises(ValueError):
        build_maxcut_hamiltonian([(0, 0)], 2)
    with pytest.raises(ValueError):
        build_maxcut_hamiltonian([(0, 1), (1, 0)], 2)


def test_maxcut_cut_size_is_minus_energy():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    h = build_maxcut_hamiltonian(edges, 4)
    for bits in itertools.product("01", repeat=4):
        s = "".join(bits)
        cut = sum(1 for u, v in edges if s[u] != s[v])
        assert energy(h, s) == -cut


def test_expectation_trivial():
    h = ProblemHamiltonian(2, ((0, 1, 1.0),))
    assert expectation(h, {"00": 10}) == 1.0
    assert expectation(h, {"01": 5, "10": 5}) == -1.0
    with pytest.raises(ValueError):
        expectation(h, {"0": 1})
    with pytest.raises(ValueError):
        expectation(h, {})


def test_expectation_matches_statevector_sampling():
    rng = np.random.default_rng(11)
    zz = tuple((i, j, float(rng.uniform(-1, 1))) for i in range(2) for j in range(i + 1, 3))
    z = tuple((i, float(rng.uniform(-1, 1))) for i in range(3))
    h = ProblemHamiltonian(3, zz, z, constant=0.25)
    params = QaoaParams((0.4,), (0.7,))
    circuit = reference_circuit(h, params)
    dist = distribution(circuit)
    exact = sum(p * energy(h, s) for s, p in dist.as_dict().items())
    counts = sample(circuit, 1000, seed=5)
    var = sum(p * (energy(h, s) - exact) ** 2 for s, p in dist.as_dict().items())
    sigma = (var / 1000) ** 0.5
    assert abs(expectation(h, counts) - exact) < 5 * sigma


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_expectation_linear_in_counts(w1, w2):
    h = ProblemHamiltonian(2, ((0, 1, 0.7),), ((0, -0.2),), constant=0.1)
    a, b = {"00": 3, "11": 1}, {"01": 2, "10": 5}
    mixed = {k: w1 * a.get(k, 0) + w2 * b.get(k, 0) for k in set(a) | set(b)}
    na, nb = 4 * w1, 7 * w2
    want = (na * expectation(h, a) + nb * expectation(h, b)) / (na + nb)
    assert expectation(h, mixed) == pytest.approx(want)


def test_brute_force_extrema_single_edge():
    h = build_maxcut_hamiltonian([(0, 1)], 2)
    f_opt, f_max, optimal = brute_force_extrema(h)
    assert f_opt == -1.0 and f_max == 0.0
    assert set(optimal) == {"10", "01"}


def test_brute_force_budget_filter():
    h = ProblemHamiltonian(2, (), ((0, 1.0), (1, -1.0)), budget=1)
    f_opt, f_max, optimal = brute_force_extrema(h)
    # feasible: 10 (z = -1,+1 -> E = -2), 01 (E = +2)
    assert f_opt == -2.0 and f_max == 2.0
    assert optimal == ("10",)


def test_brute_force_constant_only():
    h = ProblemHamiltonian(2, (), (), constant=0.75)
    f_opt, f_max, optimal = brute_force_extrema(h)
    assert f_opt == f_max == 0.75
    assert len(optimal) == 4


def test_brute_force_bounds_contain_expectation():
    rng = np.random.default_rng(3)
    zz = tuple((i, j, float(rng.uniform(-1, 1))) for i in range(3) for j in range(i + 1, 4))
    h = ProblemHamiltonian(4, zz, budget=2)
    f_opt, f_max, _ = brute_force_extrema(h)
    feasible = [s for s in map("".join, itertools.product("01", repeat=4)) if s.count("1") == 2]
    counts = {s: int(rng.integers(1, 20)) for s in feasible}
    assert f_opt - 1e-12 <= expectation(h, counts) <= f_max + 1e-12


def test_metrics_trivial_cases():
    h = build_maxcut_hamiltonian([(0, 1)], 2)
    f_opt, f_max, optimal = brute_force_extrema(h)
    rep = metrics(h, {"10": 100}, f_opt, f_max, optimal)
    assert rep.ar == 1.0 and rep.sp == 1.0
    rep = metrics(h, {"00": 50}, f_opt, f_max, optimal)  # worst feasible
    assert rep.ar == 0.0 and rep.sp == 0.0


def test_metrics_infeasible_scores_zero():
    h = ProblemHamiltonian(2, ((0, 1, 1.0),), ((0, 0.5),), budget=1)
    f_opt, f_max, optimal = brute_force_extrema(h)
    assert optimal == ("10",)
    rep = metrics(h, {"11": 40, "00": 60}, f_opt, f_max, optimal)
    assert rep.ar == 0.0 and rep.sp == 0.0
    with pytest.raises(ValueError):
        metrics(h, {"10": 1}, 1.0, 1.0, ("10",))


def test_metrics_mixed_shots():
    h = ProblemHamiltonian(2, ((0, 1, 1.0),), ((0, 0.5),), budget=1)
    f_opt, f_max, optimal = brute_force_extrema(h)
    # half optimal feasible, half infeasible -> ratio halves
    rep = metrics(h, {optimal[0]: 10, "11": 10}, f_opt, f_max, optimal)
    assert rep.ar == pytest.approx(0.5)
    assert rep.sp == pytest.approx(0.5)


def test_hamiltonian_json_roundtrip():
    h = ProblemHamiltonian(3, ((0, 2, -0.5),), ((1, 0.25),), constant=1.5, budget=2)
    again = hamiltonian_from_dict(hamiltonian_to_dict(h))
    assert again == h


@pytest.mark.parametrize("budget", ["1", 1.0, True, -1, 4])
def test_budget_must_be_an_integer_in_range(budget):
    with pytest.raises(ValueError, match="budget"):
        ProblemHamiltonian(3, budget=budget)
    assert ProblemHamiltonian(3, budget=3).budget == 3

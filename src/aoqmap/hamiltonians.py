"""Problem Hamiltonians (portfolio, MaxCut), QAOA parameters, and run metrics.

Sign conventions used throughout: measured bit 0 maps to z = +1, bit 1 to
z = -1; bitstring character k is the value of logical qubit k; budget
feasibility means the number of 1-bits equals the budget. All objectives are
minimized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProblemHamiltonian:
    """Sparse two-body Ising objective: sum c_ij Z_i Z_j + sum c_i Z_i + c_0."""

    n: int
    zz: tuple[tuple[int, int, float], ...] = ()
    z: tuple[tuple[int, float], ...] = ()
    constant: float = 0.0
    budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "zz", tuple((int(i), int(j), float(c)) for i, j, c in self.zz))
        object.__setattr__(self, "z", tuple((int(i), float(c)) for i, c in self.z))
        seen = set()
        for i, j, _ in self.zz:
            if not (0 <= i < j < self.n):
                raise ValueError(f"zz term ({i},{j}) must satisfy 0 <= i < j < n")
            if (i, j) in seen:
                raise ValueError(f"duplicate zz pair ({i},{j})")
            seen.add((i, j))
        for i, _ in self.z:
            if not (0 <= i < self.n):
                raise ValueError(f"z index {i} out of range")
        if self.budget is not None and (isinstance(self.budget, bool)
                                        or not isinstance(self.budget, (int, np.integer))
                                        or not 0 <= self.budget <= self.n):
            raise ValueError(f"budget must be an integer in 0..{self.n}, got {self.budget!r}")

    def zz_coeffs(self) -> dict[tuple[int, int], float]:
        return {(i, j): c for i, j, c in self.zz}

    def z_coeffs(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for i, c in self.z:
            out[i] = out.get(i, 0.0) + c
        return out

    def is_complete(self) -> bool:
        return len(self.zz) == self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class PortfolioSpec:
    """Inputs of the asset-selection objective.

    lam is the global scaling factor, q the risk preference, penalty the
    budget-violation factor, budget the number of assets to pick, sigma the
    covariance matrix and mu the expected returns.
    """

    lam: float
    q: float
    penalty: float
    budget: int
    sigma: tuple[tuple[float, ...], ...]
    mu: tuple[float, ...]
    constant: float = 0.0

    def __post_init__(self):
        sigma = tuple(tuple(float(v) for v in row) for row in self.sigma)
        mu = tuple(float(v) for v in self.mu)
        n = len(mu)
        if len(sigma) != n or any(len(row) != n for row in sigma):
            raise ValueError("sigma must be n x n with n = len(mu)")
        for i in range(n):
            for j in range(n):
                if abs(sigma[i][j] - sigma[j][i]) > 1e-12:
                    raise ValueError("sigma must be symmetric")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mu", mu)

    @property
    def n(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class QaoaParams:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.gammas) != len(self.betas) or not self.gammas:
            raise ValueError("gammas and betas must be equal-length and non-empty")

    @property
    def p(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class MetricReport:
    expectation: float
    ar: float
    sp: float


def build_portfolio_hamiltonian(spec: PortfolioSpec) -> ProblemHamiltonian:
    """Dense ZZ/Z coefficients from the covariance, returns and penalty terms."""
    n = spec.n
    half = spec.lam / 2.0
    zz = tuple(
        (i, j, half * (spec.q * spec.sigma[i][j] + spec.penalty))
        for i in range(n - 1)
        for j in range(i + 1, n)
    )
    z = tuple(
        (i, half * (spec.penalty * (2 * spec.budget - n)
                    + (1 - spec.q) * spec.mu[i]
                    - spec.q * sum(spec.sigma[i])))
        for i in range(n)
    )
    return ProblemHamiltonian(n, zz, z, spec.constant, spec.budget)


def build_maxcut_hamiltonian(edges, n: int) -> ProblemHamiltonian:
    """Minimization form: +1/2 per edge ZZ, constant -|E|/2, no Z terms.

    Minimizing <H> maximizes the cut; energies satisfy cut(x) = -E(x).
    """
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop edge ({u},{v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        seen.add(key)
    zz = tuple((i, j, 0.5) for i, j in sorted(seen))
    return ProblemHamiltonian(n, zz, (), -0.5 * len(seen), None)


def energy(h: ProblemHamiltonian, bits: str) -> float:
    """Objective value of one bitstring (character k = logical qubit k)."""
    if len(bits) != h.n:
        raise ValueError(f"bitstring length {len(bits)} != n {h.n}")
    z = [1.0 if b == "0" else -1.0 for b in bits]
    val = h.constant
    for i, j, c in h.zz:
        val += c * z[i] * z[j]
    for i, c in h.z:
        val += c * z[i]
    return val


def expectation(h: ProblemHamiltonian, counts: dict[str, int]) -> float:
    """Shot-weighted average energy over measured bitstrings."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts must contain at least one shot")
    return sum(energy(h, bits) * c for bits, c in counts.items()) / total


def _all_energies(h: ProblemHamiltonian) -> np.ndarray:
    """Energy of every basis state, indexed little-endian (bit k = qubit k)."""
    dim = 1 << h.n
    idx = np.arange(dim, dtype=np.int64)
    zbit = [1.0 - 2.0 * ((idx >> k) & 1) for k in range(h.n)]
    vals = np.full(dim, float(h.constant))
    for i, j, c in h.zz:
        vals += c * zbit[i] * zbit[j]
    for i, c in h.z:
        vals += c * zbit[i]
    return vals


def _feasible_mask(h: ProblemHamiltonian) -> np.ndarray:
    dim = 1 << h.n
    if h.budget is None:
        return np.ones(dim, dtype=bool)
    idx = np.arange(dim, dtype=np.int64)
    weight = np.zeros(dim, dtype=np.int64)
    for k in range(h.n):
        weight += (idx >> k) & 1
    return weight == h.budget


def is_feasible(h: ProblemHamiltonian, bits: str) -> bool:
    return h.budget is None or bits.count("1") == h.budget


def brute_force_extrema(h: ProblemHamiltonian):
    """Exact (F_opt, F_max, optimal bitstrings) over budget-feasible states."""
    if h.n > 24:
        raise ValueError(f"brute force capped at n <= 24, got {h.n}")
    vals = _all_energies(h)
    mask = _feasible_mask(h)
    if not mask.any():
        raise ValueError("no bitstring satisfies the budget constraint")
    feas = vals[mask]
    f_opt = float(feas.min())
    f_max = float(feas.max())
    ids = np.flatnonzero(mask & np.isclose(vals, f_opt, rtol=0.0, atol=1e-12))
    optimal = tuple("".join(str((int(i) >> k) & 1) for k in range(h.n)) for i in ids)
    return f_opt, f_max, optimal


def metrics(h: ProblemHamiltonian, counts: dict[str, int], f_opt: float, f_max: float,
            optimal_bitstrings) -> MetricReport:
    """Approximation ratio and success probability from raw counts.

    Budget-infeasible shots score F_max (contributing 0 to the ratio), so a
    run with no feasible shots gets AR 0; the ratio is clamped to [0, 1].
    """
    if not f_opt < f_max:
        raise ValueError("degenerate extrema: F_opt must be strictly below F_max")
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts must contain at least one shot")
    optimal = set(optimal_bitstrings)
    f_all = 0.0
    f_scored = 0.0
    hits = 0
    for bits, c in counts.items():
        e = energy(h, bits)
        f_all += e * c
        f_scored += (e if is_feasible(h, bits) else f_max) * c
        if bits in optimal:
            hits += c
    f_all /= total
    f_scored /= total
    ar = (f_scored - f_max) / (f_opt - f_max)
    return MetricReport(expectation=f_all, ar=min(max(ar, 0.0), 1.0), sp=hits / total)


def hamiltonian_to_dict(h: ProblemHamiltonian) -> dict:
    out = {
        "n": h.n,
        "zz": [{"i": i, "j": j, "coeff": c} for i, j, c in h.zz],
        "z": [{"i": i, "coeff": c} for i, c in h.z],
        "constant": h.constant,
    }
    if h.budget is not None:
        out["budget"] = h.budget
    return out


def _number(value, name: str, integer: bool = False):
    """`value` if it is a JSON integer (or, unless `integer`, a finite
    number); otherwise ValueError naming the field. bool is excluded."""
    if type(value) is int or (not integer and type(value) is float and math.isfinite(value)):
        return value
    raise ValueError(f"field {name!r} must be {'an integer' if integer else 'a finite number'}, "
                     f"got {value!r}")


def _terms(data: dict, key: str, fields: tuple[str, ...]) -> tuple:
    """The `key` list of term objects as tuples of their `fields`."""
    items = data.get(key, [])
    if not isinstance(items, list) or not all(isinstance(t, dict) for t in items):
        raise ValueError(f"field {key!r} must be a list of objects with keys {', '.join(fields)}")
    return tuple(tuple(_number(t[f], f"{key}[{k}].{f}", integer=(f != "coeff")) for f in fields)
                 for k, t in enumerate(items))


def hamiltonian_from_dict(data: dict) -> ProblemHamiltonian:
    zz = _terms(data, "zz", ("i", "j", "coeff"))
    z = _terms(data, "z", ("i", "coeff"))
    return ProblemHamiltonian(_number(data["n"], "n", integer=True), zz, z,
                              float(_number(data.get("constant", 0.0), "constant")),
                              data.get("budget"))


def _numbers(values, name: str) -> tuple:
    if not isinstance(values, list):
        raise ValueError(f"field {name!r} must be a list, got {values!r}")
    return tuple(_number(v, f"{name}[{k}]") for k, v in enumerate(values))


def portfolio_spec_from_dict(data: dict) -> PortfolioSpec:
    """Portfolio spec JSON (keys lambda, q, A, B, sigma, mu and optional
    constant) -> PortfolioSpec; a malformed value raises ValueError naming
    its field."""
    rows = data["sigma"]
    if not isinstance(rows, list):
        raise ValueError(f"field 'sigma' must be a list, got {rows!r}")
    return PortfolioSpec(
        lam=float(_number(data["lambda"], "lambda")), q=float(_number(data["q"], "q")),
        penalty=float(_number(data["A"], "A")), budget=_number(data["B"], "B", integer=True),
        sigma=tuple(_numbers(row, f"sigma[{i}]") for i, row in enumerate(rows)),
        mu=_numbers(data["mu"], "mu"),
        constant=float(_number(data.get("constant", 0.0), "constant")))


def counts_from_json(text: str) -> dict[str, int]:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("expected a JSON object of bitstring: shot count")
    for bits, shots in raw.items():
        if type(shots) is not int or shots < 0:  # bool is a subclass of int
            raise ValueError(f"shot count {shots!r} for {bits!r} is not a non-negative integer")
    return raw

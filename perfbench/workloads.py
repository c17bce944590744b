"""The benchmark workloads: inputs from a seed, timed operations, checks.

Two workloads are built from four experiment groups:

* ``witness``: the PSD frontier (``frontier``), the thresholded-submatrix
  and subset-search detection tests (``detect``), and the exact expansion
  identities with the labeling audit and the dual trace oracle
  (``identities``).  Every witness build, feasibility audit and PSD verdict
  of the benchmark happens here.
* ``norms``: deviation-component norm scaling, at one dense and one
  matrix-free grid point.  It builds no witness and checks no PSD.

A pass runs the operations of its workload once, in order.  Every operation
goes through the package's public API: ``harness.run`` followed by
``harness.emit`` to CSV, or ``labelings.exact_expected_trace`` for the trace
oracle.  A pass draws its instances from ``seed0``; the runner gives each
pass of a run its own ``seed0``, so a run covers several instance sets.

The checks recompute what they verify apart from the program (closed forms,
entry formulas, dense eigenvalues from numpy/scipy) or test properties the
method must have.  None of them compares against a stored copy of earlier
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, erfc, exp, isfinite, log, pi, sqrt
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.linalg import eigvalsh

from cliquewitness.decomposition import (
    ComponentKind,
    class1_sum_operator,
    component_operator,
)
from cliquewitness.harness import ExperimentConfig, emit, run
from cliquewitness.labelings import exact_expected_trace
from cliquewitness.models import GraphInstance, sample_er, sample_gaussian
from cliquewitness.params import derive_alphas
from cliquewitness.witness import build_matrix

NAMES = ("witness", "norms")

# seed0 of pass i in a run with seed s; blocks of 100 keep passes disjoint
_SEED_STRIDE = 10_000
_PASS_STRIDE = 100

WINDOW_C0 = 0.25
PSD_TOL = 1e-8

FRONTIER_GRID = (40, 50)  # compressed dim ~430 below, ~660 above the 600 cutoff
NORMS_GRID = (60, 141)  # dense components up to n = 140, matrix-free above
DETECT_GRID = (60, 90)  # compressed dim ~340 below, ~730 above the 600 cutoff
IDENTITY_GRID = (15, 30, 40)
IDENTITY_P = (0.1, 0.5)
COMB_N, COMB_K, COMB_MU = 20, 6, 2.0


def seed0(seed: int, pass_index: int) -> int:
    return _SEED_STRIDE * seed + _PASS_STRIDE * pass_index


@dataclass(frozen=True)
class Op:
    """One timed operation; grid marks the smallest/largest grid point."""

    name: str
    grid: str  # "small", "large" or ""
    call: Callable[[], object]


Check = Tuple[str, bool, str]


@dataclass(frozen=True)
class Pass:
    """The operations of one pass and the checks of their outputs."""

    seed0: int
    ops: Tuple[Op, ...]
    check: Callable[[Dict[str, object]], List[Check]]
    repeat: str  # op run a second time, after timing, to compare output bytes


def _harness_op(name: str, grid: str, config: ExperimentConfig) -> Op:
    # run/emit are looked up at call time so a traced pass sees its wrappers
    return Op(name, grid, lambda: emit(run(config), "csv", None, config))


def prepare(workload: str, s0: int) -> Pass:
    """Configurations and check inputs of one pass of a workload."""
    if workload == "witness":
        parts = (_frontier(s0), _detect(s0), _identities(s0))
        ops = tuple(op for part in parts for op in part.ops)

        def check(outputs: Dict[str, object]) -> List[Check]:
            return [c for part in parts for c in part.check(outputs)]

        return Pass(s0, ops, check, repeat=parts[2].repeat)
    if workload == "norms":
        return _norms(s0)
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def parse_csv(text: str) -> Dict[Tuple[int, float, int, str], Tuple[float, float]]:
    """(n, p, seed, metric) -> (kappa, value) of an emitted CSV table.

    Metric names such as ``v_star[cycle,m=1]`` are written unquoted, so the
    name is everything between the fifth and the last comma.
    """
    lines = text.splitlines()
    if lines[0] != "experiment,n,p,kappa,seed,metric_name,metric_value":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        _, n, p, kappa, seed, rest = line.split(",", 5)
        name, value = rest.rsplit(",", 1)
        out[(int(n), float(p), int(seed), name)] = (float(kappa), float(value))
    return out


def all_finite(output: object) -> bool:
    """False when an emitted table holds a NaN or infinite kappa or value.

    The frontier's grid-level ``slope`` is NaN by definition on a one-point
    grid, and each frontier operation here runs one grid point.
    """
    if isinstance(output, str):
        return all(isfinite(k) and isfinite(v) for (_, _, _, name), (k, v)
                   in parse_csv(output).items() if name != "slope")
    return all(isfinite(x) for r in output for x in (r.labeling_sum, r.graph_average))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _window_kappa(n: int) -> float:
    return WINDOW_C0 * n ** (-2.0 / 3.0) / log(n)


def _alphas(kappa: float, p: float) -> Tuple[float, float, float, float, float]:
    """alpha_0..alpha_4 from the closed-form ladder (1, k, 2k^2/p, k^3/p^3, 8k^4/p^6)."""
    return (1.0, kappa, 2 * kappa**2 / p, kappa**3 / p**3, 8 * kappa**4 / p**6)


def _centered(adjacency: np.ndarray, p: float) -> np.ndarray:
    g = adjacency.astype(float) - p
    np.fill_diagonal(g, 0.0)
    return g


def dense_min_eig_ok(x: np.ndarray) -> bool:
    """PSD up to PSD_TOL * max |diagonal|, from scipy's dense eigenvalues.

    A PSD matrix has a zero row wherever its diagonal is zero, so such rows
    must vanish and are dropped before the smallest eigenvalue is taken.
    """
    diag = np.diagonal(x)
    scale = float(np.abs(diag).max()) or 1.0
    zero = diag == 0.0
    if np.any(x[zero]):
        return False
    keep = np.flatnonzero(~zero)
    if keep.size == 0:
        return True
    lam = eigvalsh(x[np.ix_(keep, keep)], subset_by_index=[0, 0], check_finite=False)[0]
    return bool(lam >= -PSD_TOL * scale)


# ----------------------------------------------------------------------
# frontier: PSD frontier by bisection
# ----------------------------------------------------------------------


def _frontier(s0: int) -> Pass:
    trials = 10
    configs = {
        n: ExperimentConfig(
            experiment="psd_frontier", n_grid=(n,), p=0.5,
            kappa_rule="binary_search", trials=trials, seed0=s0,
        )
        for n in FRONTIER_GRID
    }
    graphs = {n: [sample_er(n, 0.5, seed=s0 + t) for t in range(trials)] for n in FRONTIER_GRID}
    ops = tuple(
        _harness_op(f"psd_frontier n={n}", grid, configs[n])
        for n, grid in zip(FRONTIER_GRID, ("small", "large"))
    )

    def passing(n: int, kappa: float, stop_after_fails: int) -> int:
        count = fails = 0
        for graph in graphs[n]:
            x = build_matrix(graph, derive_alphas(kappa, 0.5), "M").values
            if dense_min_eig_ok(x):
                count += 1
            else:
                fails += 1
                if fails >= stop_after_fails:
                    break
        return count

    def check(outputs: Dict[str, object]) -> List[Check]:
        results: List[Check] = []
        stars = {}
        for op, n in zip(ops, FRONTIER_GRID):
            table = parse_csv(outputs[op.name])
            star = table[(n, 0.5, -1, "kappa_star")][1]
            frac = table[(n, 0.5, -1, "success_fraction")][1]
            stars[n] = star
            results.append((f"kappa_star_range n={n}", 1e-4 <= star <= 1e-1 and frac >= 0.9,
                            f"kappa*={star!r}, success {frac!r}"))
            at_star = passing(n, star, 2)  # two failures already rule out 9/10
            at_double = passing(n, 2 * star, 2)
            results.append((f"dense_psd_at_kappa_star n={n}", at_star >= 9,
                            f"{at_star}/{trials} seeds PSD at kappa*"))
            results.append((f"dense_not_psd_at_2kappa_star n={n}", at_double < 9,
                            f"{at_double} seeds PSD at 2 kappa* before two failures"))
        lo, hi = FRONTIER_GRID
        results.append(("kappa_star_falls_with_n", stars[hi] < stars[lo],
                        f"kappa*({lo})={stars[lo]!r}, kappa*({hi})={stars[hi]!r}"))
        return results

    return Pass(s0, ops, check, repeat=ops[0].name)


# ----------------------------------------------------------------------
# norms: deviation-component norm scaling
# ----------------------------------------------------------------------


def _pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """0-based (head, tail) of every pair in lexicographic order."""
    return np.triu_indices(n, 1)


def _entries(kind: str, g: np.ndarray, hr, tr, hc, tc, a3: float, a4: float, p: float):
    """Entry formulas of the pair-block components, broadcast over row/column pairs.

    K: alpha3 * g_xy when the pairs share exactly one vertex, x and y being
    the unshared ends; J(4,1): alpha4 * g_ik g_il g_jk g_jl; class-1 sum:
    alpha4 p^3 (g_ik + g_il + g_jk + g_jl), with g_ii = 0 throughout.
    """
    if kind == "K":
        hh, ht, th, tt = hr == hc, hr == tc, tr == hc, tr == tc
        one = (hh.astype(int) + ht + th + tt) == 1
        x = np.where(hh | ht, tr, hr)
        y = np.where(hh | th, tc, hc)
        return a3 * np.where(one, g[x, y], 0.0)
    if kind == "J41":
        return a4 * g[hr, hc] * g[hr, tc] * g[tr, hc] * g[tr, tc]
    return a4 * p**3 * (g[hr, hc] + g[hr, tc] + g[tr, hc] + g[tr, tc])


def _l21(g: np.ndarray, a3: float) -> np.ndarray:
    """L(2,1)[a, (k, l)] = alpha3 * g_ak g_al (zero when a is k or l)."""
    h, t = _pairs(g.shape[0])
    return a3 * g[:, h] * g[:, t]


def _class1_exact(g: np.ndarray, a4: float, p: float) -> float:
    """alpha4 p^3 max|eig(M^1/2 g M^1/2)| with M = (n-2) I + 1 1^T.

    The class-1 sum is alpha4 p^3 S^T g S for the vertex-pair incidence S,
    whose nonzero spectrum is that of g S S^T = g M.
    """
    n = g.shape[0]
    ones = np.full((n, n), 1.0 / n)
    root = sqrt(n - 2) * (np.eye(n) - ones) + sqrt(2 * n - 2) * ones
    return a4 * p**3 * float(np.abs(np.linalg.eigvalsh(root @ g @ root)).max())


def _norms(s0: int) -> Pass:
    p = 0.5
    configs = {
        n: ExperimentConfig(
            experiment="norm_scaling", n_grid=(n,), p=p, kappa_rule="theorem1",
            c0=WINDOW_C0, trials=1, seed0=s0,
        )
        for n in NORMS_GRID
    }
    graphs = {n: sample_er(n, p, seed=s0) for n in NORMS_GRID}
    ops = tuple(
        _harness_op(f"norm_scaling n={n}", grid, configs[n])
        for n, grid in zip(NORMS_GRID, ("small", "large"))
    )
    dense_check_limit = 100  # above this, entry-formula matrices get too large

    def check_n(n: int, text: str) -> List[Check]:
        table = parse_csv(text)
        kappa = _window_kappa(n)
        _, _, _, a3, a4 = _alphas(kappa, p)
        nbar = n * log(n)
        g = _centered(graphs[n].adjacency, p)
        got = {name: table[(n, p, s0, name)] for name in
               ("ratio_K", "ratio_J41", "ratio_L21", "ratio_J1sum")}
        norm = {
            "ratio_K": got["ratio_K"][1] * a3 * nbar**0.5,
            "ratio_J41": got["ratio_J41"][1] * a4 * nbar,
            "ratio_L21": got["ratio_L21"][1] * a3 * nbar,
            "ratio_J1sum": got["ratio_J1sum"][1] * a4 * p**3 * nbar**1.5,
        }
        out: List[Check] = []
        kappas = {k for k, _ in got.values()}
        out.append((f"window_kappa n={n}", all(_rel(k, kappa) <= 1e-12 for k in kappas),
                    f"kappa column {sorted(kappas)} vs {kappa!r}"))
        exact = _class1_exact(g, a4, p)
        out.append((f"class1_sum_norm n={n}", _rel(norm["ratio_J1sum"], exact) <= 1e-5,
                    f"{norm['ratio_J1sum']!r} vs exact {exact!r}"))
        l21 = float(np.linalg.norm(_l21(g, a3), 2))
        out.append((f"L21_norm n={n}", _rel(norm["ratio_L21"], l21) <= 1e-5,
                    f"{norm['ratio_L21']!r} vs numpy {l21!r}"))
        h, t = _pairs(n)
        if n <= dense_check_limit:
            for kind, name in (("K", "ratio_K"), ("J41", "ratio_J41")):
                dense = _entries(kind, g, h[:, None], t[:, None], h[None, :], t[None, :], a3, a4, p)
                ref = float(np.abs(np.linalg.eigvalsh(dense)).max())
                out.append((f"{kind}_norm_dense n={n}", _rel(norm[name], ref) <= 1e-5,
                            f"{norm[name]!r} vs numpy {ref!r}"))
            return out
        params = derive_alphas(kappa, p)
        rng = np.random.default_rng(s0)
        rows = rng.choice(h.size, size=16, replace=False)
        v = rng.standard_normal(h.size)
        operators = (
            ("K", "ratio_K", component_operator(graphs[n], params, ComponentKind("K"))),
            ("J41", "ratio_J41", component_operator(graphs[n], params, ComponentKind("J", 4, 1))),
            ("class1", "ratio_J1sum", class1_sum_operator(graphs[n], params)),
        )
        for kind, name, op in operators:
            got_rows = (op @ v)[rows]
            want = _entries(kind, g, h[rows, None], t[rows, None], h[None, :], t[None, :],
                            a3, a4, p) @ v
            scale = float(np.abs(want).max())
            ok = bool(np.allclose(got_rows, want, rtol=1e-9, atol=1e-12 * scale))
            # ||op x|| / ||x|| never exceeds the norm, for any x
            x, lower = v, 0.0
            for _ in range(3):
                y = op @ x
                lower = max(lower, float(np.linalg.norm(y) / np.linalg.norm(x)))
                x = y
            ok = ok and norm[name] >= lower * (1 - 1e-6)
            out.append((f"{kind}_operator n={n}", ok,
                        f"matvec rows max dev {float(np.abs(got_rows - want).max())!r}; "
                        f"norm {norm[name]!r} >= power lower bound {lower!r}"))
        return out

    def check(outputs: Dict[str, object]) -> List[Check]:
        return [c for op, n in zip(ops, NORMS_GRID) for c in check_n(n, outputs[op.name])]

    return Pass(s0, ops, check, repeat=ops[0].name)


# ----------------------------------------------------------------------
# detect: thresholded-submatrix test under H0 and the subset-search baseline
# ----------------------------------------------------------------------


def _subset_labels(n: int) -> np.ndarray:
    """Vertex labels (0-based, -1 for none) of every subset index."""
    h, t = _pairs(n)
    labels = np.full((1 + n + h.size, 2), -1, dtype=np.int64)
    labels[1 : n + 1, 0] = np.arange(n)
    labels[n + 1 :, 0] = h
    labels[n + 1 :, 1] = t
    return labels


def _spot_entries(values: np.ndarray, adjacency: np.ndarray, alphas, rng, count: int) -> int:
    """Number of sampled entries that differ from alpha_|AuB| * [AuB is a clique]."""
    n = adjacency.shape[0]
    labels = _subset_labels(n)
    dim = labels.shape[0]
    rows = rng.integers(0, dim, size=count)
    cols = rng.integers(0, dim, size=count)
    bad = 0
    for r, c in zip(rows, cols):
        union = sorted({int(v) for v in (*labels[r], *labels[c]) if v >= 0})
        clique = all(adjacency[a, b] for i, a in enumerate(union) for b in union[i + 1 :])
        want = alphas[len(union)] if clique else 0.0
        bad += values[r, c] != want
    return bad


def _detect(s0: int) -> Pass:
    k = 6.0
    c_star, lam = 0.5, 1.0
    p_eff = 0.5 * erfc(lam / sqrt(2.0))  # P(N(0,1) >= lambda)
    phi = exp(-0.5 * lam**2) / sqrt(2.0 * pi)
    kappas = {n: n ** (-2.0 / 3.0) / (16.0 * log(n)) for n in DETECT_GRID}
    sub_configs = {
        n: ExperimentConfig(
            experiment="detection", n_grid=(n,), kappa_rule="fixed", kappa=kappas[n],
            trials=1, seed0=s0, extras={"test": "submatrix", "k": k},
        )
        for n in DETECT_GRID
    }
    comb_config = ExperimentConfig(
        experiment="detection", n_grid=(COMB_N,), trials=10, seed0=s0,
        extras={"test": "comb", "k": float(COMB_K), "mu": COMB_MU},
    )
    nulls = {n: sample_gaussian(n, 0.0, None, "H0", s0) for n in DETECT_GRID}
    alts = [sample_gaussian(COMB_N, COMB_MU, COMB_K, "H1", s0 + t) for t in range(comb_config.trials)]
    ops = tuple(
        _harness_op(f"submatrix n={n}", grid, sub_configs[n])
        for n, grid in zip(DETECT_GRID, ("small", "large"))
    ) + (_harness_op(f"comb n={COMB_N}", "", comb_config),)

    def check_submatrix(n: int, text: str) -> List[Check]:
        table = parse_csv(text)
        kappa = kappas[n]
        a = nulls[n].A
        adjacency = a >= lam
        np.fill_diagonal(adjacency, False)
        alphas = _alphas(kappa, p_eff)
        iu = _pairs(n)
        weighted = alphas[2] * float(np.sum(a[iu] * adjacency[iu]))
        got_weighted = table[(n, 0.5, s0, "weighted")][1]
        out: List[Check] = [(f"weighted_statistic n={n}", _rel(got_weighted, weighted) <= 1e-12,
                             f"{got_weighted!r} vs recomputed {weighted!r}")]
        graph = GraphInstance(n, p_eff, adjacency)
        values = build_matrix(graph, derive_alphas(kappa, p_eff), "M").values
        bad = _spot_entries(values, adjacency, alphas, np.random.default_rng(s0 + n), 2000)
        out.append((f"witness_entries n={n}", bad == 0, f"{bad}/2000 sampled entries off formula"))
        feasible = bool(values[0, 0] == 1.0 and values.min() >= 0.0 and values.max() <= 1.0
                        and dense_min_eig_ok(values))
        got_feasible = table[(n, 0.5, s0, "feasible")][1] == 1.0
        out.append((f"feasibility n={n}", got_feasible == feasible,
                    f"reported {got_feasible}, dense check {feasible}"))
        mu = kappa**2 * n**2 * phi / (2.0 * p_eff * c_star * k**2)
        verdict = feasible and n * kappa <= k and weighted >= c_star * mu * k * k
        got_verdict = table[(n, 0.5, s0, "verdict")][1] == 1.0
        out.append((f"verdict n={n}", got_verdict == verdict and
                    _rel(table[(n, 0.5, -1, "mu")][1], mu) <= 1e-12,
                    f"reported {got_verdict}, recomputed {verdict}"))
        return out

    def check(outputs: Dict[str, object]) -> List[Check]:
        out = [c for n in DETECT_GRID for c in check_submatrix(n, outputs[f"submatrix n={n}"])]
        table = parse_csv(outputs[f"comb n={COMB_N}"])
        threshold = 0.5 * comb(COMB_K, 2) * COMB_MU
        missed = []
        for t, alt in enumerate(alts):
            block = np.array(sorted(alt.planted)) - 1
            inner = float(np.triu(alt.A[np.ix_(block, block)], 1).sum())
            if inner >= threshold and table[(COMB_N, 0.5, s0 + t, "comb_H1")][1] != 1.0:
                missed.append(s0 + t)
        out.append(("comb_finds_planted_block", not missed,
                    f"H1 seeds whose planted block meets the threshold but verdict 0: {missed}"))
        return out

    return Pass(s0, ops, check, repeat=ops[0].name)


# ----------------------------------------------------------------------
# identities: exact expansions, labeling audit, dual trace oracle
# ----------------------------------------------------------------------

_TRACE_KINDS = (
    ("K", ComponentKind("K")),
    ("J41", ComponentKind("J", 4, 1)),
    ("J21", ComponentKind("J", 2, 1)),
    ("L21", ComponentKind("L", 2, 1)),
)
_TRACE_N = (4, 5)
_TRACE_KAPPA, _TRACE_P = 0.3, 0.5


def _trace_cases():
    params = derive_alphas(_TRACE_KAPPA, _TRACE_P)
    for n in _TRACE_N:
        for tag, kind in _TRACE_KINDS:
            for m in (1, 2):
                yield n, tag, kind, m, params


def _trace_oracle():
    return [exact_expected_trace(kind, m, n, _TRACE_P, params)
            for n, _, kind, m, params in _trace_cases()]


def _frobenius_closed_form(tag: str, n: int) -> float:
    """E ||X||_F^2: (entries with distinct edges) * beta^2 * (p(1-p))^edges."""
    _, _, _, a3, a4 = _alphas(_TRACE_KAPPA, _TRACE_P)
    q = _TRACE_P * (1 - _TRACE_P)
    pairs = comb(n, 2)
    if tag == "K":
        return a3**2 * pairs * 2 * (n - 2) * q
    if tag == "J41":
        return a4**2 * pairs * comb(n - 2, 2) * q**4
    if tag == "J21":
        return (a4 * _TRACE_P**2) ** 2 * pairs * comb(n - 2, 2) * q**2
    return a3**2 * n * comb(n - 1, 2) * q**2


_V_STAR = (
    [(f"cycle,m={m}", m + 1) for m in range(1, 6)]
    + [(f"bridge,m={m}", 2 * m + 1) for m in range(1, 4)]
    + [(f"ribbon41,m={m}", 2 * m + 2) for m in range(1, 3)]
    + [(f"ribbon1{nu},m={m}", 3 * m + 2) for nu in range(1, 5) for m in range(1, 3)]
    + [(f"constrained,m={m}", m + 2) for m in range(1, 4)]
)


def _identities(s0: int) -> Pass:
    configs = {
        (n, p): ExperimentConfig(
            experiment="expansion_identities", n_grid=(n,), p=p, kappa_rule="theorem1",
            c0=WINDOW_C0, trials=1, seed0=s0,
        )
        for n in IDENTITY_GRID
        for p in IDENTITY_P
    }
    grid_role = {IDENTITY_GRID[0]: "small", IDENTITY_GRID[-1]: "large"}
    ops = tuple(
        _harness_op(f"expansion n={n} p={p}", grid_role.get(n, ""), cfg)
        for (n, p), cfg in configs.items()
    )
    audit = ExperimentConfig(experiment="labeling_audit", n_grid=())
    ops += (_harness_op("labeling_audit", "", audit), Op("trace_oracle", "", _trace_oracle))

    def check(outputs: Dict[str, object]) -> List[Check]:
        out: List[Check] = []
        for (n, p), cfg in configs.items():
            table = parse_csv(outputs[f"expansion n={n} p={p}"])
            alpha2 = _alphas(_window_kappa(n), p)[2]
            scale = table[(n, p, -1, "scale")][1]
            residuals = [v for (_, _, s, name), (_, v) in table.items() if name.startswith("residual")]
            worst = max(residuals + [table[(n, p, -1, "max_residual")][1]])
            out.append((f"expansion n={n} p={p}",
                        _rel(scale, alpha2) <= 1e-12 and len(residuals) == 2 * cfg.trials
                        and worst <= 1e-12 * alpha2,
                        f"worst residual {worst!r} vs 1e-12 * alpha2 = {1e-12 * alpha2!r}"))
        table = parse_csv(outputs["labeling_audit"])
        got = {name: v for (_, _, _, name), (_, v) in table.items()}
        wrong = [tag for tag, want in _V_STAR if got.get(f"v_star[{tag}]") != want]
        wrong += [f"star,m={m}" for m in range(1, 4) if not got.get(f"v_star[star,m={m}]", 1e9) <= m + 2]
        flags = [name for name, v in got.items() if name.startswith("count_bound_ok") and v != 1.0]
        out.append(("v_star_closed_forms", not wrong, f"mismatched {wrong}"))
        audited = [name for name in got if name.startswith("count_bound_ok")]
        out.append(("count_contributing_le_count_bound", bool(audited) and not flags,
                    f"violated {flags} of {len(audited)}"))
        worst_dual, worst_closed = 0.0, 0.0
        for (n, tag, _, m, _), res in zip(_trace_cases(), outputs["trace_oracle"]):
            worst_dual = max(worst_dual, _rel(res.labeling_sum, res.graph_average))
            if m == 1:
                worst_closed = max(worst_closed, _rel(res.labeling_sum, _frobenius_closed_form(tag, n)))
        out.append(("trace_routes_agree", worst_dual <= 1e-12, f"rel dev {worst_dual!r}"))
        out.append(("trace_m1_closed_form", worst_closed <= 1e-12, f"rel dev {worst_closed!r}"))
        return out

    return Pass(s0, ops, check, repeat=ops[0].name)

"""Experiment runner and command-line interface.

Experiments sweep the other modules over (n, seed) grids and serialize flat
metric tables.  Outputs are deterministic functions of the configuration:
floats are written with repr, records are sorted canonically, and wall-clock
times stay in memory only.  CSV rows use the fixed columns
experiment,n,p,kappa,seed,metric_name,metric_value with seed -1 marking
per-point aggregates and n 0 marking grid-level records.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from math import ceil, log
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .decomposition import (
    ComponentKind,
    class1_sum_norm,
    component_norm,
    verify_expansion_H12,
    verify_expansion_H22,
)
from .detect import TestConfig, check_comb_budget, test_clique, test_comb, test_submatrix
from .labelings import (
    build_primitive,
    constrained_family_v_star,
    count_bound,
    count_contributing,
    star_ribbon_members,
    v_star,
)
from .models import GAUSSIAN_METHOD, sample_er, sample_gaussian
from .params import derive_alphas
from .spectral import evaluate_W_conditions
from .witness import CliqueStructure, block_psd_check, fill, padded_table
# not called here; both stay bound because the traced benchmark
# (perfbench/spans.py) wraps harness.psd_check and harness._full_matrix by name
from .spectral import psd_check  # noqa: F401
from .witness import _full_matrix  # noqa: F401

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ResultRecord",
    "run",
    "emit",
    "check_records",
    "main",
]

_KAPPA_RULES = ("fixed", "theorem1", "binary_search")

# frontier search protocol: fixed bisection grid, supermajority success rule
_BISECTION_STEPS = 12
_KAPPA_LO = 1e-6
_KAPPA_HI = 1e-1

# the smallest grid point each experiment runs at (4 where unlisted): a graph
# needs 4 vertices, the expected blocks and the condition evaluator 5.  The
# labeling audit ignores its grid.
_MIN_N = {"expansion_identities": 5, "w_conditions": 5}

# the detection extras; the last three set TestConfig fields, which keep their defaults unset
_TEST_FIELDS = {"c_star": "c_star", "lambda": "lambda_thresh", "scaling": "scaling"}
_DETECTION_EXTRAS = ("test", "k", "mu", "hypothesis", *_TEST_FIELDS)
_DETECTION_MODES = ("submatrix", "comb", "clique")


def _whole(value: object) -> int:
    """value as an int, refusing a float with a fraction (30.0 reads 30)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value}")
    return int(value)


# the cast to each annotated field type: a config file may give an int for a
# float, or a whole float for an int
_CASTS = {"int": _whole, "float": float, "Optional[float]": lambda v: v if v is None else float(v),
          "Tuple[int, ...]": lambda grid: tuple(_whole(n) for n in grid),
          "Mapping[str, float]": dict}


def _detection_extras(extras: Mapping[str, float]) -> Tuple[str, float, str]:
    """The detection mode, clique size k and hypothesis a config's extras set."""
    return (str(extras.get("test", "submatrix")), float(extras.get("k", 6.0)),
            str(extras.get("hypothesis", "H0")))


def _test_settings(extras: Mapping[str, float]) -> Dict[str, float]:
    """The TestConfig fields a config's extras set."""
    return {name: float(extras[key]) for key, name in _TEST_FIELDS.items() if key in extras}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation; every field is echoed into output metadata."""

    experiment: str
    n_grid: Tuple[int, ...] = ()
    p: float = 0.5
    kappa_rule: str = "theorem1"
    kappa: Optional[float] = None
    c0: float = 0.25
    constant: float = 1.0
    trials: int = 10
    seed0: int = 0
    tolerances: Mapping[str, float] = field(default_factory=dict)
    output_path: Optional[str] = None
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type in _CASTS:
                try:
                    object.__setattr__(self, f.name, _CASTS[f.type](getattr(self, f.name)))
                except (ValueError, TypeError) as exc:
                    raise type(exc)(f"{f.name}: {exc}") from None
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.experiment != "labeling_audit":
            if not self.n_grid:
                raise ValueError("n_grid must be nonempty")
            least = _MIN_N.get(self.experiment, 4)
            if min(self.n_grid) < least:
                raise ValueError(
                    f"{self.experiment} n must be at least {least}, got {min(self.n_grid)}")
        if self.seed0 < 0:
            raise ValueError(f"seed0 must be nonnegative, got {self.seed0}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.kappa_rule not in _KAPPA_RULES:
            raise ValueError(
                f"unknown kappa rule {self.kappa_rule!r}; choose from {_KAPPA_RULES}"
            )
        if self.kappa_rule == "fixed" and self.kappa is None:
            raise ValueError("kappa_rule 'fixed' requires kappa")
        if self.kappa_rule == "binary_search" and self.experiment != "psd_frontier":
            raise ValueError("kappa_rule 'binary_search' applies to psd_frontier only")
        if self.experiment == "psd_frontier" and (
                self.kappa_rule != "binary_search" or self.kappa is not None):
            raise ValueError("psd_frontier bisects kappa, so it takes kappa_rule "
                             "'binary_search' and no kappa (--kappa and --c0 set other rules)")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        for name in ("kappa", "c0", "constant"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.experiment == "detection":
            self._check_detection()
        elif self.extras:
            raise ValueError(f"extras apply to detection only, got {sorted(self.extras)} "
                             f"for {self.experiment}")

    def _check_detection(self) -> None:
        unknown = sorted(set(self.extras) - set(_DETECTION_EXTRAS))
        if unknown:
            raise ValueError(f"unknown detection extras {unknown}; choose from {_DETECTION_EXTRAS}")
        mode, k, hypothesis = _detection_extras(self.extras)
        if mode not in _DETECTION_MODES:
            raise ValueError(f"unknown detection mode {mode!r}; choose from {_DETECTION_MODES}")
        if hypothesis not in ("H0", "H1"):
            raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
        TestConfig(**_test_settings(self.extras))  # its own range checks
        float(self.extras.get("mu", 0.0))  # mu, when set, is a number
        # comb and the submatrix test under H1 plant int(k) of the n vertices
        planted = mode == "comb" or (mode == "submatrix" and hypothesis == "H1")
        for n in self.n_grid:
            if mode == "comb":
                check_comb_budget(n, int(k))
            if planted and not 1 <= int(k) <= n:
                raise ValueError(f"k must lie in [1, n] for a planted instance, got k={k}, n={n}")

    def kappa_for(self, n: int) -> float:
        if self.kappa_rule == "fixed":
            assert self.kappa is not None
            return self.kappa
        if self.kappa_rule == "theorem1":
            return self.c0 * n ** (-2.0 / 3.0) / log(n)
        raise ValueError("kappa is search-determined under 'binary_search'")

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


@dataclass(frozen=True)
class ResultRecord:
    """Metrics of one parameter point; wall_clock is never serialized."""

    experiment: str
    n: int
    p: float
    kappa: float
    per_seed: Tuple[Tuple[int, str, float], ...]
    aggregates: Tuple[Tuple[str, float], ...]
    wall_clock: float


# ----------------------------------------------------------------------
# experiment bodies
# ----------------------------------------------------------------------


def _record(config: ExperimentConfig, n: int, kappa: float, per_seed: Sequence,
            aggregates: Sequence, t0: Optional[float] = None) -> ResultRecord:
    """The record of one point of config's sweep, timed from t0 (0.0 untimed)."""
    return ResultRecord(
        experiment=config.experiment,
        n=n,
        p=config.p,
        kappa=kappa,
        per_seed=tuple(per_seed),
        aggregates=tuple(aggregates),
        wall_clock=0.0 if t0 is None else time.perf_counter() - t0,
    )


def _column(per_seed: Sequence[Tuple[int, str, float]], name: str) -> List[float]:
    """The per-seed values of one metric, in seed order."""
    return [value for _, metric, value in per_seed if metric == name]


def _frontier_for_n(config: ExperimentConfig, n: int) -> Tuple[float, List[int]]:
    tol = config.tol("psd", 1e-8)
    structures = [
        CliqueStructure.of(sample_er(n, config.p, seed=config.seed0 + t))
        for t in range(config.trials)
    ]
    buf = np.empty(max(s.codes.size for s in structures))
    allowed_fails = config.trials - ceil(0.9 * config.trials)

    def verdicts(kappa: float) -> Optional[List[int]]:
        """Per-graph PSD verdicts at kappa, or None once too many fail."""
        table = padded_table(derive_alphas(kappa, config.p))
        # a fill of a structure's codes is exactly symmetric, and finite with the table
        exact = bool(np.all(np.isfinite(table)))
        out: List[int] = []
        for s in structures:
            block = fill(s.codes, table, out=buf[: s.codes.size].reshape(s.codes.shape))
            out.append(int(block_psd_check(block, tol, exact, in_place=True).psd))
            if out.count(0) > allowed_fails:
                return None
        return out

    # kappa* is the last kappa that passed; its verdicts are the outcomes
    lo, hi = _KAPPA_LO, _KAPPA_HI
    outcomes = verdicts(lo)
    if outcomes is None:
        return float("nan"), [0] * config.trials
    top = verdicts(hi)
    if top is not None:
        return hi, top
    for _ in range(_BISECTION_STEPS):
        mid = float(np.sqrt(lo * hi))
        got = verdicts(mid)
        if got is None:
            hi = mid
        else:
            lo, outcomes = mid, got
    return lo, outcomes


def _run_psd_frontier(config: ExperimentConfig) -> List[ResultRecord]:
    records: List[ResultRecord] = []
    stars: List[Tuple[int, float]] = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        star, outcomes = _frontier_for_n(config, n)
        stars.append((n, star))
        per_seed = tuple(
            (config.seed0 + t, "psd_at_kappa_star", float(v))
            for t, v in enumerate(outcomes)
        )
        aggregates = (
            ("kappa_star", float(star)),
            ("success_fraction", float(np.mean(outcomes))),
        )
        records.append(_record(config, n, float(star), per_seed, aggregates, t0))
    finite = [(n, s) for n, s in stars if np.isfinite(s)]
    if len(finite) >= 2:
        xs = np.log([n for n, _ in finite])
        ys = np.log([s for _, s in finite])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    records.append(_record(config, 0, 0.0, (), (("slope", slope),)))
    return records


_RATIO_KINDS: Tuple[Tuple[str, Optional[ComponentKind]], ...] = (
    ("ratio_K", ComponentKind("K")),
    ("ratio_J41", ComponentKind("J", 4, 1)),
    ("ratio_L21", ComponentKind("L", 2, 1)),
    ("ratio_J1sum", None),  # the relaxed class-1 sum
)


def _run_norm_scaling(config: ExperimentConfig) -> List[ResultRecord]:
    records = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        kappa = config.kappa_for(n)
        params = derive_alphas(kappa, config.p)
        nbar = n * log(n)
        scales = {
            "ratio_K": params.alpha3 * nbar**0.5,
            "ratio_J41": params.alpha4 * nbar,
            "ratio_L21": params.alpha3 * nbar,
            "ratio_J1sum": params.alpha4 * config.p**3 * nbar**1.5,
        }
        per_seed = []
        for t in range(config.trials):
            seed = config.seed0 + t
            graph = sample_er(n, config.p, seed=seed)
            for name, kind in _RATIO_KINDS:
                if kind is None:
                    norm = class1_sum_norm(graph, params)
                else:
                    norm = component_norm(graph, params, kind)
                ratio = norm / scales[name]
                per_seed.append((seed, name, float(ratio)))
        aggregates = tuple(
            (f"median_{name}", float(np.median(_column(per_seed, name))))
            for name, _ in _RATIO_KINDS
        )
        records.append(_record(config, n, kappa, per_seed, aggregates, t0))
    return records


def _run_expansion_identities(config: ExperimentConfig) -> List[ResultRecord]:
    records = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        kappa = config.kappa_for(n)
        params = derive_alphas(kappa, config.p)
        per_seed = []
        for t in range(config.trials):
            seed = config.seed0 + t
            graph = sample_er(n, config.p, seed=seed)
            r22 = verify_expansion_H22(graph, params)
            r12 = verify_expansion_H12(graph, params)
            per_seed.append((seed, "residual_H22", float(r22)))
            per_seed.append((seed, "residual_H12", float(r12)))
        # np.max keeps a NaN residual
        worst = np.max(_column(per_seed, "residual_H22") + _column(per_seed, "residual_H12"))
        aggregates = (("max_residual", float(worst)), ("scale", float(params.alpha2)))
        records.append(_record(config, n, kappa, per_seed, aggregates, t0))
    return records


_AUDIT_COUNT_N = 12


def _labeling_cases():
    """The audited labeling table: (tag, builder, expected v*, exact?)."""
    for m in range(1, 6):
        yield f"cycle,m={m}", [build_primitive("cycle", 2 * m)], m + 1, True
    for m in range(1, 4):
        yield f"bridge,m={m}", [build_primitive("bridge", m)], 2 * m + 1, True
    for m in range(1, 3):
        yield f"ribbon41,m={m}", [build_primitive("ribbon", m, 4, 1)], 2 * m + 2, True
    for nu in range(1, 5):
        for m in range(1, 3):
            yield (
                f"ribbon1{nu},m={m}",
                [build_primitive("ribbon", m, 1, nu)],
                3 * m + 2,
                True,
            )
    for m in range(1, 4):
        yield f"star,m={m}", list(star_ribbon_members(m)), m + 2, False


def _run_labeling_audit(config: ExperimentConfig) -> List[ResultRecord]:
    t0 = time.perf_counter()
    aggregates: List[Tuple[str, float]] = []
    for tag, members, expected, exact in _labeling_cases():
        # one member at a time, so its three queries share one enumeration
        stars, bound_ok = [], True
        for f in members:
            stars.append(v_star(f))
            bound_ok &= count_contributing(f, _AUDIT_COUNT_N) <= count_bound(f, _AUDIT_COUNT_N)
        observed = max(stars)
        match = observed == expected if exact else observed <= expected
        aggregates.append((f"v_star[{tag}]", float(observed)))
        aggregates.append((f"v_star_ok[{tag}]", float(match)))
        aggregates.append((f"count_bound_ok[{tag}]", float(bound_ok)))
    for m in range(1, 4):
        observed = constrained_family_v_star(m)
        aggregates.append((f"v_star[constrained,m={m}]", float(observed)))
        aggregates.append((f"v_star_ok[constrained,m={m}]", float(observed == m + 2)))
    return [_record(config, 0, 0.0, (), aggregates, t0)]


def _run_detection(config: ExperimentConfig) -> List[ResultRecord]:
    mode, k, hypothesis = _detection_extras(config.extras)
    records = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        kappa = config.kappa_for(n)
        test_config = TestConfig(kappa=kappa, **_test_settings(config.extras))
        per_seed = []
        if mode == "submatrix":
            p_eff = test_config.edge_probability()
            phi = test_config.threshold_density()
            mu = float(
                config.extras.get(
                    "mu",
                    kappa**2 * n**2 * phi
                    / (2.0 * p_eff * test_config.c_star * k**2),
                )
            )
            exceeds: List[float] = []
            for t in range(config.trials):
                seed = config.seed0 + t
                inst = sample_gaussian(
                    n,
                    mu if hypothesis == "H1" else 0.0,
                    int(k) if hypothesis == "H1" else None,
                    hypothesis,
                    seed,
                )
                out = test_submatrix(inst, test_config, k, mu)
                per_seed.append((seed, "verdict", float(out.verdict)))
                per_seed.append((seed, "weighted", out.statistic_weighted))
                per_seed.append((seed, "feasible", float(out.feasibility)))
                exceeds.append(float(out.statistic_weighted >= out.threshold_used))
            aggregates = (
                ("verdict_fraction", float(np.mean(_column(per_seed, "verdict")))),
                ("exceed_fraction", float(np.mean(exceeds))),
                ("mu", mu),
            )
        elif mode == "comb":
            mu = float(config.extras.get("mu", 2.0))
            for t in range(config.trials):
                seed = config.seed0 + t
                null = sample_gaussian(n, 0.0, None, "H0", seed)
                alt = sample_gaussian(n, mu, int(k), "H1", seed)
                per_seed.append((seed, "comb_H0", float(test_comb(null, int(k), mu))))
                per_seed.append((seed, "comb_H1", float(test_comb(alt, int(k), mu))))
            aggregates = (
                ("h0_fraction", float(np.mean(_column(per_seed, "comb_H0")))),
                ("h1_fraction", float(np.mean(_column(per_seed, "comb_H1")))),
                ("mu", mu),
            )
        else:  # clique
            for t in range(config.trials):
                seed = config.seed0 + t
                graph = sample_er(n, config.p, seed=seed)
                out = test_clique(graph, test_config, k)
                per_seed.append((seed, "verdict", float(out.verdict)))
                per_seed.append((seed, "feasible", float(out.feasibility)))
            aggregates = (("verdict_fraction", float(np.mean(_column(per_seed, "verdict")))),)
        records.append(_record(config, n, kappa, per_seed, aggregates, t0))
    return records


def _run_w_conditions(config: ExperimentConfig) -> List[ResultRecord]:
    records = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        kappa = config.kappa_for(n)
        params = derive_alphas(kappa, config.p)
        report = evaluate_W_conditions(n, params, constant=config.constant)
        m1, m2, m3 = report.sylvester
        aggregates = (
            ("minor1", float(m1)),
            ("minor2", float(m2)),
            ("minor3", float(m3)),
            ("all_positive", float(m1 > 0 and m2 > 0 and m3 > 0)),
            ("degenerate", float(report.degenerate)),
        )
        records.append(_record(config, n, kappa, (), aggregates, t0))
    return records


_RUNNERS = {
    "psd_frontier": _run_psd_frontier,
    "norm_scaling": _run_norm_scaling,
    "expansion_identities": _run_expansion_identities,
    "labeling_audit": _run_labeling_audit,
    "detection": _run_detection,
    "w_conditions": _run_w_conditions,
}

EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig) -> List[ResultRecord]:
    """Execute the configured experiment and return its records."""
    return _RUNNERS[config.experiment](config)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _rows(records: Sequence[ResultRecord]):
    for rec in records:
        for seed, name, value in rec.per_seed:
            yield (rec.experiment, rec.n, rec.p, rec.kappa, seed, name, value)
        for name, value in rec.aggregates:
            yield (rec.experiment, rec.n, rec.p, rec.kappa, -1, name, value)


def _metadata(config: ExperimentConfig) -> Dict[str, object]:
    return {
        "version": __version__,
        "rng": f"philox key=[seed, tag]; {GAUSSIAN_METHOD}",
        "tolerances": dict(config.tolerances),
        "config": asdict(config),
    }


def emit(
    records: Sequence[ResultRecord],
    fmt: str,
    path: Optional[str],
    config: ExperimentConfig,
) -> str:
    """Serialize records to CSV or JSON; returns the emitted text."""
    if not records:
        raise ValueError("no records to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    rows = sorted(_rows(records), key=lambda r: (r[1], r[4], r[5]))
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("experiment,n,p,kappa,seed,metric_name,metric_value\n")
        for exp, n, p, kappa, seed, name, value in rows:
            buf.write(
                f"{exp},{n},{p!r},{kappa!r},{seed},{name},{float(value)!r}\n"
            )
        text = buf.getvalue()
    else:
        payload = {
            "metadata": _metadata(config),
            "records": [
                {
                    "experiment": exp,
                    "n": n,
                    "p": p,
                    "kappa": kappa,
                    "seed": seed,
                    "metric_name": name,
                    "metric_value": float(value),
                }
                for exp, n, p, kappa, seed, name, value in rows
            ],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


# ----------------------------------------------------------------------
# acceptance-style pass predicates (--check)
# ----------------------------------------------------------------------


def check_records(config: ExperimentConfig, records: Sequence[ResultRecord]) -> bool:
    """Experiment-specific pass verdict used by the --check flag.

    Every predicate reads the aggregates by (n, metric), the first record's
    value where a point repeats.  A missing aggregate reads NaN, and every
    predicate is a comparison, which fails on NaN.
    """
    values: Dict[Tuple[int, str], float] = {}
    for rec in records:
        for name, value in rec.aggregates:
            values.setdefault((rec.n, name), value)

    def at(n: int, name: str) -> float:
        return values.get((n, name), float("nan"))

    grid = config.n_grid
    if config.experiment == "psd_frontier":
        # a one-point grid fits no slope (its slope record is NaN)
        slope_ok = len(grid) < 2 or -0.85 <= at(0, "slope") <= -0.45
        return slope_ok and all(1e-4 <= at(n, "kappa_star") <= 1e-1 for n in grid)
    if config.experiment == "norm_scaling":
        medians = ([at(n, f"median_{name}") for n in grid] for name, _ in _RATIO_KINDS)
        return all(all(m > 0 for m in meds) and max(meds) / min(meds) <= 4.0 for meds in medians)
    if config.experiment == "expansion_identities":
        tol = config.tol("residual", 1e-12)
        return all(at(n, "max_residual") <= tol * at(n, "scale") for n in grid)
    if config.experiment == "labeling_audit":
        return all(value == 1.0 for (_, name), value in values.items() if "_ok[" in name)
    if config.experiment == "detection":
        mode = _detection_extras(config.extras)[0]

        def passes(n: int) -> bool:
            if mode == "comb":
                return at(n, "h1_fraction") >= 0.9 and at(n, "h0_fraction") <= 0.1
            return at(n, "exceed_fraction" if mode == "submatrix" else "verdict_fraction") >= 0.9

        return all(passes(n) for n in grid)
    if config.experiment == "w_conditions":
        return all(at(n, "all_positive") == 1.0 for n in grid)
    raise ValueError(f"unknown experiment {config.experiment!r}")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _parse_tolerances(entries: Sequence[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"tolerance must look like name=value, got {entry!r}")
        name, _, value = entry.partition("=")
        out[name.strip()] = float(value)
    return out


def _build_parser() -> argparse.ArgumentParser:
    # a flag's dest, where it names an ExperimentConfig field, is the field it sets
    parser = argparse.ArgumentParser(
        prog="cliquewitness",
        description="Witness positivity and detection experiments.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--n", dest="n_grid", metavar="N", action="append", type=int,
                        help="grid point; repeat for a grid")
    parser.add_argument("--p", type=float)
    parser.add_argument("--kappa", type=float, help="fixed witness scale")
    parser.add_argument(
        "--c0", type=float, help="scale constant for kappa = c0 n^(-2/3)/log n"
    )
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", dest="seed0", metavar="SEED", type=int, help="base seed (seed0)")
    parser.add_argument("--out", dest="output_path", metavar="OUT",
                        help="output file path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="named tolerance, e.g. --tol psd=1e-8",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit with status 2 when the experiment's acceptance check fails",
    )
    parser.add_argument("--config", help="JSON file with ExperimentConfig fields")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    merged: Dict[str, object] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    names = {f.name for f in fields(ExperimentConfig)}
    merged.update((name, value) for name, value in vars(args).items()
                  if name in names and value is not None)
    if args.kappa is not None:
        merged["kappa_rule"] = "fixed"
    elif args.c0 is not None:
        merged["kappa_rule"] = "theorem1"
    elif merged.get("experiment") == "psd_frontier":
        merged.setdefault("kappa_rule", "binary_search")
    merged["tolerances"] = {**merged.get("tolerances", {}), **_parse_tolerances(args.tol)}
    return ExperimentConfig(**merged)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        parser.error(str(exc))
    records = run(config)
    fmt = args.format or "csv"
    text = emit(records, fmt, config.output_path, config)
    if config.output_path is None:
        sys.stdout.write(text)
    if args.check and not check_records(config, records):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

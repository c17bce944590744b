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
from dataclasses import dataclass, field
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
from .detect import TestConfig, test_clique, test_comb, test_submatrix
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

EXPERIMENTS = (
    "psd_frontier",
    "norm_scaling",
    "expansion_identities",
    "labeling_audit",
    "detection",
    "w_conditions",
)

_KAPPA_RULES = ("fixed", "theorem1", "binary_search")

# frontier search protocol: fixed bisection grid, supermajority success rule
_BISECTION_STEPS = 12
_KAPPA_LO = 1e-6
_KAPPA_HI = 1e-1


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation; every field is echoed into output metadata."""

    experiment: str
    n_grid: Tuple[int, ...]
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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if not self.n_grid and self.experiment != "labeling_audit":
            raise ValueError("n_grid must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.kappa_rule not in _KAPPA_RULES:
            raise ValueError(
                f"unknown kappa rule {self.kappa_rule!r}; choose from {_KAPPA_RULES}"
            )
        if self.kappa_rule == "fixed" and self.kappa is None:
            raise ValueError("kappa_rule 'fixed' requires kappa")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        for name in ("kappa", "c0", "constant"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")

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
        columns: Dict[str, List[float]] = {name: [] for name, _ in _RATIO_KINDS}
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
                columns[name].append(float(ratio))
        aggregates = tuple(
            (f"median_{name}", float(np.median(vals)))
            for name, vals in columns.items()
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
        worst = 0.0
        for t in range(config.trials):
            seed = config.seed0 + t
            graph = sample_er(n, config.p, seed=seed)
            r22 = verify_expansion_H22(graph, params)
            r12 = verify_expansion_H12(graph, params)
            per_seed.append((seed, "residual_H22", float(r22)))
            per_seed.append((seed, "residual_H12", float(r12)))
            worst = np.max((worst, r22, r12))  # a NaN residual stays NaN
        aggregates = (("max_residual", float(worst)), ("scale", float(params.alpha2)))
        records.append(_record(config, n, kappa, per_seed, aggregates, t0))
    return records


# the audited labeling table: (tag, builder, expected v*, exact?)
_AUDIT_COUNT_N = 12


def _labeling_cases():
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
    mode = str(config.extras.get("test", "submatrix"))
    records = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        kappa = config.kappa_for(n)
        test_config = TestConfig(
            c_star=float(config.extras.get("c_star", 0.5)),
            lambda_thresh=float(config.extras.get("lambda", 1.0)),
            scaling=float(config.extras.get("scaling", 1.0)),
            kappa=kappa,
        )
        k = float(config.extras.get("k", 6.0))
        hypothesis = str(config.extras.get("hypothesis", "H0"))
        per_seed = []
        verdicts: List[float] = []
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
                threshold = test_config.c_star * mu * k * k
                per_seed.append((seed, "verdict", float(out.verdict)))
                per_seed.append((seed, "weighted", out.statistic_weighted))
                per_seed.append((seed, "feasible", float(out.feasibility)))
                verdicts.append(float(out.verdict))
                exceeds.append(float(out.statistic_weighted >= threshold))
            aggregates = (
                ("verdict_fraction", float(np.mean(verdicts))),
                ("exceed_fraction", float(np.mean(exceeds))),
                ("mu", mu),
            )
        elif mode == "comb":
            mu = float(config.extras.get("mu", 2.0))
            h0_hits: List[float] = []
            h1_hits: List[float] = []
            for t in range(config.trials):
                seed = config.seed0 + t
                null = sample_gaussian(n, 0.0, None, "H0", seed)
                alt = sample_gaussian(n, mu, int(k), "H1", seed)
                v0 = float(test_comb(null, int(k), mu))
                v1 = float(test_comb(alt, int(k), mu))
                per_seed.append((seed, "comb_H0", v0))
                per_seed.append((seed, "comb_H1", v1))
                h0_hits.append(v0)
                h1_hits.append(v1)
            aggregates = (
                ("h0_fraction", float(np.mean(h0_hits))),
                ("h1_fraction", float(np.mean(h1_hits))),
                ("mu", mu),
            )
        elif mode == "clique":
            for t in range(config.trials):
                seed = config.seed0 + t
                graph = sample_er(n, config.p, seed=seed)
                out = test_clique(graph, test_config, k)
                per_seed.append((seed, "verdict", float(out.verdict)))
                per_seed.append((seed, "feasible", float(out.feasibility)))
                verdicts.append(float(out.verdict))
            aggregates = (("verdict_fraction", float(np.mean(verdicts))),)
        else:
            raise ValueError(f"unknown detection mode {mode!r}")
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
        "config": {
            "experiment": config.experiment,
            "n_grid": list(config.n_grid),
            "p": config.p,
            "kappa_rule": config.kappa_rule,
            "kappa": config.kappa,
            "c0": config.c0,
            "constant": config.constant,
            "trials": config.trials,
            "seed0": config.seed0,
            "tolerances": dict(config.tolerances),
            "output_path": config.output_path,
            "extras": dict(config.extras),
        },
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


def _aggregate(records: Sequence[ResultRecord], n: int, name: str) -> Optional[float]:
    for rec in records:
        if rec.n == n:
            for key, value in rec.aggregates:
                if key == name:
                    return value
    return None


def check_records(config: ExperimentConfig, records: Sequence[ResultRecord]) -> bool:
    """Experiment-specific pass verdict used by the --check flag."""
    if config.experiment == "psd_frontier":
        slope = _aggregate(records, 0, "slope")
        stars = [
            _aggregate(records, n, "kappa_star") for n in config.n_grid
        ]
        in_range = all(
            s is not None and np.isfinite(s) and 1e-4 <= s <= 1e-1 for s in stars
        )
        # a one-point grid fits no slope (its slope record is NaN)
        slope_ok = len(config.n_grid) < 2 or (slope is not None and -0.85 <= slope <= -0.45)
        return in_range and slope_ok
    if config.experiment == "norm_scaling":
        for name, _ in _RATIO_KINDS:
            meds = [
                _aggregate(records, n, f"median_{name}") for n in config.n_grid
            ]
            if any(m is None or not m > 0 for m in meds):  # NaN fails
                return False
            if max(meds) / min(meds) > 4.0:
                return False
        return True
    if config.experiment == "expansion_identities":
        tol = config.tol("residual", 1e-12)
        for rec in records:
            worst = _aggregate(records, rec.n, "max_residual")
            scale = _aggregate(records, rec.n, "scale")
            if worst is None or scale is None or not worst <= tol * scale:  # NaN fails
                return False
        return True
    if config.experiment == "labeling_audit":
        return all(
            value == 1.0
            for name, value in records[0].aggregates
            if "_ok[" in name
        )
    if config.experiment == "detection":
        mode = str(config.extras.get("test", "submatrix"))

        def passes(n: int) -> bool:
            if mode == "comb":
                h0 = _aggregate(records, n, "h0_fraction")
                h1 = _aggregate(records, n, "h1_fraction")
                return h0 is not None and h1 is not None and h1 >= 0.9 and h0 <= 0.1
            name = "exceed_fraction" if mode == "submatrix" else "verdict_fraction"
            frac = _aggregate(records, n, name)
            return frac is not None and frac >= 0.9

        return all(passes(n) for n in config.n_grid)
    if config.experiment == "w_conditions":
        return all(
            _aggregate(records, n, "all_positive") == 1.0 for n in config.n_grid
        )
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
    parser = argparse.ArgumentParser(
        prog="cliquewitness",
        description="Witness positivity and detection experiments.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--n", action="append", type=int, help="grid point; repeat for a grid"
    )
    parser.add_argument("--p", type=float)
    parser.add_argument("--kappa", type=float, help="fixed witness scale")
    parser.add_argument(
        "--c0", type=float, help="scale constant for kappa = c0 n^(-2/3)/log n"
    )
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, help="base seed (seed0)")
    parser.add_argument("--out", help="output file path (default: stdout)")
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
    base: Dict[str, object] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
    experiment = args.experiment or base.get("experiment")
    if experiment is None:
        raise ValueError("an experiment must be named via --experiment or --config")
    n_grid = args.n if args.n else base.get("n_grid", [])
    kappa = args.kappa if args.kappa is not None else base.get("kappa")
    c0 = args.c0 if args.c0 is not None else base.get("c0")
    if args.kappa is not None:
        kappa_rule = "fixed"
    elif args.c0 is not None:
        kappa_rule = "theorem1"
    else:
        kappa_rule = base.get(
            "kappa_rule",
            "binary_search" if experiment == "psd_frontier" else "theorem1",
        )
    tolerances = dict(base.get("tolerances", {}))
    tolerances.update(_parse_tolerances(args.tol))
    return ExperimentConfig(
        experiment=str(experiment),
        n_grid=tuple(int(v) for v in n_grid),
        p=float(args.p if args.p is not None else base.get("p", 0.5)),
        kappa_rule=str(kappa_rule),
        kappa=None if kappa is None else float(kappa),
        c0=float(c0 if c0 is not None else base.get("c0", 0.25) or 0.25),
        constant=float(base.get("constant", 1.0)),
        trials=int(args.trials if args.trials is not None else base.get("trials", 10)),
        seed0=int(args.seed if args.seed is not None else base.get("seed0", 0)),
        tolerances=tolerances,
        output_path=args.out or base.get("output_path"),
        extras=dict(base.get("extras", {})),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
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

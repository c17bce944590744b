"""Benchmark command for the cliquewitness package.

Run from the repository root:

    python3 perfbench/run.py --workload witness --seed 1 --seconds 50 --trace 0

An untraced run (``--trace 0``) prints the end-to-end metrics; a traced run
(``--trace 1``) prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Machine facts, per-pass timings and every check
go to ``perfbench/results/``; a traced run also writes its spans there.
See perfbench/README.md for the workloads and how to read the numbers.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1

# BLAS reads these once, at load.  One thread: at these sizes two threads
# gave little speed-up on 2 vCPUs, and a multi-threaded BLAS call waits for
# the slower of the shared CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END = {
    "wall_s": "s",
    "small_n_s": "s",
    "large_n_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("witness", "norms"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import plus input preparation, print it and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _import_package():
    """Import the package from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, SRC)
    import cliquewitness
    import workloads

    if not os.path.abspath(cliquewitness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported cliquewitness from {cliquewitness.__file__}")
    return workloads


def _setup_times(args):
    """Import plus first-pass input preparation, each in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        if out.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{out.stderr}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _run_ops(spec, wl):
    """One pass: every operation in order, timed one by one."""
    outputs, times, errors = {}, {}, {}
    for op in spec.ops:
        start = time.perf_counter()
        try:
            outputs[op.name] = op.call()
        except Exception:  # an operation that raises is counted as failed
            errors[op.name] = traceback.format_exc()
        times[op.name] = time.perf_counter() - start
        if op.name in outputs and not wl.all_finite(outputs[op.name]):
            errors[op.name] = "non-finite metric in output"
    return outputs, times, errors


def _pass_record(spec, times, errors):
    grid = {role: sum(times[op.name] for op in spec.ops if op.grid == role)
            for role in ("small", "large")}
    return {
        "seed0": spec.seed0,
        "wall_s": sum(times.values()),
        "small_n_s": grid["small"],
        "large_n_s": grid["large"],
        "op_s": times,
        "errors": errors,
    }


def _per_layer(tracer, passes):
    """Per-layer metrics: the mean over traced passes of each pass's totals."""
    from spans import layer_totals

    rows = []
    for rec in passes:
        lo, hi = rec["span_range"]
        total, own, calls = layer_totals(tracer.spans[lo:hi])
        counts = rec["counts"]
        potrf = calls["spectral.potrf"]
        verdicts = counts.get("factorization_verdicts", 0)
        rows.append({
            "models.sample_s": total.get("models.sample", 0.0),
            "models.samples": calls["models.sample"],
            "witness.build_s": total.get("witness.build", 0.0),
            "witness.builds": calls["witness.build"],
            "witness.feasibility_s": own.get("witness.feasibility", 0.0),
            "spectral.psd_s": total.get("spectral.psd", 0.0),
            "spectral.psd_checks": calls["spectral.psd"],
            "spectral.dense_eig_verdicts": counts.get("dense_eig_verdicts", 0),
            "spectral.potrf_calls": potrf,
            "spectral.potrf_per_verdict": potrf / verdicts if verdicts else 0.0,
            "spectral.norm_s": total.get("spectral.norm", 0.0),
            "spectral.norm_calls": calls["spectral.norm"],
            "decomposition.matvec_s": total.get("decomposition.matvec", 0.0),
            "decomposition.matvecs": calls["decomposition.matvec"],
            "decomposition.component_build_s": total.get("decomposition.component_build", 0.0),
            "decomposition.expansion_s": own.get("decomposition.expansion", 0.0),
            "labelings.enumerate_s": total.get("labelings.enumerate", 0.0),
            "labelings.trace_oracle_s": total.get("labelings.trace_oracle", 0.0),
            "detect.submatrix_s": own.get("detect.submatrix", 0.0),
            "detect.comb_s": own.get("detect.comb", 0.0),
            "harness.self_s": own.get("harness.run", 0.0),
            "harness.emit_s": total.get("harness.emit", 0.0),
            "trace.overhead_s": rec["wall_s"] - rec["untraced_wall_s"],
        })
    units = {name: "s" if name.endswith("_s") else "count" for name in rows[0]}
    units["spectral.potrf_per_verdict"] = "ratio"
    return {name: {"value": statistics.fmean(r[name] for r in rows), "unit": units[name]}
            for name in rows[0]}


def _traced_replay(spec, wl, tracer, modules, record, outputs):
    """Run a pass's inputs again with the wrappers installed.

    The replay's spans and counters belong to this pass.  Its outputs must
    equal the untraced outputs; a difference counts as a failed operation.
    """
    lo = len(tracer.spans)
    before = dict(tracer.counts)
    tracer.install(modules)
    try:
        traced_out, times, errors = _run_ops(spec, wl)
    finally:
        tracer.uninstall()
    traced = _pass_record(spec, times, errors)
    traced["untraced_wall_s"] = record["wall_s"]
    traced["span_range"] = (lo, len(tracer.spans))
    traced["counts"] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    for name, text in traced_out.items():
        if outputs.get(name) != text:
            errors.setdefault(name, "traced output differs from untraced output")
    errors.update(record["errors"])
    return traced


def _timed_passes(args, wl, tracer, modules):
    """Passes on fresh instances until the next one would end after --seconds."""
    passes, pass_outputs, specs = [], [], []
    start = time.perf_counter()
    while True:
        spec = wl.prepare(args.workload, wl.seed0(args.seed, len(passes)))
        outputs, times, errors = _run_ops(spec, wl)
        record = _pass_record(spec, times, errors)
        if tracer is not None:
            record = _traced_replay(spec, wl, tracer, modules, record, outputs)
        passes.append(record)
        pass_outputs.append(outputs)
        specs.append(spec)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            return passes, pass_outputs, specs


def _run_checks(spec, outputs, errors):
    """Checks of the first pass, plus a byte-for-byte rerun of one operation.

    The first pass has the same inputs in every run with this seed.
    """
    results = {}
    if not errors:  # no checks on outputs that are missing
        try:
            found = spec.check(outputs)
        except Exception:
            found = [("check raised", False, traceback.format_exc())]
        results = {name: (bool(ok), detail) for name, ok, detail in found}
    op = next(o for o in spec.ops if o.name == spec.repeat)
    try:
        same = op.call() == outputs.get(op.name)
    except Exception:
        same = False
    results[f"byte_identical_rerun {op.name}"] = (same, "second run of pass 0's output")
    return results


def _write_spans(path, tracer, passes):
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(passes):
            lo, hi = rec["span_range"]
            for sid, parent, name, t0, t1 in tracer.spans[lo:hi]:
                fh.write(json.dumps({"run": tracer.run_id, "pass": i, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cliquewitness", "__init__.py")):
        print(f"error: no cliquewitness package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        wl = _import_package()
        wl.prepare(args.workload, wl.seed0(args.seed, 0))
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    setup = _setup_times(args)
    wl = _import_package()
    facts = _machine_facts()
    print(f"machine: {json.dumps(facts, sort_keys=True)}", file=sys.stderr)

    tracer = modules = None
    if args.trace:
        import spans

        # the package's modules, all loaded by the import of workloads
        modules = {name: sys.modules[f"cliquewitness.{name}"] for name in
                   ("harness", "decomposition", "detect", "labelings", "spectral", "witness")}
        modules["workloads"] = wl
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")

    passes, pass_outputs, specs = _timed_passes(args, wl, tracer, modules)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # outside the timed region.  Each operation and check counts once per
    # run; an operation that fails in any pass counts as failed.
    checks_start = time.perf_counter()
    checks = _run_checks(specs[0], pass_outputs[0], passes[0]["errors"])
    checks_s = time.perf_counter() - checks_start
    failed_ops = sorted({name for rec in passes for name in rec["errors"]})
    failed_checks = sorted(name for name, (ok, _) in checks.items() if not ok)
    for name in failed_checks:
        print(f"check failed: {name}: {checks[name][1]}", file=sys.stderr)
    for name in failed_ops:
        print(f"operation failed: {name}", file=sys.stderr)

    if tracer is None:
        values = {
            # mean, not median: passes run different instances, so the mean is
            # the run's time per pass, and across seeds it spread less
            "wall_s": statistics.fmean(r["wall_s"] for r in passes),
            "small_n_s": statistics.fmean(r["small_n_s"] for r in passes),
            "large_n_s": statistics.fmean(r["large_n_s"] for r in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        metrics = _per_layer(tracer, passes)

    result = {
        "correct": not failed_checks,
        "attempted": len(specs[0].ops) + len(checks),
        "failed": len(failed_ops) + len(failed_checks),
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "args": vars(args),
            "machine": facts,
            "setup_probes_s": setup,
            "checks_s": checks_s,
            "run_s": time.perf_counter() - _T0,
            "passes": [{k: v for k, v in r.items() if k != "span_range"} for r in passes],
            "checks": {name: {"ok": ok, "detail": d} for name, (ok, d) in checks.items()},
            "result": result,
        }, fh, indent=1, sort_keys=True)
    if tracer is not None:
        _write_spans(stem + ".spans.jsonl", tracer, passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

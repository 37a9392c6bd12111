"""Benchmark of the `mldid estimate` command on generated panel CSVs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload estimate-cv --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the same checkout and run
in-process, single process (``--threads 1``). Set-up draws the panels with
the benchmark's own generator and writes them as CSV; each op is one
``estimate`` call that reads a CSV and writes every output table, which
the benchmark then checks against the generator's truth. A round is one
op per panel; rounds repeat while another whole round is expected to end
within ``--seconds`` (at least one round always runs). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a traced op after each untraced one) with ``--trace 1``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os

# One thread everywhere, as `--threads 1` promises; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "runs"
SETUP_REPEATS = 3


def import_program():
    """The mldid modules of this checkout, never an installed copy."""
    if not (SRC / "mldid" / "cli.py").is_file():
        raise SystemExit(f"no program source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mldid
    from mldid import catt, cli, drdid, estimator, exceptions, learners, nuisance

    if Path(mldid.__file__).resolve().parent != (SRC / "mldid").resolve():
        raise SystemExit(f"imported mldid from {mldid.__file__}, not {SRC}")
    modules = dict(cli=cli, estimator=estimator, nuisance=nuisance, catt=catt,
                   learners=learners, drdid=drdid)
    return modules, exceptions.IllConditionedWarning


sys.path.insert(0, str(HERE))
from gen import Design, Truth, draw, write_csv  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One panel design and the flags every op passes to `estimate`.

    A round runs one op on a fixed reference panel (the same for every
    seed, so the accuracy metrics compare like with like) and one on each
    of ``seeded`` panels drawn from ``--seed``.
    """

    design: Design
    flags: tuple[str, ...]
    seeded: int
    gate_mldid: bool = True

    @property
    def bootstrap(self) -> bool:
        return "--bootstrap" in self.flags


WORKLOADS = {
    "estimate-cv": Workload(Design(2500, 4, "logit-x123"), (), seeded=2,
                            gate_mldid=False),
    "bootstrap-fixed": Workload(Design(1000, 4),
                                ("--fixed-l1", "0.01", "--bootstrap", "50"), seeded=1),
    "long-panel-csv": Workload(Design(5000, 8), ("--fixed-l1", "0.01"), seeded=1),
}

END_TO_END_UNITS = {"setup_s": "s", "estimate_s": "s", "peak_rss_mb": "MB",
                    "att_rmse": "outcome", "catt_rmse": "outcome"}


@dataclass
class Panel:
    stream: int      # 0 is the reference panel
    est_seed: int    # --seed passed to `estimate`
    csv: Path
    truth: Truth | None = None


def set_up(workload: Workload, seed: int, work: Path) -> tuple[list[Panel], float]:
    """Draw and write every panel; returns them and the median set-up seconds."""
    panels = [Panel(0, 0, work / "panel_ref.csv")]
    panels += [Panel(k, seed, work / f"panel_{k}.csv") for k in range(1, workload.seeded + 1)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for p in panels:
            p.truth = draw(workload.design, p.est_seed, p.stream)
            write_csv(p.truth, p.csv)
        times.append(time.perf_counter() - t0)
    return panels, statistics.median(times)


def estimate_op(cli, workload: Workload, panel: Panel, out_dir: Path) -> float | None:
    """Run `mldid estimate` once; seconds taken, or None if it failed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["estimate", "--input", str(panel.csv), "--out", str(out_dir),
            "--seed", str(panel.est_seed), "--threads", "1", *workload.flags]
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        try:
            cli.cli.main(args=args, prog_name="mldid", standalone_mode=False)
        except (Exception, SystemExit):
            traceback.print_exc()
            return None
        return time.perf_counter() - t0


def rmse(errors) -> float:
    errors = list(errors)
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules, ill_conditioned = import_program()
    import checks
    import tracing

    import_s = time.perf_counter() - START
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    panels, setup_s = set_up(workload, args.seed, work)

    tracer = tracing.Tracer(modules, ill_conditioned) if args.trace else None
    times, traced_times, layer_values = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    accuracy = None
    began = time.perf_counter()
    modes = (False, True) if tracer else (False,)
    while True:
        round_began = time.perf_counter()
        for i, panel in enumerate(panels):
            for traced in modes:
                out_dir = work / f"out_{i}"
                attempted += 1
                with tracer if traced else contextlib.nullcontext():
                    seconds = estimate_op(modules["cli"], workload, panel, out_dir)
                if seconds is None:
                    failed += 1
                    continue
                try:
                    out = checks.Outputs(out_dir)
                except (OSError, ValueError) as err:
                    problems.append(f"panel {panel.stream}: unreadable output: {err}")
                    continue
                found = checks.check_all(out, panel.truth, workload.bootstrap,
                                         workload.gate_mldid)
                problems += [f"panel {panel.stream}: {p}" for p in found]
                z = checks.z_errors(out.cells, panel.truth)
                print(f"op panel={panel.stream} traced={int(traced)} "
                      f"seconds={seconds:.3f} problems={len(found)} "
                      f"max_mldid_z={max(abs(v) for v in z.values()):.2f}",
                      file=sys.stderr)
                if traced:
                    traced_times.append(seconds)
                    layer_values.append(tracer.op_metrics())
                else:
                    times.append(seconds)
                if panel.stream == 0 and accuracy is None:
                    accuracy = (rmse(checks.att_errors(out, panel.truth)),
                                rmse(checks.catt_errors(out, panel.truth)))
        # Run another whole round only if it should end inside the window.
        now = time.perf_counter()
        if now - began + (now - round_began) > args.seconds:
            break

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if tracer:
        (work / "spans.json").write_text(json.dumps(tracer.spans))
        metrics = {}
        for name in layer_values[0] if layer_values else ():
            metrics[name] = {"value": statistics.median(v[name] for v in layer_values),
                             "unit": tracing.unit(name)}
        if times and traced_times:
            overhead = statistics.median(traced_times) / statistics.median(times) - 1.0
            metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        values = {"setup_s": import_s + setup_s}
        if times:
            values["estimate_s"] = statistics.median(times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if accuracy:
            values["att_rmse"], values["catt_rmse"] = accuracy
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

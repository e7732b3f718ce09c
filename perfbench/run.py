"""The trainer benchmark: time-to-target and throughput, end to end and
layer by layer.

    python3 perfbench/run.py --workload ldc_sgm_replay --seed 1 \\
        --seconds 30 --trace 0

Each run makes a fixed number of repetitions (``--seconds`` divided by the
workload's nominal repetition time), one closed-loop client at a time.
Every repetition is a fresh ``child.py`` process with one BLAS thread, on
its own seed derived from ``--seed``; the run reports the median over its
repetitions.  Spreading one run over several seeds is what keeps its
figures steady from seed to seed: a PINN's final error moves with the
network's initialisation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes pairs
of repetitions on the same seed, one plain and one traced, and prints the
per-layer metrics of the traced one, plus the tracing overhead.

Every repetition is checked: a non-finite loss, a compiled workload that
fell back to eager, a target never reached, or an outcome that differs
from an earlier repetition of the same seed and source tree counts it as
failed, and only repetitions that passed enter the medians.  A repetition
the run deadline leaves no time for also counts as failed.  The last
stdout line is the JSON result; the lines before it, and
``perfbench/.work/results/``, hold the readable table and the machine
description (processor count, thread pinning, numpy and BLAS versions).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from stats import Tally, median
from workloads import WORKLOADS, resolve

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"

#: one thread for every BLAS/OpenMP pool: a second thread bought ~1% on
#: this trainer while doubling CPU time, i.e. it measured contention
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

#: a run must end within 180 s whatever its children do
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "time_to_target_s": "s",
    "time_to_target_credited_s": "s",
    "steps_to_target": "count",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "err_final": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "api.import_s": "s", "api.build_problem_s": "s", "api.wire_s": "s",
    "graph.knn_s": "s", "graph.knn_calls": "count",
    "graph.lrd_s": "s", "graph.lrd_calls": "count",
    "sampling.rebuild_s": "s", "sampling.rebuilds": "count",
    "sampling.refresh_s": "s", "sampling.refreshes": "count",
    "sampling.probe_points": "count", "sampling.batch_s": "s",
    "autodiff.forward_s": "s", "autodiff.backward_s": "s",
    "autodiff.replay_s": "s", "autodiff.compile_s": "s",
    "autodiff.replay_instructions": "count",
    "autodiff.replay_fallbacks": "count",
    "gc.pause_s": "s", "gc.gen2_collections": "count",
    "gc.objects_collected": "count",
    "nn.optimizer_s": "s",
    "training.validate_s": "s", "training.validations": "count",
    "training.step_ms_p50": "ms", "training.step_ms_p90": "ms",
    "store.checkpoint_s": "s", "store.checkpoints": "count",
    "store.bytes_written": "bytes",
    "dp.shard_s": "s", "dp.allreduce_s": "s",
    "dp.allreduce_rounds": "count", "dp.bytes_reduced": "bytes",
    "obs.overhead_pct": "%",
}


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["REPRO_CACHE_DIR"] = str(WORK / "cache")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(spec, timeout):
    """Run one ``child.py`` process; its last stdout line is the result."""
    spec = dict(spec, src=str(ROOT / "src"), work=str(WORK))
    spec["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"child exited {proc.returncode}: "
                          + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, rep):
    """Problems with one repetition's outputs (empty when it is correct)."""
    problems = []
    if not rep["losses_finite"]:
        problems.append("non-finite loss")
    if workload.compile and rep["mode"] != "replay":
        problems.append(f"compiled workload ran as {rep['mode']!r}")
    if rep["steps_to_target"] is None:
        problems.append(f"err({workload.var}) never reached "
                        f"{workload.target} in {workload.steps} steps")
    fallbacks = rep.get("layers", {}).get("autodiff.replay_fallbacks", 0)
    if fallbacks:
        problems.append(f"{fallbacks} replay fallbacks")
    return problems


def outcome(rep):
    """What must repeat exactly for a fixed seed: the trajectory's
    crossing step, final error and final loss."""
    return [rep["steps_to_target"], rep["err_final"], rep["final_loss"]]


class Ledger:
    """Outcomes by (source tree, scale, workload, seed), kept across runs
    so a later run of the same seed and code must reproduce them."""

    def __init__(self, path):
        self.path = path
        self.entries = {}
        if path is not None and path.exists():
            self.entries = json.loads(path.read_text())

    def check(self, key, result):
        """``None`` when ``result`` matches (or is the first for ``key``),
        else a description of the mismatch."""
        known = self.entries.setdefault(key, result)
        if known != result:
            return (f"outcome {result} differs from {known} of an earlier "
                    f"repetition with the same seed")
        return None

    def save(self):
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, sort_keys=True))
        os.replace(tmp, self.path)


def source_fingerprint():
    """Digest of every source file a repetition runs."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine():
    """The machine description recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "threads": dict(PINNED_THREADS),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def stolen_seconds():
    """CPU seconds the hypervisor has taken from this machine since boot
    (``steal`` in ``/proc/stat``), or ``None`` where that is not kept.
    Recorded per run, so that a run slowed by a shared virtual machine
    losing its processors can be told apart from a slower program."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def sub_seeds(seed, count):
    """The repetition seeds of run ``seed``: disjoint between runs."""
    return [seed * 1000 + j for j in range(count)]


def medians(reps, key, names):
    out = {}
    for name in names:
        values = [rep[key][name] if key else rep[name] for rep in reps]
        values = [v for v in values if v is not None and math.isfinite(v)]
        out[name] = median(values) if values else None
    return out


def run(workload_name, seed, seconds, trace, scale="repro", ledger=None):
    """One benchmark run; returns ``(result, report)`` where ``result`` is
    the final JSON object and ``report`` the full record."""
    started = time.monotonic()
    stolen = stolen_seconds()
    workload = resolve(workload_name, scale)
    WORK.mkdir(parents=True, exist_ok=True)
    report = {"workload": workload.name, "seed": seed, "scale": scale,
              "trace": trace, "machine": machine(), "reps": []}

    tally = Tally()
    # every run warms: with the cache already full this costs an import and
    # a cache load, and a cleared cache or a changed cache key never lands
    # in a timed repetition
    try:
        warm = run_child({"mode": "warm", "workload": workload.name,
                          "scale": scale}, RUN_DEADLINE_S)
    except ChildFailed as exc:
        tally.record("warm-up", [str(exc)])
    else:
        if warm["cold_s"] is not None:
            report["solvers.reference_cold_s"] = warm["cold_s"]

    per_rep = workload.rep_seconds * (2 if trace else 1)
    # a failed warm-up leaves nothing to time
    count = 0 if tally.failed else max(1, round(seconds / per_rep))
    fingerprint = source_fingerprint()
    # medians are taken over repetitions that passed every check only
    reps, pairs = [], []
    for rep_seed in sub_seeds(seed, count):
        plan = [False, True] if trace else [False]
        pair = []
        for traced in plan:
            label = f"seed {rep_seed}{' traced' if traced else ''}"
            remaining = RUN_DEADLINE_S - (time.monotonic() - started)
            if remaining < workload.rep_seconds:
                # the seed count stays that of the plan, cut or not
                tally.record(label, ["not run: run deadline reached"])
                continue
            try:
                rep = run_child({"mode": "train", "workload": workload.name,
                                 "scale": scale, "seed": rep_seed,
                                 "trace": traced}, remaining)
            except ChildFailed as exc:
                tally.record(label, [str(exc)])
                continue
            problems = check(workload, rep)
            if ledger is not None:
                key = f"{fingerprint}:{scale}:{workload.name}:{rep_seed}"
                mismatch = ledger.check(key, outcome(rep))
                if mismatch:
                    problems.append(mismatch)
            tally.record(label, problems)
            report["reps"].append(rep)
            if problems:
                continue
            pair.append(rep)
            if not traced:
                reps.append(rep)
        if len(pair) == 2:
            pairs.append(pair)
    if ledger is not None:
        ledger.save()

    if trace:
        metrics = medians([traced for _, traced in pairs], "layers",
                          [n for n in PER_LAYER if n != "obs.overhead_pct"])
        metrics["obs.overhead_pct"] = (median([
            100.0 * (plain["steps_per_s"] / traced["steps_per_s"] - 1.0)
            for plain, traced in pairs]) if pairs else None)
        units = PER_LAYER
    else:
        metrics = medians(reps, None, END_TO_END)
        units = END_TO_END
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    if stolen is not None:
        report["machine"]["stolen_s"] = stolen_seconds() - stolen
    report["problems"] = tally.problems
    report["result"] = result
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    ledger = Ledger(WORK / "ledger.json")
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), ledger=ledger)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-{report['scale']}-seed{args.seed}"
            f"-trace{args.trace}")
    (results / f"{name}.json").write_text(json.dumps(report, indent=1))

    print(f"machine {json.dumps(report['machine'])}")
    if "solvers.reference_cold_s" in report:
        print(f"solvers.reference_cold_s "
              f"{report['solvers.reference_cold_s']:.3f} s")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:32s} {entry['value']!s:>24} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

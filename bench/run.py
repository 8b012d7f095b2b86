"""molscreen benchmark.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload screen_pool --seed 1 --seconds 26 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it records the machine, the inputs and the
digest of every operation. ``--workload all`` runs every workload in turn
and prints a table. See bench/README.md.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

# The benchmark's own modules that need neither numpy nor the package; the
# rest are imported once the package is loaded, so a set-up probe times the
# package's numpy import too.
from checks import digest
from layers import PER_LAYER, TARGETS, latency_notes, layer_metrics
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"

# One process at a time with no helper threads: numeric libraries read these
# before numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "ref_items_per_s": "1/s",
}
SETUP_PROBES = 3
# Set-up is mostly importing modules: pure-Python work.
SETUP_LOOP = "python"
HOST_LOOPS = 15


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    package = SRC / "molscreen"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no package at {package}")
    sys.path.insert(0, str(SRC))
    import molscreen
    import molscreen.cli  # noqa: F401  (imports every layer)

    if Path(molscreen.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"molscreen imported from {molscreen.__file__}")


def machine() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def work_dir():
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=OUT))


def setup_probe(name: str) -> list[float]:
    """Import the package and set up one workload: the time both take, and
    the host's calibration-loop time right after."""
    start = time.perf_counter()
    load_program()
    imported = time.perf_counter() - start
    from hostspeed import loop_seconds
    from workloads import WORKLOADS, Env

    work = work_dir()
    try:
        start = time.perf_counter()
        WORKLOADS[name].prepare(Env(ROOT, work))
        seconds = imported + time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return [seconds, statistics.median(loop_seconds(SETUP_LOOP) for _ in range(HOST_LOOPS))]


def measure_setup(name: str) -> list[list[float]]:
    """``[set-up seconds, loop seconds]`` of ``SETUP_PROBES`` fresh
    processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def slot_key(chunk: int, kind) -> str:
    """The key of one operation's recorded digest."""
    return str(chunk) if kind is None else f"{chunk}.{kind}"


def run_op(workload, env, chunk: int, kind, expected: dict | None, tracer=None,
           sampler=None) -> dict:
    """Build one chunk's inputs, time one operation of ``kind`` on them,
    check its outcome.

    ``expected`` maps slot keys to recorded digests; ``None`` skips the
    comparison (when recording). With a ``hostspeed.Sampler`` the record
    also carries ``loop_s``, and the sampler's own time is not counted."""
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    with span("bench.inputs"):
        inputs = workload.inputs(env, chunk)
    record = {"chunk": chunk, "kind": kind, "items": 0, "seconds": 0.0, "digest": None,
              "problems": []}
    raw, failure = None, None
    start = time.perf_counter()
    with sampler if sampler is not None else nullcontext():
        try:
            raw = workload.run(env, inputs, kind)
        except Exception as exc:  # a failed operation is counted, not fatal
            failure = exc
    record["seconds"] = time.perf_counter() - start
    if sampler is not None:
        record["seconds"] -= sampler.overhead_s
        record["loop_s"] = sampler.loop_s()
    if failure is not None:
        record["problems"].append(f"raised {failure!r}")
        return record
    with span("bench.check"):
        try:
            items, value, problems = workload.outcome(env, inputs, raw, kind)
        except Exception as exc:  # unreadable output fails the check
            record["problems"].append(f"outcome unreadable: {exc!r}")
            return record
        record["items"] = items
        record["digest"] = digest(value)
        record["problems"].extend(problems)
        want = expected.get(slot_key(chunk, kind)) if expected is not None else ""
        if want is None:
            record["problems"].append("no recorded digest for this operation")
        elif want and want != record["digest"]:
            record["problems"].append(f"digest {record['digest']} != recorded {want}")
    return record


def measure(workload, env, order: list[int], seconds: float, expected: dict,
            tracer=None) -> tuple[list[dict], float]:
    """Run operations for about ``seconds``: every kind of the workload on
    each chunk of the order in turn. Stop once every kind has run and
    another operation would end further past the mark than short of it.

    Untraced, the host's speed is sampled during each operation with the
    workload's calibration loop (``hostspeed.Sampler``)."""
    from hostspeed import Sampler

    slots = [(chunk, kind) for chunk in order for kind in workload.kinds]
    sampler = Sampler(workload.host_loop) if tracer is None else None
    ops = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run = len(ops)
        chunk, kind = slots[len(ops) % len(slots)]
        ops.append(run_op(workload, env, chunk, kind, expected, tracer, sampler))
        elapsed = time.perf_counter() - start
        if len(ops) >= len(workload.kinds) and elapsed + elapsed / len(ops) / 2 >= seconds:
            return ops, elapsed


def median_ops(workload, ops: list[dict]) -> dict:
    """Per kind, over its good operations: the median item count, wall
    time and reference time (wall time scaled to the reference host
    speed by the loop time around the operation)."""
    from hostspeed import REFERENCE_S

    out = {}
    for kind in workload.kinds:
        good = [op for op in ops if op["kind"] == kind and not op["problems"]]
        if good:
            out[str(kind)] = {
                "samples": len(good),
                "items": statistics.median(op["items"] for op in good),
                "seconds": statistics.median(op["seconds"] for op in good),
            }
            if all("loop_s" in op for op in good):
                out[str(kind)]["ref_seconds"] = statistics.median(
                    op["seconds"] * REFERENCE_S / op["loop_s"] for op in good)
    return out


def rate(workload, ops: list[dict], clock: str) -> float:
    """Items of one operation of every kind over the sum of each kind's
    median ``clock`` time (``seconds`` or ``ref_seconds``): a rate that a
    few operations slowed by other load on the host, or by a costly chunk,
    do not move. 0 when a kind has no good operation (the run is then not
    correct)."""
    medians = median_ops(workload, ops)
    if len(medians) < len(workload.kinds):
        return 0.0
    return sum(m["items"] for m in medians.values()) / sum(m[clock] for m in medians.values())


def expected_digests(name: str) -> dict:
    path = BENCH / "expected" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(args) -> int:
    from generators import chunk_order
    from workloads import WORKLOADS, Env

    workload = WORKLOADS[args.workload]
    expected = expected_digests(workload.name)
    setup = [] if args.trace else measure_setup(workload.name)
    order = chunk_order(args.seed, workload.chunks)
    work = work_dir()
    try:
        env = Env(ROOT, work)
        workload.prepare(env)
        if args.trace:
            ops, metrics, notes = traced(workload, env, order, args, expected)
        else:
            from hostspeed import REFERENCE_S

            ops, _ = measure(workload, env, order, args.seconds, expected)
            metrics = {
                "setup_s": statistics.median(s * REFERENCE_S / loop for s, loop in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": sum(not op["problems"] for op in ops) / len(ops),
                "ref_items_per_s": rate(workload, ops, "ref_seconds"),
            }
            notes = {"wall_clock": {"setup_s": statistics.median(s for s, _ in setup),
                                    "items_per_s": rate(workload, ops, "seconds")}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(op["problems"]) for op in ops)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "inputs": {**workload.describe(), "item": workload.item,
                   "ops": len(ops), "items": sum(op["items"] for op in ops)},
        "setup_samples_s_loop_s": setup,
        "run_digest": digest([op["digest"] for op in ops]),
        "median_ops": median_ops(workload, ops),
        "ops": [{"chunk": op["chunk"], "kind": op["kind"], "digest": op["digest"],
                 "seconds": op["seconds"], "loop_s": op.get("loop_s"),
                 "problems": op["problems"]} for op in ops],
        **notes,
    }
    for op in ops:
        for problem in op["problems"]:
            print(f"chunk {op['chunk']}: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    units = {n: u for n, u, _ in PER_LAYER} if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def traced(workload, env, order, args, expected):
    """The traced run. The first operation runs untraced, traced, then
    untraced again, which gives the tracing overhead; then traced
    operations over the rest of the chunk order run for ``--seconds``."""

    def traced_ops(chunks, seconds):
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            ops, wall = measure(workload, env, chunks, seconds, expected, tracer)
        finally:
            tracer.uninstall()
        return tracer, ops, wall

    first = workload.kinds[0]
    before = run_op(workload, env, order[0], first, expected)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        probe = run_op(workload, env, order[0], first, expected, tracer)
    finally:
        tracer.uninstall()
    after = run_op(workload, env, order[0], first, expected)
    overhead = probe["seconds"] / ((before["seconds"] + after["seconds"]) / 2) - 1.0

    tracer, ops, wall = traced_ops(order[1:] + order[:1], args.seconds)
    split_search = 0.0
    if hasattr(workload, "split_search"):
        split_search = workload.split_search(workload.inputs(env, order[0]))
    metrics = layer_metrics(tracer, wall, overhead, split_search)
    path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path, {"workload": workload.name, "seed": args.seed,
                              "traced_wall_s": wall, "machine": machine()})
    notes = {"trace_file": str(path.relative_to(ROOT)), "latency": latency_notes(tracer),
             "overhead_ops_s": {"untraced_before": before["seconds"],
                                "traced": probe["seconds"],
                                "untraced_after": after["seconds"]}}
    return [before, probe, after] + ops, metrics, notes


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    from workloads import WORKLOADS

    failed = False
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}")
            failed = True
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload)))
            return 0
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""shrinklab benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload suite-matrix --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
run sets the workload up, then repeats the workload's operation for
--seconds: it starts no operation expected to end later, but always runs
one.  It sets the workload up SETUPS times in all, spread over the run;
setup_s is the import time plus their median.  With --trace 0 every
operation runs untraced and the end-to-end metrics are printed; with
--trace 1 untraced and traced operations alternate and the per-layer metrics
are printed.  Every output is checked: against the run's first operation
exactly, and against perfbench/reference.json within REL_TOL.  --quick runs
one tiny operation per mode, for the benchmark's own tests.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the environment.  Spans and per-operation data go
to perfbench/out/.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUPS = 5
REL_TOL = 1e-5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("suite-matrix", "eval-sweep", "distill-train")

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
PER_LAYER = {
    "model.forward.calls": "count",
    "model.forward.tokens": "tokens",
    "model.forward.self_s": "s",
    "model.perplexity.s": "s",
    "model.perplexity.calls": "count",
    "model.perplexity.tokens": "tokens",
    "model.generate.s": "s",
    "model.generate.tokens": "tokens",
    "compress.dequant.calls": "count",
    "compress.dequant.s": "s",
    "compress.dequant.bytes": "bytes_computed",
    "compress.head_concentration.s": "s",
    "compress.head_concentration.calls": "count",
    "compress.head_concentration.unique_ratio": "ratio",
    "compress.quantize_model.s": "s",
    "compress.prune_model_2_4.s": "s",
    "distill.backward.s": "s",
    "distill.backward.calls": "count",
    "distill.teacher_forward.s": "s",
    "distill.train_student.self_s": "s",
    "distill.seqkd_corpus.s": "s",
    "cli.run_suite.self_s": "s",
    "cli.build_student.s": "s",
    "cli.parse_suite_config.s": "s",
    "cli.students.used_ratio": "ratio",
    "meter.measure.overhead_s": "s",
    "scoring.opt_score.calls": "count",
    "scoring.opt_score.s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_coverage": "ratio",
    "trace.spans": "count",
    "suite_s": "s",
    "eval_tokens_per_s.fp32": "tokens/s",
    "eval_tokens_per_s.q8": "tokens/s",
    "eval_tokens_per_s.q4": "tokens/s",
    "eval_tokens_per_s.sp24": "tokens/s",
    "eval_tokens_per_s.masked": "tokens/s",
    "distill_steps_per_s": "steps/s",
    "gen_tokens_per_s": "tokens/s",
    "fail_ratio": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Run BLAS on one thread, before numpy is imported.

    Two spinning OpenBLAS threads on a shared two-CPU machine made one
    suite operation take 60 s instead of 4.5 s; one thread is steadier and,
    on these 64-wide matrices, no slower.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import shrinklab from ./src, never from an installed copy."""
    if not (SRC / "shrinklab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shrinklab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shrinklab
    if Path(shrinklab.__file__).resolve().parent != (SRC / "shrinklab").resolve():
        raise SystemExit(f"perfbench: shrinklab imported from {shrinklab.__file__}, not {SRC}")


def environment(args, variant: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints
        buf = io.StringIO()
        with redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def within_tolerance(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REL_TOL * abs(expected)


def check(wl, items, first, reference) -> int:
    """Number of failed items in one operation."""
    failed = 0
    for name in wl.items:
        it = items.get(name)
        ref = reference.get(name)
        if it is None or it.error is not None:
            failed += 1
            print(f"perfbench: {wl.name} {name} failed: {it and it.error}", file=sys.stderr)
        elif first is not None and (first[name].error is not None
                                    or it.output != first[name].output):
            failed += 1
            print(f"perfbench: {wl.name} {name} differs from the first operation", file=sys.stderr)
        elif it.value is not None and ref is not None and not within_tolerance(it.value, ref):
            failed += 1
            print(f"perfbench: {wl.name} {name} = {it.value!r}, reference {ref!r}",
                  file=sys.stderr)
    return failed


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one tiny operation per mode, for the benchmark's own tests")
    args = p.parse_args(argv)

    pin_blas_threads()
    t0 = time.perf_counter()
    import_program()
    import tracing
    import workloads
    import_s = time.perf_counter() - t0

    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick, OUT)
    mode = "quick" if args.quick else "full"
    reference = json.loads(REFERENCE.read_text())[mode][wl.name][str(wl.variant)]
    env = environment(args, wl.variant)
    n_setups = 1 if args.quick else SETUPS
    setups: list[float] = []

    def setup() -> None:
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)

    try:
        setup()

        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, spans = [], [], []
        first = None
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while True:
            for traced_op in ((False, True) if tracer else (False,)):
                t = time.perf_counter()
                if traced_op:
                    with tracing.installed(tracer):
                        items = wl.run()
                else:
                    items = wl.run()
                wall = time.perf_counter() - t
                failed += check(wl, items, first, {} if first else reference)
                attempted += len(wl.items)
                first = first or items
                if traced_op:
                    op_spans = tracer.clear()
                    traced.append((wall, tracing.summarize(op_spans, wall)))
                    spans.append(op_spans)
                else:
                    untraced.append((wall, items))
            rounds += 1
            # spread the set-ups over the run, so that their median samples
            # the machine at several moments, as op_s does
            if len(setups) < min(n_setups, 1 + int((time.perf_counter() - start)
                                                    * n_setups / args.seconds)):
                setup()
            # stop before a round that would end after --seconds
            elapsed = time.perf_counter() - start
            if args.quick or elapsed * (rounds + 1) / rounds > args.seconds:
                break
        while len(setups) < n_setups:
            setup()
    finally:
        wl.close()

    if tracer:
        layer = {name: median([m[name] for _, m in traced]) for name in traced[0][1]}
        layer["trace.overhead_s"] = (median([w for w, _ in traced])
                                     - median([w for w, _ in untraced]))
        layer.update(wl.derived([items for _, items in untraced]))
        layer["fail_ratio"] = failed / attempted
        values = {name: layer.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "setup_s": import_s + median(setups),
            "op_s": median([w for w, _ in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "environment": env, "import_s": import_s, "setups_s": setups,
        "untraced_op_s": [w for w, _ in untraced],
        "traced_ops": [{"wall_s": w, "layers": m} for w, m in traced],
        "result": result}, indent=2))
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for op, op_spans in enumerate(spans):
                for name, s, e, parent, _ in op_spans:
                    fh.write(json.dumps({"op": op, "name": name, "start_ns": s,
                                         "end_ns": e, "parent": parent}) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write perfbench/reference.json: every checked float for every variant.

    python3 perfbench/record_reference.py

Runs one operation per workload, variant and size (full and quick) without
warm-up or timing, and stores the values run.py compares against.  Record
only from a commit whose outputs are known good; run.py accepts values
within run.REL_TOL of these.
"""
from __future__ import annotations

import json

import run


def main() -> None:
    run.pin_blas_threads()
    run.import_program()
    import workloads

    reference = {}
    for mode in ("full", "quick"):
        reference[mode] = {}
        for name, cls in workloads.WORKLOADS.items():
            per_variant = reference[mode][name] = {}
            for variant in range(workloads.VARIANTS):
                wl = cls(variant, mode == "quick", run.OUT)
                try:
                    wl.build()
                    items = wl.run()
                finally:
                    wl.close()
                bad = [n for n, it in items.items() if it.error is not None]
                if bad:
                    raise SystemExit(f"{name} variant {variant}: {bad} failed")
                per_variant[str(variant)] = {n: it.value for n, it in items.items()
                                             if it.value is not None}
                print(mode, name, variant, flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

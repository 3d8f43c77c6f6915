"""softdss benchmark: one workload per process, from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: anfis-hybrid, mamdani-tune, crisp-train, score (see README.md).
The program under test is the checkout's `src/softdss`, imported from
source.  With --trace 0 no wrapper is installed and the end-to-end metrics
are reported; with --trace 1 every layer function is wrapped and the
per-layer metrics are reported.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details, the
environment and (traced runs) all spans go to .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: every matrix here is small, and a second BLAS thread ties
# each call's time to the other core's neighbours.  Must precede numpy's import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("anfis-hybrid", "mamdani-tune", "crisp-train", "score")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_softdss():
    """Import softdss from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(SRC))
    import softdss

    if SRC not in Path(softdss.__file__).resolve().parents:
        raise ImportError(f"softdss resolved to {softdss.__file__}, not under {SRC}")
    return softdss


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import softdss; print(time.perf_counter() - t)"
)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import softdss from this checkout."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def blas_threads(nproc: int):
    """OpenBLAS's own thread count when it is loaded, else BLAS_THREADS; capped at nproc."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_"):
                if hasattr(lib, sym):
                    return min(int(getattr(lib, sym)()), nproc)
    except OSError:
        pass
    return min(int(BLAS_THREADS), nproc)


def environment() -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "softdss").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(nproc),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        import_softdss()
    except ImportError as exc:
        print(f"perfbench: cannot import softdss from {SRC}: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tracer = patches = None
    if args.trace:
        tracer = spans.Tracer()
        patches = spans.install(tracer)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, OUT_DIR,
                               [import_s], import_probe)
    finally:
        if patches is not None:
            patches.remove()

    metrics = result["metrics"]
    if tracer is not None:
        # kernel time and minor page faults of the whole run: allocation churn
        # (an mmap/munmap per large temporary array) shows here, not in self time
        usage = resource.getrusage(resource.RUSAGE_SELF)
        traced = {
            "traced.fit_s": metrics["fit_s"],
            "traced.query_p90_ms": metrics["query_p90_ms"],
            "process.sys_s": (usage.ru_stime, "s"),
            "process.minor_faults": (usage.ru_minflt, "count"),
        }
        metrics = {**spans.layer_metrics(tracer), **traced}
    ops = result["ops"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": result["details"],
    }
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{tag}.json")

    print("env " + json.dumps(record["environment"], sort_keys=True))
    print("details " + json.dumps(record["details"], sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"metric {k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

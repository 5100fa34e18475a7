"""One pass of one workload in a fresh interpreter; prints one JSON line.

run.py starts this script once per pass, so that import cost, the
functools caches and the peak resident set never carry over from one pass
to the next.  --t0 is the runner's time.monotonic() just before it started
this process (CLOCK_MONOTONIC is shared by all processes on the machine),
so setup_s covers interpreter start, `import volcount`, default_parcel and
input generation, up to the first timed op.

Times are reported in reference seconds: seconds on a host where
stats.reference_kernel takes REFERENCE_KERNEL_S.  On the 2-vCPU VM where
the baseline was measured, speed changes by up to 1.7x for minutes at a
time, so raw seconds of one run say more about the host than about volcount.  Each pass times the kernel
before, between and after its ops, and rescales each op by the kernel
timings nearest to it (Ledger.busy_s, Ledger.latencies); set-up is rescaled
by the timings right after it, layer self times by the pass's median.  Raw
seconds and the pass's speed factor stay in the pass record.

    python3 perfbench/worker.py --workload build --seed 1 --t0 <monotonic>
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_KERNEL_S = 0.002
EDGE_SLICES = 15  # kernel timings before and after the timed phase
sys.path.insert(0, str(HERE))

from stats import Ledger, percentile, tail_rank  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_volcount() -> SimpleNamespace:
    """The volcount modules of this checkout, never an installed copy."""
    if not (SRC / "volcount" / "__init__.py").is_file():
        raise SystemExit(f"no volcount sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    package = importlib.import_module("volcount")
    if Path(package.__file__).resolve().parent != SRC / "volcount":
        raise SystemExit(f"imported volcount from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"volcount.{layer}") for layer in LAYERS})


def run_pass(workload: str, seed: int, trace: bool, t0: float, spans_path: Path | None) -> dict:
    setup, run, op_kind = WORKLOADS[workload]
    vc = import_volcount()
    state = setup(vc, random.Random(seed))
    setup_s = time.monotonic() - t0
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install("volcount")
    ledger = Ledger(tracer=tracer)
    for _ in range(EDGE_SLICES):
        ledger.calibrate()
    try:
        run(vc, state, ledger)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for _ in range(EDGE_SLICES):
        ledger.calibrate()
    speed = REFERENCE_KERNEL_S / statistics.median(ledger.kernel_s)
    setup_speed = REFERENCE_KERNEL_S / statistics.median(ledger.kernel_s[:EDGE_SLICES])
    raw = ledger.latencies(op_kind)
    latencies = ledger.latencies(op_kind, REFERENCE_KERNEL_S)
    result = {
        "setup_s": setup_s * setup_speed,
        "run_s": ledger.busy_s(REFERENCE_KERNEL_S),
        "op_kind": op_kind,
        "op_count": len(latencies),
        "op_p50_us": percentile(latencies, 0.5) * 1e6 if latencies else None,
        "speed": speed,
        "raw": {
            "setup_s": setup_s,
            "run_s": ledger.busy_s(),
            "op_p50_us": percentile(raw, 0.5) * 1e6 if raw else None,
        },
        "kernel_timings": len(ledger.kernel_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "messages": ledger.messages,
    }
    rank = tail_rank(len(latencies))
    if rank is not None:
        result["op_tail"] = {"rank": rank, "us": percentile(latencies, rank) * 1e6}
    if tracer is not None:
        layers = layer_metrics(tracer.names, tracer.spans, tracer.counters, tracer.prime_arguments)
        result["layers"] = {
            name: value * speed if name.endswith("_s") else value for name, value in layers.items()
        }
        result["spans"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--spans", type=Path, default=None, help="file for the traced spans")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    result = run_pass(args.workload, args.seed, bool(args.trace), t0, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

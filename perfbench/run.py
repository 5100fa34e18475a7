"""volcount benchmark: one workload, several passes, medians as JSON.

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(perfbench/worker.py); passes repeat until --seconds have gone by, and at
least MIN_PASSES run.  With --trace 0 the last stdout line carries the
end-to-end metrics, as medians over the passes.  With --trace 1 untraced and
traced passes alternate; the last line carries the per-layer metrics of the
traced passes and the tracing overhead (traced minus untraced run_s).  The
line before it records the environment: Python version, commit, nproc, seed
and load average.  Everything a run writes goes under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "volcount"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("build", "query", "certify", "selftest")
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "run_s": "s",
    "op_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


class PassFailed(RuntimeError):
    pass


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_pass(workload: str, seed: int, trace: bool, deadline: float, env: dict) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        command += ["--trace", "1", "--spans", str(OUT / f"spans-{workload}-{seed}.tsv.gz")]
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass ran past the {RUN_LIMIT_S} s limit")
    if done.returncode != 0:
        raise PassFailed(f"{workload} pass exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_of(passes, key):
    """Median over the passes that measured `key`; 0 when none did (all ops raised)."""
    values = [p[key] for p in passes if p[key] is not None]
    return statistics.median(values) if values else 0.0


def summarize(untraced, traced) -> dict:
    attempted = sum(p["attempted"] for p in untraced + traced)
    failed = sum(p["failed"] for p in untraced + traced)
    if not traced:
        values = {
            "run_s": median_of(untraced, "run_s"),
            "op_p50_us": median_of(untraced, "op_p50_us"),
            "setup_s": median_of(untraced, "setup_s"),
            "peak_rss_mib": median_of(untraced, "peak_rss_mib"),
            "ok_ratio": 1 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        values["trace.spans"] = median_of(traced, "spans")
        values["trace.overhead_s"] = median_of(traced, "run_s") - median_of(untraced, "run_s")
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="volcount benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and waits for
    # the pass it is running before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "__init__.py").is_file():
        print(f"run.py: no volcount sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    # TMPDIR keeps temporary files inside the checkout; a fixed hash seed
    # makes dict and set layouts repeat from pass to pass.
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"), PYTHONHASHSEED="0")
    record = {"environment": environment(args.seed), "workload": args.workload, "trace": args.trace}
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    try:
        while len(untraced) < MIN_PASSES or time.monotonic() - start < args.seconds:
            untraced.append(run_pass(args.workload, args.seed, False, deadline, env))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, True, deadline, env))
    except PassFailed as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    result = summarize(untraced, traced)
    record["environment"]["loadavg_1m_end"] = os.getloadavg()[0]
    record.update(passes=untraced, traced_passes=traced, result=result)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    messages = [m for p in untraced + traced for m in p["messages"]]
    for message in messages[:5]:
        print(f"failure: {message}")
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"environment": record["environment"], "passes": len(untraced) + len(traced)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

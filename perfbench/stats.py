"""Summary arithmetic of the benchmark: percentiles, spreads and the op ledger.

Nothing here imports volcount, so the rules can be tested on their own.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from fractions import Fraction


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q of all
    samples at or below it (0 < q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile rank must lie in (0, 1], got {q}")
    # The small offset keeps float error in q * n (0.9 * 10 = 9.000000000000002)
    # from pushing an exact rank up by one.
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_rank(count: int, beyond: int = 10) -> float | None:
    """Highest percentile rank that leaves at least `beyond` samples above it.

    None when there are too few samples for any such percentile.
    """
    if count <= beyond:
        return None
    return (count - beyond) / count


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median,
    with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# A document shaped like a small descriptor, for the kernel's JSON part.
_KERNEL_DOCUMENT = {
    "graph": {"perm_a": list(range(6)), "perm_b": list(range(5, -1, -1))},
    "instances": [[f"v{i}", "V0", f"vertex {i}"] for i in range(48)],
    "gluings": [[[f"v{i}", i % 4], [f"a{i}-", 0]] for i in range(48)],
}


def reference_kernel() -> int:
    """Fixed pure-Python work, about 2 ms: tuples and strings, a dict with
    tuple keys, integer powers, frozenset membership, a sort, Fraction sums
    and an indented JSON encoding.  Its time in a pass measures how fast the
    host runs the interpreter just then.  Of the mixes tried, this one
    tracked the speed of all four workloads best as the host's speed drifted."""
    table: dict = {}
    for a, b, c in [(i, i * 7 % 13, str(i)) for i in range(1500)]:
        table[(a % 61, b)] = table.get((a % 61, b), 0) + len(c)
    total = sum(pow(i, 3, 1009) for i in range(1500))
    members = frozenset(range(0, 300, 3))
    total += sum(1 for i in range(600) if i in members)
    fraction = sum((Fraction(i % 7, i % 11 + 1) for i in range(1, 200)), Fraction(0))
    text = json.dumps(_KERNEL_DOCUMENT, sort_keys=True, indent=2)
    return total + len(sorted(table)) + fraction.numerator % 7 + len(text)


class Ledger:
    """Runs a workload's ops one after another and counts their outcomes.

    An op is a callable; its check receives the op's result and returns None
    when the output is right, or a message saying what is wrong.  An op fails
    when it raises or its check does not pass.  Only the op itself is timed,
    so output checks do not count as work.

    After every CALIBRATE_EVERY_S of op time the ledger also times one
    reference_kernel.  busy_s and latencies can rescale each op time by the
    kernel timings nearest to that op, which follows the host's speed as it
    drifts within a pass.
    """

    MAX_MESSAGES = 5
    CALIBRATE_EVERY_S = 0.05
    NEIGHBOURS = 5  # kernel timings on each side of an op that gauge its speed

    def __init__(self, clock=time.perf_counter, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        # (kind, seconds, kernel timings before the op, before its end, completed)
        self.timings: list[tuple[str, float, int, int, bool]] = []
        self.samples: list[tuple[str, float, int, int]] = []
        self.kernel_s: list[float] = []
        self._since_kernel = 0.0
        self._kernel_in_op: float | None = None

    def busy_s(self, reference_s: float | None = None) -> float:
        """Sum of the op times, rescaled when reference_s is given."""
        return sum(self._rescale(reference_s, *timing[1:4]) for timing in self.timings)

    def latencies(self, kind: str, reference_s: float | None = None) -> list[float]:
        """Times of the completed ops and the samples of one kind."""
        ops = [timing[1:4] for timing in self.timings if timing[0] == kind and timing[4]]
        inner = [sample[1:4] for sample in self.samples if sample[0] == kind]
        return [self._rescale(reference_s, *timing) for timing in ops + inner]

    def _rescale(self, reference_s, seconds, first, end):
        # Scale to a host on which reference_kernel takes reference_s, by the
        # median of the kernel timings nearest to the op.
        if reference_s is None:
            return seconds
        near = self.kernel_s[max(0, first - self.NEIGHBOURS):end + self.NEIGHBOURS]
        return seconds * reference_s / statistics.median(near)

    def calibrate(self) -> None:
        """Time one reference_kernel; inside an op its time is not op time.

        The collector is off while the kernel runs: a collection it happened
        to trigger would time the heap the workload left behind, not the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            reference_kernel()
            elapsed = self.clock() - start
        finally:
            if enabled:
                gc.enable()
        self.kernel_s.append(elapsed)
        self._since_kernel = 0.0
        if self._kernel_in_op is not None:
            self._kernel_in_op += elapsed

    def op(self, kind: str, work, check):
        """Run and time one op, then check its result; None if it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        first = len(self.kernel_s)
        self._kernel_in_op = 0.0
        start = self.clock()
        try:
            result = work()
            problem = None
        except Exception as error:  # noqa: BLE001 -- a failing op is data here
            result, problem = None, f"raised {type(error).__name__}: {error}"
        elapsed = self.clock() - start - self._kernel_in_op
        self._kernel_in_op = None
        self.timings.append((kind, elapsed, first, len(self.kernel_s), problem is None))
        self._since_kernel += elapsed
        if self._since_kernel >= self.CALIBRATE_EVERY_S:
            self.calibrate()
        if problem is None:
            if self.tracer is not None:
                self.tracer.recording = False  # checks are not the program's work
            try:
                problem = check(result)
            except Exception as error:  # noqa: BLE001
                problem = f"check raised {type(error).__name__}: {error}"
            finally:
                if self.tracer is not None:
                    self.tracer.recording = True
        if problem:
            self._fail(kind, problem)
        return result

    def verify(self, kind: str, problem: str | None) -> None:
        """Count a check over outputs of several ops as one more attempt."""
        self.attempted += 1
        if problem:
            self._fail(kind, problem)

    def sample(self, kind: str, seconds: float) -> None:
        """Record a latency measured inside an op (for example one criterion).

        Samples do not add to busy_s: the op around them is timed already.
        """
        here = len(self.kernel_s)
        self.samples.append((kind, seconds, here, here))

    def _fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(f"{kind}: {message}")

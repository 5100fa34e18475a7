"""The four workloads: seeded inputs, timed ops and their output checks.

Each workload has setup(vc, rng), which builds the inputs from the seed
before the timed phase, and run(state, ledger), which sends the ops one
after another through the ledger (a closed loop in one thread).  `vc` is a
namespace holding the volcount modules.  Checks recompute what they can by
an independent route: Hall's recursion in plain integers here, a sieve for
the prime searches, local_invariants for certificate witnesses.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from math import factorial, isqrt

# sha256 over the per-document sha256 digests of all index-6 descriptor
# documents (isotropic parcel, n = 4) in enumeration order, and the same over
# the index-5 files emit_descriptors writes.  Recorded at the commit that
# introduced the benchmark; they guard byte-identical output.
INDEX6_DOCUMENTS_SHA256 = "bf64e7c6cb096d9c72c98a30edad705013c4975b5486ddc7e15176f950a7a20e"
INDEX5_FILES_SHA256 = "033c11a2bf45e05038b46ad60dfd4de2015624edddaed25dcbcba7c4c5efaf79"

INDEX6_COUNT = 3447
PARCEL_DIMENSION = 4


def reference_hall(k: int) -> int:
    """a_k by Hall's recursion with a factorial table, independent of volcount."""
    facts = [factorial(i) for i in range(k + 1)]
    counts = [0] * (k + 1)
    for n in range(1, k + 1):
        counts[n] = n * facts[n] - sum(facts[n - i] * counts[i] for i in range(1, n))
    return counts[k]


def digest_of(digests) -> str:
    return hashlib.sha256(b"".join(digests)).hexdigest()


def _problem(condition: bool, message: str) -> str | None:
    return None if condition else message


# build: the write path ----------------------------------------------------

def build_setup(vc, rng):
    k = rng.randrange(200, 250)
    return {
        "parcel": vc.assembler.default_parcel(PARCEL_DIMENSION, compact=False),
        "k": k,
        # floor(v / 5) = k for every v in [5k, 5k + 5).
        "budget": Fraction(5 * k) + Fraction(rng.randrange(35), 7),
        "order_seed": rng.randrange(2**32),
    }


def build_run(vc, state, ledger):
    parcel, k = state["parcel"], state["k"]
    enumerate_subgroups = vc.free_groups.enumerate_subgroups
    ledger.op(
        "enumerate_7",
        lambda: len(enumerate_subgroups(7)),
        lambda n: _problem(n == reference_hall(7), f"{n} index-7 tables"),
    )

    def check_count(report):
        if (report.k, report.descriptor_count) != (k, reference_hall(k)):
            return f"k={report.k}, count differs from Hall's recursion at k={k}"
        root = isqrt(k**k)
        floor_bound = root if root * root == k**k else root + 1
        return _problem(report.floor_bound == floor_bound, "wrong growth floor")

    ledger.op("count", lambda: vc.assembler.count_lower_bound(state["budget"], parcel), check_count)

    tables = ledger.op(
        "enumerate_6",
        lambda: enumerate_subgroups(6),
        lambda t: _problem(
            len(t) == vc.free_groups.hall_count(6) == INDEX6_COUNT, f"{len(t)} index-6 tables"
        ),
    ) or []
    from_subgroup = vc.decorated_graphs.from_subgroup
    assemble = vc.assembler.assemble
    volume_bound = vc.assembler.volume_bound
    to_json = vc.assembler.descriptor_to_json
    digests = [b""] * len(tables)
    order = list(range(len(tables)))
    random.Random(state["order_seed"]).shuffle(order)
    for index in order:
        table = tables[index]

        def descriptor(table=table):
            graph = from_subgroup(table, frozenset({table.basepoint}))
            built = assemble(graph, parcel)
            return volume_bound(built, parcel), to_json(built)

        def check(result, index=index):
            volume, document = result
            digests[index] = hashlib.sha256(document.encode("ascii")).digest()
            return _problem(volume == 30, f"volume bound {volume}")

        ledger.op("descriptor", descriptor, check)
    ledger.verify(
        "index-6 documents",
        _problem(digest_of(digests) == INDEX6_DOCUMENTS_SHA256, "document digest changed"),
    )

    with tempfile.TemporaryDirectory() as directory:
        ledger.op(
            "emit_5",
            lambda: vc.assembler.emit_descriptors(5, parcel, directory),
            lambda n: _check_emitted(n, directory),
        )


def _check_emitted(written: int, directory: str) -> str | None:
    names = sorted(os.listdir(directory))
    if written != len(names) or written != reference_hall(5):
        return f"{written} written, {len(names)} files"
    digests = []
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            digests.append(hashlib.sha256(handle.read()).digest())
    return _problem(digest_of(digests) == INDEX5_FILES_SHA256, "emitted file digest changed")


# query: the read path and pairwise decisions ------------------------------

QUERY_PAIRS = 4000
SELF_PAIR_SHARE = 8  # one pair in eight compares a subgroup with itself


def query_setup(vc, rng):
    parcel = vc.assembler.default_parcel(PARCEL_DIMENSION, compact=False)
    tables = vc.free_groups.enumerate_subgroups(6)
    documents = [
        vc.assembler.descriptor_to_json(
            vc.assembler.assemble(vc.decorated_graphs.from_subgroup(t, frozenset({t.basepoint})), parcel)
        )
        for t in tables
    ]
    pairs = []
    for n in range(QUERY_PAIRS):
        i = rng.randrange(len(tables))
        if n % SELF_PAIR_SHARE == 0:
            pairs.append((i, i))
        else:
            j = rng.randrange(len(tables) - 1)
            pairs.append((i, j + (j >= i)))
    rng.shuffle(pairs)
    return {"parcel": parcel, "tables": tables, "documents": documents, "pairs": pairs}


def query_run(vc, state, ledger):
    parcel, tables = state["parcel"], state["tables"]
    from_json = vc.assembler.descriptor_from_json
    descriptors = []
    for table, document in zip(tables, state["documents"]):
        def check(d, table=table):
            graph = d.source_graph
            same = (graph.perm_a, graph.perm_b, graph.colored) == (
                table.perm_a, table.perm_b, frozenset({table.basepoint})
            )
            return _problem(same and d.parcel_id == parcel.parcel_id and d.volume_bound == 30,
                            "document read back wrong")

        descriptors.append(ledger.op("from_json", lambda document=document: from_json(document), check))
    if any(d is None for d in descriptors):
        return

    distinguishing_word = vc.free_groups.distinguishing_word
    cover = vc.decorated_graphs.has_common_decorated_cover
    verdict = vc.assembler.commensurability_verdict
    trace_word = vc.assembler.trace_word
    check_cover = vc.decorated_graphs.check_cover
    for i, j in state["pairs"]:
        d1, d2 = descriptors[i], descriptors[j]

        def pair(d1=d1, d2=d2, i=i, j=j):
            word = distinguishing_word(tables[i], tables[j])
            decision = cover(d1.source_graph, d2.source_graph)
            answer = verdict(d1, d2, parcel)
            traces = None if word is None else (trace_word(d1, word), trace_word(d2, word))
            return word, decision, answer, traces

        def check(result, d1=d1, d2=d2, same=i == j):
            word, decision, answer, traces = result
            if (decision.has_cover, answer.commensurable, word is None) != (same, same, same):
                return f"cover/verdict/separator disagree with same={same}"
            if same:
                return _problem(
                    check_cover(decision.witness, d1.source_graph, decision.witness_map1)
                    and check_cover(decision.witness, d2.source_graph, decision.witness_map2),
                    "cover witness does not cover",
                )
            kinds = {traces[0].terminal_kind, traces[1].terminal_kind}
            return _problem(kinds == {"V0", "V1"}, f"separator traces end in {kinds}")

        ledger.op("pair", pair, check)


# certify: number theory -----------------------------------------------------

SEARCH_COUNT = 32
# One member from each consecutive pair of found primes, so that every seed
# draws members of about the same sizes and does the same amount of work.
MEMBERS = 16
RANKS = range(3, 7)  # the dimension parameter n; the forms have rank n + 1


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


def certify_setup(vc, rng):
    return {
        "parcel": vc.assembler.default_parcel(PARCEL_DIMENSION, compact=False),
        "members": {
            family: [2 * k + rng.randrange(2) for k in range(MEMBERS)] for family in ("q", "r")
        },
        "pairs": [(i, j) for i in range(MEMBERS) for j in range(MEMBERS) if i != j],
    }


def certify_run(vc, state, ledger):
    ff = vc.form_families
    primes = _primes_below(4000)
    expected = {
        "q": [p for p in primes if p % 8 == 5][:SEARCH_COUNT],
        "r": [p for p in primes if p % 8 == 1 and pow(2, (p - 1) // 4, p) != 1][:SEARCH_COUNT],
    }
    found = {}
    for family, search in (("q", ff.search_primes_isotropic), ("r", ff.search_primes_anisotropic)):
        reports = ledger.op(
            f"search_{family}",
            lambda search=search: search(SEARCH_COUNT),
            lambda reports, family=family: _problem(
                [r.prime for r in reports] == expected[family], f"{family} prime list differs"
            ),
        )
        if reports is None:
            return
        found[family] = [reports[i].prime for i in state["members"][family]]

    makers = {"q": ff.make_q, "r": ff.make_r}
    forms = ledger.op(
        "forms",
        lambda: {
            (family, n): [makers[family](a, n) for a in found[family]]
            for family in ("q", "r")
            for n in RANKS
        },
        lambda forms: _problem(len(forms) == 2 * len(RANKS), "missing forms"),
    )
    certificate = ff.noncommensurability_certificate
    recompute = _Recompute(vc)
    for i, j in state["pairs"]:
        def pair(i=i, j=j):
            return [
                (family, n, certificate(members[i], members[j]))
                for (family, n), members in forms.items()
            ]

        def check(results, i=i, j=j):
            for family, n, cert in results:
                a1, a2 = found[family][i], found[family][j]
                problem = _certificate_problem(recompute, family, n, a1, a2, cert)
                if problem:
                    return f"{family}_{a1} vs {family}_{a2} at n={n}: {problem}"
            return None

        ledger.op("pair", pair, check)


class _Recompute:
    """Certificate invariants recomputed through local_invariants, memoized
    because every member meets every other one at each rank."""

    def __init__(self, vc):
        self.li = vc.local_invariants
        self.sqrt_mod = vc.exact_arith.sqrt_mod
        self.discriminant = functools.cache(self._discriminant)
        self.epsilon = functools.cache(self._epsilon)

    def _discriminant(self, coefficients: tuple) -> int:
        return self.li.discriminant_class(coefficients)

    def _epsilon(self, family: str, n: int, a: int, p: int) -> int:
        # For r, sqrt(2) -> root embeds the field in Q_p, and -sqrt(2) becomes
        # the unit -root: at an odd place the symbols see only valuations and
        # residues.
        last = -2 if family == "q" else -self.sqrt_mod(2, p)
        return self.li.hasse_witt([a] + [1] * (n - 1) + [last], self.li.odd_place(p))


def _certificate_problem(recompute, family, n, a1, a2, cert):
    if cert is None:
        return "no certificate"
    if (n + 1) % 2 == 0:
        if cert.method != "discriminant_ratio":
            return f"even rank certified by {cert.method}"
        if family == "q":
            d1, d2 = (recompute.discriminant((a,) + (1,) * (n - 1) + (-2,)) for a in (a1, a2))
            return _problem(cert.detail == (str(d1), str(d2)) and d1 != d2, "discriminants")
        # The discriminant ratio a1/a2 is a square in Q(sqrt 2) iff its
        # square-free class is 1 or 2.
        return _problem(recompute.discriminant((a1, a2)) not in (1, 2), "ratio is a square")
    if cert.method != "epsilon_at_prime":
        return f"odd rank certified by {cert.method}"
    p = cert.witness_prime
    epsilons = (recompute.epsilon(family, n, a1, p), recompute.epsilon(family, n, a2, p))
    return _problem(
        cert.detail == (str(epsilons[0]), str(epsilons[1])) and epsilons[0] != epsilons[1],
        f"witness epsilons at {p} recompute to {epsilons}",
    )


# selftest: the release gate ---------------------------------------------------

def selftest_setup(vc, rng):
    return {"parcel": vc.assembler.default_parcel(PARCEL_DIMENSION, compact=False)}


def selftest_run(vc, state, ledger):
    acceptance = vc.acceptance
    run_criterion = acceptance.run_criterion

    def timed_criterion(number):
        # The gaps between criteria are the only ones inside the one selftest
        # op, so the kernel is timed on both sides of each criterion.
        for _ in range(3):
            ledger.calibrate()
        start = ledger.clock()
        try:
            return run_criterion(number)
        finally:
            ledger.sample("criterion", ledger.clock() - start)
            for _ in range(3):
                ledger.calibrate()

    def selftest():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = vc.cli.main(["selftest", "--json"])
        return code, stdout.getvalue()

    acceptance.run_criterion = timed_criterion
    try:
        result = ledger.op("selftest", selftest, lambda r: _problem(r[0] == 0, f"exit code {r[0]}"))
    finally:
        acceptance.run_criterion = run_criterion
    if result is None:
        return
    try:
        results = json.loads(result[1])["payload"].get("results", [])
    except (ValueError, KeyError, AttributeError) as error:
        results = []
        ledger.verify("selftest output", f"not a JSON payload: {error}")
    ledger.verify("criteria", _problem(len(results) == 9, f"{len(results)} criteria reported"))
    for entry in results:
        ledger.verify(f"criterion {entry['number']}", _problem(entry["passed"], entry["detail"]))


WORKLOADS = {
    "build": (build_setup, build_run, "descriptor"),
    "query": (query_setup, query_run, "pair"),
    "certify": (certify_setup, certify_run, "pair"),
    "selftest": (selftest_setup, selftest_run, "criterion"),
}

"""The CLI byte-identity manifest: sha256 digests of in-process `cli.main` runs.

golden/cli_manifest.json maps a stable label for each run below to the
sha256 of its stdout, of its stderr and of its exit code.  An emission run
also hashes the files it writes, in name order; `selftest --json` drops
each criterion's `seconds` before hashing.  Every run starts in a fresh
temporary working directory holding the graph files below, and names files
by relative paths, so no path enters a hash.  A refusal in the manifest is
one of volcount's own texts, never argparse's, whose wording belongs to
Python.

Check the manifest (exit status 1 and one line per differing label when a
digest differs):

    PYTHONPATH=src python tests/cli_manifest.py

A change that means to alter an output regenerates it with write_manifest()
in the same commit and names each changed label in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from volcount.cli import main
from volcount.decorated_graphs import DecoratedGraph, graph_to_text

MANIFEST = Path(__file__).resolve().parent / "golden" / "cli_manifest.json"


def _cycle_graph(k: int, step: int, colored) -> DecoratedGraph:
    # Connected: a is the k-cycle, b multiplies by step (coprime to k).
    return DecoratedGraph(
        k, [(v + 1) % k for v in range(k)], [(v * step) % k for v in range(k)], frozenset(colored)
    )


# Past _CACHED_SIZE (16 vertices) the writer builds rows afresh, so the
# 17- and 20,000-vertex graphs take the uncached path.
GRAPH_FILES = {
    "three.txt": graph_to_text(_cycle_graph(3, 2, {0})),
    "seventeen.txt": graph_to_text(_cycle_graph(17, 5, {0, 16})),
    "twenty_thousand.txt": graph_to_text(_cycle_graph(20_000, 3, {0, 1, 19_999})),
    "disconnected.txt": "2\n0 1\n0 1\n\n",
}

# The least int-to-str limit Python accepts.
LOW_DIGIT_LIMIT = 640

_DEFAULT_LIMIT_RUNS = (
    "primes isotropic 6",
    "primes anisotropic 6 --verify",
    "primes isotropic 3 --json",
    "forms isotropic",
    "forms anisotropic --n 5 --json",
    "forms isotropic --n 3 --count 4",
    "subgroups 5",
    "subgroups 4 --json",
    *(f"graphs {k} {mode}" for k in (1, 2, 3, 4) for mode in ("enumerate", "covers", "distinguish")),
    *(f"graphs 3 {mode} --json" for mode in ("enumerate", "covers", "distinguish")),
    *(
        f"assemble {name}{mode}"
        for name in ("three.txt", "seventeen.txt", "twenty_thousand.txt")
        for mode in ("", " --json", " --compact")
    ),
    "count --v 30",
    "count --v 7/2 --n 5 --compact --json",
    "count --v 25 --emit-descriptors out",
    "selftest --json",
    # Refusals, in volcount's own words.
    "subgroups 8",
    "subgroups 8 --json",
    "graphs 5 covers",
    "count --v 1",
    "count --v 1 --json",
    "assemble disconnected.txt",
    "assemble disconnected.txt --json",
)

# 400! has 869 digits, so `count --v 2000` (k = 400) is refused before the count.
_LOW_LIMIT_RUNS = (
    "count --v 1000",
    "count --v 1000 --json",
    "count --v 2000",
    "assemble three.txt --json",
)

RUNS = {argv: None for argv in _DEFAULT_LIMIT_RUNS} | {
    f"int_max_str_digits={LOW_DIGIT_LIMIT}: {argv}": LOW_DIGIT_LIMIT for argv in _LOW_LIMIT_RUNS
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\n{len(data)}\n".encode() + data)
    return digest.hexdigest()


def _without_seconds(stdout: str) -> str:
    document = json.loads(stdout)
    for result in document["payload"].get("results", ()):
        del result["seconds"]
    return json.dumps(document, sort_keys=True, indent=2)


def digests(label: str) -> dict[str, str]:
    """The digests of the run a label names, made in a fresh working directory."""
    limit = RUNS[label]
    argv = label.partition(": ")[2].split() if limit else label.split()
    saved_limit, saved_cwd = sys.get_int_max_str_digits(), os.getcwd()
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        try:
            os.chdir(directory)
            for name, text in GRAPH_FILES.items():
                Path(name).write_text(text, encoding="ascii")
            if limit:
                sys.set_int_max_str_digits(limit)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            entry = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": str(code)}
            if argv[0] == "selftest":
                entry["stdout"] = _without_seconds(entry["stdout"])
            entry = {key: _sha256(value) for key, value in entry.items()}
            if "--emit-descriptors" in argv:
                entry["files"] = _tree_digest(Path(argv[argv.index("--emit-descriptors") + 1]))
        finally:
            sys.set_int_max_str_digits(saved_limit)
            os.chdir(saved_cwd)
    return entry


def write_manifest(path: Path = MANIFEST) -> None:
    """Run every labelled invocation and write their digests to path."""
    manifest = {label: digests(label) for label in RUNS}
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")


def differing_labels(path: Path = MANIFEST) -> list[str]:
    """The labels whose digests differ from path's, or that it lacks or has in excess."""
    recorded = json.loads(path.read_text(encoding="ascii"))
    labels = [label for label in RUNS if recorded.get(label) != digests(label)]
    return labels + [label for label in recorded if label not in RUNS]


if __name__ == "__main__":
    differing = differing_labels()
    for label in differing:
        print(f"differs from {MANIFEST.name}: {label}")
    print(f"{len(RUNS) - len(differing)} of {len(RUNS)} runs match {MANIFEST.name}")
    sys.exit(1 if differing else 0)

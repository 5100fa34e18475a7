"""Byte identity of the CLI: every run in golden/cli_manifest.json hashes as recorded."""

import json

import pytest

from cli_manifest import MANIFEST, RUNS, digests

RECORDED = json.loads(MANIFEST.read_text(encoding="ascii"))


def test_manifest_labels_are_the_runs():
    assert list(RECORDED) == list(RUNS)


@pytest.mark.parametrize("label", list(RUNS))
def test_run_hashes_as_recorded(label):
    assert digests(label) == RECORDED[label]

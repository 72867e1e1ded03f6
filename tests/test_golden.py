"""Golden CLI reports: every case of ``tests/golden/regen.py`` gives the
report kept for it, byte for byte apart from ``timing_ms``.

The small cases are compared whole, so a failure shows the changed lines;
the large ones by sha256 digest, so a failure names the changed cases.
``PYTHONPATH=src python tests/golden/regen.py`` rewrites both after an
intended change."""

import json

import pytest

from golden import regen


@pytest.fixture(scope="module")
def in_inputs_folder():
    with regen.inputs_folder():
        yield


@pytest.mark.parametrize("name", list(regen.SMALL))
def test_small_report_matches_its_golden(in_inputs_folder, name):
    kept = (regen.HERE / f"{name}.json").read_text()
    assert regen.dumps(regen.record(regen.SMALL[name])) == kept


def test_large_reports_match_their_digests(in_inputs_folder):
    kept = json.loads((regen.HERE / "digests.json").read_text())
    cases = regen.large_cases()
    assert sorted(cases) == sorted(kept)
    changed = [name for name, argv in cases.items() if regen.digest(regen.record(argv)) != kept[name]]
    assert changed == []


def test_every_golden_file_is_a_case_and_small():
    files = {p.stem: p.stat().st_size for p in regen.HERE.glob("*.json") if p.name != "digests.json"}
    assert sorted(files) == sorted(regen.SMALL)
    assert max(files.values()) < 5000

"""A store written by an older commit recovers byte-identically.

``recorded_store/data`` is a durable server's data directory (a compaction
snapshot plus a WAL tail of ``open``/``add``/``retract``/``close``
records, spelled in non-canonical notation), and
``recorded_store/expected.json`` is what recovering it reported and
answered at the commit that wrote it (``recorded_store/make_fixture.py``).
Recovery, every probe answer, the edits made after recovery and
``snapshot_state`` must all match today; so must the files and the
responses of the same script run live.
"""

import asyncio
import json
import os
import shutil

import pytest

from tests.integration.recorded_store import make_fixture

FIXTURE = os.path.dirname(make_fixture.__file__)


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(FIXTURE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_the_old_store_recovers_byte_identically(tmp_path, expected):
    data_dir = tmp_path / "data"
    shutil.copytree(os.path.join(FIXTURE, "data"), data_dir)
    found = json.loads(json.dumps(make_fixture.recovered(str(data_dir)),
                                  ensure_ascii=False))
    assert found["report"] == expected["report"]
    assert found["snapshot_state"] == expected["snapshot_state"]
    for name, answers in expected["answers"].items():
        for probe, answer in answers.items():
            assert found["answers"][name][probe] == answer, (name, probe)
    assert found == {key: expected[key]
                     for key in ("report", "snapshot_state", "answers")}


def test_the_same_script_writes_the_same_store(tmp_path, expected):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    responses = asyncio.run(make_fixture.write_store(str(data_dir)))
    assert json.loads(json.dumps(responses)) == expected["responses"]
    names = sorted(os.listdir(data_dir))
    assert names == sorted(os.listdir(os.path.join(FIXTURE, "data")))
    for name in names:
        with open(os.path.join(FIXTURE, "data", name), "rb") as handle:
            assert (data_dir / name).read_bytes() == handle.read(), name

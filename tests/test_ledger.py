"""Every case of the verdict ledger gives the outcome that ``ledger.json``
records (see ``tests/ledger/make.py``)."""

import importlib.util
import json
from pathlib import Path

_MAKE = Path(__file__).with_name("ledger") / "make.py"
_spec = importlib.util.spec_from_file_location("ledger_make", _MAKE)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def test_every_verdict_matches_the_ledger():
    ledger = json.loads(make.LEDGER.read_text())
    assert sorted(ledger) == sorted(make.CASES), "the case list and ledger.json differ"
    moved = {case: make.moved(ledger[case], make.outcome(run))
             for case, run in make.CASES.items()}
    moved = {case: paths for case, paths in moved.items() if paths}
    assert not moved, "entries that moved:\n" + "\n".join(
        f"{case}: {path}" for case, paths in moved.items() for path in paths)

"""Every benchmark workload, solved and logged at two seeds, must pass the
benchmark's own gate: equal to its oracle, within its step bound, and equal
to every count and message-log digest pinned in ``perfbench/pinned.json``.
A change to what the engine computes fails here, not in a later benchmark
run."""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINS = json.loads((PERFBENCH / "pinned.json").read_text())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(PINS))
def test_workload_matches_its_pins(monkeypatch, name, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.WORKLOADS[name]
    pins = PINS[name]
    inp = wl.make_inputs(seed)
    ref = wl.reference(inp)
    gate = wl.check(inp, wl.solve(inp), ref, pins, seed)
    assert gate.problems and all(found == [] for found in gate.problems)
    assert wl.log_check(inp, wl.log_run(inp, seed), ref, pins, seed) == []

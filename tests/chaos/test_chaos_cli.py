"""The ``python -m tools.chaos`` CLI: one ``--sweep`` option over the
registry, the summary line, and ``--replay`` JSON."""

import json

import pytest

from repro import kernels
from tools.chaos import SWEEPS
from tools.chaos.__main__ import main

BACKEND = kernels.available_backends()[0]

#: the replay ``mode`` of each graded world, per sweep
REPLAY_MODES = {
    "read": ["read"],
    "prefetch": ["prefetch-demand", "prefetch-armed"],
    "write": ["write"],
    "shard": ["shard"],
    "join": ["join"],
    "txn": ["txn"],
}


def json_objects(text):
    """Every JSON object printed back to back in ``text``."""
    decoder, text = json.JSONDecoder(), text.strip()
    objects, index = [], 0
    while index < len(text):
        obj, end = decoder.raw_decode(text, index)
        objects.append(obj)
        index = end + 1  # one newline between printed objects
    return objects


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_sweep_prints_outcomes_and_summary(sweep, pinned, capsys):
    seed = SWEEPS[sweep].seeds[0]
    code = main(["--sweep", sweep, "--seeds", str(seed), "--backend", BACKEND])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    outcome_lines = [line for line in lines if f"seed={seed} " in line]
    assert len(outcome_lines) == len(SWEEPS[sweep].labels)
    assert all(f"backend={BACKEND}" in line for line in outcome_lines)
    assert lines[-1] == (
        f"chaos: 1 {SWEEPS[sweep].noun} — 1 {pinned[sweep, seed]}; "
        f"{SWEEPS[sweep].verdict}"
    )


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_replay_prints_parseable_json(sweep, pinned, capsys):
    seed = SWEEPS[sweep].seeds[0]
    code = main(["--sweep", sweep, "--replay", str(seed), "--backend", BACKEND])
    assert code == 0
    payloads = json_objects(capsys.readouterr().out)
    assert [payload["mode"] for payload in payloads] == REPLAY_MODES[sweep]
    for payload in payloads:
        assert payload["seed"] == seed
        assert payload["backend"] == BACKEND
        assert payload["status"] == pinned[sweep, seed]


def test_default_sweep_is_read(capsys):
    assert main(["--seeds", "23", "--backend", BACKEND]) == 0
    assert "schedule(s) — 1 clean;" in capsys.readouterr().out


def test_unknown_sweep_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--sweep", "vacuum"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err

"""``tools/check_resume.py`` kills the whole campaign, pool workers included."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from tools.check_resume import DEFAULT_SCENARIO, _kill_mid_flight


def test_kill_mid_flight_leaves_no_process(tmp_path):
    campaign = tmp_path / "campaign"
    pgid = _kill_mid_flight(DEFAULT_SCENARIO, campaign, kill_after=1, timeout=120.0)
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)
    # forked pool workers share the CLI's command line, campaign path included
    survivors = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if str(campaign).encode() in cmdline.read_bytes():
                survivors.append(cmdline.parent.name)
        except OSError:  # exited while we looked
            continue
    assert survivors == []

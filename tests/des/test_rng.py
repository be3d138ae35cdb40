"""Deterministic random stream derivation."""

import numpy as np
import pytest

from repro.des.rng import RngHub, derive_seed, spawn_streams


class TestDeriveSeed:
    def test_deterministic(self):
        a = np.random.default_rng(derive_seed(7, "x", 3)).random(4)
        b = np.random.default_rng(derive_seed(7, "x", 3)).random(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_give_distinct_streams(self):
        a = np.random.default_rng(derive_seed(7, "x")).random(8)
        b = np.random.default_rng(derive_seed(7, "y")).random(8)
        assert not np.array_equal(a, b)

    def test_distinct_master_seeds_differ(self):
        a = np.random.default_rng(derive_seed(1, "x")).random(8)
        b = np.random.default_rng(derive_seed(2, "x")).random(8)
        assert not np.array_equal(a, b)

    def test_int_and_str_keys_compose(self):
        a = np.random.default_rng(derive_seed(7, "run", 1, "pq")).random(4)
        b = np.random.default_rng(derive_seed(7, "run", 2, "pq")).random(4)
        assert not np.array_equal(a, b)

    def test_large_int_keys_ok(self):
        s = derive_seed(2**63, 2**40)
        assert np.random.default_rng(s).random() >= 0

    def test_string_hash_stable_across_calls(self):
        # guards against accidental use of salted hash()
        assert derive_seed(0, "stable").entropy == derive_seed(0, "stable").entropy

    def test_first_derivation_imports_nothing(self):
        """``numpy.random`` loads with this module. numpy 2 imports it on
        first use, so without the module-level import a process's first
        ``derive_seed`` (in a resumed campaign, the trace store's first
        lookup) would load nine extension modules."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys; import repro.des.rng as rng; before = set(sys.modules); "
            "rng.derive_seed(1, 'x'); print(sorted(set(sys.modules) - before))"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"


class TestSpawnStreams:
    def test_one_stream_per_name(self):
        streams = spawn_streams(5, ["a", "b", "c"])
        assert set(streams) == {"a", "b", "c"}
        vals = {name: gen.random() for name, gen in streams.items()}
        assert len(set(vals.values())) == 3


class TestRngHub:
    def test_stream_cached(self):
        hub = RngHub(3)
        assert hub.stream("coins") is hub.stream("coins")

    def test_stream_requires_keys(self):
        hub = RngHub(3)
        with pytest.raises(ValueError):
            hub.stream()

    def test_streams_independent_of_creation_order(self):
        h1 = RngHub(9)
        a_first = h1.stream("a").random()
        h2 = RngHub(9)
        h2.stream("b")  # create b before a
        a_second = h2.stream("a").random()
        assert a_first == a_second

"""Developer tooling for the repo: calibration, gates and ``reprolint``.

The scripts (``calibrate.py``, ``check_*.py``, ``gen_protocol_docs.py``)
are plain scripts; :mod:`tools.lintkit` is an importable package so the
static analyzer can run as ``python -m tools.lintkit`` and be
unit-tested.
"""

"""End-to-end and per-layer benchmark of the ``repro`` verifier (see
``run.py`` and ``BENCHMARK.json``)."""

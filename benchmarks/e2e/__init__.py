"""E20 -- the repo's one end-to-end benchmark (see README.md here).

Six workloads drive ``python -m repro serve`` over real sockets with
the public blocking client, check every answer against an oracle, and
report the end-to-end and per-layer metrics declared in the
``BENCHMARK.json`` at the repo root.
"""

#!/bin/sh
# One-command smoke check: build, run the full test suite, regenerate a
# paper table, and emit one machine-readable report (validating that the
# telemetry path works end to end).
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== experiments: table2 =="
dune exec bin/elag_experiments.exe -- table2

echo "== report: PGP Encode / baseline =="
dune exec bin/elag_sim_run.exe -- "PGP Encode" baseline --report json

echo "== emulate: every workload on the worker pool (-j 2) =="
dune exec bin/elag_sim_run.exe -- --all -j 2

echo "== verify: lint + fault-injection smoke =="
dune exec bin/elag_experiments.exe -- verify-smoke

echo "== fuzz: bounded differential campaign (-j 2) =="
dune exec bin/elag_experiments.exe -- fuzz --seed 42 --iters 25 -j 2

echo "smoke: OK"

#!/usr/bin/env bash
# Repository gate: lint, type check, tier-1 tests and the perfbench tests.
# The engine bit-identity contracts, EXPERIMENTS.md identity and the CLI
# gates are tier-1 tests (mostly under tests/contracts/), so the one
# tier-1 pytest run covers them.
#
#     scripts/check.sh            # run everything available
#     scripts/check.sh --fast     # skip the test suite
#
# ruff and mypy read their configuration from pyproject.toml.  Either tool
# being absent from the environment is reported and skipped, not fatal —
# the offline test container ships only the runtime toolchain — but when a
# tool IS present, its findings fail the gate.
set -u
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

status=0
skipped=""

run_tool() {
    local name="$1"; shift
    if command -v "$name" >/dev/null 2>&1; then
        echo "== $name =="
        if ! "$name" "$@"; then
            status=1
        fi
    else
        skipped="$skipped $name"
    fi
}

run_tool ruff check src tests examples
run_tool mypy

if [ "$fast" -eq 0 ]; then
    # Coverage gate: only when pytest-cov is importable (the offline test
    # container ships without it); floor overridable via REPRO_COV_MIN.
    cov_args=""
    if python -c "import pytest_cov" >/dev/null 2>&1; then
        cov_args="--cov=repro --cov-report=term --cov-fail-under=${REPRO_COV_MIN:-80}"
        echo "== pytest (tier 1, coverage >= ${REPRO_COV_MIN:-80}%) =="
    else
        skipped="$skipped pytest-cov"
        echo "== pytest (tier 1) =="
    fi
    # shellcheck disable=SC2086
    if ! PYTHONPATH=src python -m pytest -x -q $cov_args; then
        status=1
    fi
    # perfbench drives the entry points the benchmark calls and patches
    # (clear_caches, tape_cache_stats, compile_tape, run_experiments,
    # tune, last_run_stats); its own tests pin that contract.
    echo "== perfbench tests =="
    if ! python -m pytest -q perfbench/tests; then
        status=1
    fi
fi

[ -n "$skipped" ] && echo "skipped (not installed):$skipped"
if [ "$status" -eq 0 ]; then
    echo "check.sh: OK"
else
    echo "check.sh: FAILED"
fi
exit "$status"

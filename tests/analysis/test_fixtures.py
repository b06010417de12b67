"""Golden fixture tests: each rule fires on its minimal offending snippet.

Every fixture under ``fixtures/`` is a miniature repo (``src/repro/...``
plus whatever docs the rule reads). Running the named rules over it must
produce exactly the expected ``(rule, path, line)`` findings — no more,
no fewer — except where noted (configsync also emits stale-entry noise
for the real flag map, asserted as a superset).
"""

from pathlib import Path

import pytest

from repro.analysis import Severity, run_lint

FIXTURES = Path(__file__).parent / "fixtures"

EXACT_CASES = [
    (
        "layering",
        ["layering/import-dag"],
        {
            ("layering/import-dag", "src/repro/paths/uses_cluster.py", 3),
            ("layering/import-dag", "src/repro/obs/uses_perf.py", 3),
        },
    ),
    (
        "determinism",
        [
            "determinism/set-iteration",
            "determinism/unkeyed-sort",
            "determinism/dict-keys-iteration",
        ],
        {
            ("determinism/set-iteration", "src/repro/similarity/unstable.py", 5),
            ("determinism/unkeyed-sort", "src/repro/similarity/unstable.py", 11),
            (
                "determinism/dict-keys-iteration",
                "src/repro/similarity/unstable.py",
                15,
            ),
        },
    ),
    (
        "exceptions",
        ["exceptions/broad-except", "exceptions/swallowed-interrupt"],
        {
            ("exceptions/broad-except", "src/repro/core/swallow.py", 9),
            ("exceptions/swallowed-interrupt", "src/repro/core/swallow.py", 16),
        },
    ),
    (
        "metrics",
        ["metrics/unregistered", "metrics/unused"],
        {
            ("metrics/unregistered", "src/repro/core/instrumented.py", 6),
            ("metrics/unused", "src/repro/obs/names.py", 5),
        },
    ),
    (
        "picklability",
        ["picklability/unpicklable-task"],
        {
            (
                "picklability/unpicklable-task",
                "src/repro/eval/parallel_misuse.py",
                7,
            ),
        },
    ),
    # atomicwrite renames twice outside repro.resilience.checkpoint; an
    # fsync before the rename does not exempt it, since the checkpoint
    # writer is the one sanctioned fsync-then-rename site.
    (
        "lifecycle",
        ["lifecycle/fsync-before-rename"],
        {
            (
                "lifecycle/fsync-before-rename",
                "src/repro/core/atomicwrite.py",
                10,
            ),
            (
                "lifecycle/fsync-before-rename",
                "src/repro/core/atomicwrite.py",
                19,
            ),
        },
    ),
    # fastmul imports three private scipy modules (the public names on
    # line 6 pass); the fixture's own repro.perf.csr may import them.
    (
        "privateapi",
        ["privateapi/scipy-private-module"],
        {
            ("privateapi/scipy-private-module", "src/repro/core/fastmul.py", 3),
            ("privateapi/scipy-private-module", "src/repro/core/fastmul.py", 4),
            ("privateapi/scipy-private-module", "src/repro/core/fastmul.py", 5),
        },
    ),
    (
        "taint",
        ["taint/unseeded-rng"],
        {
            ("taint/unseeded-rng", "src/repro/resilience/jittery.py", 7),
            ("taint/unseeded-rng", "src/repro/resilience/jittery.py", 12),
        },
    ),
]


@pytest.mark.parametrize(
    "fixture, rules, expected",
    EXACT_CASES,
    ids=[case[0] for case in EXACT_CASES],
)
def test_rule_fires_on_fixture(fixture, rules, expected):
    result = run_lint(FIXTURES / fixture, rules=rules)
    got = {(f.rule, f.path, f.line) for f in result.findings}
    assert got == expected
    assert result.n_errors >= 1
    assert not result.ok


def test_configsync_fixture():
    result = run_lint(FIXTURES / "configsync", rules=["config/undocumented"])
    got = {(f.rule, f.path, f.line) for f in result.findings}
    # mystery_knob (config.py line 9) is both undocumented and unreachable.
    assert ("config/undocumented", "src/repro/config.py", 9) in got
    assert ("config/unreachable", "src/repro/config.py", 9) in got
    # min_sim is documented and its --min-sim flag exists in the fixture
    # CLI, so it produces nothing.
    assert not any(
        "min_sim'" in f.message for f in result.findings
    )
    # The default flag map / programmatic list reference real fields the
    # fixture dataclass lacks; those surface as stale entries.
    assert ("config/stale-entry", "src/repro/config.py", 1) in got
    assert not result.ok


def test_fixture_findings_are_errors():
    for fixture, rules, expected in EXACT_CASES:
        result = run_lint(FIXTURES / fixture, rules=rules)
        by_key = {(f.rule, f.path, f.line): f for f in result.findings}
        for key in expected:
            finding = by_key[key]
            if finding.rule in (
                "determinism/unkeyed-sort",
                "determinism/dict-keys-iteration",
            ):
                assert finding.severity is Severity.WARNING
            else:
                assert finding.severity is Severity.ERROR
            assert finding.message

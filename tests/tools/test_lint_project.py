"""Tests for the whole-program half of the linter: summary extraction,
call-graph construction, taint propagation, the SHA-256 summary cache,
and the interprocedural golden fixtures.

The ``proj_*`` directories under ``lint_fixtures/`` are multi-file
mini-projects (fixture-module directives fake their dotted paths);
``expected_project.json`` is the golden
``{dirname: [[rule, file, line], ...]}`` map.  Everything else builds
throwaway projects in ``tmp_path`` and drives :class:`LintEngine` or the
phase-1/2 APIs directly.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import LintEngine
from repro.lint import cache as lint_cache
from repro.lint.cache import SummaryCache, engine_fingerprint
from repro.lint.checker import FileContext
from repro.lint.project import summarize
from repro.lint.taint import analyze

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
EXPECTED_PROJECT = json.loads(
    (FIXTURES / "expected_project.json").read_text()
)


def _summarize_source(tmp_path, name, module, source):
    path = tmp_path / name
    path.write_text(source)
    ctx = FileContext.parse(path, name, module)
    return summarize(ctx)


# ----------------------------------------------------------------------
# Golden multi-file fixtures: the interprocedural rules fire where
# expected — and nowhere else (the negative halves live in the same
# directories).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dirname", sorted(EXPECTED_PROJECT), ids=lambda d: d)
def test_project_fixture_matches_golden(dirname):
    engine = LintEngine(root=FIXTURES)
    report = engine.run([FIXTURES / dirname])
    got = [
        [f.rule, f.path.rsplit("/", 1)[-1], f.line]
        for f in report.all_findings
    ]
    assert got == EXPECTED_PROJECT[dirname], (
        f"{dirname}: expected {EXPECTED_PROJECT[dirname]}, got {got}"
    )


def test_every_project_rule_has_a_firing_fixture():
    from repro.lint import PROJECT_RULES

    covered = {
        rule for rows in EXPECTED_PROJECT.values() for rule, _, _ in rows
    }
    assert covered == set(PROJECT_RULES)


def test_project_findings_honor_inline_suppressions(tmp_path):
    bad = (FIXTURES / "proj_par101" / "pool_like.py").read_text()
    bad = bad.replace(
        "    _SEEN.append(payload)\n\n\ndef parent_side_note",
        "    _SEEN.append(payload)  # repro-lint: ignore[PAR101]\n\n\n"
        "def parent_side_note",
    )
    (tmp_path / "pool_like.py").write_text(bad)
    engine = LintEngine(root=tmp_path)
    report = engine.run([tmp_path])
    assert report.all_findings == []
    assert report.suppressed == 1


def test_par101_negative_twin_is_reachable_from_a_worker_entry(tmp_path):
    # The clean twin passes only because it writes no global, not
    # because no entry point reaches it: one added write must fire.
    clean = (FIXTURES / "proj_par101" / "pool_clean.py").read_text()
    dirty = clean.replace(
        "    seen.append(payload)\n",
        "    seen.append(payload)\n    _LOG.append(payload)\n",
    ) + "\n\n_LOG = []\n"
    assert dirty != clean + "\n\n_LOG = []\n"
    (tmp_path / "pool_clean.py").write_text(dirty)
    report = LintEngine(root=tmp_path).run([tmp_path])
    assert [(f.rule, f.path.rsplit("/", 1)[-1]) for f in report.all_findings] == [
        ("PAR101", "pool_clean.py")
    ]


# ----------------------------------------------------------------------
# Call-graph construction
# ----------------------------------------------------------------------
def test_call_graph_resolves_imports_and_local_names(tmp_path):
    helper = _summarize_source(
        tmp_path,
        "helper.py",
        "fix.helper",
        "def leaf():\n"
        "    return 1\n"
        "\n"
        "def branch():\n"
        "    return leaf()\n",
    )
    main = _summarize_source(
        tmp_path,
        "main.py",
        "fix.main",
        "from fix.helper import branch\n"
        "\n"
        "def top():\n"
        "    return branch()\n",
    )
    analysis = analyze([helper, main])
    assert analysis.call_graph["fix.main.top"] == {"fix.helper.branch"}
    assert analysis.call_graph["fix.helper.branch"] == {"fix.helper.leaf"}
    assert analysis.callers["fix.helper.leaf"] == {"fix.helper.branch"}
    assert analysis.resolve_callee("fix.main.top", "json.dumps") is None


def test_call_graph_resolves_class_instantiation_to_init(tmp_path):
    mod = _summarize_source(
        tmp_path,
        "mod.py",
        "fix.mod",
        "class Gadget:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "\n"
        "def build():\n"
        "    return Gadget(3)\n",
    )
    analysis = analyze([mod])
    assert analysis.call_graph["fix.mod.build"] == {"fix.mod.Gadget.__init__"}


def test_reachability_attributes_functions_to_entries(tmp_path):
    mod = _summarize_source(
        tmp_path,
        "mod.py",
        "fix.mod",
        "def entry():\n"
        "    return a()\n"
        "\n"
        "def a():\n"
        "    return b()\n"
        "\n"
        "def b():\n"
        "    return 0\n"
        "\n"
        "def island():\n"
        "    return 0\n",
    )
    analysis = analyze([mod])
    reached = analysis.reachable_from(["fix.mod.entry"])
    assert set(reached) == {"fix.mod.entry", "fix.mod.a", "fix.mod.b"}
    assert all(entry == "fix.mod.entry" for entry in reached.values())


# ----------------------------------------------------------------------
# Taint propagation
# ----------------------------------------------------------------------
def test_seed_label_crosses_two_function_boundaries(tmp_path):
    mod = _summarize_source(
        tmp_path,
        "mod.py",
        "fix.mod",
        "from repro.experiments.runner import spawn_trial_seed\n"
        "\n"
        "def source(run_seed, key):\n"
        "    return spawn_trial_seed(run_seed, key)\n"
        "\n"
        "def middle(run_seed):\n"
        "    return source(run_seed, 'k')\n"
        "\n"
        "def consume(value):\n"
        "    return value\n"
        "\n"
        "def top(run_seed):\n"
        "    return consume(middle(run_seed))\n",
    )
    analysis = analyze([mod])
    assert "seed" in analysis.return_labels["fix.mod.source"]
    assert "seed" in analysis.return_labels["fix.mod.middle"]
    # The call argument's labels reached consume's parameter slot.
    assert "seed" in analysis.param_labels["fix.mod.consume"]["value"]


def test_clock_label_flows_through_helpers(tmp_path):
    mod = _summarize_source(
        tmp_path,
        "mod.py",
        "fix.mod",
        "from repro.experiments.runner import wall_clock\n"
        "\n"
        "def stamp():\n"
        "    return wall_clock()\n"
        "\n"
        "def wrap():\n"
        "    return {'t': stamp()}\n",
    )
    analysis = analyze([mod])
    assert analysis.return_labels["fix.mod.wrap"] == {"clock"}


def test_api_boundary_params_stay_optimistic(tmp_path):
    mod = _summarize_source(
        tmp_path,
        "mod.py",
        "repro.dsa.fake",
        "import numpy as np\n"
        "\n"
        "def public_entry(seed):\n"
        "    return np.random.default_rng(seed)\n",
    )
    analysis = analyze([mod])
    assert "api" in analysis.param_labels["repro.dsa.fake.public_entry"]["seed"]
    (key,) = [k for k in analysis.rng_blessed]
    assert analysis.rng_blessed[key] is True


def test_unseeded_rng_is_unblessed_everywhere(tmp_path):
    mod = _summarize_source(
        tmp_path,
        "mod.py",
        "repro.dsa.fake",
        "import numpy as np\n"
        "\n"
        "def public_entry():\n"
        "    return np.random.default_rng()\n",
    )
    analysis = analyze([mod])
    (key,) = [k for k in analysis.rng_blessed]
    assert analysis.rng_blessed[key] is False
    assert analysis.return_labels["repro.dsa.fake.public_entry"] == {
        "rng-unblessed"
    }


def test_resource_return_is_transitive(tmp_path):
    mod = _summarize_source(
        tmp_path,
        "mod.py",
        "fix.mod",
        "from multiprocessing.shared_memory import SharedMemory\n"
        "\n"
        "def make(size):\n"
        "    return SharedMemory(create=True, size=size)\n"
        "\n"
        "def make2(size):\n"
        "    return make(size)\n"
        "\n"
        "def make3(size):\n"
        "    return make2(size)\n",
    )
    analysis = analyze([mod])
    assert analysis.returns_resource["fix.mod.make"]
    assert analysis.returns_resource["fix.mod.make2"]
    assert analysis.returns_resource["fix.mod.make3"]


def test_import_graph_transitive_importers(tmp_path):
    base = _summarize_source(
        tmp_path, "base.py", "fix.base", "def f():\n    return 1\n"
    )
    mid = _summarize_source(
        tmp_path,
        "mid.py",
        "fix.mid",
        "from fix.base import f\n\ndef g():\n    return f()\n",
    )
    top = _summarize_source(
        tmp_path,
        "top.py",
        "fix.top",
        "from fix.mid import g\n\ndef h():\n    return g()\n",
    )
    other = _summarize_source(
        tmp_path, "other.py", "fix.other", "def k():\n    return 0\n"
    )
    analysis = analyze([base, mid, top, other])
    assert analysis.importers_of("fix.base") == {"fix.mid"}
    assert analysis.transitive_importers({"fix.base"}) == {
        "fix.base",
        "fix.mid",
        "fix.top",
    }
    assert analysis.transitive_importers({"fix.other"}) == {"fix.other"}


# ----------------------------------------------------------------------
# Summary cache: warm runs reuse summaries; an edit invalidates exactly
# the changed module plus its reverse importers.
# ----------------------------------------------------------------------
def _write_project(root):
    (root / "base.py").write_text(
        "# repro-lint-fixture-module: fix.base\n"
        "def f():\n"
        "    return 1\n"
    )
    (root / "mid.py").write_text(
        "# repro-lint-fixture-module: fix.mid\n"
        "from fix.base import f\n"
        "\n"
        "def g():\n"
        "    return f()\n"
    )
    (root / "top.py").write_text(
        "# repro-lint-fixture-module: fix.top\n"
        "from fix.mid import g\n"
        "\n"
        "def h():\n"
        "    return g()\n"
    )
    (root / "lone.py").write_text(
        "# repro-lint-fixture-module: fix.lone\n"
        "def k():\n"
        "    return 0\n"
    )


def test_warm_relint_reanalyzes_only_reverse_deps(tmp_path):
    _write_project(tmp_path)
    cache_path = tmp_path / ".cache.json"

    cold = LintEngine(root=tmp_path, cache_path=cache_path).run([tmp_path])
    assert cold.parsed == 4 and cold.cache_hits == 0
    assert set(cold.invalidated_modules) == {
        "fix.base",
        "fix.mid",
        "fix.top",
        "fix.lone",
    }

    warm = LintEngine(root=tmp_path, cache_path=cache_path).run([tmp_path])
    assert warm.parsed == 0 and warm.cache_hits == 4
    assert warm.invalidated_modules == []

    # Edit one file: only it is re-parsed; it and its transitive
    # reverse importers are re-verified by phase 2.
    base = tmp_path / "base.py"
    base.write_text(base.read_text() + "\n\ndef f2():\n    return 2\n")
    third = LintEngine(root=tmp_path, cache_path=cache_path).run([tmp_path])
    assert third.parsed == 1 and third.cache_hits == 3
    assert set(third.invalidated_modules) == {
        "fix.base",
        "fix.mid",
        "fix.top",
    }

    # Editing a leaf nobody imports invalidates only itself.
    lone = tmp_path / "lone.py"
    lone.write_text(lone.read_text() + "\n\ndef k2():\n    return 0\n")
    fourth = LintEngine(root=tmp_path, cache_path=cache_path).run([tmp_path])
    assert fourth.parsed == 1 and fourth.cache_hits == 3
    assert fourth.invalidated_modules == ["fix.lone"]


def test_cached_findings_and_suppressions_replay(tmp_path):
    (tmp_path / "dirty.py").write_text(
        "# repro-lint-fixture-module: repro.dsa.dirty\n"
        "import random\n"
        "\n"
        "def roll():\n"
        "    return random.random()\n"
        "\n"
        "def quiet():\n"
        "    return random.random()  # repro-lint: ignore[DET001]\n"
    )
    cache_path = tmp_path / ".cache.json"
    cold = LintEngine(root=tmp_path, cache_path=cache_path).run([tmp_path])
    warm = LintEngine(root=tmp_path, cache_path=cache_path).run([tmp_path])
    assert warm.cache_hits == 1
    assert [f.rule for f in warm.all_findings] == [
        f.rule for f in cold.all_findings
    ]
    assert warm.suppressed == cold.suppressed == 1


def test_cache_keyed_to_rule_selection(tmp_path):
    _write_project(tmp_path)
    cache_path = tmp_path / ".cache.json"
    LintEngine(root=tmp_path, cache_path=cache_path).run([tmp_path])
    # A different rule selection must not reuse the old entries.
    narrowed = LintEngine(
        root=tmp_path, cache_path=cache_path, select=["DET101"]
    ).run([tmp_path])
    assert narrowed.cache_hits == 0 and narrowed.parsed == 4


@pytest.mark.parametrize(
    "edited", ["rules/exc101_leak_paths.py", "project.py", "taint.py"]
)
def test_fingerprint_tracks_linter_source(tmp_path, monkeypatch, edited):
    """Same rule ids, edited linter source: a warm cache must not replay
    findings from before the edit."""
    package = tmp_path / "lint"
    shutil.copytree(
        Path(lint_cache.__file__).parent,
        package,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    monkeypatch.setattr(lint_cache, "_LINT_PACKAGE", package)
    rule_ids = ["EXC101", "PAR101"]
    before = engine_fingerprint(rule_ids)
    assert engine_fingerprint(rule_ids) == before
    source = package / edited
    source.write_text(source.read_text() + "\n# edited\n")
    assert engine_fingerprint(rule_ids) != before


def test_malformed_cache_is_discarded(tmp_path):
    cache_path = tmp_path / ".cache.json"
    cache_path.write_text("{not json")
    cache = SummaryCache.load(cache_path, engine_fingerprint(["DET101"]))
    assert cache.get("x.py", "0" * 64) is None


def test_summary_roundtrips_through_json(tmp_path):
    summary = _summarize_source(
        tmp_path,
        "mod.py",
        "fix.mod",
        "from repro.experiments.runner import wall_clock\n"
        "\n"
        "_CACHE = []\n"
        "\n"
        "def f(x):\n"
        "    def g():\n"
        "        _CACHE.append(x)\n"
        "    g()\n"
        "    return wall_clock()\n",
    )
    assert summary.functions["fix.mod.f"].nested == ["fix.mod.f.g"]
    from repro.lint.project import ModuleSummary

    clone = ModuleSummary.from_json(
        json.loads(json.dumps(summary.to_json()))
    )
    assert clone.to_json() == summary.to_json()

"""The REP lint rules: each fires on its target, noqa suppresses, and the
repo's own src/ tree stays clean."""

import os

import pytest

from repro.analysis.static import LINT_RULES, lint_file, lint_paths, lint_source, profile_for

pytestmark = pytest.mark.lint

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def codes(violations):
    return [v.code for v in violations]


class TestRep001Assert:
    def test_fires(self):
        found = lint_source("def _f(x):\n    assert x > 0\n", "m.py")
        assert "REP001" in codes(found)

    def test_line_number(self):
        found = lint_source("x = 1\nassert x\n", "m.py")
        (v,) = [v for v in found if v.code == "REP001"]
        assert v.line == 2


class TestRep002Random:
    def test_module_level_call_fires(self):
        src = "import random\ndef _f():\n    return random.random()\n"
        assert "REP002" in codes(lint_source(src, "m.py"))

    def test_numpy_alias_resolved(self):
        src = "import numpy as np\ndef _f():\n    return np.random.rand(3)\n"
        found = lint_source(src, "m.py")
        assert "REP002" in codes(found)
        assert "numpy.random.rand" in found[0].message

    def test_from_import_resolved(self):
        src = (
            "from numpy.random import default_rng\n"
            "def _f():\n    return default_rng()\n"
        )
        assert "REP002" in codes(lint_source(src, "m.py"))

    def test_seeded_default_rng_ok(self):
        src = (
            "from numpy.random import default_rng\n"
            "def _f(seed):\n    return default_rng(seed)\n"
        )
        assert lint_source(src, "m.py") == []

    def test_seeded_random_class_ok(self):
        src = "import random\ndef _f():\n    return random.Random(42)\n"
        assert lint_source(src, "m.py") == []

    def test_unseeded_random_class_fires(self):
        src = "import random\ndef _f():\n    return random.Random()\n"
        assert "REP002" in codes(lint_source(src, "m.py"))

    def test_generator_method_not_flagged(self):
        # rng.random() is a method on an object, not module state.
        src = (
            "from numpy.random import default_rng\n"
            "def _f():\n    rng = default_rng(0)\n    return rng.random()\n"
        )
        assert lint_source(src, "m.py") == []


class TestRep003BareExcept:
    def test_fires(self):
        src = "def _f():\n    try:\n        pass\n    except:\n        pass\n"
        assert "REP003" in codes(lint_source(src, "m.py"))

    def test_typed_except_ok(self):
        src = (
            "def _f():\n    try:\n        pass\n"
            "    except ValueError:\n        pass\n"
        )
        assert lint_source(src, "m.py") == []


class TestRep004Print:
    def test_fires_in_library_module(self):
        src = "def _f():\n    print('hi')\n"
        assert "REP004" in codes(lint_source(src, "engine.py"))

    def test_cli_exempt(self):
        src = "def _f():\n    print('hi')\n"
        assert lint_source(src, "src/repro/cli.py") == []

    def test_viz_dir_exempt(self):
        src = "def _f():\n    print('hi')\n"
        assert lint_source(src, "src/repro/viz/ascii_art.py") == []


class TestRep005MissingAll:
    def test_fires_on_public_module(self):
        assert "REP005" in codes(lint_source("def api():\n    pass\n", "m.py"))

    def test_all_declared_ok(self):
        src = "__all__ = ['api']\ndef api():\n    pass\n"
        assert lint_source(src, "m.py") == []

    def test_private_module_exempt(self):
        assert lint_source("def api():\n    pass\n", "_private.py") == []

    def test_init_not_exempt(self):
        found = lint_source("def api():\n    pass\n", "__init__.py")
        assert "REP005" in codes(found)

    def test_private_defs_only_ok(self):
        assert lint_source("def _helper():\n    pass\n", "m.py") == []


class TestNoqa:
    def test_bare_noqa_suppresses(self):
        src = "def _f(x):\n    assert x  # noqa\n"
        assert lint_source(src, "m.py") == []

    def test_coded_noqa_suppresses_matching(self):
        src = "def _f(x):\n    assert x  # noqa: REP001\n"
        assert lint_source(src, "m.py") == []

    def test_coded_noqa_keeps_other_rules(self):
        src = "def _f(x):\n    assert x  # noqa: REP004\n"
        assert "REP001" in codes(lint_source(src, "m.py"))


class TestPaths:
    def test_lint_file_and_paths(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("assert True\n")
        assert codes(lint_file(str(bad))) == ["REP001"]
        assert codes(lint_paths([str(tmp_path)])) == ["REP001"]

    def test_skip_dirs(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("assert True\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_x.py").write_text("assert True\n")
        assert lint_paths([str(tmp_path)]) == []

    def test_rules_documented(self):
        assert set(LINT_RULES) == {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007",
        }
        assert all(desc for desc in LINT_RULES.values())


class TestRepoIsClean:
    def test_src_tree_passes(self):
        found = lint_paths([SRC])
        assert found == [], "\n".join(str(v) for v in found)


MARK = "# repro: columnar-hot-path\n"


class TestRep006PerRankLoop:
    def test_rank_loop_fires_in_marked_file(self):
        src = MARK + "def _f(num_nodes):\n    for u in range(num_nodes):\n        pass\n"
        found = lint_source(src, "m.py")
        assert "REP006" in codes(found)
        (v,) = [v for v in found if v.code == "REP006"]
        assert "num_nodes" in v.message

    def test_comprehension_over_nodes_fires(self):
        src = MARK + "def _f(topo):\n    return [u for u in topo.nodes()]\n"
        assert "REP006" in codes(lint_source(src, "m.py"))

    def test_arange_iteration_fires(self):
        src = (
            MARK
            + "import numpy as np\n"
            + "def _f(n):\n    for u in np.arange(n):\n        pass\n"
        )
        assert "REP006" in codes(lint_source(src, "m.py"))

    def test_round_and_schedule_loops_pass(self):
        src = (
            MARK
            + "def _f(m, schedule, b):\n"
            + "    for i in range(m):\n        pass\n"
            + "    for k, step in enumerate(schedule):\n        pass\n"
            + "    for k in range(1, b):\n        pass\n"
        )
        assert "REP006" not in codes(lint_source(src, "m.py"))

    def test_unmarked_file_is_exempt(self):
        src = "def _f(num_nodes):\n    for u in range(num_nodes):\n        pass\n"
        assert "REP006" not in codes(lint_source(src, "m.py"))

    def test_noqa_suppresses(self):
        src = (
            MARK
            + "def _f(num_nodes):\n"
            + "    for u in range(num_nodes):  # noqa: REP006\n        pass\n"
        )
        assert "REP006" not in codes(lint_source(src, "m.py"))

    def test_rule_is_documented(self):
        assert "REP006" in LINT_RULES

    def test_marked_repo_files_stay_clean(self):
        # The view-kernel module carries the marker; the rule must hold
        # on it, not only on synthetic snippets.
        path = os.path.join(SRC, "repro", "core", "replay.py")
        with open(path, encoding="utf-8") as fh:
            assert "# repro: columnar-hot-path" in fh.read()
        assert lint_file(path) == []


class TestRep007BackendCompare:
    def test_name_eq_fires(self):
        src = "def _f(backend):\n    if backend == 'engine':\n        pass\n"
        found = lint_source(src, "m.py")
        assert "REP007" in codes(found)
        (v,) = [v for v in found if v.code == "REP007"]
        assert "'engine'" in v.message
        assert "resolve_backend" in v.message

    def test_attribute_eq_fires(self):
        src = "def _f(args):\n    if args.backend == 'columnar':\n        pass\n"
        assert "REP007" in codes(lint_source(src, "m.py"))

    def test_not_eq_fires(self):
        src = "def _f(backend):\n    if backend != 'vectorized':\n        pass\n"
        assert "REP007" in codes(lint_source(src, "m.py"))

    def test_reversed_operands_fire(self):
        src = "def _f(backend):\n    if 'engine' == backend:\n        pass\n"
        assert "REP007" in codes(lint_source(src, "m.py"))

    def test_membership_test_is_the_sanctioned_idiom(self):
        src = (
            "def _f(backend):\n"
            "    if backend in ('columnar', 'replay'):\n        pass\n"
        )
        assert "REP007" not in codes(lint_source(src, "m.py"))

    def test_other_names_not_flagged(self):
        src = "def _f(mode):\n    if mode == 'engine':\n        pass\n"
        assert "REP007" not in codes(lint_source(src, "m.py"))

    def test_non_string_compare_not_flagged(self):
        src = "def _f(backend):\n    if backend == 3:\n        pass\n"
        assert "REP007" not in codes(lint_source(src, "m.py"))

    def test_registry_module_exempt(self):
        src = "def _f(backend):\n    if backend == 'engine':\n        pass\n"
        assert lint_source(src, "src/repro/core/backends.py") == []
        # Only the registry module itself, not everything under core/.
        assert "REP007" in codes(
            lint_source(src, "src/repro/core/dual_prefix.py")
        )

    def test_noqa_suppresses(self):
        src = (
            "def _f(backend):\n"
            "    if backend == 'engine':  # noqa: REP007\n        pass\n"
        )
        assert "REP007" not in codes(lint_source(src, "m.py"))

    def test_rule_is_documented(self):
        assert "REP007" in LINT_RULES


class TestRuleProfiles:
    def test_profile_for_paths(self):
        assert profile_for("src/repro/cli.py") == "src"
        assert profile_for("tests/analysis/test_x.py") == "tests"
        assert profile_for("benchmarks/test_e1.py") == "benchmarks"
        # The profile comes from a directory segment, not the filename.
        assert profile_for("src/repro/tests.py") == "src"
        assert profile_for("somewhere/else/mod.py") == "src"

    def test_assert_allowed_under_tests(self):
        src = '"""Doc."""\n\n\ndef f():\n    assert True\n'
        assert lint_source(src, "tests/test_mod.py") == []
        codes = {v.code for v in lint_source(src, "src/mod.py")}
        assert "REP001" in codes

    def test_print_allowed_in_benchmarks_not_tests(self):
        src = '"""Doc."""\n\n__all__ = []\n\nprint("x")\n'
        assert lint_source(src, "benchmarks/test_e0.py") == []
        codes = {v.code for v in lint_source(src, "tests/test_mod.py")}
        assert "REP004" in codes

    def test_explicit_disabled_overrides_profile(self):
        src = '"""Doc."""\n\n\ndef f():\n    assert True\n'
        assert lint_source(src, "src/mod.py", disabled=frozenset({"REP001", "REP005"})) == []
        # And an empty disabled set re-enables everything under tests/.
        codes = {
            v.code
            for v in lint_source(src, "tests/test_mod.py", disabled=frozenset())
        }
        assert "REP001" in codes

    def test_rep002_still_fires_in_tests_profile(self):
        src = (
            '"""Doc."""\n\nimport random\n\n\n'
            "def f():\n    return random.random()\n"
        )
        codes = {v.code for v in lint_source(src, "tests/test_mod.py")}
        assert "REP002" in codes

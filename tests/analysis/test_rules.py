"""Per-rule fixtures: one violating and one clean file for R1–R5."""

import textwrap

from repro.analysis import lint_paths


def run_lint(tmp_path, files, **kwargs):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return lint_paths([tmp_path], **kwargs)


def rules_found(result):
    return sorted({f.rule for f in result.findings})


class TestR1RandomSource:
    def test_violating_default_rng(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/bad.py": """
                import numpy as np

                rng = np.random.default_rng(0)
                """
            },
        )
        assert rules_found(result) == ["R1"]
        # The np.random.default_rng chain yields exactly one finding,
        # not one per nested Attribute node.
        assert len(result.findings) == 1
        assert "np.random.default_rng" in result.findings[0].message

    def test_violating_random_import(self, tmp_path):
        result = run_lint(tmp_path, {"lsh/bad.py": "import random\n"})
        assert rules_found(result) == ["R1"]

    def test_violating_from_import(self, tmp_path):
        result = run_lint(
            tmp_path, {"datasets/bad.py": "from numpy.random import default_rng\n"}
        )
        assert rules_found(result) == ["R1"]

    def test_clean_via_rngutil(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/good.py": """
                from repro.rngutil import SeedLike, make_rng

                def sample(seed: SeedLike = None) -> float:
                    return float(make_rng(seed).random())
                """
            },
        )
        assert result.findings == []

    def test_rngutil_itself_is_exempt(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "rngutil.py": """
                import numpy as np

                def make_rng(seed: int) -> np.random.Generator:
                    return np.random.default_rng(seed)
                """
            },
        )
        assert result.findings == []


class TestR2WallClock:
    def test_violating_perf_counter_call(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "lsh/bad.py": """
                import time

                def f() -> float:
                    return time.perf_counter()
                """
            },
        )
        assert rules_found(result) == ["R2"]

    def test_violating_from_time_import(self, tmp_path):
        result = run_lint(
            tmp_path, {"structures/bad.py": "from time import perf_counter\n"}
        )
        assert rules_found(result) == ["R2"]

    def test_clean_via_obs_clock(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/good.py": """
                from repro.obs.clock import monotonic

                def f() -> float:
                    return monotonic()
                """
            },
        )
        assert result.findings == []

    def test_out_of_scope_package_is_clean(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "datasets/timing.py": """
                import time

                def f() -> float:
                    return time.perf_counter()
                """
            },
        )
        assert "R2" not in rules_found(result)


class TestR3ErrorTaxonomy:
    def test_violating_value_error(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/bad.py": """
                def f(k: int) -> int:
                    if k < 1:
                        raise ValueError("k must be positive")
                    return k
                """
            },
        )
        assert rules_found(result) == ["R3"]

    def test_violating_runtime_error(self, tmp_path):
        result = run_lint(
            tmp_path, {"lsh/bad.py": "def f() -> None:\n    raise RuntimeError\n"}
        )
        assert rules_found(result) == ["R3"]

    def test_clean_repro_error(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/good.py": """
                from repro.errors import ConfigurationError

                def f(k: int) -> int:
                    if k < 1:
                        raise ConfigurationError("k must be positive")
                    return k
                """
            },
        )
        assert result.findings == []

    def test_out_of_scope_package_is_clean(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"structures/bad.py": "def f() -> None:\n    raise ValueError('x')\n"},
        )
        assert "R3" not in rules_found(result)


class TestR4Annotations:
    def test_violating_unannotated_params_and_return(self, tmp_path):
        result = run_lint(
            tmp_path, {"lsh/bad.py": "def hash_all(rids, start):\n    return rids\n"}
        )
        assert rules_found(result) == ["R4"]
        messages = [f.message for f in result.findings]
        assert any("rids, start" in m for m in messages)
        assert any("no return annotation" in m for m in messages)

    def test_method_self_is_exempt(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "obs/good.py": """
                class Thing:
                    def get(self, name: str) -> str:
                        return name
                """
            },
        )
        assert result.findings == []

    def test_private_function_is_exempt(self, tmp_path):
        result = run_lint(
            tmp_path, {"eval/good.py": "def _helper(x):\n    return x\n"}
        )
        assert result.findings == []

    def test_out_of_scope_package_is_clean(self, tmp_path):
        result = run_lint(
            tmp_path, {"datasets/loose.py": "def load(path):\n    return path\n"}
        )
        assert "R4" not in rules_found(result)


class TestR5MutableDefaults:
    def test_violating_list_default(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"util.py": "def collect(out=[]):\n    return out\n"},
        )
        assert rules_found(result) == ["R5"]

    def test_violating_dict_call_and_kwonly(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"util.py": "def collect(a=dict(), *, b={}):\n    return a, b\n"},
        )
        assert [f.rule for f in result.findings] == ["R5", "R5"]

    def test_clean_none_default(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "util.py": """
                def collect(out: list | None = None) -> list:
                    return [] if out is None else out
                """
            },
        )
        assert result.findings == []

    def test_applies_everywhere(self, tmp_path):
        # Unlike R1-R4, R5 has no package scoping.
        result = run_lint(
            tmp_path, {"datasets/bad.py": "def f(x=set()):\n    return x\n"}
        )
        assert rules_found(result) == ["R5"]


class TestR6InfoKeySchema:
    def test_violating_subscript_write(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "serve/bad.py": """
                def stamp(result):
                    result.info["secret_stuff"] = 1
                """
            },
        )
        assert rules_found(result) == ["R6"]
        assert "secret_stuff" in result.findings[0].message

    def test_violating_dict_literal_assignment(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/bad.py": """
                def build() -> dict:
                    info = {"method": "x", "mystery": 2}
                    return info
                """
            },
        )
        assert rules_found(result) == ["R6"]
        assert "mystery" in result.findings[0].message

    def test_violating_filterresult_call_keyword(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "baselines/bad.py": """
                def run(FilterResult, clusters):
                    return FilterResult.from_clusters(
                        clusters, info={"undocumented_counter": 3}
                    )
                """
            },
        )
        assert rules_found(result) == ["R6"]

    def test_clean_documented_keys(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "serve/good.py": """
                def stamp(result, stats):
                    result.info["serving"] = stats
                    info = {"method": "adaLSH", "bin_index": stats}
                    return info
                """
            },
        )
        assert "R6" not in rules_found(result)

    def test_out_of_scope_package_is_clean(self, tmp_path):
        # er/, datasets/, eval/ build their own info dicts with their
        # own schemas — R6 only polices the FilterResult packages.
        result = run_lint(
            tmp_path,
            {
                "er/loose.py": """
                def build():
                    info = {"er_pairs": 10}
                    return info
                """
            },
        )
        assert "R6" not in rules_found(result)

    def test_dynamic_keys_are_not_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {
                "core/dyn.py": """
                def stamp(result, key):
                    result.info[key] = 1
                """
            },
        )
        assert "R6" not in rules_found(result)

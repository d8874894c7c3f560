"""Tests for the AST invariant analyzer (``python -m repro lint``).

Each rule gets must-flag and must-pass fixture snippets laid out in a
temporary project tree mirroring the real checkout (the rules are
path-conditioned, so fixture files live at the same relative paths the
contracts apply to).  On top of the per-rule cases: waiver-comment
handling, baseline round-trips, stale-entry detection, CLI exit codes
(0 clean / 1 findings / 2 usage) and a self-check that the real
repository is clean — the same invocation CI gates on.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    load_project,
    run_analysis,
    write_baseline,
)
from repro.analysis.project import parse_waiver_tags
from repro.analysis.rules import ALL_RULES
from repro.cli import main
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parents[1]

MINIMAL = {"src/repro/placeholder.py": "X = 1\n"}


def make_project(tmp_path, files):
    """Write ``files`` (relpath -> source) under a tmp project root."""
    merged = dict(MINIMAL)
    merged.update(files)
    for relpath, text in merged.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def run(tmp_path, files, **kwargs):
    return run_analysis(make_project(tmp_path, files), **kwargs)


def rules_of(report):
    return sorted({f.rule for f in report.findings})


# ----- CSD001 decode-discipline ----------------------------------------


class TestDecodeDiscipline:
    def test_flags_decode_on_direct_path(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(column, x):\n"
                    "    return column.decode(x)\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert rules_of(report) == ["CSD001"]
        assert report.findings[0].line == 2

    def test_flags_codec_decompress_in_server(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/core/server.py": (
                    "def f(codec, cc):\n"
                    "    return codec.decompress(cc)\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert rules_of(report) == ["CSD001"]

    def test_cache_receiver_is_sanctioned(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/core/server.py": (
                    "def f(self, codec, cc):\n"
                    "    return self.cache.decompress(codec, cc)\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert report.clean

    def test_waiver_comment_silences(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(column, x):\n"
                    "    return column.decode(x)"
                    "  # lint: force-decode (one value per window)\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert report.clean
        assert len(report.waived) == 1

    def test_flags_full_column_decode_all(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(col):\n    return col.decode_all()\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert rules_of(report) == ["CSD001"]
        assert report.findings[0].line == 2

    def test_outside_direct_path_not_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/stream/foo.py": (
                    "def f(column, x):\n"
                    "    return column.decode(x)\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert report.clean


# ----- CSD002 scalar-parity --------------------------------------------

GOOD_KERNELS = '''\
import scalar_ref


def using_scalar_reference():
    return False


def rle_runs(values):
    if using_scalar_reference():
        return scalar_ref.rle_runs(values)
    return values
'''

GOOD_SCALAR = "def rle_runs(values):\n    return values\n"
GOOD_TESTS = (
    "from repro.compression import kernels, scalar_ref\n\n\n"
    "def test_pair():\n"
    "    assert kernels.rle_runs([]) == scalar_ref.rle_runs([])\n"
)


def scalar_parity_project(
    kernels=GOOD_KERNELS, scalar=GOOD_SCALAR, tests=GOOD_TESTS
):
    return {
        "src/repro/compression/kernels.py": kernels,
        "src/repro/compression/scalar_ref.py": scalar,
        "tests/test_vectorized_kernels.py": tests,
    }


class TestScalarParity:
    def test_clean_pair_passes(self, tmp_path):
        report = run(tmp_path, scalar_parity_project(), rule_ids=["CSD002"])
        assert report.clean

    def test_missing_dispatch_flagged(self, tmp_path):
        kernels = GOOD_KERNELS + "\n\ndef lonely(values):\n    return values\n"
        report = run(
            tmp_path, scalar_parity_project(kernels=kernels),
            rule_ids=["CSD002"],
        )
        assert rules_of(report) == ["CSD002"]
        assert "no" in report.findings[0].message
        assert "lonely" in report.findings[0].message

    def test_dispatch_to_missing_oracle_flagged(self, tmp_path):
        kernels = GOOD_KERNELS.replace(
            "scalar_ref.rle_runs", "scalar_ref.gone"
        )
        report = run(
            tmp_path, scalar_parity_project(kernels=kernels),
            rule_ids=["CSD002"],
        )
        assert rules_of(report) == ["CSD002"]
        assert "does not exist" in report.findings[0].message

    def test_pair_missing_from_tests_flagged(self, tmp_path):
        report = run(
            tmp_path,
            scalar_parity_project(tests="def test_nothing():\n    pass\n"),
            rule_ids=["CSD002"],
        )
        assert rules_of(report) == ["CSD002"]
        assert "not exercised" in report.findings[0].message

    def test_waiver_on_def_line_above(self, tmp_path):
        kernels = GOOD_KERNELS + (
            "\n\n# lint: scalar-parity (helper shared by both modes)\n"
            "def helper(values):\n    return values\n"
        )
        report = run(
            tmp_path, scalar_parity_project(kernels=kernels),
            rule_ids=["CSD002"],
        )
        assert report.clean
        assert len(report.waived) == 1


# ----- CSD003 determinism ----------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n\nT = time.time()\n",
            "import time as t\n\nT = t.time_ns()\n",
            "from datetime import datetime\n\nT = datetime.now()\n",
            "import datetime\n\nT = datetime.datetime.utcnow()\n",
            "import random\n\nX = random.random()\n",
            "from random import randint\n",
            "import numpy as np\n\nR = np.random.default_rng()\n",
            "import numpy as np\n\nnp.random.seed(0)\n",
            "import numpy\n\nX = numpy.random.randint(3)\n",
        ],
    )
    def test_flags(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/core/foo.py": snippet},
            rule_ids=["CSD003"],
        )
        assert rules_of(report) == ["CSD003"], snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n\nT = time.perf_counter()\n",
            "import numpy as np\n\nR = np.random.default_rng(42)\n",
            "import numpy as np\n\nR = np.random.default_rng(seed=7)\n",
            "def f(rng):\n    return rng.integers(0, 10)\n",
        ],
    )
    def test_passes(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/core/foo.py": snippet},
            rule_ids=["CSD003"],
        )
        assert report.clean, snippet

    def test_allowlisted_files_exempt(self, tmp_path):
        files = {
            "src/repro/cli.py": "import time\n\nT = time.time()\n",
            "src/repro/bench/runner.py": (
                "import datetime\n\nT = datetime.datetime.now()\n"
            ),
        }
        report = run(tmp_path, files, rule_ids=["CSD003"])
        assert report.clean

    def test_tests_out_of_scope(self, tmp_path):
        report = run(
            tmp_path,
            {"tests/test_foo.py": "import time\n\nT = time.time()\n"},
            rule_ids=["CSD003"],
        )
        assert report.clean


# ----- CSD004 exception-taxonomy ---------------------------------------

ERRORS_MODULE = '''\
class ReproError(Exception):
    pass


class CodecError(ReproError):
    pass


class CodecNotApplicable(CodecError):
    pass
'''


class TestExceptionTaxonomy:
    def test_wire_raising_valueerror_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/wire/fmt.py": (
                    "def f():\n    raise ValueError('nope')\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert rules_of(report) == ["CSD004"]
        assert "ValueError" in report.findings[0].message

    def test_wire_subclass_allowed(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/wire/fmt.py": (
                    "class WireFormatError(Exception):\n    pass\n\n\n"
                    "class FrameError(WireFormatError):\n    pass\n\n\n"
                    "def f():\n    raise FrameError('bad frame')\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert report.clean

    def test_compression_taxonomy_via_errors_module(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/errors.py": ERRORS_MODULE,
                "src/repro/compression/codec.py": (
                    "def f():\n    raise CodecNotApplicable('negatives')\n"
                ),
            },
            rule_ids=["CSD004"],
        )
        assert report.clean

    def test_compression_raising_outside_taxonomy_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/errors.py": ERRORS_MODULE,
                "src/repro/compression/codec.py": (
                    "def f():\n    raise RuntimeError('oops')\n"
                ),
            },
            rule_ids=["CSD004"],
        )
        assert rules_of(report) == ["CSD004"]

    def test_reraise_variable_allowed(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/wire/fmt.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except KeyError as exc:\n"
                    "        raise exc\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert report.clean

    def test_bare_except_flagged_anywhere(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/stream/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except:\n"
                    "        raise\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert rules_of(report) == ["CSD004"]
        assert "bare" in report.findings[0].message

    def test_swallowed_exception_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "benchmarks/helper.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except Exception:\n"
                    "        pass\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert rules_of(report) == ["CSD004"]
        assert "swallows" in report.findings[0].message

    def test_handled_broad_except_allowed(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/oracle/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        return g()\n"
                    "    except Exception:\n"
                    "        return None\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert report.clean

    def test_waiver_silences_swallow(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/oracle/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except Exception:"
                    "  # lint: broad-except (best effort)\n"
                    "        pass\n"
                )
            },
            rule_ids=["CSD004"],
        )
        assert report.clean
        assert len(report.waived) == 1


# ----- CSD005 virtual-time ---------------------------------------------


class TestVirtualTime:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n",
            "import datetime\n",
            "from time import sleep\n",
            "from datetime import datetime\n",
        ],
    )
    def test_flags_wall_clock_imports(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/net/chan.py": snippet},
            rule_ids=["CSD005"],
        )
        assert rules_of(report) == ["CSD005"], snippet

    def test_math_import_fine(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/net/chan.py": "import math\nimport struct\n"},
            rule_ids=["CSD005"],
        )
        assert report.clean

    def test_time_outside_net_is_not_this_rules_business(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/core/foo.py": "import time\n"},
            rule_ids=["CSD005"],
        )
        assert report.clean


# ----- CSD006 bench-registration ---------------------------------------

GOOD_BENCH = '''\
from repro.bench import register


def run_bench():
    return 1


SPEC = register(name="demo", suite="paper", fn=run_bench)
'''


class TestBenchRegistration:
    def test_registered_script_passes(self, tmp_path):
        report = run(
            tmp_path,
            {"benchmarks/bench_demo.py": GOOD_BENCH},
            rule_ids=["CSD006"],
        )
        assert report.clean

    def test_missing_spec_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {"benchmarks/bench_demo.py": "def run_bench():\n    return 1\n"},
            rule_ids=["CSD006"],
        )
        assert rules_of(report) == ["CSD006"]
        assert "SPEC" in report.findings[0].message

    def test_spec_not_a_register_call_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {"benchmarks/bench_demo.py": "SPEC = 3\n"},
            rule_ids=["CSD006"],
        )
        assert rules_of(report) == ["CSD006"]

    def test_spec_missing_suite_keyword_flagged(self, tmp_path):
        bench = GOOD_BENCH.replace(', suite="paper"', "")
        report = run(
            tmp_path,
            {"benchmarks/bench_demo.py": bench},
            rule_ids=["CSD006"],
        )
        assert rules_of(report) == ["CSD006"]
        assert "suite" in report.findings[0].message

    def test_non_bench_files_ignored(self, tmp_path):
        report = run(
            tmp_path,
            {"benchmarks/common.py": "HELPER = True\n"},
            rule_ids=["CSD006"],
        )
        assert report.clean


# ----- CSD007 supervised-recovery ---------------------------------------


class TestSupervision:
    @pytest.mark.parametrize(
        "handler",
        [
            "except ReproError:",
            "except CodecError as exc:",
            "except WireFormatError:",
            "except Exception:",
            "except (ValueError, TransportError):",
            "except:",
        ],
    )
    def test_flags_engine_handlers_in_serve(self, tmp_path, handler):
        report = run(
            tmp_path,
            {
                "src/repro/serve/session.py": (
                    "def f(session):\n"
                    "    try:\n"
                    "        session.step()\n"
                    f"    {handler}\n"
                    "        return None\n"
                )
            },
            rule_ids=["CSD007"],
        )
        assert rules_of(report) == ["CSD007"], handler

    def test_supervised_waiver_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/supervisor.py": (
                    "def f(runner):\n"
                    "    try:\n"
                    "        return runner.step()\n"
                    "    except ReproError as exc:  "
                    "# lint: supervised the one recovery point\n"
                    "        return contain(runner, exc)\n"
                )
            },
            rule_ids=["CSD007"],
        )
        assert report.clean

    def test_serve_error_handler_is_fine(self, tmp_path):
        # ServeError marks serving-layer misuse, not an engine fault
        report = run(
            tmp_path,
            {
                "src/repro/serve/admission.py": (
                    "def f(x):\n"
                    "    try:\n"
                    "        return parse(x)\n"
                    "    except (ServeError, KeyError):\n"
                    "        return None\n"
                )
            },
            rule_ids=["CSD007"],
        )
        assert report.clean

    @pytest.mark.parametrize(
        "snippet", ["import time\n", "from datetime import datetime\n"]
    )
    def test_flags_wall_clock_imports(self, tmp_path, snippet):
        """The serving layer's wall-clock import ban is CSD005's."""
        report = run(
            tmp_path,
            {"src/repro/serve/clock.py": snippet},
            rule_ids=["CSD005", "CSD007"],
        )
        assert rules_of(report) == ["CSD005"], snippet

    def test_handlers_outside_serve_not_this_rules_business(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/core/foo.py": (
                    "def f():\n"
                    "    try:\n"
                    "        return g()\n"
                    "    except Exception:\n"
                    "        raise\n"
                )
            },
            rule_ids=["CSD007"],
        )
        assert report.clean


# ----- CSD008 optimizer-purity ------------------------------------------

PURE_RULES = '''\
class RewriteRule:
    def apply(self, root, ctx):
        return root, None


class PruneRule(RewriteRule):
    def rewrite(self, root, ctx):
        return root


class FuseRule(RewriteRule):
    def rewrite(self, root, ctx):
        return root


RULES = (PruneRule(), FuseRule())
'''


class TestOptimizerPurity:
    def test_pure_rules_module_is_clean(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/optimizer/rules.py": PURE_RULES},
            rule_ids=["CSD008"],
        )
        assert report.clean

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n",
            "import datetime\n",
            "import random\n",
            "from time import perf_counter\n",
            "from random import shuffle\n",
        ],
    )
    def test_flags_wall_clock_and_entropy_imports(self, tmp_path, snippet):
        report = run(
            tmp_path,
            {"src/repro/optimizer/cost.py": snippet},
            rule_ids=["CSD008"],
        )
        assert rules_of(report) == ["CSD008"], snippet

    @pytest.mark.parametrize(
        "call",
        ["decompress", "decode", "decode_codes", "decode_all", "force_decompress"],
    )
    def test_flags_decode_calls_at_plan_time(self, tmp_path, call):
        report = run(
            tmp_path,
            {
                "src/repro/optimizer/rules.py": (
                    f"def rewrite(col):\n    return col.{call}()\n"
                )
            },
            rule_ids=["CSD008"],
        )
        assert rules_of(report) == ["CSD008"], call

    def test_flags_unregistered_rule_subclass(self, tmp_path):
        source = PURE_RULES + (
            "\n\nclass SneakyRule(RewriteRule):\n"
            "    def rewrite(self, root, ctx):\n"
            "        return root\n"
        )
        report = run(
            tmp_path,
            {"src/repro/optimizer/rules.py": source},
            rule_ids=["CSD008"],
        )
        assert rules_of(report) == ["CSD008"]
        assert "SneakyRule" in report.findings[0].message

    def test_flags_subclasses_with_no_rules_table(self, tmp_path):
        source = (
            "class RewriteRule:\n    pass\n\n"
            "class LoneRule(RewriteRule):\n    pass\n"
        )
        report = run(
            tmp_path,
            {"src/repro/optimizer/rules.py": source},
            rule_ids=["CSD008"],
        )
        assert rules_of(report) == ["CSD008"]
        assert "no static RULES table" in report.findings[0].message

    def test_flags_computed_rules_table(self, tmp_path):
        source = (
            "class RewriteRule:\n    pass\n\n"
            "class PruneRule(RewriteRule):\n    pass\n\n"
            "RULES = tuple([PruneRule()])\n"
        )
        report = run(
            tmp_path,
            {"src/repro/optimizer/rules.py": source},
            rule_ids=["CSD008"],
        )
        assert "CSD008" in rules_of(report)
        assert any(
            "tuple literal" in f.message for f in report.findings
        )

    def test_flags_non_literal_table_entry(self, tmp_path):
        source = (
            "class RewriteRule:\n    pass\n\n"
            "class PruneRule(RewriteRule):\n    pass\n\n"
            "_instance = PruneRule()\n"
            "RULES = (_instance,)\n"
        )
        report = run(
            tmp_path,
            {"src/repro/optimizer/rules.py": source},
            rule_ids=["CSD008"],
        )
        assert "CSD008" in rules_of(report)

    def test_decode_elsewhere_is_not_this_rules_business(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/stream/feed.py": (
                    "def f(col):\n    return col.decode()\n"
                )
            },
            rule_ids=["CSD008"],
        )
        assert report.clean


# ----- waiver parsing ---------------------------------------------------


class TestWaiverParsing:
    def test_single_tag(self):
        assert parse_waiver_tags("# lint: force-decode") == {"force-decode"}

    def test_tags_with_justification(self):
        tags = parse_waiver_tags(
            "# lint: broad-except, force-decode — shrink must not crash"
        )
        assert tags == {"broad-except", "force-decode"}

    def test_disable_tag(self):
        assert parse_waiver_tags("# lint: disable=CSD003") == {
            "disable=CSD003"
        }

    def test_not_a_waiver(self):
        assert parse_waiver_tags("# regular comment") == set()

    def test_disable_silences_rule(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(c, x):\n"
                    "    return c.decode(x)  # lint: disable=CSD001\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert report.clean

    def test_unrelated_tag_does_not_silence(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/foo.py": (
                    "def f(c, x):\n"
                    "    return c.decode(x)  # lint: broad-except\n"
                )
            },
            rule_ids=["CSD001"],
        )
        assert not report.clean


# ----- baseline ---------------------------------------------------------

VIOLATION = {
    "src/repro/operators/foo.py": (
        "def f(column, x):\n    return column.decode(x)\n"
    )
}


class TestBaseline:
    def test_round_trip(self, tmp_path):
        root = make_project(tmp_path, VIOLATION)
        report = run_analysis(root, rule_ids=["CSD001"])
        assert len(report.findings) == 1
        baseline = tmp_path / "lint-baseline.json"
        write_baseline(baseline, report.findings)
        again = run_analysis(root, rule_ids=["CSD001"])
        assert again.clean
        assert len(again.baselined) == 1

    def test_baseline_is_line_insensitive(self, tmp_path):
        root = make_project(tmp_path, VIOLATION)
        write_baseline(
            tmp_path / "lint-baseline.json",
            run_analysis(root, rule_ids=["CSD001"]).findings,
        )
        path = root / "src/repro/operators/foo.py"
        path.write_text("import numpy as np\n\n\n" + path.read_text())
        report = run_analysis(root, rule_ids=["CSD001"])
        assert report.clean
        assert len(report.baselined) == 1

    def test_stale_entry_is_a_finding(self, tmp_path):
        root = make_project(tmp_path, VIOLATION)
        write_baseline(
            tmp_path / "lint-baseline.json",
            run_analysis(root, rule_ids=["CSD001"]).findings,
        )
        (root / "src/repro/operators/foo.py").write_text("X = 1\n")
        report = run_analysis(root, rule_ids=["CSD001"])
        assert not report.clean
        assert report.findings[0].rule == "CSD000"
        assert "stale" in report.findings[0].message
        assert report.stale_entries

    def test_corrupt_baseline_is_usage_error(self, tmp_path):
        root = make_project(tmp_path, {})
        (root / "lint-baseline.json").write_text("{not json")
        with pytest.raises(AnalysisError):
            run_analysis(root)

    def test_missing_baseline_is_empty(self, tmp_path):
        root = make_project(tmp_path, {})
        assert run_analysis(root, rule_ids=["CSD001"]).clean


# ----- engine / misc ----------------------------------------------------


class TestEngine:
    def test_parse_error_is_a_finding(self, tmp_path):
        report = run(
            tmp_path,
            {"src/repro/core/broken.py": "def f(:\n"},
            rule_ids=["CSD001"],
        )
        assert not report.clean
        assert report.findings[0].rule == "CSD000"
        assert "parse" in report.findings[0].message

    def test_unknown_rule_raises(self, tmp_path):
        root = make_project(tmp_path, {})
        with pytest.raises(AnalysisError):
            run_analysis(root, rule_ids=["CSD999"])

    def test_pycache_ignored(self, tmp_path):
        root = make_project(
            tmp_path,
            {"src/repro/__pycache__/foo.py": "import time\ntime.time()\n"},
        )
        project = load_project(root)
        assert all("__pycache__" not in f.relpath for f in project.files)

    def test_empty_project_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_project(tmp_path)

    def test_json_doc_shape(self, tmp_path):
        report = run(tmp_path, VIOLATION, rule_ids=["CSD001"])
        doc = report.to_doc()
        assert doc["clean"] is False
        assert doc["findings"][0]["rule"] == "CSD001"
        assert json.loads(json.dumps(doc)) == doc


# ----- CLI --------------------------------------------------------------


class TestLintCLI:
    def test_exit_zero_on_clean_project(self, tmp_path, capsys):
        root = make_project(tmp_path, {})
        assert main(["lint", "--root", str(root)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = make_project(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "CSD001" in out
        assert "FAIL" in out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        root = make_project(tmp_path, {})
        assert main(["lint", "--root", str(root), "--rule", "CSD999"]) == 2
        assert "error" in capsys.readouterr().err

    def test_single_rule_selection(self, tmp_path):
        root = make_project(
            tmp_path,
            dict(VIOLATION, **{"src/repro/net/chan.py": "import time\n"}),
        )
        assert main(["lint", "--root", str(root), "--rule", "CSD005"]) == 1

    def test_json_output(self, tmp_path, capsys):
        root = make_project(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "CSD001"

    def test_list_rules(self, tmp_path, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = re.findall(r"^(CSD\d{3}) ", out, flags=re.MULTILINE)
        assert listed == [cls.rule_id for cls in ALL_RULES]

    def test_docs_catalog_lists_the_registered_rules(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        catalog = doc.split("## Rule catalog", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| (CSD\d{3}) \|", catalog, flags=re.MULTILINE)
        assert rows == [cls.rule_id for cls in ALL_RULES]

    def test_retired_rule_ids_are_usage_errors(self, tmp_path, capsys):
        root = make_project(tmp_path, {})
        for rule_id in ("CSD009", "CSD010", "CSD011"):
            assert main(["lint", "--root", str(root), "--rule", rule_id]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = make_project(tmp_path, VIOLATION)
        assert main(["lint", "--root", str(root), "--write-baseline"]) == 0
        assert (root / "lint-baseline.json").exists()
        assert main(["lint", "--root", str(root)]) == 0


# ----- the repository itself is clean -----------------------------------


class TestRepositoryContracts:
    """The same check CI runs: the real repo has zero new findings."""

    def test_repo_is_clean(self, repo_report):
        assert repo_report.clean, "\n".join(repo_report.format_lines())

    def test_exactly_the_registered_rules_ran(self, repo_report):
        assert repo_report.rules == [
            "CSD001",
            "CSD002",
            "CSD003",
            "CSD004",
            "CSD005",
            "CSD006",
            "CSD007",
            "CSD008",
            "CSD012",
        ]
        assert repo_report.rules == [cls.rule_id for cls in ALL_RULES]

    def test_repo_waivers_are_pinned(self, repo_report):
        """Every waived site, so a new waiver is a reviewed test change."""
        waived = sorted((f.rule, f.path, f.line) for f in repo_report.waived)
        assert waived == [
            ("CSD001", "src/repro/operators/aggregation.py", 196),
            ("CSD001", "src/repro/operators/aggregation.py", 198),
            ("CSD001", "src/repro/operators/base.py", 81),
            ("CSD001", "src/repro/operators/base.py", 125),
            ("CSD001", "src/repro/operators/base.py", 132),
            ("CSD001", "src/repro/operators/groupby.py", 129),
            ("CSD001", "src/repro/sql/executor.py", 420),
            ("CSD001", "src/repro/sql/executor.py", 461),
            ("CSD001", "src/repro/sql/executor.py", 465),
            ("CSD001", "src/repro/sql/executor.py", 512),
            ("CSD002", "src/repro/compression/kernels.py", 518),
            ("CSD002", "src/repro/compression/kernels.py", 536),
            ("CSD004", "src/repro/core/client.py", 70),
            ("CSD004", "src/repro/core/client.py", 73),
            ("CSD004", "src/repro/core/client.py", 76),
            ("CSD004", "src/repro/core/client.py", 79),
            ("CSD004", "src/repro/oracle/campaign.py", 85),
            ("CSD004", "src/repro/oracle/shrinker.py", 137),
            ("CSD007", "src/repro/serve/supervisor.py", 222),
        ]

    def test_repo_baseline_stays_near_empty(self):
        baseline = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text()
        )
        # grandfathered findings need an inline-documented reason each;
        # keep the list from regrowing silently
        assert len(baseline["entries"]) <= 2
        for entry in baseline["entries"]:
            assert entry["reason"].strip()


# ----- helper hops and CSD012: the call-graph checks --------------------


HELPER_DECODE = {
    # the operator itself never decodes; a one-hop helper does it on
    # its behalf -- only the call graph connects the two
    "src/repro/operators/filter2.py": (
        "from repro.util.expand import expand\n\n\n"
        "def scan(col):\n"
        "    return expand(col)\n"
    ),
    "src/repro/util/expand.py": (
        "def expand(col):\n"
        "    return col.codec.decode(col.payload)\n"
    ),
}


class TestDecodeTaint:
    def test_helper_hop_decode_flagged(self, tmp_path):
        report = run(tmp_path, HELPER_DECODE, rule_ids=["CSD001"])
        findings = [f for f in report.findings if f.rule == "CSD001"]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/util/expand.py"
        # the witness chain from the entry point rides in the message
        assert "scan" in findings[0].message

    def test_csd001_flags_the_helper_hop_with_its_chain(self, tmp_path):
        """A per-file scan of the operator alone would miss this site."""
        report = run(tmp_path, HELPER_DECODE, rule_ids=["CSD001"])
        [finding] = report.findings
        assert (finding.rule, finding.path, finding.line) == (
            "CSD001",
            "src/repro/util/expand.py",
            2,
        )
        assert (
            "repro.operators.filter2.<module>.scan -> "
            "repro.util.expand.<module>.expand"
        ) in finding.message

    def test_cache_routed_helper_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/operators/filter2.py": (
                    "from repro.util.expand import expand\n\n\n"
                    "def scan(col, cache):\n"
                    "    return expand(col, cache)\n"
                ),
                "src/repro/util/expand.py": (
                    "def expand(col, cache):\n"
                    "    return cache.decompress(col)\n"
                ),
            },
            rule_ids=["CSD001"],
        )
        assert report.clean

    def test_codec_package_is_sanctioned(self, tmp_path):
        """Propagation cuts at the layer whose job is decoding."""
        report = run(
            tmp_path,
            {
                "src/repro/operators/filter2.py": (
                    "from repro.compression.rle import expand\n\n\n"
                    "def scan(col):\n"
                    "    return expand(col)\n"
                ),
                "src/repro/compression/rle.py": (
                    "def expand(col):\n"
                    "    return col.codec.decode(col.payload)\n"
                ),
            },
            rule_ids=["CSD001"],
        )
        assert report.clean

    def test_waiver_at_the_helper_site(self, tmp_path):
        files = dict(HELPER_DECODE)
        files["src/repro/util/expand.py"] = (
            "def expand(col):\n"
            "    # lint: force-decode bounded, one value\n"
            "    return col.codec.decode(col.payload)\n"
        )
        report = run(tmp_path, files, rule_ids=["CSD001"])
        assert report.clean
        assert report.waived


class TestWallClockEscape:
    def test_transitive_wall_clock_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/loop.py": (
                    "from repro.util.pacing import pace\n\n\n"
                    "def tick(session):\n"
                    "    return pace(session)\n"
                ),
                "src/repro/util/pacing.py": (
                    "import time\n\n\n"
                    "def pace(session):\n"
                    "    return time.sleep(0.1)\n"
                ),
            },
            rule_ids=["CSD005"],
        )
        findings = [f for f in report.findings if f.rule == "CSD005"]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/util/pacing.py"
        assert "tick" in findings[0].message

    def test_virtual_clock_helper_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/loop.py": (
                    "from repro.util.pacing import pace\n\n\n"
                    "def tick(session, clock):\n"
                    "    return pace(session, clock)\n"
                ),
                "src/repro/util/pacing.py": (
                    "def pace(session, clock):\n"
                    "    return clock.advance(1)\n"
                ),
            },
            rule_ids=["CSD005"],
        )
        assert report.clean

    def test_helper_not_reached_from_entry_paths_passes(self, tmp_path):
        # wall clock in a helper only the CLI calls is CSD003's
        # allowlist decision, not an escape from the serving layer
        report = run(
            tmp_path,
            {
                "src/repro/util/pacing.py": (
                    "import time\n\n\n"
                    "def pace(session):\n"
                    "    return time.sleep(0.1)\n"
                ),
            },
            rule_ids=["CSD005"],
        )
        assert report.clean


WIRE_RERAISE = {
    # the helper module raises an untyped Exception on behalf of a wire
    # function; only the call graph connects the two
    "src/repro/wire/frames.py": (
        "from repro.util.checks import ensure_magic\n\n\n"
        "def read_frame(buf):\n"
        "    ensure_magic(buf)\n"
        "    return buf[4:]\n"
    ),
    "src/repro/util/checks.py": (
        "def ensure_magic(buf):\n"
        "    if buf[:4] != b'CSDB':\n"
        "        raise Exception('bad magic')\n"
    ),
}


class TestExceptionFlow:
    def test_csd004_flags_the_helper_reraise_with_its_chain(self, tmp_path):
        """A per-package scan of repro.wire alone would miss this raise."""
        report = run(tmp_path, WIRE_RERAISE, rule_ids=["CSD004"])
        [finding] = report.findings
        assert (finding.rule, finding.path, finding.line) == (
            "CSD004",
            "src/repro/util/checks.py",
            3,
        )
        assert (
            "repro.wire.frames.<module>.read_frame -> "
            "repro.util.checks.<module>.ensure_magic"
        ) in finding.message

    def test_helper_reraise_flagged_with_the_call_chain(self, tmp_path):
        report = run(tmp_path, WIRE_RERAISE, rule_ids=["CSD004"])
        findings = [f for f in report.findings if f.rule == "CSD004"]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/util/checks.py"
        assert "read_frame" in findings[0].message

    def test_typed_taxonomy_helper_passes(self, tmp_path):
        files = dict(WIRE_RERAISE)
        files["src/repro/errors.py"] = (
            "class ReproError(Exception):\n    pass\n\n\n"
            "class WireFormatError(ReproError):\n    pass\n"
        )
        files["src/repro/util/checks.py"] = (
            "from repro.errors import WireFormatError\n\n\n"
            "def ensure_magic(buf):\n"
            "    if buf[:4] != b'CSDB':\n"
            "        raise WireFormatError('bad magic')\n"
        )
        report = run(tmp_path, files, rule_ids=["CSD004"])
        assert report.clean

    def test_control_flow_raises_stay_allowed(self, tmp_path):
        files = dict(WIRE_RERAISE)
        files["src/repro/util/checks.py"] = (
            "def ensure_magic(buf):\n"
            "    raise NotImplementedError\n"
        )
        report = run(tmp_path, files, rule_ids=["CSD004"])
        assert report.clean


class TestCheckpointPurity:
    def test_thread_attribute_in_session_graph_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/session2.py": (
                    "import threading\n\n\n"
                    "class TenantSession:\n"
                    "    def __init__(self):\n"
                    "        self.lock = threading.Lock()\n"
                ),
            },
            rule_ids=["CSD012"],
        )
        findings = [f for f in report.findings if f.rule == "CSD012"]
        assert len(findings) == 1
        assert "lock" in findings[0].message

    def test_nested_wall_clock_attribute_flagged(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/session2.py": (
                    "from repro.core.gadget import Gadget\n\n\n"
                    "class TenantSession:\n"
                    "    def __init__(self):\n"
                    "        self.gadget: Gadget = Gadget()\n"
                ),
                "src/repro/core/gadget.py": (
                    "import time\n\n\n"
                    "class Gadget:\n"
                    "    def __init__(self):\n"
                    "        self.born = time.time()\n"
                ),
            },
            rule_ids=["CSD012"],
        )
        findings = [f for f in report.findings if f.rule == "CSD012"]
        assert findings, "nested wall-clock attribute must be reached"
        assert any("gadget" in f.message for f in findings)

    def test_plain_state_passes(self, tmp_path):
        report = run(
            tmp_path,
            {
                "src/repro/serve/session2.py": (
                    "class TenantSession:\n"
                    "    def __init__(self):\n"
                    "        self.cursor: int = 0\n"
                    "        self.outputs: list = []\n"
                ),
            },
            rule_ids=["CSD012"],
        )
        assert report.clean


class TestGraphExportCLI:
    def test_graph_json_export(self, tmp_path, capsys):
        root = make_project(tmp_path, HELPER_DECODE)
        code = main(["lint", "--root", str(root), "--graph", "json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema_version"] >= 1
        assert doc["coverage"]["ratio"] == 1.0
        # the CSD001 flow annotates its edges
        tainted = [e for e in doc["edges"] if e.get("taints")]
        assert any("decode-discipline" in e["taints"] for e in tainted)
        assert code == 1  # the fixture has a finding

    def test_graph_dot_export_to_file(self, tmp_path, capsys):
        root = make_project(tmp_path, {})
        out_path = tmp_path / "graph.dot"
        code = main(
            [
                "lint", "--root", str(root),
                "--graph", "dot", "--graph-out", str(out_path),
            ]
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("digraph callgraph")

    def test_cache_file_written_and_reused(self, tmp_path, capsys):
        root = make_project(tmp_path, {})
        cache = tmp_path / "cache.json"
        assert main(
            ["lint", "--root", str(root), "--cache", str(cache)]
        ) == 0
        assert cache.exists()
        capsys.readouterr()  # drop the first run's summary line
        assert main(
            ["lint", "--root", str(root), "--cache", str(cache), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cache"]["misses"] == 0
        assert doc["cache"]["hits"] > 0

    def test_no_cache_leaves_no_file(self, tmp_path):
        root = make_project(tmp_path, {})
        assert main(["lint", "--root", str(root), "--no-cache"]) == 0
        assert not (root / ".lint-cache.json").exists()


# ----- one contract, one report ------------------------------------------

#: the rules that report each contract.  Every fixture project below
#: pins the exact (path, line) sites they report and waive, so a change
#: in which rules check a contract cannot drop a site unnoticed.
CONTRACT_RULES = {
    "decode": ["CSD001"],
    "taxonomy": ["CSD004"],
    "virtual-time": ["CSD005"],
}

OPERATOR_DECODE = "def f(column, x):\n    return column.decode(x)\n"
TRY_G = "def f():\n    try:\n        g()\n"

#: (id, contract, files, reported sites, waived sites)
CONTRACT_CASES = [
    # the per-file decode cases
    (
        "decode-on-direct-path",
        "decode",
        {"src/repro/operators/foo.py": OPERATOR_DECODE},
        {("src/repro/operators/foo.py", 2)},
        set(),
    ),
    (
        "decompress-in-server",
        "decode",
        {
            "src/repro/core/server.py": (
                "def f(codec, cc):\n    return codec.decompress(cc)\n"
            )
        },
        {("src/repro/core/server.py", 2)},
        set(),
    ),
    (
        "cache-receiver",
        "decode",
        {
            "src/repro/core/server.py": (
                "def f(self, codec, cc):\n"
                "    return self.cache.decompress(codec, cc)\n"
            )
        },
        set(),
        set(),
    ),
    (
        "decode-waiver",
        "decode",
        {
            "src/repro/operators/foo.py": (
                "def f(column, x):\n"
                "    return column.decode(x)"
                "  # lint: force-decode (one value per window)\n"
            )
        },
        set(),
        {("src/repro/operators/foo.py", 2)},
    ),
    (
        "decode-off-direct-path",
        "decode",
        {"src/repro/stream/foo.py": OPERATOR_DECODE},
        set(),
        set(),
    ),
    # the helper-hop decode cases
    (
        "helper-hop-decode",
        "decode",
        HELPER_DECODE,
        {("src/repro/util/expand.py", 2)},
        set(),
    ),
    (
        "cache-routed-helper",
        "decode",
        {
            "src/repro/operators/filter2.py": (
                "from repro.util.expand import expand\n\n\n"
                "def scan(col, cache):\n"
                "    return expand(col, cache)\n"
            ),
            "src/repro/util/expand.py": (
                "def expand(col, cache):\n"
                "    return cache.decompress(col)\n"
            ),
        },
        set(),
        set(),
    ),
    (
        "codec-package-helper",
        "decode",
        {
            "src/repro/operators/filter2.py": (
                "from repro.compression.rle import expand\n\n\n"
                "def scan(col):\n"
                "    return expand(col)\n"
            ),
            "src/repro/compression/rle.py": (
                "def expand(col):\n"
                "    return col.codec.decode(col.payload)\n"
            ),
        },
        set(),
        set(),
    ),
    (
        "helper-decode-waiver",
        "decode",
        dict(
            HELPER_DECODE,
            **{
                "src/repro/util/expand.py": (
                    "def expand(col):\n"
                    "    # lint: force-decode bounded, one value\n"
                    "    return col.codec.decode(col.payload)\n"
                )
            },
        ),
        set(),
        {("src/repro/util/expand.py", 3)},
    ),
    # the per-package raise and handler cases
    (
        "wire-valueerror",
        "taxonomy",
        {"src/repro/wire/fmt.py": "def f():\n    raise ValueError('nope')\n"},
        {("src/repro/wire/fmt.py", 2)},
        set(),
    ),
    (
        "wire-subclass",
        "taxonomy",
        {
            "src/repro/wire/fmt.py": (
                "class WireFormatError(Exception):\n    pass\n\n\n"
                "class FrameError(WireFormatError):\n    pass\n\n\n"
                "def f():\n    raise FrameError('bad frame')\n"
            )
        },
        set(),
        set(),
    ),
    (
        "codec-taxonomy-via-errors",
        "taxonomy",
        {
            "src/repro/errors.py": ERRORS_MODULE,
            "src/repro/compression/codec.py": (
                "def f():\n    raise CodecNotApplicable('negatives')\n"
            ),
        },
        set(),
        set(),
    ),
    (
        "codec-runtimeerror",
        "taxonomy",
        {
            "src/repro/errors.py": ERRORS_MODULE,
            "src/repro/compression/codec.py": (
                "def f():\n    raise RuntimeError('oops')\n"
            ),
        },
        {("src/repro/compression/codec.py", 2)},
        set(),
    ),
    (
        "reraise-variable",
        "taxonomy",
        {
            "src/repro/wire/fmt.py": (
                TRY_G + "    except KeyError as exc:\n        raise exc\n"
            )
        },
        set(),
        set(),
    ),
    (
        "bare-except",
        "taxonomy",
        {"src/repro/stream/foo.py": TRY_G + "    except:\n        raise\n"},
        {("src/repro/stream/foo.py", 4)},
        set(),
    ),
    (
        "swallowed-exception",
        "taxonomy",
        {"benchmarks/helper.py": TRY_G + "    except Exception:\n        pass\n"},
        {("benchmarks/helper.py", 4)},
        set(),
    ),
    (
        "handled-broad-except",
        "taxonomy",
        {
            "src/repro/oracle/foo.py": (
                "def f():\n"
                "    try:\n"
                "        return g()\n"
                "    except Exception:\n"
                "        return None\n"
            )
        },
        set(),
        set(),
    ),
    (
        "swallow-waiver",
        "taxonomy",
        {
            "src/repro/oracle/foo.py": (
                TRY_G + "    except Exception:"
                "  # lint: broad-except (best effort)\n"
                "        pass\n"
            )
        },
        set(),
        {("src/repro/oracle/foo.py", 4)},
    ),
    # the helper-hop raise cases
    (
        "helper-reraise",
        "taxonomy",
        WIRE_RERAISE,
        {("src/repro/util/checks.py", 3)},
        set(),
    ),
    (
        "typed-helper-raise",
        "taxonomy",
        dict(
            WIRE_RERAISE,
            **{
                "src/repro/errors.py": (
                    "class ReproError(Exception):\n    pass\n\n\n"
                    "class WireFormatError(ReproError):\n    pass\n"
                ),
                "src/repro/util/checks.py": (
                    "from repro.errors import WireFormatError\n\n\n"
                    "def ensure_magic(buf):\n"
                    "    if buf[:4] != b'CSDB':\n"
                    "        raise WireFormatError('bad magic')\n"
                ),
            },
        ),
        set(),
        set(),
    ),
    (
        "control-flow-raise",
        "taxonomy",
        dict(
            WIRE_RERAISE,
            **{
                "src/repro/util/checks.py": (
                    "def ensure_magic(buf):\n"
                    "    raise NotImplementedError\n"
                )
            },
        ),
        set(),
        set(),
    ),
    # the wall-clock import cases, in repro.net and repro.serve
    *[
        (
            f"net-{name}",
            "virtual-time",
            {"src/repro/net/chan.py": snippet},
            {("src/repro/net/chan.py", 1)},
            set(),
        )
        for name, snippet in [
            ("import-time", "import time\n"),
            ("import-datetime", "import datetime\n"),
            ("from-time", "from time import sleep\n"),
            ("from-datetime", "from datetime import datetime\n"),
        ]
    ],
    (
        "net-math-import",
        "virtual-time",
        {"src/repro/net/chan.py": "import math\nimport struct\n"},
        set(),
        set(),
    ),
    (
        "time-outside-net",
        "virtual-time",
        {"src/repro/core/foo.py": "import time\n"},
        set(),
        set(),
    ),
    *[
        (
            f"serve-{name}",
            "virtual-time",
            {"src/repro/serve/clock.py": snippet},
            {("src/repro/serve/clock.py", 1)},
            set(),
        )
        for name, snippet in [
            ("import-time", "import time\n"),
            ("from-datetime", "from datetime import datetime\n"),
        ]
    ],
    # the helper-hop wall-clock cases
    (
        "transitive-wall-clock",
        "virtual-time",
        {
            "src/repro/serve/loop.py": (
                "from repro.util.pacing import pace\n\n\n"
                "def tick(session):\n"
                "    return pace(session)\n"
            ),
            "src/repro/util/pacing.py": (
                "import time\n\n\n"
                "def pace(session):\n"
                "    return time.sleep(0.1)\n"
            ),
        },
        {("src/repro/util/pacing.py", 5)},
        set(),
    ),
    (
        "virtual-clock-helper",
        "virtual-time",
        {
            "src/repro/serve/loop.py": (
                "from repro.util.pacing import pace\n\n\n"
                "def tick(session, clock):\n"
                "    return pace(session, clock)\n"
            ),
            "src/repro/util/pacing.py": (
                "def pace(session, clock):\n"
                "    return clock.advance(1)\n"
            ),
        },
        set(),
        set(),
    ),
    (
        "unreached-wall-clock",
        "virtual-time",
        {
            "src/repro/util/pacing.py": (
                "import time\n\n\n"
                "def pace(session):\n"
                "    return time.sleep(0.1)\n"
            ),
        },
        set(),
        set(),
    ),
]


@pytest.mark.parametrize(
    "contract, files, reported, waived",
    [case[1:] for case in CONTRACT_CASES],
    ids=[case[0] for case in CONTRACT_CASES],
)
def test_contract_sites_are_pinned(tmp_path, contract, files, reported, waived):
    report = run(tmp_path, files, rule_ids=CONTRACT_RULES[contract])
    assert sorted((f.path, f.line) for f in report.findings) == sorted(reported)
    assert sorted((f.path, f.line) for f in report.waived) == sorted(waived)

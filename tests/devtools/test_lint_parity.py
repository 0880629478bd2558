"""RPL201/RPL202: no backend knob, and every reference oracle tested."""

import textwrap

from repro.devtools.lint import lint_sources

LIB = "src/repro/decomp/fixture.py"
REFERENCE = "src/repro/graphs/reference.py"


def lint_many(*pairs):
    return lint_sources(
        [(path, textwrap.dedent(source)) for path, source in pairs]
    )


def codes(source, path=LIB):
    return [v.code for v in lint_many((path, source))]


class TestNoBackendKnob:
    def test_backend_parameter_flagged(self):
        src = """
            def kernel(graph, backend="gpu"):
                if backend == "csr":
                    return graph.csr().power(2)
                return graph.power_python(2)
        """
        assert codes(src) == ["RPL201"]

    def test_keyword_only_and_method_flagged(self):
        src = """
            class Engine:
                def run(self, graph, *, backend="gpu"):
                    return graph
        """
        assert codes(src) == ["RPL201"]

    def test_forwarding_wrapper_flagged(self):
        src = """
            def wrapper(graph, backend="gpu"):
                return inner(graph, backend=backend)
        """
        assert codes(src) == ["RPL201"]

    def test_execution_backend_clean(self):
        """The local/mpc axis is a different parameter and stays."""
        src = """
            def driver(graph, execution_backend="local"):
                return execution_backend
        """
        assert codes(src) == []

    def test_out_of_library_exempt(self):
        src = """
            def kernel(graph, backend="gpu"):
                return graph.csr().power(2)
        """
        assert codes(src, path="benchmarks/fixture.py") == []


ORACLE = """
    def fast_oracle(graph):
        return graph.n
"""

PRIVATE_ORACLE = ORACLE.replace("fast_oracle", "_fast_oracle")


class TestReferenceOracleCoverage:
    def test_untested_oracle_flagged(self):
        found = lint_many(
            (REFERENCE, ORACLE),
            ("tests/test_other.py", "def test_nothing():\n    pass\n"),
        )
        assert [v.code for v in found] == ["RPL202"]
        assert "fast_oracle" in found[0].message

    def test_tested_oracle_clean(self):
        found = lint_many(
            (REFERENCE, ORACLE),
            (
                "tests/test_kernel.py",
                "def test_parity():\n    assert kernel(g) == reference.fast_oracle(g)\n",
            ),
        )
        assert found == []

    def test_private_helper_exempt(self):
        found = lint_many(
            (REFERENCE, PRIVATE_ORACLE),
            ("tests/test_other.py", "def test_nothing():\n    pass\n"),
        )
        assert found == []

    def test_other_modules_exempt(self):
        """Only graphs/reference.py is an oracle module."""
        found = lint_many(
            (LIB, ORACLE),
            ("tests/test_other.py", "def test_nothing():\n    pass\n"),
        )
        assert found == []

    def test_skipped_without_test_corpus(self):
        """Single-file runs can't see tests/: the rule stays silent
        rather than reporting false positives."""
        assert codes(ORACLE, path=REFERENCE) == []

    def test_substring_not_fooled(self):
        """The name must appear as a word, not a substring."""
        found = lint_many(
            (REFERENCE, ORACLE),
            (
                "tests/test_kernel.py",
                "def test_x():\n    assert unfast_oracleish() == 1\n",
            ),
        )
        assert [v.code for v in found] == ["RPL202"]

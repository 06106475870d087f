"""The README's quickstart snippet must actually work as written."""

import re
from pathlib import Path


README = Path(__file__).parents[2] / "README.md"


class TestReadme:
    def test_quickstart_snippet_executes(self):
        text = README.read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README has no python code block"
        snippet = blocks[0]
        # Execute verbatim in a fresh namespace.
        namespace = {}
        exec(compile(snippet, "README.md", "exec"), namespace)
        report = namespace["report"]
        assert report.num_iterations > 0
        assert 0.0 <= report.detail.feasible_ratio <= 1.0
        assert namespace["exact"].feasible
        # The float32 fast-path example must run and report real replicas.
        fast = namespace["fast"]
        assert fast.num_replicas == 32
        assert fast.num_iterations > 0

    def test_higher_order_snippet_executes(self):
        text = README.read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        snippets = [b for b in blocks if "higher_order" in b]
        assert snippets, "README has no higher-order python block"
        namespace = {}
        exec(compile(snippets[0], "README.md", "exec"), namespace)
        instance = namespace["instance"]
        report = namespace["report"]
        assert 0 <= instance.count_satisfied(report.best_x) <= instance.num_clauses
        assert namespace["cubic"].num_iterations > 0

    def test_mentions_all_deliverable_paths(self):
        text = README.read_text()
        for token in ("examples/", "tests/", "benchmarks/", "DESIGN.md",
                      "EXPERIMENTS.md", "REPRO_SCALE"):
            assert token in text, f"README should mention {token}"

    def test_install_commands_present(self):
        text = README.read_text()
        assert "setup.py develop" in text or "pip install -e ." in text

"""Documentation consistency: the docs reference things that exist."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "docs/protocol.md", "docs/architecture.md"):
        assert (REPO / name).is_file(), name


def test_design_lists_every_figure_bench():
    design = (REPO / "DESIGN.md").read_text()
    claims = sorted((REPO / "tests" / "claims").glob("test_fig*.py"))
    assert claims
    for test in claims:
        assert f"tests/claims/{test.name}" in design, test.name


def test_readme_examples_exist():
    readme = (REPO / "README.md").read_text()
    for script in re.findall(r"`(\w+\.py)`", readme):
        assert (REPO / "examples" / script).is_file(), script


def test_experiments_md_covers_all_figures():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for fig in range(1, 8):
        assert f"Fig. {fig}" in text or f"fig{fig}" in text, fig


def test_design_modules_exist():
    """Every module path named in DESIGN.md's inventory tree exists."""
    design = (REPO / "DESIGN.md").read_text()
    tree = design.split("```")[1]
    for line in tree.splitlines():
        entry = line.strip().split()[0] if line.strip() else ""
        if entry.endswith(".py"):
            indent = len(line) - len(line.lstrip())
            # Resolve nested paths by scanning known package dirs.
            matches = list((REPO / "src").rglob(entry))
            assert matches, f"DESIGN.md names missing module {entry}"


def test_paper_headline_numbers_in_experiments():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for headline in ("2.05", "1.48", "1.86", "2.02", "5.82"):
        assert headline in text, headline

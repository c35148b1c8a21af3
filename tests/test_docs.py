"""Documentation checks: README doctests and intra-repo link integrity.

The README's quickstart block is executable documentation — it must keep
passing ``python -m doctest`` (CI runs the same check in its docs job), and
every relative link in the top-level markdown files must point at a file or
directory that actually exists.  So must every markdown file the program and
benchmark sources cite by name.
"""

import doctest
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = ("README.md", "ARCHITECTURE.md", "ROADMAP.md")

#: Markdown inline links: [text](target); external and anchor links excluded.
_LINK = re.compile(r"\]\(([^)#\s]+)(?:#[^)\s]*)?\)")

#: Markdown file names cited in source text, as paths from the repo root.
_MARKDOWN_NAME = re.compile(r"[\w./-]+\.md\b")
#: Source trees whose docstrings and comments may cite markdown files.
SOURCE_DIRS = ("src", "benchmarks")


def relative_links(text):
    for target in _LINK.findall(text):
        if not target.startswith(("http://", "https://", "mailto:")):
            yield target


@pytest.mark.parametrize("doc", DOC_FILES)
def test_relative_links_resolve(doc):
    path = REPO_ROOT / doc
    assert path.exists(), f"{doc} is missing"
    broken = [
        target for target in relative_links(path.read_text())
        if not (REPO_ROOT / target).exists()
    ]
    assert not broken, f"{doc} has broken relative links: {broken}"


def test_cited_markdown_files_exist():
    missing = [
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for source_dir in SOURCE_DIRS
        for path in sorted((REPO_ROOT / source_dir).rglob("*.py"))
        for name in _MARKDOWN_NAME.findall(path.read_text())
        if not (REPO_ROOT / name).is_file()
    ]
    assert not missing, f"sources cite missing markdown files: {missing}"


def test_readme_quickstart_doctest():
    results = doctest.testfile(
        str(REPO_ROOT / "README.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 0, "README lost its doctest quickstart"
    assert results.failed == 0


def test_package_docstring_doctest():
    import repro

    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0

"""Docs health: intra-repo links resolve, CLI docs track --help, the
lint catalog tracks the registered rules, and the public API documents
itself.

Cheap structural checks, not prose review: every relative link in
README.md and docs/*.md must point at a file that exists,
``docs/CLI.md`` must mention every subcommand and every long flag the
argument parser actually exposes, ``docs/LINT.md`` must catalog
exactly the rules ``python -m repro.lint --list-rules`` prints, and
every name a package exports through ``__all__`` must resolve and
carry documentation — so the docs fail loudly the moment the CLI, the
lint rules or the API drift.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.lint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
#: Every package that publishes an ``__all__``.
API_PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC_ROOT).parts)
    for init in (SRC_ROOT / "repro").rglob("__init__.py")
    if "__all__" in init.read_text())
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
RULE_ID = re.compile(r"\bRL\d{3}\b")
SUBCOMMANDS = ("info", "structures", "solve", "build", "query",
               "serve", "store", "campaign")
#: Every parser whose flags the CLI docs must track — the nested
#: ``store``/``campaign`` subcommands carry their own flags, so
#: ``store --help`` alone would leave them invisible to the drift
#: checks.
HELP_TARGETS = tuple(
    [(command,) for command in SUBCOMMANDS]
    + [("store", "ls"), ("store", "gc"),
       ("campaign", "run"), ("campaign", "status"),
       ("campaign", "query")])


def _doc_files():
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    assert docs, "docs/ tree is missing"
    return [REPO_ROOT / "README.md"] + docs


def _relative_links(path):
    for target in LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if target:
            yield target


class TestDocLinks:
    def test_docs_tree_exists(self):
        for name in ("ARCHITECTURE.md", "CLI.md", "ADAPTIVE.md",
                     "CAMPAIGN.md"):
            assert (REPO_ROOT / "docs" / name).is_file(), name

    def test_every_relative_link_resolves(self):
        broken = []
        for doc in _doc_files():
            for target in _relative_links(doc):
                resolved = (doc.parent / target).resolve()
                if not resolved.exists():
                    broken.append(f"{doc.relative_to(REPO_ROOT)} -> "
                                  f"{target}")
        assert not broken, f"broken doc links: {broken}"

    def test_readme_links_into_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for name in ("docs/ARCHITECTURE.md", "docs/CLI.md",
                     "docs/ADAPTIVE.md", "docs/CAMPAIGN.md"):
            assert name in readme, f"README does not link {name}"


def _help_text(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    return capsys.readouterr().out


class TestCliDocsDrift:
    def test_every_subcommand_documented(self, capsys):
        top = _help_text(["--help"], capsys)
        cli_doc = (REPO_ROOT / "docs" / "CLI.md").read_text()
        for command in SUBCOMMANDS:
            assert command in top, f"{command} missing from --help"
            assert f"repro {command}" in cli_doc, \
                f"docs/CLI.md does not document `repro {command}`"

    def test_every_flag_documented(self, capsys):
        cli_doc = (REPO_ROOT / "docs" / "CLI.md").read_text()
        missing = []
        for target in HELP_TARGETS:
            help_text = _help_text([*target, "--help"], capsys)
            for flag in set(re.findall(r"--[a-z][a-z-]*", help_text)):
                if flag == "--help":
                    continue
                if f"`{flag}" not in cli_doc:
                    missing.append(f"{' '.join(target)}: {flag}")
        assert not missing, \
            f"flags missing from docs/CLI.md: {sorted(missing)}"

    def test_documented_flags_still_exist(self, capsys):
        """The reverse direction: no stale flags in docs/CLI.md."""
        cli_doc = (REPO_ROOT / "docs" / "CLI.md").read_text()
        real = set()
        for target in HELP_TARGETS:
            real |= set(re.findall(r"--[a-z][a-z-]*",
                                   _help_text([*target, "--help"],
                                              capsys)))
        documented = set(re.findall(r"`(--[a-z][a-z-]*)", cli_doc))
        stale = documented - real
        assert not stale, f"docs/CLI.md documents removed flags: " \
                          f"{sorted(stale)}"


def _lint_doc_sections():
    """``{heading: body}`` for each ``## `` section of docs/LINT.md."""
    text = (REPO_ROOT / "docs" / "LINT.md").read_text()
    intro, *chunks = re.split(r"^## ", text, flags=re.MULTILINE)
    sections = {"(intro)": intro}
    for chunk in chunks:
        heading, _, body = chunk.partition("\n")
        sections[heading.strip()] = body
    return sections


class TestLintDocsDrift:
    @pytest.fixture
    def live_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        return {line.split()[0]
                for line in capsys.readouterr().out.splitlines()}

    def test_catalog_names_every_live_rule(self, live_rules):
        catalog = _lint_doc_sections()["Rule catalog"]
        assert set(RULE_ID.findall(catalog)) == live_rules

    def test_retired_ids_appear_only_under_retired_rules(self,
                                                         live_rules):
        sections = _lint_doc_sections()
        # Each retired rule is a bullet opening with its bold id; the
        # prose after it may name live rules.
        retired = set(re.findall(r"\*\*(RL\d{3})\b",
                                 sections.pop("Retired rules")))
        assert retired, "docs/LINT.md lists no retired rules"
        revived = sorted(retired & live_rules)
        assert not revived, f"retired ids still registered: {revived}"
        for heading, body in sections.items():
            stray = set(RULE_ID.findall(body)) - live_rules
            assert not stray, \
                f"docs/LINT.md '{heading}' names {sorted(stray)}, " \
                f"which --list-rules does not print"


def _doc_comment_flags(name, value):
    """For each top-level assignment of ``value`` to ``name`` in a
    loaded ``repro`` module: is the line directly above it a ``#:``
    comment?"""
    for module_name, module in sorted(sys.modules.items()):
        if module_name.split(".")[0] != "repro" \
                or vars(module).get(name) is not value:
            continue
        source = Path(module.__file__).read_text()
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets):
                yield lines[node.lineno - 2].lstrip().startswith("#:")


class TestPublicApi:
    @pytest.mark.parametrize("package_name", API_PACKAGES)
    def test_exports_resolve_and_are_documented(self, package_name):
        package = importlib.import_module(package_name)
        exports = package.__all__
        assert len(set(exports)) == len(exports), \
            f"{package_name}.__all__ lists a name twice"
        undocumented = []
        for name in exports:
            value = getattr(package, name)
            if inspect.isclass(value):
                doc = value.__dict__.get("__doc__")
                if dataclasses.is_dataclass(value) and doc \
                        and doc.startswith(f"{value.__name__}("):
                    doc = None  # the signature stub @dataclass writes
                documented = bool(doc)
            elif inspect.isfunction(value):
                documented = bool(value.__doc__)
            else:
                flags = list(_doc_comment_flags(name, value))
                documented = bool(flags) and all(flags)
            if not documented:
                undocumented.append(name)
        assert not undocumented, \
            f"{package_name} exports undocumented {undocumented}"

    def test_lazy_export_table_is_the_top_level_surface(self):
        import repro

        assert set(repro.__all__) == set(repro._EXPORTS) | {"__version__"}

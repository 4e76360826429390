"""The CI docs checker: link resolution, anchors, README doctests,
``repro.*`` names and quoted ``serve`` commands."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def test_repo_docs_are_clean():
    assert check_docs.check_links() == []
    assert check_docs.check_doctests() == []
    assert check_docs.check_references() == []
    assert check_docs.check_serve_commands() == []


def test_github_anchor_slugs():
    assert check_docs.github_anchor("The arena ledger") == "the-arena-ledger"
    assert check_docs.github_anchor("Batch vs online mode") == (
        "batch-vs-online-mode"
    )
    assert check_docs.github_anchor("`JoinStrategy` protocol + registry "
                                    "(`repro.core.strategy`)") == (
        "joinstrategy-protocol--registry-reprocorestrategy"
    )


def test_broken_link_and_anchor_detected(tmp_path, monkeypatch):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "real.md").write_text("# A Heading\n\ntext\n")
    (tmp_path / "README.md").write_text(
        "[ok](docs/real.md)\n"
        "[ok anchor](docs/real.md#a-heading)\n"
        "[ghost](docs/missing.md)\n"
        "[bad anchor](docs/real.md#nope)\n"
        "[external](https://example.com/nothing)\n"
        "```pycon\n>>> 1 + 1\n2\n```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_links()
    assert len(errors) == 2
    assert any("missing.md" in error for error in errors)
    assert any("#nope" in error for error in errors)
    assert check_docs.check_doctests() == []


def test_failing_doctest_detected(tmp_path, monkeypatch):
    (tmp_path / "README.md").write_text("```pycon\n>>> 1 + 1\n3\n```\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_doctests()
    assert len(errors) == 1
    assert "doctest" in errors[0]


def test_missing_quickstart_block_detected(tmp_path, monkeypatch):
    (tmp_path / "README.md").write_text("no snippets here\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_doctests()
    assert any("pycon" in error for error in errors)


def test_links_inside_code_fences_ignored(tmp_path, monkeypatch):
    (tmp_path / "README.md").write_text(
        "```\n[not a link](nowhere.md)\n```\n```pycon\n>>> 2\n2\n```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.check_links() == []


def test_anchor_with_code_backticks_resolves(tmp_path, monkeypatch):
    """GitHub strips backticks (and other emphasis) when slugging a
    heading; a link written against the rendered anchor must resolve
    even though the source heading contains `` ` `` characters."""
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "api.md").write_text(
        "# The `QueryScheduler` API\n\n"
        "## `run` vs `run_online` **modes**\n\ntext\n"
    )
    (tmp_path / "README.md").write_text(
        "[api](docs/api.md#the-queryscheduler-api)\n"
        "[modes](docs/api.md#run-vs-run_online-modes)\n"
        "[wrong](docs/api.md#the-%60queryscheduler%60-api)\n"
        "```pycon\n>>> 1\n1\n```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_links()
    # The two stripped-backtick anchors resolve; the percent-encoded
    # backtick form is not a rendered anchor and must be flagged.
    assert len(errors) == 1
    assert "%60" in errors[0]


def test_link_to_directory_resolves_without_anchor_check(tmp_path, monkeypatch):
    """A link target may be a directory (``docs/``, a package path);
    it resolves by existence and never gets anchor-checked — but a
    fragment on a *missing* directory is still a broken link."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("# Guide\n")
    (tmp_path / "README.md").write_text(
        "[docs tree](docs/)\n"
        "[docs noslash](docs)\n"
        "[ghost dir](missing/)\n"
        "```pycon\n>>> 1\n1\n```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_links()
    assert len(errors) == 1
    assert "missing/" in errors[0]


def test_unresolved_repro_names_detected(tmp_path, monkeypatch):
    """Backticked names in the docs and role targets in ``src/``
    docstrings must exist; a dataclass field or a ``__slots__`` name
    counts, a name inside a code fence is not read, and a role target
    may wrap across lines."""
    (tmp_path / "README.md").write_text(
        "`repro.serve.audit.check_fault_invariants` "
        "`repro.serve.report.ServeReport.arenas` "
        "`repro.serve.scheduler._Run.clock`\n"
        "`repro.data.generator.zipf_keys` `repro.nowhere`\n"
        "`repro.serve.report.ServeReport.arenas.append`\n"
        "```\n`repro.fenced.away`\n```\n"
    )
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""See :func:`~repro.serve.audit.\n    check_retention` and\n'
        ':meth:`repro.serve.placement.DeviceFleet.drain_all`."""\n'
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert len(check_docs.iter_references()) == 8
    errors = check_docs.check_references()
    assert errors == [
        "README.md:2: repro.data.generator.zipf_keys does not resolve",
        "README.md:2: repro.nowhere does not resolve",
        "README.md:3: repro.serve.report.ServeReport.arenas.append does "
        "not resolve",
        "src/pkg/mod.py:3: repro.serve.placement.DeviceFleet.drain_all "
        "does not resolve",
    ]


def test_unresolved_relative_role_targets_detected(tmp_path, monkeypatch):
    """A role target that does not start with ``repro`` is looked up in
    the citing module's namespace, in each class it defines and in
    builtins, then as an absolute dotted name; a dead method, a name
    only another module defines and an instance attribute no class
    declares are reported."""
    package = tmp_path / "src" / "relpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        '"""Live: :class:`Thing`, :meth:`Thing.go`, :meth:`go`,\n'
        ":attr:`Thing.size`, :func:`helper`, :class:`ValueError`,\n"
        ":func:`dataclasses.replace`, :mod:`repro`.\n"
        "Dead: :meth:`Thing.run`, :func:`QueryScheduler`,\n"
        ':attr:`cache`, :func:`dataclasses.nowhere`."""\n'
        "import dataclasses\n\n\n"
        "@dataclasses.dataclass\n"
        "class Thing:\n"
        "    size: int\n\n"
        "    def __init__(self):\n"
        "        self.cache = {}\n\n"
        "    def go(self):\n"
        "        pass\n\n\n"
        "def helper():\n"
        "    pass\n"
    )
    (tmp_path / "README.md").write_text("")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    refs = check_docs.iter_references()
    assert len(refs) == 12
    assert {module for _, _, _, module in refs} == {"relpkg.mod", None}
    errors = check_docs.check_references()
    assert errors == [
        "src/relpkg/mod.py:4: Thing.run does not resolve",
        "src/relpkg/mod.py:4: QueryScheduler does not resolve",
        "src/relpkg/mod.py:5: cache does not resolve",
        "src/relpkg/mod.py:5: dataclasses.nowhere does not resolve",
    ]


def test_serve_commands_the_cli_rejects_detected(tmp_path, monkeypatch):
    """Every quoted ``serve`` command must pass the CLI's argument
    parsing and mode checks: code-fence lines (``#`` comments stripped)
    and inline spans, which may wrap across lines; ``serve`` alone names
    the subcommand and is not read as a command."""
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text("Chaos: `serve --faults`.\n")
    (tmp_path / "README.md").write_text(
        "The `serve` bench: `serve --clients 4 --slo 1.0` or\n"
        "`python -m repro.bench serve --stream\n--arrivals 50`.\n"
        "```bash\n"
        "python -m repro.bench serve --clients 4  # one level\n"
        "python -m repro.bench serve --stream --scale 0.5\n"
        "```\n"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.iter_serve_commands() == [
        ("README.md", 1, ["--clients", "4", "--slo", "1.0"]),
        ("README.md", 2, ["--stream", "--arrivals", "50"]),
        ("README.md", 5, ["--clients", "4"]),
        ("README.md", 6, ["--stream", "--scale", "0.5"]),
        ("docs/guide.md", 1, ["--faults"]),
    ]
    assert check_docs.check_serve_commands() == [
        "README.md:1: serve --clients 4 --slo 1.0: --slo needs --stream",
        "README.md:6: serve --stream --scale 0.5: --scale is not read by "
        "--stream",
        "docs/guide.md:1: serve --faults: --faults needs --clients or "
        "--stream",
    ]

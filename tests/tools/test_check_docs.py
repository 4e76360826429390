"""The CI docs checker: link resolution, anchors, README doctests and
``repro.*`` names."""

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

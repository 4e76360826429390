#!/usr/bin/env python
"""CI docs check: relative links, README doctests and ``repro.*`` names.

Three gates, run on every PR (``python tools/check_docs.py``):

1. **Relative links** — every markdown link or image in ``README.md``
   and ``docs/*.md`` that points at a repository path must resolve:
   the target file (or directory) exists, and when the link carries a
   ``#fragment``, the target document contains a heading with that
   GitHub-style anchor.  External (``http(s)://``, ``mailto:``) links
   are not checked — CI must not depend on the network.
2. **README doctests** — every fenced ```` ```pycon ```` block in
   ``README.md`` is executed with :mod:`doctest`
   (``NORMALIZE_WHITESPACE``, so expected output may wrap), keeping
   the quickstart honest as the API evolves.
3. **Dotted names** — every ``repro.*`` name the docs cite must exist:
   a backticked name in ``README.md`` and ``docs/*.md``, and the target
   of every ``:func:``, ``:class:``, ``:meth:``, ``:mod:``, ``:attr:``
   and ``:data:`` role in a ``src/`` docstring (a target may wrap
   across lines).  A name resolves when its longest importable prefix
   imports and the rest is found by attribute lookup, which finds a
   ``__slots__`` name through its class descriptor; a dataclass field
   without a class-level default counts as found too.

Exits non-zero listing every failure.  Needs the package importable
(``pip install -e .`` or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import dataclasses
import doctest
import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links/images: ``[text](target)`` / ``![alt](target)``.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE = re.compile(r"^```")
_PYCON_FENCE = re.compile(r"^```pycon\s*$")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
#: A backticked ``repro.*`` name in markdown.
_DOC_NAME = re.compile(r"`(repro(?:\.\w+)+)`")
#: A cross-reference role naming a ``repro.*`` target in a docstring.
_ROLE = re.compile(r":(?:func|class|meth|mod|attr|data):`~?(repro[^`]*)`")


def doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def github_anchor(heading: str) -> str:
    """GitHub's heading-to-anchor slug: strip markdown emphasis/code and
    punctuation, lowercase, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            anchors.add(github_anchor(match.group(2)))
    return anchors


def iter_links(path: Path) -> list[tuple[int, str]]:
    links: list[tuple[int, str]] = []
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            links.append((lineno, match.group(1)))
    return links


def check_links() -> list[str]:
    errors: list[str] = []
    for path in doc_files():
        for lineno, target in iter_links(path):
            where = f"{path.relative_to(REPO_ROOT)}:{lineno}"
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            resolved = (path.parent / base).resolve() if base else path
            if not resolved.exists():
                errors.append(f"{where}: broken link -> {target}")
                continue
            if fragment and resolved.suffix == ".md":
                if github_anchor(fragment) not in anchors_of(resolved):
                    errors.append(
                        f"{where}: missing anchor #{fragment} in "
                        f"{resolved.relative_to(REPO_ROOT)}"
                    )
    return errors


def pycon_blocks(path: Path) -> list[tuple[int, str]]:
    """``(starting line, snippet)`` for every ```` ```pycon ```` fence."""
    blocks: list[tuple[int, str]] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    index = 0
    while index < len(lines):
        if _PYCON_FENCE.match(lines[index]):
            start = index + 1
            body: list[str] = []
            index += 1
            while index < len(lines) and not _FENCE.match(lines[index]):
                body.append(lines[index])
                index += 1
            blocks.append((start, "\n".join(body) + "\n"))
        index += 1
    return blocks


def check_doctests() -> list[str]:
    readme = REPO_ROOT / "README.md"
    errors: list[str] = []
    runner = doctest.DocTestRunner(
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    )
    parser = doctest.DocTestParser()
    for lineno, snippet in pycon_blocks(readme):
        test = doctest.DocTest(
            examples=parser.get_examples(snippet),
            globs={},
            name=f"README.md:{lineno}",
            filename=str(readme),
            lineno=lineno,
            docstring=snippet,
        )
        result = runner.run(test, clear_globs=True)
        if result.failed:
            errors.append(
                f"README.md:{lineno}: {result.failed} of "
                f"{result.attempted} doctest example(s) failed "
                "(re-run with python -m doctest on the snippet for detail)"
            )
    if not pycon_blocks(readme):
        errors.append("README.md: no ```pycon quickstart block found")
    return errors


def iter_references() -> list[tuple[str, int, str]]:
    """``(file, line, name)`` for every ``repro.*`` name the docs cite:
    backticked in the markdown docs (outside code fences) and as a role
    target in ``src/`` docstrings."""
    refs: list[tuple[str, int, str]] = []
    for path in doc_files():
        where = str(path.relative_to(REPO_ROOT))
        in_fence = False
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _FENCE.match(line):
                in_fence = not in_fence
            elif not in_fence:
                refs.extend(
                    (where, lineno, match.group(1))
                    for match in _DOC_NAME.finditer(line)
                )
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _ROLE.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            name = re.sub(r"\s+", "", match.group(1))
            refs.append((str(path.relative_to(REPO_ROOT)), lineno, name))
    return refs


def resolves(name: str) -> bool:
    """Does the dotted ``name`` exist (see the module docstring)?"""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        return False
    rest = parts[cut:]
    for index, attr in enumerate(rest):
        if not hasattr(owner, attr):
            return (
                index == len(rest) - 1
                and dataclasses.is_dataclass(owner)
                and attr in {item.name for item in dataclasses.fields(owner)}
            )
        owner = getattr(owner, attr)
    return True


def check_references() -> list[str]:
    return [
        f"{where}:{lineno}: {name} does not resolve"
        for where, lineno, name in iter_references()
        if not resolves(name)
    ]


def main() -> int:
    errors = check_links() + check_doctests() + check_references()
    for error in errors:
        print(error)
    checked = len(doc_files())
    if errors:
        print(f"{len(errors)} docs problem(s) across {checked} file(s)")
        return 1
    print(
        f"docs ok: links, README doctests and repro.* names pass in "
        f"{checked} doc file(s) and src/"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""CI docs check: relative links, README doctests, ``repro.*`` names and
quoted ``serve`` commands.

Four gates, run on every PR (``python tools/check_docs.py``):

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
3. **Dotted names** — every name the docs cite must exist: a
   backticked ``repro.*`` name in ``README.md`` and ``docs/*.md``, and
   the target of every ``:func:``, ``:class:``, ``:meth:``, ``:mod:``,
   ``:attr:`` and ``:data:`` role in a ``src/`` docstring (a target may
   wrap across lines).  A ``repro.*`` name resolves when its longest
   importable prefix imports and the rest is found by attribute
   lookup, which finds a ``__slots__`` name through its class
   descriptor; a dataclass field without a class-level default counts
   as found too.  A relative role target (``QueryScheduler.run_stream``,
   ``_admit``, ``ValueError``) is looked up the same way in the
   namespace of the module that cites it, then in each class that
   module defines, then in :mod:`builtins`; a dotted one found in none
   of them resolves as an absolute name (``dataclasses.replace``).
4. **Serve commands** — every ``serve`` command the docs quote must
   pass the CLI's argument parsing and mode checks
   (:func:`repro.bench.serve_bench.parse_serve_args`), without running:
   a code-fence line running ``python -m repro.bench serve`` (its ``#``
   comment stripped), and an inline code span outside the fences that
   holds such a command or starts ``serve --`` (a span may wrap across
   lines).

Exits non-zero listing every failure.  Needs the package importable
(``pip install -e .`` or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import doctest
import importlib
import io
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
#: A cross-reference role in a docstring; group 1 is its target.
_ROLE = re.compile(r":(?:func|class|meth|mod|attr|data):`~?([^`]*)`")
#: A markdown inline code span; group 1 is its text.
_SPAN = re.compile(r"`([^`]+)`")
#: A ``serve`` command, whitespace normalized; group 1 is its arguments.
_SERVE = re.compile(r"(?:python -m repro\.bench serve(?!\S)|serve(?= --))(.*)")


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


def iter_references() -> list[tuple[str, int, str, str | None]]:
    """``(file, line, name, module)`` for every name the docs cite:
    ``repro.*`` names backticked in the markdown docs (outside code
    fences), and every role target in ``src/`` docstrings.  ``module``
    is the dotted module a relative role target is resolved in, and
    ``None`` for a ``repro`` name."""
    refs: list[tuple[str, int, str, str | None]] = []
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
                    (where, lineno, match.group(1), None)
                    for match in _DOC_NAME.finditer(line)
                )
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for match in _ROLE.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            name = re.sub(r"\s+", "", match.group(1))
            refs.append((
                str(path.relative_to(REPO_ROOT)),
                lineno,
                name,
                None if name.split(".")[0] == "repro" else module,
            ))
    return refs


def _lookup(owner: object, rest: list[str]) -> bool:
    """Is the attribute path ``rest`` found from ``owner``?"""
    for index, attr in enumerate(rest):
        if not hasattr(owner, attr):
            return (
                index == len(rest) - 1
                and dataclasses.is_dataclass(owner)
                and attr in {item.name for item in dataclasses.fields(owner)}
            )
        owner = getattr(owner, attr)
    return True


def resolves(name: str, module: str | None = None) -> bool:
    """Does the dotted ``name`` exist (see the module docstring)?  A
    relative ``name`` is looked up in ``module`` first; a dotted one
    that is not found there may still name a module's attribute
    (``dataclasses.replace``)."""
    parts = name.split(".")
    if module is not None:
        namespace = importlib.import_module(module)
        classes = [
            value
            for value in vars(namespace).values()
            if isinstance(value, type) and value.__module__ == module
        ]
        owners = (namespace, *classes, builtins)
        if any(_lookup(owner, parts) for owner in owners):
            return True
        if len(parts) == 1:
            return False
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        return False
    return _lookup(owner, parts[cut:])


def check_references() -> list[str]:
    return [
        f"{where}:{lineno}: {name} does not resolve"
        for where, lineno, name, module in iter_references()
        if not resolves(name, module)
    ]


def iter_serve_commands() -> list[tuple[str, int, list[str]]]:
    """``(file, line, argv)`` for every ``serve`` command the docs quote
    (see the module docstring), in file and line order; a wrapped span
    is reported at the line it starts on."""
    commands: list[tuple[str, int, list[str]]] = []
    for path in doc_files():
        where = str(path.relative_to(REPO_ROOT))
        found: list[tuple[int, str]] = []
        prose: list[str] = []  # fenced lines blanked, so numbers hold
        in_fence = False
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if _FENCE.match(line):
                in_fence = not in_fence
                line = ""
            elif in_fence:
                found.append((lineno, line.split("#", 1)[0]))
                line = ""
            prose.append(line)
        text = "\n".join(prose)
        found.extend(
            (text.count("\n", 0, span.start()) + 1, span.group(1))
            for span in _SPAN.finditer(text)
        )
        for lineno, quoted in sorted(found):
            match = _SERVE.fullmatch(" ".join(quoted.split()))
            if match:
                commands.append((where, lineno, match.group(1).split()))
    return commands


def check_serve_commands() -> list[str]:
    from repro.bench.serve_bench import parse_serve_args

    errors: list[str] = []
    for where, lineno, argv in iter_serve_commands():
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                parse_serve_args(argv)
        except SystemExit as exc:
            reason = stderr.getvalue().strip().rpartition("error: ")[2]
            errors.append(
                f"{where}:{lineno}: serve {' '.join(argv)}: "
                f"{reason or f'exit {exc.code}'}"
            )
    return errors


def main() -> int:
    errors = (
        check_links()
        + check_doctests()
        + check_references()
        + check_serve_commands()
    )
    for error in errors:
        print(error)
    checked = len(doc_files())
    if errors:
        print(f"{len(errors)} docs problem(s) across {checked} file(s)")
        return 1
    print(
        f"docs ok: links, README doctests, cited names and quoted serve "
        f"commands pass in {checked} doc file(s) and src/"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

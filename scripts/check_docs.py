#!/usr/bin/env python
"""CI gate for the docs tree: links, anchors, flags, rule ids and symbols must exist.

Six checks over ``docs/*.md`` (plus ``README.md`` for links, anchors and
symbols):

* **links** — every internal markdown link ``[text](target)`` must point
  at a file that exists, resolved relative to the file containing the
  link (external ``http(s)://`` / ``mailto:`` targets are skipped);
* **anchors** — a link with a ``#fragment`` (same-file ``(#section)`` or
  cross-file ``(FILE.md#section)``) must name a real heading: the
  fragment has to match the GitHub-style slug of some heading in the
  target markdown file, so section references can never go dead;
* **flags** — every ``--flag`` token named in ``docs/*.md`` must exist in
  the ``fairank`` CLI parser (:func:`repro.cli.build_parser`, walked
  recursively through its subcommands), so documentation can never name
  an option the binary does not accept;
* **rule ids** — every ``FLnnn`` analysis rule id mentioned in
  ``docs/*.md`` must exist in the :mod:`repro.analysis` registry, so the
  rule catalogue in ``docs/ANALYSIS.md`` (and FL005's cross-reference in
  ``docs/OPERATIONS.md``) cannot drift from the shipped rule pack.
* **request examples** — every ```` ```json ```` block in
  ``docs/PROTOCOL.md`` whose ``kind`` is a request kind must parse through
  :func:`repro.service.request_from_json`, so a documented request is one
  the server accepts (response envelopes, which carry a ``payload``, are
  not requests and are skipped).
* **symbols** — every dotted ``repro.…`` name (``repro.service``,
  ``repro.core.scorestore.ScoreStore``, ...) must import, or resolve by
  ``getattr`` from the longest prefix that imports, so the docs cannot
  name a module, class or function the package no longer has.

Exit status 0 when clean, 1 with one line per problem otherwise.  Run it
from the repository root (CI does), or pass ``--root``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Set

#: ``[text](target)`` — target captured with any ``#fragment`` suffix.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A long-option token: ``--workers``, ``--slow-ms``, ... (word-bounded so
#: YAML comments or ``a--b`` text cannot produce false positives).
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: A static-analysis rule id (see repro.analysis.registry).
_RULE_ID = re.compile(r"\bFL\d{3}\b")

#: A markdown ATX heading (used to build anchor slugs).
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")

_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: A dotted name inside the package: ``repro.service``, ``repro.obs.log.ObsLogger``
#: (not a path such as ``src/repro/...``; a sentence's final dot is not taken).
_SYMBOL = re.compile(r"(?<![\w/.-])repro(?:\.[A-Za-z_]\w*)+")

#: A fenced ```json block (its body captured).
_JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _parser_flags() -> Set[str]:
    """Every long option the ``fairank`` parser (or a subcommand) accepts."""
    from repro.cli import build_parser

    flags: Set[str] = set()
    pending = [build_parser()]
    while pending:
        parser = pending.pop()
        for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
            flags.update(s for s in action.option_strings if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
                pending.extend(action.choices.values())
    return flags


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for one heading line."""
    text = heading.strip().lower()
    text = re.sub(r"`([^`]*)`", r"\1", text)            # drop code ticks
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # keep link text
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> Set[str]:
    """Every heading slug in a markdown file (with -1/-2 duplicate suffixes)."""
    slugs: Set[str] = set()
    counts: Dict[str, int] = {}
    in_code_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        match = _HEADING.match(line)
        if not match:
            continue
        slug = _slugify(match.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def check_links(markdown_files: List[Path]) -> List[str]:
    """Broken file targets *and* dead section anchors."""
    problems = []
    anchor_cache: Dict[Path, Set[str]] = {}
    for path in markdown_files:
        for raw_target in _LINK.findall(path.read_text(encoding="utf-8")):
            if raw_target.startswith(_EXTERNAL_PREFIXES):
                continue
            target, _, fragment = raw_target.partition("#")
            resolved = (path.parent / target).resolve() if target else path
            if not resolved.exists():
                problems.append(f"{path}: broken link -> {raw_target}")
                continue
            if not fragment or resolved.suffix.lower() != ".md":
                continue
            if resolved not in anchor_cache:
                anchor_cache[resolved] = _anchors(resolved)
            if fragment.lower() not in anchor_cache[resolved]:
                problems.append(
                    f"{path}: dead anchor -> {raw_target} "
                    f"(no heading slug '{fragment}' in {resolved.name})"
                )
    return problems


def check_flags(doc_files: List[Path]) -> List[str]:
    known = _parser_flags()
    problems = []
    for path in doc_files:
        for flag in sorted(set(_FLAG.findall(path.read_text(encoding="utf-8")))):
            if flag not in known:
                problems.append(
                    f"{path}: documents flag {flag} which no fairank "
                    "subcommand accepts"
                )
    return problems


def check_rule_ids(doc_files: List[Path]) -> List[str]:
    """Every FLnnn mentioned in docs must be a registered analysis rule."""
    from repro.analysis import rule_ids

    known = set(rule_ids())
    problems = []
    for path in doc_files:
        for rule_id in sorted(set(_RULE_ID.findall(path.read_text(encoding="utf-8")))):
            if rule_id not in known:
                problems.append(
                    f"{path}: mentions analysis rule {rule_id} which is not "
                    "in the repro.analysis registry"
                )
    return problems


def check_request_examples(protocol_doc: Path) -> List[str]:
    """Every documented request example must parse into a request."""
    import json

    from repro.errors import ServiceError
    from repro.server import REQUEST_ENDPOINTS
    from repro.service import request_from_json

    if not protocol_doc.exists():
        return []
    problems = []
    for block in _JSON_BLOCK.findall(protocol_doc.read_text(encoding="utf-8")):
        try:
            example = json.loads(block)
        except ValueError as error:
            problems.append(f"{protocol_doc}: json block does not parse: {error}")
            continue
        if (
            not isinstance(example, dict)
            or example.get("kind") not in REQUEST_ENDPOINTS
            or "payload" in example
        ):
            continue
        try:
            request_from_json(example)
        except ServiceError as error:
            problems.append(
                f"{protocol_doc}: documented {example['kind']} request is "
                f"rejected: {error}"
            )
    return problems


def _resolves(dotted: str) -> bool:
    """True when ``dotted`` imports, or is attributes of a module that does.

    Each step prefers a submodule over a same-named attribute, so
    ``repro.core.quantify`` names the module, not the function that
    ``repro.core`` re-exports under that name.
    """
    import importlib
    import importlib.util

    parts = dotted.split(".")
    target = importlib.import_module(parts[0])
    for depth in range(2, len(parts) + 1):
        module = ".".join(parts[:depth])
        if hasattr(target, "__path__") and importlib.util.find_spec(module) is not None:
            target = importlib.import_module(module)
        elif hasattr(target, parts[depth - 1]):
            target = getattr(target, parts[depth - 1])
        else:
            return False
    return True


def check_symbols(markdown_files: List[Path]) -> List[str]:
    """Every dotted ``repro.…`` name in the docs must resolve."""
    problems = []
    for path in markdown_files:
        for symbol in sorted(set(_SYMBOL.findall(path.read_text(encoding="utf-8")))):
            if not _resolves(symbol):
                problems.append(f"{path}: names {symbol} which does not resolve")
    return problems


def main(argv: List[str]) -> int:
    arguments = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    arguments.add_argument(
        "--root", default=".", help="repository root (default: cwd)"
    )
    options = arguments.parse_args(argv)
    root = Path(options.root).resolve()

    doc_files = sorted((root / "docs").glob("*.md"))
    if not doc_files:
        print(f"no docs/*.md files under {root}", file=sys.stderr)
        return 1
    link_files = list(doc_files)
    readme = root / "README.md"
    if readme.exists():
        link_files.append(readme)

    problems = (
        check_links(link_files)
        + check_flags(doc_files)
        + check_rule_ids(doc_files)
        + check_request_examples(root / "docs" / "PROTOCOL.md")
        + check_symbols(link_files)
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"docs check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    flag_count = sum(
        len(set(_FLAG.findall(path.read_text(encoding="utf-8"))))
        for path in doc_files
    )
    rule_count = sum(
        len(set(_RULE_ID.findall(path.read_text(encoding="utf-8"))))
        for path in doc_files
    )
    symbol_count = len(
        {
            symbol
            for path in link_files
            for symbol in _SYMBOL.findall(path.read_text(encoding="utf-8"))
        }
    )
    print(
        f"docs check OK: {len(link_files)} file(s); links and anchors "
        f"resolve, {flag_count} documented flag reference(s) and "
        f"{rule_count} rule id reference(s) exist, documented requests parse, "
        f"{symbol_count} repro symbol(s) resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Documentation checker: dead links/anchors and stale CLI commands.

``wsrs analyze --pass docscheck`` walks the repository's user-facing
Markdown (``README.md`` and ``docs/*.md`` by default) and fails on the two ways
docs rot against the code:

* **Dead intra-repo links**: every relative link target must exist on
  disk, and every fragment (``file.md#section`` or ``#section``) must
  match a heading of the target file under GitHub's anchor-slug rules
  (including the ``-1`` suffixes of duplicated headings).  External
  ``http(s)``/``mailto`` links are out of scope - CI must not depend on
  the network.

* **Stale commands**: every ``wsrs ...`` (or ``python -m repro ...``)
  line inside a fenced code block is tokenised with :mod:`shlex`
  (trailing ``# comments`` and backslash continuations handled) and
  replayed through the real :func:`repro.cli.build_parser` - a
  doctest-style guarantee that every command the docs show still parses
  against the current CLI: subcommand present, flags spelled right,
  choice values (configurations, benchmarks) still shipped.

* **Undocumented subcommands** (tree-wide mode only): the inverse
  direction - every subcommand :func:`repro.cli.build_parser` registers
  must be *mentioned* somewhere in the default documentation set
  (``wsrs <name>`` or ``repro <name>`` in prose or code), so a new CLI
  entry point cannot ship invisible to users.

Each kind of defect maps onto a stable rule id (:data:`RULES`), and the
message keeps the kind as a ``[kind]`` prefix.  Checks are purely
static - nothing is executed, so the job is fast and deterministic.
Used by the CI ``docs`` job; run locally after editing docs or the CLI.
"""

from __future__ import annotations

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyze.framework import AnalysisContext, Finding, analysis_pass

RULES = {
    "DOC-LINK": "relative markdown link target does not exist",
    "DOC-ANCHOR": "markdown anchor has no matching heading",
    "DOC-COMMAND": "documented wsrs command no longer parses",
    "DOC-CLI-COVERAGE": "CLI subcommand mentioned nowhere in the docs",
}

#: Markdown links/images: ``[text](target)`` with an optional title.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?"
                      r"(?:\s+\"[^\"]*\")?\s*\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
#: Inline markup stripped before slugging a heading.
_MARKUP_RE = re.compile(r"[`*_]|\[([^\]]*)\]\([^)]*\)")


def _finding(context: AnalysisContext, path: Path, line: int, kind: str,
             message: str) -> Finding:
    """A ``DOC-<KIND>`` finding whose message keeps the ``[kind]`` tag."""
    return Finding(pass_name="docscheck", rule=f"DOC-{kind.upper()}",
                   path=context.relpath(path), line=line,
                   message=f"[{kind}] {message}", severity="warning")


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug (sans duplicate suffixes)."""
    text = _MARKUP_RE.sub(lambda m: m.group(1) or "", heading).lower()
    kept = []
    for char in text:
        if char.isalnum() or char == "_":
            kept.append(char)
        elif char in " -":
            kept.append("-" if char == "-" else " ")
    return "".join(kept).strip().replace(" ", "-")


def _fence_mask(lines: Sequence[str]) -> List[bool]:
    """True for lines inside a fenced code block (fences included)."""
    mask = []
    fence: Optional[str] = None
    for line in lines:
        stripped = line.lstrip()
        if fence is None and (stripped.startswith("```")
                              or stripped.startswith("~~~")):
            fence = stripped[:3]
            mask.append(True)
        elif fence is not None:
            mask.append(True)
            if stripped.startswith(fence):
                fence = None
        else:
            mask.append(False)
    return mask


def heading_anchors(lines: Sequence[str]) -> Dict[str, int]:
    """Anchor slugs defined by a document (with GitHub -N dedup)."""
    mask = _fence_mask(lines)
    seen: Dict[str, int] = {}
    anchors: Dict[str, int] = {}
    for number, line in enumerate(lines, start=1):
        if mask[number - 1]:
            continue
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors[slug if not count else f"{slug}-{count}"] = number
    return anchors


def _check_links(path: Path, lines: Sequence[str],
                 context: AnalysisContext) -> List[Finding]:
    findings: List[Finding] = []
    mask = _fence_mask(lines)
    own_anchors = heading_anchors(lines)
    anchor_cache: Dict[Path, Dict[str, int]] = {path.resolve(): own_anchors}
    for number, line in enumerate(lines, start=1):
        if mask[number - 1]:
            continue
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, fragment = target.partition("#")
            if file_part:
                resolved = (path.parent / file_part).resolve()
                if not resolved.exists():
                    findings.append(_finding(
                        context, path, number, "link",
                        f"dead link target {target!r}"))
                    continue
            else:
                resolved = path.resolve()
            if not fragment:
                continue
            if resolved.suffix != ".md" or resolved.is_dir():
                continue
            anchors = anchor_cache.get(resolved)
            if anchors is None:
                anchors = heading_anchors(
                    resolved.read_text(encoding="utf-8").splitlines())
                anchor_cache[resolved] = anchors
            if fragment not in anchors:
                findings.append(_finding(
                    context, path, number, "anchor",
                    f"no heading for anchor {target!r}"))
    return findings


#: Fence info strings whose content is treated as shell commands.
_SHELL_LANGS = ("", "bash", "sh", "shell", "console")


def _command_lines(lines: Sequence[str]) -> List[Tuple[int, str]]:
    """(line number, logical line) for shell-language fenced-block lines,
    with backslash continuations joined onto their first line.

    Blocks tagged with a non-shell language (``python``, ``json``, ...)
    are skipped - a Python variable named ``wsrs`` is not a command.
    """
    logical: List[Tuple[int, str]] = []
    pending: Optional[Tuple[int, str]] = None
    fence: Optional[str] = None
    shell_block = False
    for number, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if fence is None:
            if stripped.startswith(("```", "~~~")):
                fence = stripped[:3]
                shell_block = (stripped[3:].strip().lower()
                               in _SHELL_LANGS)
            pending = None
            continue
        if stripped.startswith(fence):
            fence = None
            pending = None
            continue
        if not shell_block:
            continue
        text = line.strip()
        if pending is not None:
            start, acc = pending
            text = acc + " " + text
            number = start
        if text.endswith("\\"):
            pending = (number, text[:-1].strip())
            continue
        pending = None
        logical.append((number, text))
    return logical


def _cli_argv(text: str) -> Optional[List[str]]:
    """Extract the ``wsrs`` argv from a shell line, or None."""
    if text.startswith("$"):
        text = text[1:].strip()
    try:
        tokens = shlex.split(text, comments=True)
    except ValueError:
        return None
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens = tokens[1:]  # env-var prefixes (PYTHONPATH=src ...)
    if not tokens:
        return None
    if tokens[0] == "wsrs":
        return tokens[1:]
    if (len(tokens) >= 3 and tokens[0] in ("python", "python3")
            and tokens[1] == "-m" and tokens[2] == "repro"):
        return tokens[3:]
    return None


def _check_commands(path: Path, lines: Sequence[str],
                    context: AnalysisContext) -> List[Finding]:
    from repro.cli import build_parser

    findings: List[Finding] = []
    for number, text in _command_lines(lines):
        argv = _cli_argv(text)
        if argv is None:
            continue
        parser = build_parser()
        sink = io.StringIO()
        try:
            with redirect_stderr(sink), redirect_stdout(sink):
                parser.parse_args(argv)
        except SystemExit as exit_code:
            if exit_code.code not in (0, None):
                reason = sink.getvalue().strip().splitlines()
                findings.append(_finding(
                    context, path, number, "command",
                    f"documented command no longer parses: {text!r}"
                    + (f" ({reason[-1]})" if reason else "")))
    return findings


def cli_subcommands() -> List[str]:
    """Every subcommand name the real CLI parser registers."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    return []


#: ``wsrs <sub>`` / ``python -m repro <sub>`` mention, prose or code.
_MENTION_RE = re.compile(r"(?:\bwsrs\s+|\brepro\s+)([a-z][a-z0-9_-]*)")


def check_cli_coverage(paths: Sequence[Path],
                       context: AnalysisContext) -> List[Finding]:
    """Every CLI subcommand must be mentioned in the doc set.

    Findings anchor on README.md (line 0): the defect is an *absence*,
    so there is no specific line to blame.
    """
    mentioned = set()
    for path in paths:
        text = path.read_text(encoding="utf-8")
        mentioned.update(_MENTION_RE.findall(text))
    findings = []
    for name in cli_subcommands():
        if name not in mentioned:
            findings.append(_finding(
                context, context.root / "README.md", 0, "cli-coverage",
                f"CLI subcommand {name!r} is not mentioned in README.md "
                f"or docs/ (add a 'wsrs {name}' reference)"))
    return findings


def default_doc_targets(root: Path) -> List[Path]:
    """README plus everything under docs/ - the user-facing pages."""
    targets = []
    readme = root / "README.md"
    if readme.exists():
        targets.append(readme)
    targets.extend(sorted((root / "docs").glob("*.md")))
    return targets


@analysis_pass("docscheck",
               "docs link/anchor freshness + CLI command replay",
               rules=RULES)
def run_docscheck(context: AnalysisContext) -> List[Finding]:
    """Check the explicit markdown targets, or the default documentation
    set of the root.

    Only the default set gets the CLI-coverage check on top of the
    per-file link/anchor/command checks: coverage is a property of the
    whole doc set, so it does not run for explicit path lists.
    """
    targets = context.markdown_targets()
    tree_wide = not targets
    if tree_wide:
        targets = default_doc_targets(context.root)
    findings: List[Finding] = []
    for path in targets:
        lines = path.read_text(encoding="utf-8").splitlines()
        findings.extend(_check_links(path, lines, context))
        findings.extend(_check_commands(path, lines, context))
    if tree_wide:
        findings.extend(check_cli_coverage(targets, context))
    return findings

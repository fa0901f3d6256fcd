#!/usr/bin/env python3
"""Docs consistency check: every internal link and code reference in the markdown docs must
resolve against the working tree, so README/ARCHITECTURE cannot drift silently as the code
moves. Checked:

  - markdown links [text](target): non-http targets must exist (relative to the doc's dir,
    #fragments stripped);
  - backtick code spans naming repo paths (src/..., tests/..., bench/..., examples/...,
    docs/..., scripts/...): the file must exist; `path/file.{h,cc}` expands both; a trailing
    `:line` or `: Symbol` suffix is stripped, and a symbol suffix must also appear in the file;
  - backtick `bench_*` / example binary names in the provenance tables: a matching source file
    must exist under bench/ or examples/;
  - module-map completeness: every top-level src/ module directory must be mentioned in
    docs/ARCHITECTURE.md and README.md, so a new subsystem (src/history/ in PR 9, say)
    cannot land without its row in the handbook;
  - bare names in README.md and docs/ARCHITECTURE.md: a backtick span shaped like a C++ type
    or member (`Foo`, `Foo::bar`, with or without a call's parentheses) must name identifiers
    the code still has — each `::` part must appear as an identifier under src/, tests/,
    bench/, examples/ or perfbench/ — unless its sentence says the name was deleted, removed
    or is gone.
    ROADMAP.md and CHANGES.md are history and may name what the code no longer has.

Run from anywhere: paths resolve against the repo root (the parent of this script's dir).
Exits non-zero listing every unresolved reference. Stdlib only.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", REPO / "ROADMAP.md", *sorted((REPO / "docs").glob("*.md"))]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
REPO_PATH_RE = re.compile(r"^(?:src|tests|bench|examples|docs|scripts)/[\w./{},-]+$")
BINARY_RE = re.compile(r"^(bench_\w+|monitor_daemon|fleet_runner|quickstart|"
                       r"gray_failure_hunt|probe_matrix_explorer)$")
# `Foo`, `Foo::bar`, `Foo::bar()`: a capitalized name, optionally qualified, optionally called.
NAME_SPAN_RE = re.compile(r"^([A-Z]\w*(?:::\w+)*)(?:\([^()]*\))?$")
NAME_DOCS = [REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"]
CODE_DIRS = ["src", "tests", "bench", "examples", "perfbench"]
GONE_RE = re.compile(r"\b(deleted|removed|gone)\b", re.I)
# Sentence ends: a full stop followed by whitespace, a blank line, or a list bullet.
SENTENCE_END_RE = re.compile(r"[.!?]\s|\n\s*\n|\n\s*[-*] ")


def expand_braces(path: str):
    """`a/b.{h,cc}` -> [`a/b.h`, `a/b.cc`]; paths without braces pass through."""
    m = re.match(r"^(.*)\{([^}]+)\}(.*)$", path)
    if not m:
        return [path]
    return [m.group(1) + alt + m.group(3) for alt in m.group(2).split(",")]


def prose(doc: Path):
    """The doc without fenced code blocks: their backticks would desync inline-span pairing,
    and their contents (shell commands, ASCII diagrams) are not references."""
    return re.sub(r"```.*?```", "", doc.read_text(encoding="utf-8"), flags=re.S)


def check_doc(doc: Path):
    errors = []
    text = prose(doc)

    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        plain = target.split("#", 1)[0]
        if not plain:  # pure fragment link into the same document
            continue
        if not (doc.parent / plain).exists():
            errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")

    for span in CODE_SPAN_RE.findall(text):
        span = span.strip()
        if BINARY_RE.match(span):
            if not ((REPO / "bench" / f"{span}.cc").exists()
                    or (REPO / "examples" / f"{span}.cc").exists()):
                errors.append(f"{doc.relative_to(REPO)}: no source for binary `{span}`")
            continue
        # Split an optional `:line` / `: Symbol` suffix off a path-shaped span.
        path_part, symbol = span, None
        if ":" in span:
            path_part, suffix = span.split(":", 1)
            suffix = suffix.strip()
            if suffix and not suffix.isdigit():
                symbol = suffix
        if not REPO_PATH_RE.match(path_part):
            continue
        for candidate in expand_braces(path_part):
            target = REPO / candidate
            if not target.exists():
                # Extensionless module references (`src/topo/delta`) resolve via their header.
                if "." not in Path(candidate).name and (REPO / f"{candidate}.h").exists():
                    continue
                errors.append(f"{doc.relative_to(REPO)}: missing path `{span}`")
            elif symbol and target.is_file():
                # Symbol may be qualified (Class::Member); each piece must appear.
                leaf = symbol.split("::")[-1].split("(")[0].strip()
                if leaf and leaf not in target.read_text(encoding="utf-8", errors="replace"):
                    errors.append(
                        f"{doc.relative_to(REPO)}: `{candidate}` does not mention `{leaf}`")
    return errors


def code_identifiers():
    """Every identifier in the C++ and Python sources under CODE_DIRS."""
    names = set()
    for top in CODE_DIRS:
        for path in (REPO / top).rglob("*"):
            if path.suffix in (".h", ".cc", ".py") and path.is_file():
                text = path.read_text(encoding="utf-8", errors="replace")
                names.update(re.findall(r"[A-Za-z_]\w*", text))
    return names


def sentence_around(text: str, start: int, end: int):
    """The sentence holding text[start:end]."""
    begin = 0
    for m in SENTENCE_END_RE.finditer(text, 0, start):
        begin = m.end()
    m = SENTENCE_END_RE.search(text, end)
    return text[begin:m.start() + 1 if m else len(text)]


def check_names(doc: Path, identifiers):
    """Type- and member-shaped spans must name identifiers the code still has."""
    errors = []
    text = prose(doc)
    for m in CODE_SPAN_RE.finditer(text):
        name = NAME_SPAN_RE.match(m.group(1).strip())
        if not name:
            continue
        missing = [part for part in name.group(1).split("::") if part not in identifiers]
        if missing and not GONE_RE.search(sentence_around(text, m.start(), m.end())):
            errors.append(f"{doc.relative_to(REPO)}: `{m.group(1)}` names "
                          f"{', '.join(missing)}, which the code does not have")
    return errors


def check_module_map():
    """Every top-level src/ module must be mentioned in the handbook and the README."""
    errors = []
    modules = sorted(p.name for p in (REPO / "src").iterdir() if p.is_dir())
    for doc in (REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"):
        if not doc.exists():
            continue
        text = doc.read_text(encoding="utf-8")
        for module in modules:
            if f"src/{module}/" not in text:
                errors.append(
                    f"{doc.relative_to(REPO)}: module `src/{module}/` missing from the "
                    "module map")
    return errors


def main():
    missing_docs = [d for d in (REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md")
                    if not d.exists()]
    errors = [f"required doc missing: {d.relative_to(REPO)}" for d in missing_docs]
    errors.extend(check_module_map())
    for doc in DOCS:
        if doc.exists():
            errors.extend(check_doc(doc))
    identifiers = code_identifiers()
    for doc in NAME_DOCS:
        if doc.exists():
            errors.extend(check_names(doc, identifiers))
    if errors:
        print(f"docs check FAILED ({len(errors)} problems):")
        for err in errors:
            print(f"  {err}")
        return 1
    print(f"docs check OK ({len([d for d in DOCS if d.exists()])} documents)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

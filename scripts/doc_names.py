#!/usr/bin/env python3
"""Check that the code names DESIGN.md and README.md cite exist.

Usage: python3 scripts/doc_names.py [REPO]

Inline code spans (`...`) outside fenced blocks are read, and each is
checked for three kinds of name:

  path    a `Type::item` path (also `a::b::{c, d}` and `prefix_*`): every
          segment occurs as an identifier in the code lines (comments
          dropped) or as a file stem of the Rust sources under `crates/`,
          `src/`, `examples/`, `tests/` and `ledger/src`
  file    a `*.rs` path: it exists, from the repository root when it has
          a `/`, anywhere under those directories when it is a bare name
  row     a ledger row, `layer.metric` for one of the ledger's layers
          (`core.stage{1,2}_us_per_onboarding` expands): the quoted name
          occurs in `ledger/src/registry.rs`

DESIGN.md must also be shorter than 1 000 lines. Prints one line per
stale name and exits 1 if there is any, else prints the counts checked.
"""

import re
import sys
from pathlib import Path

DOCS = ("DESIGN.md", "README.md")
SOURCES = ("crates", "src", "examples", "tests", "ledger/src")
DESIGN_LINES = 1000
LAYERS = ("netproto", "fingerprint", "stream", "core", "ml", "sdn", "snapshot", "fleet", "devicesim")

SPAN = re.compile(r"`([^`]+)`")
WORD = re.compile(r"\b[A-Za-z_]\w*\b")
# `a::b`, `a::{b, c}`, `a::b_*`: segments are words, brace groups or prefixes.
PATH = re.compile(r"[A-Za-z_]\w*(?:::(?:[A-Za-z_]\w*\*?|\{[^}]*\}))+")
FILE = re.compile(r"[\w./-]*\w\.rs\b")
ROW = re.compile(r"\b(" + "|".join(LAYERS) + r")\.([\w{},]+)")


def spans(text):
    """Yield (line number, span) for inline code outside fenced blocks;
    a span may wrap a line, as Markdown allows."""
    kept, fenced = [], False
    for line in text.split("\n"):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            kept.append("")
        else:
            kept.append("" if fenced else line)
    body = "\n".join(kept)
    for match in SPAN.finditer(body):
        line = body.count("\n", 0, match.start()) + 1
        yield line, re.sub(r"\s+", " ", match.group(1)).replace(":: ", "::")


def expand(name):
    """`stage{1,2}_us` -> [`stage1_us`, `stage2_us`]."""
    match = re.search(r"\{([^}]*)\}", name)
    if not match:
        return [name]
    head, tail = name[: match.start()], name[match.end() :]
    return [n for part in match.group(1).split(",") for n in expand(head + part.strip() + tail)]


def segments(path):
    for segment in path.split("::"):
        if segment.startswith("{"):
            yield from (s.strip() for s in segment[1:-1].split(",") if s.strip())
        else:
            yield segment


def main():
    repo = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    sources = [p for d in SOURCES for p in sorted((repo / d).rglob("*.rs")) if "target" not in p.parts]
    identifiers = {p.stem for p in sources}
    for source in sources:
        for line in source.read_text(encoding="utf-8").splitlines():
            identifiers.update(WORD.findall(line.split("//", 1)[0]))
    basenames = {p.name for p in sources}
    registry = (repo / "ledger/src/registry.rs").read_text(encoding="utf-8")

    stale, counts = [], {"path": 0, "file": 0, "row": 0}
    for doc in DOCS:
        text = (repo / doc).read_text(encoding="utf-8")
        for line, span in spans(text):
            where = f"{doc}:{line}: `{span}`"
            for name in FILE.findall(span):
                counts["file"] += 1
                found = (repo / name).is_file() if "/" in name else name in basenames
                if not found:
                    stale.append(f"{where}: no file {name}")
            for layer, metric in ROW.findall(FILE.sub("", span)):
                for row in expand(f"{layer}.{metric}"):
                    counts["row"] += 1
                    if f'"{row}"' not in registry:
                        stale.append(f"{where}: no ledger row {row}")
            for path in PATH.findall(FILE.sub("", span)):
                counts["path"] += 1
                for segment in segments(path):
                    if segment.endswith("*"):
                        found = any(i.startswith(segment[:-1]) for i in identifiers)
                    else:
                        found = segment in identifiers
                    if not found:
                        stale.append(f"{where}: no identifier {segment}")
        if doc == "DESIGN.md":
            lines = text.count("\n")
            if lines >= DESIGN_LINES:
                stale.append(f"DESIGN.md: {lines} lines, the budget is under {DESIGN_LINES}")

    for problem in stale:
        print(problem)
    print(
        f"checked {counts['path']} paths, {counts['file']} files, {counts['row']} ledger rows: "
        f"{len(stale)} stale"
    )
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())

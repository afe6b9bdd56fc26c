#!/usr/bin/env python3
"""List the public surface of the library crates and who calls each item.

Usage: python3 scripts/pub_surface.py [REPO] [--all]

An item is a `pub` fn, struct, enum, trait, type alias, const or static
declared in `crates/<crate>/src` above its file's first module-level
`#[cfg(test)]` line (`pub(crate)`, `pub(super)` and `pub use` re-exports
are not items).
Each is looked up, by whole word, in the code lines (comments and `use`
statements dropped) of:

  ext     non-test code of every other crate, `src/` (the CLI) and `examples/`
  bench   the reproduction binaries, `crates/bench/src/bin`
  ledger  the benchmark package, `ledger/src`
  tier1   the root integration tests, `tests/`
  own     its own crate's non-test code, minus its definition line
  test    test code anywhere: lines below a `#[cfg(test)]`, `crates/*/tests`

and given the first reason that holds, in this order: `ext`, `bench`,
`ledger`, `tier1` (a named caller: the item stays public); `own` (its crate
uses it: `pub(crate)` will do); `test` (only tests call it); `unused`.
A `bench` item defined in `crates/bench` is called from its binaries, so it
counts as a named caller too.

Matching is by name, so a method named like another item (`new`, `len`)
counts every caller of the name: the list errs towards keeping an item.
Prints one line per item without a named caller (every item with `--all`),
then the counts per reason.
"""

import re
import sys
from collections import Counter
from pathlib import Path

ITEM = re.compile(
    r"^\s*pub\s+(const\s+fn|const\s+unsafe\s+fn|unsafe\s+fn|fn|struct|enum|trait|type|const|static)\s+(\w+)"
)
WORD = re.compile(r"\b\w+\b")
# A method or associated item is called through `.name` or `Type::name`.
PATH = re.compile(r"(?:\.|::)\s*(\w+)")
NAMED = ("ext", "bench", "ledger", "tier1")


def test_start(lines):
    """Index of the first module-level `#[cfg(test)]` line, or len(lines)."""
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return i
    return len(lines)


def code_words(lines, uses=True):
    """Yield (line index, set of words) for code lines, comments dropped, and
    `use` lines too unless `uses` (a crate's own `use`s and re-exports are
    not callers; another crate's `use` of a trait is its only mention)."""
    in_use = False
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        stripped = code.strip()
        if not in_use and re.match(r"^(pub(\(\w+\))?\s+)?use\s", stripped):
            in_use = True
        if in_use:
            if ";" in stripped:
                in_use = False
            if not uses:
                continue
        yield i, set(WORD.findall(code)) | {"." + w for w in PATH.findall(code)}


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    show_all = "--all" in sys.argv
    repo = Path(args[0] if args else ".").resolve()
    crates = sorted(p.name for p in (repo / "crates").iterdir() if (p / "src").is_dir())

    # words[(place, crate)] = Counter of words; place in ext/bench/ledger/tier1/own/test.
    words = {}
    items = []
    # sigs: (item, words on a line of its public declaration or body); a
    # type named there is reachable through the item.
    sigs = []

    def add(place, crate, ws):
        words.setdefault((place, crate), Counter()).update(ws)

    for crate in crates:
        for path in sorted((repo / "crates" / crate).rglob("*.rs")):
            rel = path.relative_to(repo)
            lines = path.read_text().splitlines()
            parts = rel.parts
            if parts[2] == "src" and "bin" in parts[3:-1]:
                for _, ws in code_words(lines):
                    add("bench", crate, ws)
                continue
            if parts[2] != "src":
                for _, ws in code_words(lines):
                    add("test", crate, ws)
                continue
            cut = test_start(lines)
            defs = {}
            owner = None  # the item whose body this line is in
            decl = None  # the item whose public declaration continues here
            for i, line in enumerate(lines[:cut]):
                code = line.split("//", 1)[0]
                m = ITEM.match(line)
                if m:
                    # An indented item sits in an `impl` or a `mod`: look it
                    # up as `.name` / `::name`, so it does not match every
                    # local of the same name.
                    name = m.group(2) if line[0] == "p" else "." + m.group(2)
                    defs[i] = name
                    items.append((crate, f"{rel}:{i + 1}", name))
                    decl = len(items) - 1
                    if line[0] == "p" and m.group(1) in ("struct", "enum", "trait") and "{" in code:
                        owner = (decl, m.group(1))
                elif line[:1] not in ("", " ", "}", "\t") and not line.startswith("#"):
                    owner = None
                ws = set(WORD.findall(code))
                if decl is not None:
                    sigs.append((items[decl], ws))
                    if "{" in code or code.rstrip().endswith(";"):
                        decl = None
                elif owner is not None:
                    # A struct shows its `pub` fields; an enum or trait its whole body.
                    if owner[1] != "struct" or re.match(r"\s+pub\s", code):
                        sigs.append((items[owner[0]], ws))
            for i, ws in code_words(lines, uses=False):
                if i >= cut:
                    add("test", crate, ws)
                else:
                    add("own", crate, ws - {defs[i]} if i in defs else ws)
            # Another crate's `use` of an item is a mention of it.
            for i, ws in code_words(lines[:cut]):
                add("use", crate, ws)

    for place, root in (("ext", "src"), ("ext", "examples"), ("ledger", "ledger/src"), ("tier1", "tests")):
        for path in sorted((repo / root).rglob("*.rs")) if (repo / root).is_dir() else []:
            lines = path.read_text().splitlines()
            cut = test_start(lines) if place != "tier1" else len(lines)
            for i, ws in code_words(lines):
                add(place if i < cut else "test", "", ws)

    def count(place, name, crate, own_crate):
        if place == "ext":
            return sum(c[name] for (p, k), c in words.items() if p == "use" and k != own_crate) + words.get(("ext", ""), Counter())[name]
        if place == "bench":
            return sum(c[name] for (p, k), c in words.items() if p == "bench")
        if place in ("ledger", "tier1"):
            return words.get((place, ""), Counter())[name]
        if place == "own":
            return words.get(("own", own_crate), Counter())[name]
        return sum(c[name] for (p, _), c in words.items() if p == "test")

    hits = {item: {p: count(p, item[2], item[0], item[0]) for p in NAMED + ("own", "test")} for item in items}
    # An item reached through the public signature of a kept one stays
    # public with it: `sig`.
    kept = {item for item in items if any(hits[item][p] for p in NAMED)}
    grew = True
    while grew:
        grew = False
        for item, ws in sigs:
            if item in kept:
                for other in items:
                    if other not in kept and other[0] == item[0] and other[2] in ws:
                        kept.add(other)
                        grew = True

    reasons = Counter()
    per_crate = Counter()
    for item in items:
        crate, where, name = item
        h = hits[item]
        reason = next((p for p in NAMED if h[p]), "sig" if item in kept else None)
        reason = reason or next((p for p in ("own", "test") if h[p]), "unused")
        reasons[reason] += 1
        named = reason in NAMED + ("sig",)
        if not named:
            per_crate[crate] += 1
        if show_all or not named:
            print(f"{reason:7} {crate:12} {name:32} {where}  " + " ".join(f"{p}={h[p]}" for p in h))
    print(f"# items: {len(items)}")
    for reason in NAMED + ("sig", "own", "test", "unused"):
        print(f"# {reason}: {reasons[reason]}")
    print(f"# without a named caller: {sum(per_crate.values())}  " + " ".join(f"{k}={v}" for k, v in sorted(per_crate.items())))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Fail if docs reference repo paths that do not exist, or name code that
is no longer at the line they point to.

Scans docs/*.md and README.md for tokens that look like repo paths
(src/..., tests/..., bench/..., examples/..., docs/..., tools/...), strips
any :line suffix, and lists every path that is missing from the tree — so
file moves and renames cannot silently strand the documentation. Glob-ish
tokens (containing * or <) are skipped.

Line pointers are checked too. Every path:N pointer must name the code it
points at with a backticked name directly before it, either
(`Sharded::commit`, src/parallel/sharded.h:1065) or
`run_planned` (src/parallel/sharded.h:744); template arguments and a
trailing () are stripped, and the name's last :: component must appear as
a word within +-3 lines of line N, so moved code cannot leave a pointer
aimed at the wrong lines. A pointer with no such name is reported as bare.
Exits 1 if any check finds anything.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The lookbehind keeps /usr/src/... and build/tests/... from matching on
# their src/ / tests/ substring: a repo path must not be preceded by a path
# character.
TOKEN = re.compile(
    r"(?<![A-Za-z0-9_./-])"
    r"((?:src|tests|bench|examples|docs|tools)/[A-Za-z0-9_./*<>-]+)")
# A path:N line pointer.
LINE_PTR = re.compile(
    r"(?<![A-Za-z0-9_./-])"
    r"((?:src|tests|bench|examples|docs|tools)/[A-Za-z0-9_./-]+?):(\d+)")
# The backticked name owning a pointer: `name`, path:N or `name` (path:N —
# the pointer may wrap onto the next line.
OWNER = re.compile(r"`([^`\n]+)`(?:,\s+|\s+\()$")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_:]*")
SLACK = 3

missing, stale, bare = [], [], []
for md in sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md"]:
    text = md.read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        for tok in TOKEN.findall(line):
            if "*" in tok or "<" in tok:
                continue  # glob / placeholder, not a concrete path
            path = re.sub(r":\d+(-\d+)?$", "", tok).rstrip(".,;:)")
            if not (ROOT / path).exists():
                missing.append(f"{md.relative_to(ROOT)}:{lineno}: {path}")
    for m in LINE_PTR.finditer(text):
        path, target = m.group(1), int(m.group(2))
        lineno = text.count("\n", 0, m.start()) + 1
        where = f"{md.relative_to(ROOT)}:{lineno}: {path}:{target}"
        owner = OWNER.search(text, max(0, m.start() - 200), m.start())
        name = owner.group(1) if owner else ""
        while re.search(r"<[^<>]*>", name):
            name = re.sub(r"<[^<>]*>", "", name)  # template arguments
        name = name.removesuffix("()")
        if not IDENT.fullmatch(name):
            bare.append(f"{where} has no backticked name before it")
            continue
        if not (ROOT / path).is_file():
            continue  # reported above
        word = re.compile(r"\b" + re.escape(name.split("::")[-1]) + r"\b")
        lines = (ROOT / path).read_text().splitlines()
        window = lines[max(0, target - 1 - SLACK):target + SLACK]
        if not any(word.search(l) for l in window):
            stale.append(f"{where}: `{name}` is not within {SLACK} lines")

if missing:
    print("stale doc links (path does not exist):")
    print("\n".join(missing))
if stale:
    print("stale doc line pointers (name not at the line):")
    print("\n".join(stale))
if bare:
    print("bare doc line pointers (name the code they point at):")
    print("\n".join(bare))
if missing or stale or bare:
    sys.exit(1)
print("doc links OK")

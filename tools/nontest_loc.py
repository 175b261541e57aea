#!/usr/bin/env python3
"""Prints the non-test Rust line count the ROADMAP tracks.

Counts every line of every `.rs` file under the repository root, except
files under a `tests/`, `benches/`, `perfbench/` or `target/` directory,
and except the lines of items marked `#[cfg(test)]` (the attribute, the
item, and its body).

    python3 tools/nontest_loc.py [ROOT]     # ROOT defaults to the repo root
"""

import os
import sys

SKIP_DIRS = {"tests", "benches", "perfbench", "target", ".git"}


def code_mask(text):
    """For each character, whether it is code (not inside a comment,
    string, or char literal), so brace counting sees only real braces."""
    mask = [True] * len(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        start = i
        if text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
        elif c == "r" and (text.startswith('r"', i) or text.startswith("r#", i)) and (
            i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            j = i + 1
            while j < n and text[j] == "#":
                j += 1
            if j < n and text[j] == '"':
                close = '"' + "#" * (j - i - 1)
                end = text.find(close, j + 1)
                i = n if end < 0 else end + len(close)
            else:
                i += 1
                continue
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}') or a lifetime ('a).
            if i + 1 < n and text[i + 1] == "\\":
                end = text.find("'", i + 2)
                i = n if end < 0 else end + 1
            elif i + 2 < n and text[i + 2] == "'":
                i += 3
            else:
                i += 1
                continue
        else:
            i += 1
            continue
        for k in range(start, min(i, n)):
            mask[k] = False
    return mask


def test_lines(text):
    """Line numbers (0-based) covered by `#[cfg(test)]` items."""
    mask = code_mask(text)
    covered = set()
    pos = 0
    while True:
        at = text.find("#[cfg(test)]", pos)
        if at < 0:
            return covered
        if not mask[at]:
            pos = at + 1
            continue
        # The item ends at its first top-level `;` or at the brace that
        # closes its first `{`.
        i, depth = at + len("#[cfg(test)]"), 0
        while i < len(text):
            if mask[i]:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                elif text[i] == ";" and depth == 0:
                    break
            i += 1
        first = text.count("\n", 0, at)
        last = text.count("\n", 0, i)
        covered.update(range(first, last + 1))
        pos = i + 1


def count(root):
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if not name.endswith(".rs"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                text = f.read()
            lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
            total += lines - len(test_lines(text))
    return total


if __name__ == "__main__":
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    print(count(sys.argv[1] if len(sys.argv) > 1 else default_root))

#!/usr/bin/env python3
"""Count the non-test source lines of every package in the workspace.

    python3 scripts/loc.py [REPO]

A non-test line is any line of a `src/**/*.rs` file outside a
`#[cfg(test)]` item, blank and comment lines included. An item starts at
its `#[cfg(test)]` (or at the `///` doc and `#[...]` attribute lines right
above it) and ends at the `;` or the closing `}` that ends it. Prints one
row per crate under `crates/`, one for the root package (`src/`), one for
`examples/*.rs` and a total; the `cfg(test)` column counts the lines
inside such items, so that code moved under `#[cfg(test)]` shows as
moved, not as deleted, and the `unsafe` column counts the `unsafe` blocks
and functions on non-test lines. `REPO` defaults to the repository that
holds this script, so the same script can count another checkout (a
parent commit, say).
"""

import re
import sys
from pathlib import Path

CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
UNSAFE = re.compile(r"\bunsafe\s*\{|\bunsafe\s+(?:extern\s+)?fn\b")
OPEN, CLOSE = "([{", ")]}"


def blank_literals(src):
    """`src` with every comment, string and char literal blanked to spaces.

    Newlines survive, so line numbers stay put:

    >>> blank_literals('let s = "{"; // }\\nlet c = \\'}\\';')
    'let s =    ;     \\nlet c =    ;'
    >>> blank_literals("fn f<'a>(x: &'a str) /* { */ {}")
    "fn f<'a>(x: &'a str)         {}"
    >>> blank_literals('r#"a"b"# x')
    '         x'
    """
    out = list(src)
    n, i = len(src), 0

    def blank(start, end):
        for k in range(start, min(end, n)):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            end = src.find("\n", i)
            end = n if end < 0 else end
        elif src.startswith("/*", i):
            depth, end = 1, i + 2
            while end < n and depth:
                if src.startswith("/*", end):
                    depth, end = depth + 1, end + 2
                elif src.startswith("*/", end):
                    depth, end = depth - 1, end + 2
                else:
                    end += 1
        elif c == "r" and re.match(r'r#*"', src[i:]):
            hashes = re.match(r"r(#*)\"", src[i:]).group(1)
            close = src.find('"' + hashes, i + len(hashes) + 2)
            end = n if close < 0 else close + len(hashes) + 1
        elif c == '"':
            end = i + 1
            while end < n and src[end] != '"':
                end += 2 if src[end] == "\\" else 1
            end += 1
        elif c == "'" and (src[i + 1 : i + 2] == "\\" or src[i + 2 : i + 3] == "'"):
            end = src.find("'", i + 3 if src[i + 1] == "\\" else i + 2) + 1
        else:
            i += 1
            continue
        blank(i, end)
        i = end
    return "".join(out)


def test_lines(src):
    """The 0-based numbers of the lines of `src` inside `#[cfg(test)]` items.

    >>> sample = '''/// Adds.
    ... pub fn add(a: u8, b: u8) -> u8 {
    ...     a + b
    ... }
    ...
    ... /// Widths the tests sweep.
    ... #[cfg(test)]
    ... const W: [usize; 2] = [1, 2];
    ...
    ... #[cfg(test)]
    ... mod tests {
    ...     const S: &str = "}";
    ...     #[test]
    ...     fn adds() {}
    ... }
    ... '''
    >>> sorted(test_lines(sample))
    [5, 6, 7, 9, 10, 11, 12, 13, 14]
    >>> len(sample.splitlines()) - len(test_lines(sample))
    6
    """
    code = blank_literals(src)
    lines = src.splitlines()
    line_of = [0] * (len(code) + 1)
    for k, ch in enumerate(code):
        line_of[k + 1] = line_of[k] + (ch == "\n")
    inside = set()
    for m in CFG_TEST.finditer(code):
        first = line_of[m.start()]
        while first and re.match(r"\s*(///|#\[)", lines[first - 1]):
            first -= 1
        depth, seen_brace, k = 0, False, m.end()
        while k < len(code):
            ch = code[k]
            if ch in OPEN:
                depth += 1
                seen_brace |= ch == "{" and depth == 1
            elif ch in CLOSE:
                depth -= 1
                if depth == 0 and ch == "}" and seen_brace:
                    break
            elif ch == ";" and depth == 0:
                break
            k += 1
        inside.update(range(first, line_of[k] + 1))
    return inside


def unsafe_count(src):
    """The `unsafe` blocks and functions of `src` outside `#[cfg(test)]` items.

    >>> unsafe_count('''// unsafe { in a comment }
    ... pub unsafe fn f() {}
    ... unsafe extern "C" fn g() {}
    ... fn h() { let s = "unsafe {"; unsafe { f() } }
    ... #[cfg(test)]
    ... mod tests { fn t() { unsafe { super::f() } } }
    ... ''')
    3
    """
    tests = test_lines(src)
    code = blank_literals(src).splitlines()
    return sum(len(UNSAFE.findall(line)) for k, line in enumerate(code) if k not in tests)


def count(paths):
    """`(non-test lines, cfg(test) lines, unsafe)` over the `.rs` files `paths`."""
    non_test = in_test = unsafe = 0
    for path in sorted(paths):
        src = path.read_text()
        tests = len(test_lines(src))
        in_test += tests
        non_test += len(src.splitlines()) - tests
        unsafe += unsafe_count(src)
    return non_test, in_test, unsafe


def main(argv):
    repo = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    crates = sorted(d for d in (repo / "crates").iterdir() if (d / "src").is_dir())
    rows = [(d.name, count((d / "src").rglob("*.rs"))) for d in crates]
    in_crates = tuple(map(sum, zip(*(r[1] for r in rows))))
    root = count((repo / "src").rglob("*.rs"))
    examples = count((repo / "examples").glob("*.rs"))
    rows += [
        ("crates total", in_crates),
        ("root (src/)", root),
        ("examples", examples),
        ("total", tuple(map(sum, zip(in_crates, root, examples)))),
    ]
    print(f"{'package':<14}{'non-test':>10}{'cfg(test)':>11}{'unsafe':>8}")
    for name, (non_test, in_test, unsafe) in rows:
        print(f"{name:<14}{non_test:>10,}{in_test:>11,}{unsafe:>8,}")


if __name__ == "__main__":
    main(sys.argv)

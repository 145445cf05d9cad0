"""Compare two eigenspan JSON reports, ignoring ``wall_time_s``.

    python tests/report_diff.py old.json new.json

Prints one line per differing path (old value, new value and, for numbers,
the absolute difference) and exits 0 when the reports agree, 1 otherwise.
Uses the standard library only.
"""

import json
import sys

MASKED = {"wall_time_s"}


class _Missing:
    """Stands for a key that one report lacks, so it never equals ``null``."""

    def __repr__(self):
        return "<missing>"


MISSING = _Missing()


def diff(old, new, path="$"):
    """Yield (path, old, new) for every leaf where the two trees differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in MASKED:
                yield from diff(old.get(key, MISSING), new.get(key, MISSING), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from diff(o, n, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: report_diff.py OLD.json NEW.json")
    trees = []
    for name in argv:
        with open(name) as fh:
            trees.append(json.load(fh))
    found = 0
    for path, old, new in diff(*trees):
        found += 1
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new))
        gap = f"  |d| = {abs(new - old):.3g}" if numbers else ""
        print(f"{path}: {old!r} -> {new!r}{gap}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

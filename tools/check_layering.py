#!/usr/bin/env python3
"""Module layering of src/: no library includes a module above it.

    check_layering.py [path/to/src]

The libraries build in one dependency order (DESIGN.md §3):

    util -> mem -> comm -> grid -> runtime -> gpu -> amr -> core
         -> service -> sim

A file under src/<module>/ may `#include "<other>/..."` only when <other>
is <module> itself or comes earlier in that order. Includes whose first
path component is not a module (system headers, generated files) are not
checked; a directory under src/ that is not in the order is a violation,
so a new module has to be placed before it can build.

Exit 0 = clean, 1 = violation, 2 = unusable input. Stdlib only.
"""

import pathlib
import re
import sys

ORDER = ["util", "mem", "comm", "grid", "runtime", "gpu", "amr", "core",
         "service", "sim"]
RANK = {m: i for i, m in enumerate(ORDER)}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/')
SOURCES = {".h", ".cc", ".inc"}


def violations(src):
    for module_dir in sorted(p for p in src.iterdir() if p.is_dir()):
        module = module_dir.name
        if module not in RANK:
            yield f"{module_dir}: module '{module}' is not in the layer order"
            continue
        for path in sorted(module_dir.rglob("*")):
            if path.suffix not in SOURCES:
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for n, line in enumerate(lines, 1):
                m = INCLUDE.match(line)
                if m and RANK.get(m.group(1), -1) > RANK[module]:
                    yield (f"{path}:{n}: {module} includes {m.group(1)}/ "
                           f"(above it in the layer order)")


def main(argv):
    src = pathlib.Path(argv[1] if len(argv) > 1 else
                       pathlib.Path(__file__).resolve().parent.parent / "src")
    if not src.is_dir():
        print(f"check_layering: {src} is not a directory", file=sys.stderr)
        return 2
    bad = list(violations(src))
    for v in bad:
        print(v)
    if bad:
        print(f"check_layering: {len(bad)} violation(s); order is "
              + " -> ".join(ORDER))
        return 1
    print(f"check_layering: {src} follows " + " -> ".join(ORDER))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""ISA hygiene of the core library: only the SIMD packet-kernel instances
may be built for a wider ISA than the baseline.

    check_isa_hygiene.py [--objdump PATH] path/to/librmcrt_core.a

ray_tracer_simd.cc compiles one packet-kernel source twice, inside
`#pragma GCC target` regions (DESIGN.md §14), and picks an instance at
runtime; everything else in the library must run on a baseline x86-64
CPU. The check disassembles the archive and fails when

  1. a function outside the two kernel instances contains a VEX or EVEX
     encoded instruction (AVX code leaked into baseline code, e.g. an
     inline header function first emitted inside a target region), or
  2. the AVX2 instance touches AVX-512 state: a zmm or mask (%k)
     register, or any EVEX encoding.

A function belongs to an instance when it lives in a namespace named for
its ISA (`avx2::`, `avx512::`) or its own name ends with the ISA tag
(`...Avx2(`, `...Avx512(`).

Register it only for baseline-ISA builds: an -march=x86-64-v3 build
carries VEX code everywhere. Exit 0 = clean, 1 = violation, 2 = unusable
input, 77 = objdump unavailable (ctest's skip code). Stdlib only.
"""

import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77

LABEL = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\t([0-9a-f ]+)\t(.*)$")
# Prefixes that may precede a VEX/EVEX prefix in 64-bit mode (segment
# overrides and address-size); 66/F2/F3/REX/LOCK before one is #UD.
SKIPPABLE_PREFIXES = {0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x67}
AVX512_STATE = re.compile(r"%zmm\d+|%k[0-7]\b")


def instance_of(name):
    """'avx512', 'avx2' or None (baseline) for a demangled symbol."""
    for isa, tag in (("avx512", "Avx512"), ("avx2", "Avx2")):
        if re.search(rf"(^|::){isa}::", name) or f"{tag}(" in name:
            return isa
    return None


def encoding(raw):
    """'vex', 'evex' or None for one instruction's raw bytes."""
    for byte in (int(b, 16) for b in raw.split()):
        if byte in SKIPPABLE_PREFIXES:
            continue
        if byte in (0xC4, 0xC5):  # LES/LDS are invalid in 64-bit mode
            return "vex"
        if byte == 0x62:  # BOUND is invalid in 64-bit mode
            return "evex"
        return None
    return None


def check(disassembly):
    """Return (violations, per-function summary) for objdump -d -w text."""
    violations = []
    functions = {}
    current = None
    for line in disassembly.splitlines():
        label = LABEL.match(line)
        if label:
            current = label.group(1)
            functions.setdefault(current, {"vex": 0, "evex": 0, "avx512": 0})
            continue
        insn = INSN.match(line)
        if not insn or current is None:
            continue
        raw, text = insn.groups()
        stats = functions[current]
        enc = encoding(raw)
        if enc:
            stats[enc] += 1
        if AVX512_STATE.search(text):
            stats["avx512"] += 1
    for name, stats in functions.items():
        isa = instance_of(name)
        wide = stats["vex"] + stats["evex"]
        if isa is None and wide:
            violations.append(f"baseline function uses {wide} VEX/EVEX "
                              f"instruction(s): {name}")
        if isa == "avx2" and (stats["evex"] or stats["avx512"]):
            violations.append(
                f"AVX2 instance touches AVX-512 state ({stats['evex']} "
                f"EVEX, {stats['avx512']} zmm/%k operand(s)): {name}")
    return violations, functions


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("archive", help="static library or object to inspect")
    ap.add_argument("--objdump", default="objdump",
                    help="objdump executable (default: objdump on PATH)")
    args = ap.parse_args()

    objdump = shutil.which(args.objdump)
    if objdump is None:
        print(f"skip: {args.objdump} not found", file=sys.stderr)
        return SKIP
    try:
        out = subprocess.run([objdump, "-d", "-C", "-w", args.archive],
                             check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: cannot disassemble {args.archive}: {e}",
              file=sys.stderr)
        return 2

    violations, functions = check(out)
    if not functions:
        print(f"error: no functions disassembled from {args.archive}",
              file=sys.stderr)
        return 2
    for isa in ("avx512", "avx2"):
        names = [n for n in functions if instance_of(n) == isa]
        insns = sum(functions[n]["vex"] + functions[n]["evex"] for n in names)
        print(f"{isa} instance: {len(names)} function(s), "
              f"{insns} VEX/EVEX instruction(s)")
    print(f"{len(functions)} functions checked")
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Symbolize a libeclipse_prof sample file and print where the host time went.

    python3 tools/prof/symbolize.py prof.txt [--top N]

Each sampled PC is mapped through the recorded /proc/self/maps to its ELF
file and virtual address, then to the enclosing function with `nm -C`.
libc, libm, libstdc++, libgcc_s and the dynamic loader are reported as one
line each: their time is the program's calls into them (memcpy, operator
new, ...), and their symbols say little on their own.
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

GROUPED = re.compile(r"^(libc|libm|libstdc\+\+|libgcc_s|ld-linux[^.]*)[.-]")
TEXT_TYPES = set("tTwWiI")


def read_profile(path):
    maps, pcs, header = [], [], ""
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if section is None:
                header = line
                section = "header"
            elif line in ("maps", "pcs"):
                section = line
            elif section == "maps":
                parts = line.split(None, 5)
                if len(parts) == 6 and "x" in parts[1]:
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "pcs" and line:
                pcs.append(int(line, 16))
    if not header.startswith("eclipse-prof "):
        sys.exit("%s: not a libeclipse_prof sample file" % path)
    maps.sort()
    return header, maps, pcs


def load_segments(path):
    """PT_LOAD (file offset, size, vaddr) triples of a 64-bit ELF file."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            endian = "<" if ident[5] == 1 else ">"
            phoff, = struct.unpack_from(endian + "Q", ident, 32)
            phentsize, phnum = struct.unpack_from(endian + "HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def load_symbols(path):
    """Sorted (address, name) of the text symbols `nm -C` finds in `path`."""
    syms = {}
    for extra in ([], ["-D"]):  # the dynamic table when .symtab is stripped
        try:
            out = subprocess.run(["nm", "-C", "--defined-only"] + extra + [path],
                                 capture_output=True, text=True, check=False).stdout
        except OSError:
            sys.exit("symbolize.py needs nm (binutils) on PATH")
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in TEXT_TYPES:
                syms.setdefault(int(parts[0], 16), parts[2])
        if syms:
            break
    table = sorted(syms.items())
    return [a for a, _ in table], [n for _, n in table]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25, help="entries to print (default 25)")
    args = ap.parse_args()

    header, maps, pcs = read_profile(args.profile)
    starts = [m[0] for m in maps]
    segments, symbols = {}, {}
    counts = collections.Counter()
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            counts["[unmapped]"] += 1
            continue
        lo, _, offset, path = maps[i]
        name = os.path.basename(path)
        if GROUPED.match(name) or not path.startswith("/"):
            counts["[%s]" % name] += 1
            continue
        file_off = pc - lo + offset
        if path not in segments:
            segments[path] = load_segments(path)
            symbols[path] = load_symbols(path)
        vaddr = next((file_off - o + v for o, size, v in segments[path]
                      if o <= file_off < o + size), None)
        addrs, names = symbols[path]
        j = bisect.bisect_right(addrs, vaddr) - 1 if vaddr is not None else -1
        counts[names[j] if j >= 0 else "[%s+0x%x]" % (name, file_off)] += 1

    total = len(pcs)
    print("%s: %d samples" % (args.profile, total))
    print(header)
    for sym, n in counts.most_common(args.top):
        print("%6.2f%% %7d  %s" % (100.0 * n / max(total, 1), n, sym))


if __name__ == "__main__":
    main()

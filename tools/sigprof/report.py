#!/usr/bin/env python3
"""Symbolises a sigprof profile and prints per-function CPU shares.

Usage: report.py PROFILE [--top N] [--by-object]

PROFILE is the file the sigprof preload library writes at exit
(SIGPROF_OUT): a header line, the process's /proc/self/maps, then one
sampled program counter per line. Each PC is mapped to the object file
that covered it, translated to that file's link-time address and
resolved with `addr2line -f -C` (one batched call per object). Samples
whose object has no symbol for the address are reported as
`?? [object]`.
"""

import argparse
import collections
import os
import subprocess
import sys


def parse_profile(path):
    maps, pcs, header = [], [], ""
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header = line
            elif line in ("maps", "pcs"):
                section = line
            elif section == "maps" and line:
                fields = line.split(None, 5)
                if len(fields) < 6 or "x" not in fields[1]:
                    continue  # Only executable mappings hold code.
                start, end = (int(v, 16) for v in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5]))
            elif section == "pcs" and line:
                pcs.append(int(line, 16))
    return header, maps, pcs


def is_fixed_address(path):
    """True for a non-PIE executable (ELF type ET_EXEC): PCs are already
    link-time addresses there."""
    try:
        with open(path, "rb") as f:
            ident = f.read(18)
    except OSError:
        return False
    if len(ident) < 18 or ident[:4] != b"\x7fELF":
        return False
    order = "little" if ident[5] == 1 else "big"
    return int.from_bytes(ident[16:18], order) == 2


def symbolise(obj, addresses):
    """Maps each link-time address in `addresses` to a function name."""
    names = {}
    if not os.path.exists(obj):
        return names
    ordered = sorted(addresses)
    try:
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", obj] + [hex(a) for a in ordered],
            check=True, capture_output=True, text=True).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        return names
    # Two lines per address: function, then file:line.
    for address, function in zip(ordered, out[0::2]):
        names[address] = function
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--by-object", action="store_true",
                        help="aggregate per object file, not per function")
    args = parser.parse_args()

    header, maps, pcs = parse_profile(args.profile)
    if not pcs:
        print(f"{header}\nno samples", file=sys.stderr)
        return 1
    maps.sort()
    starts = [m[0] for m in maps]

    per_object = collections.defaultdict(collections.Counter)
    unmapped = 0
    import bisect
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            unmapped += 1
            continue
        start, _, offset, obj = maps[i]
        address = pc if is_fixed_address(obj) else pc - start + offset
        per_object[obj][address] += 1

    shares = collections.Counter()
    for obj, counter in per_object.items():
        base = os.path.basename(obj)
        if args.by_object:
            shares[base] += sum(counter.values())
            continue
        names = symbolise(obj, counter.keys())
        for address, n in counter.items():
            name = names.get(address, "??")
            shares[f"{name} [{base}]"] += n
    if unmapped:
        shares["?? [unmapped]"] += unmapped

    total = len(pcs)
    print(f"{header}\n{total} samples")
    print(f"{'share':>7} {'samples':>8}  function [object]")
    for name, n in shares.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Turn a sigprof output file into a flat profile.

    python3 symbolize.py sigprof.<pid>... [--top N] [--thread PREFIX]
                         [--by-thread] [--lines]

Several files (runs of the same binary) pool their samples. Each row is
a share of all kept samples (of the selected threads):
function rows by default, source lines with inlined frames with --lines
(which wants a binary built with debug line tables), or one row per
thread name with --by-thread.

A program counter is mapped to a link-time address through the ELF LOAD
segments of the file it falls in (`readelf -lW`): file offset = pc -
mapping start + mapping offset, then the LOAD segment holding that
offset gives its virtual address. Functions come from `nm -C`, lines
from `addr2line -i -f -C`.
"""

import argparse
import bisect
import collections
import subprocess
import sys


def tool(*argv, stdin=None):
    return subprocess.run(argv, input=stdin, capture_output=True, text=True, check=False).stdout


def read_profile(path):
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "map":
                fields = rest.split(None, 5)
                if len(fields) == 6 and fields[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif kind == "pc":
                pc, _, thread = rest.partition("\t")
                pcs.append((int(pc, 16), thread))
            elif kind == "taken":
                print(line.strip(), file=sys.stderr)
    return sorted(maps), pcs


class Elf:
    """One mapped file: its LOAD segments and its sorted symbols."""

    def __init__(self, path):
        self.path = path
        self.loads = []
        for line in tool("readelf", "-lW", path).splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                offset, vaddr, filesz = int(f[1], 16), int(f[2], 16), int(f[4], 16)
                self.loads.append((offset, vaddr, max(filesz, 1)))
        syms = []
        for line in tool("nm", "-C", "-n", "--defined-only", path).splitlines():
            addr, _, rest = line.partition(" ")
            kind, _, name = rest.partition(" ")
            if kind in "tTwWiI" and addr.strip():
                syms.append((int(addr, 16), name))
        self.addrs = [a for a, _ in syms]
        self.names = [n for _, n in syms]

    def vaddr(self, file_offset):
        for offset, vaddr, size in self.loads:
            if offset <= file_offset < offset + size:
                return file_offset - offset + vaddr
        return None

    def function(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else "?"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profiles", nargs="+", help="one or more runs of the same binary")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--thread", default="", help="keep threads whose name starts with this")
    ap.add_argument("--by-thread", action="store_true")
    ap.add_argument("--lines", action="store_true")
    args = ap.parse_args()

    elves = {}
    located = []  # (path, vaddr, thread); path None when unmapped
    for profile in args.profiles:
        maps, pcs = read_profile(profile)
        starts = [m[0] for m in maps]
        for pc, thread in pcs:
            if not thread.startswith(args.thread):
                continue
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                located.append((None, pc, thread))
                continue
            lo, _, offset, path = maps[i]
            if path not in elves:
                elves[path] = Elf(path)
            located.append((path, elves[path].vaddr(pc - lo + offset), thread))

    rows = collections.Counter()
    if args.by_thread:
        rows.update(t for _, _, t in located)
    elif args.lines:
        by_file = collections.defaultdict(list)
        for path, vaddr, _ in located:
            if path and vaddr is not None:
                by_file[path].append(vaddr)
            else:
                rows["?"] += 1
        for path, addrs in by_file.items():
            unique = sorted(set(addrs))
            out = tool("addr2line", "-a", "-i", "-f", "-C", "-e", path,
                       stdin="\n".join(hex(a) for a in unique))
            frames, cur = {}, None
            lines = iter(out.splitlines())
            for line in lines:
                if line.startswith("0x"):
                    cur = int(line, 16)
                    frames[cur] = []
                elif cur is not None:
                    frames[cur].append(f"{line} @ {next(lines, '?')}")
            for a in addrs:
                # innermost frame first; the outer frames it was inlined into follow
                rows[" <- ".join(frames.get(a, ["?"])[:3])] += 1
    else:
        for path, vaddr, _ in located:
            if path is None or vaddr is None:
                rows["? (unmapped)"] += 1
            else:
                name = elves[path].function(vaddr)
                rows[name if elves[path].addrs else f"? ({path})"] += 1

    total = sum(rows.values()) or 1
    print(f"{total} samples")
    for name, n in rows.most_common(args.top):
        print(f"{100 * n / total:6.2f}% {n:7d}  {name}")


if __name__ == "__main__":
    main()

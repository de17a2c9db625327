#!/usr/bin/env python3
"""Link audit: which library functions does no product binary keep?

Stdlib plus binutils `nm`. Usage:

    link_audit.py --build-tree DIR BINARY [BINARY ...]

Reads every strong (`T`) symbol in the `erlb::` namespace that the
build tree's `liberlb_*.a` archives define and prints, per archive,
those that none of the listed binaries still holds after linking. Weak
(`W`) symbols are skipped: they are template and inline instantiations
such as `Result<...>::ok`, which every user re-emits and the linker
folds, so their absence says nothing. Names are compared demangled. The report is informational and always exits 0
unless an input is missing or `nm` fails.

A function survives the link only if something reaches it, so build the
binaries with per-function sections and let the linker drop unreached
ones. Build at -O0: at -O2/-O3 inlined functions leave no symbol in the
binary and show up as dead (serve::EncodeEntity,
ServeSession::NextPartition and Pcg32::Next do, for example, though the
daemon and the benchmark call them).

Main project (the seven example binaries):

    cmake -S . -B build-audit -DCMAKE_BUILD_TYPE=None \\
        -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \\
        -DERLB_BUILD_TESTS=OFF -DERLB_BUILD_BENCH=OFF
    cmake --build build-audit -j4

The repository benchmark (perfbench/, its own CMake project over the same
sources), with the same flags:

    cmake -S perfbench -B build-audit-perfbench -DCMAKE_BUILD_TYPE=None \\
        -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake --build build-audit-perfbench -j4

Then:

    tools/link_audit.py --build-tree build-audit \\
        build-audit/examples/{csv_dedup,erlb_serve,plan_inspect} \\
        build-audit/examples/{product_dedup,quickstart,skew_analysis} \\
        build-audit/examples/two_source_linkage \\
        build-audit-perfbench/erlb_perfbench

A symbol in the report is reached only by tests, benches or nothing. It
may still be worth keeping (a test fake, a reference oracle, a public
helper); the report is where that decision starts, not where it ends.
"""

import argparse
import glob
import os
import subprocess
import sys


def defined_symbols(path):
    """Returns [(type, demangled name)] of the symbols `path` defines."""
    proc = subprocess.run(["nm", "--defined-only", "--demangle", path],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"nm {path}: {proc.stderr.strip()}")
    out = []
    for line in proc.stdout.splitlines():
        # "<address> <type> <name>"; archive member headers ("x.o:") and
        # blank lines have no address field.
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            out.append((parts[1], parts[2]))
    return out


def audit(archives, binaries):
    """Returns {archive: sorted [name]} of strong erlb:: symbols that the
    archives define and no binary keeps."""
    kept = set()
    for binary in binaries:
        kept.update(name for _, name in defined_symbols(binary))
    report = {}
    for archive in archives:
        dead = {name for kind, name in defined_symbols(archive)
                if kind == "T" and name.startswith("erlb::")
                and name not in kept}
        report[archive] = sorted(dead)
    return report


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-tree", required=True,
                        help="build directory searched for liberlb_*.a")
    parser.add_argument("binaries", nargs="+",
                        help="linked binaries whose symbols count as kept")
    args = parser.parse_args(argv)

    archives = sorted(glob.glob(
        os.path.join(args.build_tree, "**", "liberlb_*.a"), recursive=True))
    if not archives:
        parser.error(f"no liberlb_*.a under {args.build_tree}")
    for path in archives + args.binaries:
        if not os.path.isfile(path):
            parser.error(f"no such file: {path}")

    try:
        report = audit(archives, args.binaries)
    except (OSError, RuntimeError) as e:
        print(f"link_audit: {e}", file=sys.stderr)
        return 2
    total = 0
    for archive, names in report.items():
        if not names:
            continue
        print(f"{os.path.basename(archive)} ({len(names)})")
        for name in names:
            print(f"  {name}")
        total += len(names)
    print(f"{total} strong erlb:: symbols defined in {len(archives)} "
          f"archives are kept by none of {len(args.binaries)} binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""End-to-end smoke test for the erlb_serve daemon.

Starts the daemon, waits for its LISTENING line, then drives the client
subcommands over the Unix socket:

  1. probe a title twice         -> both answers list identical pairs;
  2. insert a record, re-probe   -> the new record is linked;
  3. remove the record, re-probe -> the pair is gone again;
  4. stats                       -> counters agree with the traffic;
  5. shutdown                    -> daemon exits cleanly.

Usage: serve_smoke.py <erlb_serve binary> <socket path>
"""

import subprocess
import sys

PROBE_TITLE = "laser turntable mk4"
INSERT_ID = "555000001"
CORPUS_SIZE = 800  # seeded by the daemon; counts toward its insert stat


def fail(msg, daemon=None):
    if daemon is not None:
        daemon.kill()
        out, _ = daemon.communicate(timeout=30)
        sys.stderr.write("--- daemon output ---\n%s\n" % out)
    sys.stderr.write("serve_smoke: FAIL: %s\n" % msg)
    sys.exit(1)


def client(binary, sock, *args):
    """Runs one client subcommand; returns its stdout lines."""
    proc = subprocess.run(
        [binary, args[0], sock, *args[1:]],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail("client %s failed (rc=%d): %s"
             % (args, proc.returncode, proc.stderr.strip()))
    return proc.stdout.strip().splitlines()


def parse_stats(lines):
    stats = {}
    for line in lines:
        key, _, value = line.partition("=")
        stats[key] = int(value)
    return stats


def probe_pairs(binary, sock, title):
    """The probe's answer as its list of "a,b" pair lines."""
    lines = client(binary, sock, "probe", title)
    if not lines or not lines[0].startswith("pairs="):
        fail("malformed probe output: %r" % lines)
    pairs = lines[1:]
    if int(lines[0].split("=", 1)[1]) != len(pairs):
        fail("probe pair count disagrees with its pair lines: %r" % lines)
    return pairs


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    binary, sock = sys.argv[1], sys.argv[2]

    daemon = subprocess.Popen(
        [binary, "serve", sock, str(CORPUS_SIZE)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        line = daemon.stdout.readline()
        if not line.startswith("LISTENING"):
            fail("daemon did not announce LISTENING: %r" % line, daemon)

        # 1. The same probe twice over an unchanged corpus: identical
        # pair lists.
        before = probe_pairs(binary, sock, PROBE_TITLE)
        repeat = probe_pairs(binary, sock, PROBE_TITLE)
        if repeat != before:
            fail("identical probes answered differently "
                 "(%r vs %r)" % (before, repeat), daemon)

        # 2. Insert a record whose title equals the probe: the re-probe
        # must link it.
        client(binary, sock, "insert", INSERT_ID, PROBE_TITLE)
        after = probe_pairs(binary, sock, PROBE_TITLE)
        if len(after) != len(before) + 1:
            fail("expected exactly one new pair after insert "
                 "(before=%d after=%d)" % (len(before), len(after)), daemon)
        stats = parse_stats(client(binary, sock, "stats"))
        if stats["inserts"] != CORPUS_SIZE + 1:
            fail("stats inserts=%d, want %d"
                 % (stats["inserts"], CORPUS_SIZE + 1), daemon)

        # 3. Remove it again: the pair disappears.
        client(binary, sock, "remove", INSERT_ID)
        if probe_pairs(binary, sock, PROBE_TITLE) != before:
            fail("pair survived the remove", daemon)

        # 4. Final counter check.
        stats = parse_stats(client(binary, sock, "stats"))
        if stats["removes"] != 1:
            fail("stats removes=%d, want 1" % stats["removes"], daemon)
        if stats["batches_run"] < 4:
            fail("stats batches_run=%d, want >= 4" % stats["batches_run"],
                 daemon)
        if stats["probes_served"] < 4:
            fail("stats probes_served=%d, want >= 4"
                 % stats["probes_served"], daemon)

        # 5. Clean shutdown.
        client(binary, sock, "shutdown")
        if daemon.wait(timeout=60) != 0:
            fail("daemon exited nonzero", daemon)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    print("serve_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

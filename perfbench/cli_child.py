"""Run the g2kit command line, as ``python3 -m g2kit.cli ARGS`` does, and
record the process's own peak RSS.

Usage: ``python3 perfbench/cli_child.py RSS_PATH [--spans PATH] ARGS...``
(started by run.py).  With ``--spans`` the command runs under the tracer
of spans.py, and the spans are written to PATH.

The peak RSS of a child cannot come from ``wait4``: Linux counts the
parent's pages that the child held between fork and exec.  So the child
reads its own high-water mark, which exec resets, and writes it to
RSS_PATH in MB.
"""

import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    from g2kit.cli import main

    rss_path, args = sys.argv[1], sys.argv[2:]
    if args[:1] == ["--spans"]:
        import spans

        spans_path, args = args[1], args[2:]
        tracer = spans.Tracer()
        tracer.install()
        code = main(args)
        tracer.uninstall()
        tracer.dump(spans_path)
    else:
        code = main(args)
    sys.stdout.flush()
    with open(rss_path, "w", encoding="ascii") as out:
        out.write(f"{peak_rss_mb()}\n")
    sys.exit(code)

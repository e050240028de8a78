"""Run one bruhatcap CLI command in a fresh process, traced or profiled.

    python3 perfbench/launcher.py --trace-out spans.json -- capacity --type F --rank 4 --lambda 8,3,2,1
    python3 perfbench/launcher.py --profile-out prof.json -- table

Installs the benchmark's wrappers (or cProfile), then calls
`bruhatcap.cli.main(argv)`.  Stdout is the command's own output; the
spans or profile totals go to the named file.  The exit code is the
command's.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from tracer import Tracer, fraction_profile


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    out = ap.add_mutually_exclusive_group(required=True)
    out.add_argument("--trace-out")
    out.add_argument("--profile-out")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    workloads.ensure_package()
    from bruhatcap import cli

    if args.trace_out:
        tracer = Tracer()
        with tracer:
            code = cli.main(command)
        sys.stdout.flush()
        tracer.dump(args.trace_out)
        return code

    code, in_fractions, total = fraction_profile(lambda: cli.main(command))
    sys.stdout.flush()
    with open(args.profile_out, "w", encoding="utf-8") as fh:
        json.dump({"fractions_s": in_fractions, "total_s": total}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

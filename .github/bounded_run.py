"""Run a command; fail unless it exits 0 within a peak-RSS and a wall-time bound.

    python .github/bounded_run.py MAX_MB MAX_S [--json-key KEY] -- COMMAND...

The peak RSS is the largest resident set of the command's process
(RUSAGE_CHILDREN).  The command's stdout is discarded; with --json-key it
must instead be a JSON object that has KEY.  Prints one summary line.
"""

import argparse
import json
import resource
import subprocess
import sys
import time


def _json_object(text: str) -> dict:
    """text parsed as a JSON object; an empty one if text is not a JSON object."""
    try:
        value = json.loads(text)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("max_mb", type=float)
    parser.add_argument("max_s", type=float)
    parser.add_argument("--json-key", help="require this key in the JSON on stdout")
    parser.add_argument("command", nargs="+")
    args = parser.parse_args(argv)
    start = time.monotonic()
    run = subprocess.run(args.command, text=True,
                         stdout=subprocess.PIPE if args.json_key else subprocess.DEVNULL)
    wall_s = time.monotonic() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    ok = run.returncode == 0 and rss_mb <= args.max_mb and wall_s <= args.max_s
    summary = f"exit {run.returncode}, wall {wall_s:.1f} s, peak RSS {rss_mb:.0f} MB"
    if args.json_key:
        found = run.returncode == 0 and args.json_key in _json_object(run.stdout)
        summary += f", {args.json_key} {'present' if found else 'missing'}"
        ok = ok and found
    print(summary)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

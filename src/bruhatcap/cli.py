"""Command-line front end.

Subcommands: roots, graph, capacity, table, verify.  Every rational is
emitted exactly ('p/q' or integer string); there is no floating-point
formatting anywhere.  Graph exports and `roots --format json` are written
chunk by chunk as they are rendered, joined into blocks of at least
BLOCK_SIZE characters, so that a large export is a few large writes and
holds at most one block.  BC_GROUP_CAP overrides the default group cap;
it and the cap flags are read as counts (limits) before any command runs.

A command imports only the modules it runs: `roots` reads the root system
alone, `table` and `capacity` add the bounds, the graph modules load only
where a group is enumerated or a graph built, and the checks only for
`verify`.  `graph cayley` loads no Weyl group module and `graph bruhat` or
`graph quantum` no bounds module; json and csv load only for the formats
that write them.

`console_main` is the `bruhatcap` console script and `python -m
bruhatcap.cli`: it runs `main` and ends the process without interpreter
teardown.  `main(argv)` returns the exit code and leaves the process
alone, for the library and the tests.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NoReturn

from .errors import BruhatCapError, ValidationError
from .limits import (DEFAULT_CAYLEY_CAP, DEFAULT_CONFIRM_CAP, DEFAULT_GROUP_CAP, MAX_DIGITS,
                     read_count)
from .rootsystem import (build, checked_weight, json_chunks, json_item, parabolic_positions,
                         parse_rational, rational_str, spelled_digits, vector_strs)

# The names of checks.ALL_CHECKS, for the help text of `verify`.
CHECK_NAMES = ("unitary-diameter", "type-c-sharp", "table", "height-lemma", "decompositions",
               "postnikov", "triangle", "sandwich", "coweight")

# The least text written at once: the Linux pipe capacity.  A per-vertex
# chunk is about 1 KB, and with unbuffered stdout (PYTHONUNBUFFERED) each
# would be a write of its own that wakes the reader.
BLOCK_SIZE = 1 << 16


def _env_group_cap() -> int:
    raw = os.environ.get("BC_GROUP_CAP")
    if raw is None:
        return DEFAULT_GROUP_CAP
    try:
        raw = int(raw)
    except ValueError:
        pass  # read_count refuses the text, by name
    return read_count("BC_GROUP_CAP", raw)


def _read_caps(args) -> None:
    """--confirm-cap, --group-cap and --cayley-cap read as counts (limits.read_count)."""
    for name in ("confirm_cap", "group_cap", "cayley_cap"):
        cap = getattr(args, name, None)
        if cap is not None:
            read_count(f"--{name.replace('_', '-')}", cap)


def parse_lambda(raw: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals: '3,2,1' or '3/2,-1,0', at most MAX_DIGITS digits in all."""
    parts = raw.split(",")
    if not all(p.strip() for p in parts):
        raise ValidationError(f"empty entry in lambda {raw[:40]!r}")
    if sum(map(spelled_digits, parts)) > MAX_DIGITS:
        raise ValidationError(f"lambda spells more than {MAX_DIGITS} digits")
    return tuple(parse_rational(p) for p in parts)


def default_table_lambda(rs) -> tuple[Fraction, ...]:
    """Documented default sample: lambda = sum_i (rank+1-i) * omega_i, a
    regular dominant weight."""
    from .capacity import dominant_from_pairings

    return dominant_from_pairings(rs, [rs.rank - i for i in range(rs.rank)])


def _detach_stdout() -> None:
    """Point stdout at devnull, so that the flush at exit does not fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _blocks(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks joined into blocks of at least BLOCK_SIZE characters.

    Only the last block may be shorter, no block is empty, and a chunk is
    never split, so a chunk longer than BLOCK_SIZE passes whole.  At most
    one block is held at a time."""
    held: list[str] = []
    n = 0
    for chunk in chunks:
        held.append(chunk)
        n += len(chunk)
        if n >= BLOCK_SIZE:
            yield "".join(held)
            held = []
            n = 0
    if n:
        yield "".join(held)


def _emit(text: str | Iterable[str], path: str | None) -> None:
    """Write text, or a stream of text chunks, to the file at path or to stdout,
    in blocks of at least BLOCK_SIZE characters.

    The file is opened only here, after the command has checked its input,
    so a refused input leaves an existing file untouched.  Stdout is flushed
    here, so a failed write shows as an error here, not at exit."""
    blocks = _blocks((text,) if isinstance(text, str) else text)
    if not path:
        if sys.stdout is None:  # the process started without fd 1
            raise ValidationError(f"cannot write <stdout>: {os.strerror(errno.EBADF)}")
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except BrokenPipeError:
            raise  # the reader went away: not an error of this command
        except OSError as exc:
            _detach_stdout()
            raise ValidationError(f"cannot write <stdout>: {exc.strerror or exc}") from None
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _add_type_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", "-t", required=True, help="family letter A..G")
    p.add_argument("--rank", "-r", required=True, type=int)


# ---------------------------------------------------------------------------


def _root_rows(rs):
    """The rows of `roots`, one dict per positive root, made as they are read."""
    for i in rs.positive:
        yield {
            "root": vector_strs(rs.roots[i]),
            "coroot": vector_strs(rs.coroot(i)),
            "coroot_coefficients": list(rs.coroot_coefficients(i)),
            "height": rs.coroot_height(i),
            "simple": i in rs.simple,
            "highest": i == rs.highest,
        }


def _csv_text(header: list[str], rows) -> str:
    """The CSV text of a header and its rows, as csv.writer writes them."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_roots(args) -> int:
    rs = build(args.type, args.rank)
    if args.format == "json":
        payload = {
            "type": rs.family,
            "rank": rs.rank,
            "ambient_dim": rs.ambient_dim,
            "n_roots": len(rs.roots),
            "n_positive": len(rs.positive),
            "weyl_order": rs.weyl_order,
            "highest_root": vector_strs(rs.rho),
            "simple_roots": [vector_strs(rs.roots[i]) for i in rs.simple],
        }
        # One block per row, so that the rows are never all held.
        _emit(json_chunks(payload, {"positive_roots": map(json_item, _root_rows(rs))}),
              args.output)
    elif args.format == "csv":
        _emit(_csv_text(
            ["root", "coroot", "coroot_coefficients", "height", "simple", "highest"],
            ([" ".join(row["root"]), " ".join(row["coroot"]),
              " ".join(map(str, row["coroot_coefficients"])),
              row["height"], row["simple"], row["highest"]] for row in _root_rows(rs)),
        ), args.output)
    else:
        lines = [
            f"{rs.family}{rs.rank}: {len(rs.roots)} roots, {len(rs.positive)} positive, "
            f"|W| = {rs.weyl_order}",
            f"highest root rho = ({','.join(vector_strs(rs.rho))})",
            "positive roots (root | coroot | height):",
        ]
        for row in _root_rows(rs):
            mark = " *" if row["simple"] else ("  <- rho" if row["highest"] else "")
            lines.append(
                f"  ({','.join(row['root'])}) | ({','.join(row['coroot'])}) | {row['height']}{mark}"
            )
        lines.append("(* marks simple roots)")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_graph(args) -> int:
    from . import graphs

    lam = parse_lambda(args.lam) if args.lam is not None else None
    if args.kind == "cayley":
        if args.n is None:
            raise ValidationError("graph cayley requires --n")
        if lam is None:
            raise ValidationError("graph cayley requires --lambda")
        graph = graphs.cayley_graph(args.n, lam, cap=args.cayley_cap)
        _emit(graphs.export_chunks(graph, args.format), args.output)
        return 0
    from .weyl import generate

    if not args.type or args.rank is None:
        raise ValidationError(f"graph {args.kind} requires --type and --rank")
    rs = build(args.type, args.rank)
    s_p = ()
    if lam is not None:  # decorates edges with areas and, for bruhat, induces S_P
        lam = checked_weight(rs, lam)
        s_p = parabolic_positions(rs, lam)
    weyl = generate(rs, cap=args.group_cap)
    if args.kind == "quantum":
        graph = graphs.quantum_bruhat_graph(weyl)
    else:
        graph = graphs.bruhat_graph(weyl, weyl.parabolic(s_p))
    _emit(graphs.export_chunks(graph, args.format, lam=lam), args.output)
    return 0


def cmd_capacity(args) -> int:
    from . import capacity

    lam = parse_lambda(args.lam)
    bounds = capacity.hz_bounds(
        args.type, args.rank, lam,
        confirm_cap=args.confirm_cap, group_cap=args.group_cap,
    )
    if args.format == "json":
        import json

        _emit(json.dumps(bounds.as_dict(), indent=2, sort_keys=True) + "\n", args.output)
        return 0
    lines = [
        f"type {bounds.family}{bounds.rank}, lambda = ({','.join(vector_strs(bounds.lam_input))})",
    ]
    if bounds.lam != bounds.lam_input:
        lines.append(
            f"projected onto the root plane: ({','.join(vector_strs(bounds.lam))})"
        )
    lines += [
        f"lower bound  = {rational_str(bounds.lower)}   (witness simple root alpha_{bounds.witness + 1})",
        f"upper bound  = {rational_str(bounds.upper)}",
    ]
    if bounds.exact is not None:
        lines.append(f"exact value  = {rational_str(bounds.exact)}")
    lines.append(
        "decomposition roots: "
        + "; ".join("(" + ",".join(vector_strs(v)) + ")" for v in bounds.decomposition.vectors)
    )
    if bounds.d_min_degree is not None:
        lines.append(f"d_min(w0, e) = {tuple(bounds.d_min_degree)}")
    if bounds.min_area is not None:
        lines.append(f"min path area (Bruhat graph) = {rational_str(bounds.min_area)}")
    lines.append("checks: " + ", ".join(f"{k}={v}" for k, v in bounds.checks.items()))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _group_label(fam: str, rank: int) -> str:
    if fam == "A":
        return f"U({rank + 1})"
    if fam == "C":
        return f"Sp({2 * rank})"
    if fam in ("B", "D"):
        n = 2 * rank + (1 if fam == "B" else 0)
        return f"SO({n})=SO(4m+{n % 4})"
    return f"{fam}{rank}"


def cmd_table(args) -> int:
    from . import capacity

    lam_fixed = parse_lambda(args.lam) if args.lam is not None else None
    wanted = capacity.TABLE_TYPES
    if args.type:
        wanted = tuple((f, r) for f, r in wanted if f == args.type.upper())
    if args.rank is not None:
        wanted = tuple((f, r) for f, r in wanted if r == args.rank)
    if not wanted:
        raise ValidationError("no table rows match the requested type/rank")
    if lam_fixed is not None and len(wanted) != 1:
        raise ValidationError("--lambda with `table` needs a single row (--type and --rank)")
    header = [
        "family", "rank", "group", "lambda",
        "lower_closed_form", "lower_first_principles",
        "upper_closed_form", "upper_first_principles",
        "lower_match", "upper_match", "sharp", "exact_value",
    ]
    rows = []
    all_match = True
    for fam, rank in wanted:
        rs = build(fam, rank)
        lam = lam_fixed if lam_fixed is not None else default_table_lambda(rs)
        dec = capacity.w0_decomposition(rs)
        lam, closed_low, low, closed_up, up = capacity.table_row(rs, lam, dec)
        exact = capacity.unitary_capacity(lam) if fam == "A" else None
        lower_match = closed_low == low
        upper_match = closed_up == up
        all_match = all_match and lower_match and upper_match
        rows.append([
            fam, rank, _group_label(fam, rank),
            " ".join(vector_strs(lam)),
            rational_str(closed_low), rational_str(low),
            rational_str(closed_up), rational_str(up),
            lower_match, upper_match, low == up,
            rational_str(exact) if exact is not None else "",
        ])
    _emit(_csv_text(header, rows), args.output)
    return 0 if all_match else 2


def cmd_verify(args) -> int:
    from . import checks

    names = [n.strip() for n in args.only.split(",")] if args.only is not None else None
    results = checks.run_checks(
        names=names, seed=args.seed, type_filter=args.type, rank_filter=args.rank
    )
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.name} ({res.seconds:.2f}s): {res.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 2


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatcap",
        description="Exact capacity bounds for coadjoint orbits via Bruhat-type graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="list roots, coroots and heights of a type")
    _add_type_args(p_roots)
    p_roots.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_roots.add_argument("--output", "-o", default=None)
    p_roots.set_defaults(func=cmd_roots)

    p_graph = sub.add_parser("graph", help="export a Bruhat, quantum Bruhat or Cayley graph")
    p_graph.add_argument("kind", choices=["bruhat", "quantum", "cayley"])
    p_graph.add_argument("--type", "-t", default=None)
    p_graph.add_argument("--rank", "-r", type=int, default=None)
    p_graph.add_argument("--n", type=int, default=None, help="symmetric group size (cayley)")
    p_graph.add_argument("--lambda", dest="lam", default=None,
                         help="comma-separated rationals; for bruhat, induces S_P and areas")
    p_graph.add_argument("--format", choices=["dot", "json"], default="dot")
    p_graph.add_argument("--group-cap", type=int, default=_env_group_cap())
    p_graph.add_argument("--cayley-cap", type=int, default=DEFAULT_CAYLEY_CAP)
    p_graph.add_argument("--output", "-o", default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_cap = sub.add_parser("capacity", help="compute capacity bounds for a dominant weight")
    _add_type_args(p_cap)
    p_cap.add_argument("--lambda", dest="lam", required=True)
    p_cap.add_argument("--format", choices=["text", "json"], default="text")
    p_cap.add_argument("--confirm-cap", type=int, default=DEFAULT_CONFIRM_CAP,
                       help="enumerate W and run graph confirmations when |W| is at most this")
    p_cap.add_argument("--group-cap", type=int, default=_env_group_cap())
    p_cap.add_argument("--output", "-o", default=None)
    p_cap.set_defaults(func=cmd_capacity)

    p_table = sub.add_parser(
        "table",
        help="closed-form bounds vs first principles, one CSV row per type; "
        "default lambda per row is sum_i (rank+1-i)*omega_i",
    )
    p_table.add_argument("--type", "-t", default=None)
    p_table.add_argument("--rank", "-r", type=int, default=None)
    p_table.add_argument("--lambda", dest="lam", default=None,
                         help="fixed weight (requires a single row via --type/--rank)")
    p_table.add_argument("--output", "-o", default=None)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--only", default=None,
                          help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
    p_verify.add_argument("--type", "-t", default=None, help="restrict typed checks to a family")
    p_verify.add_argument("--rank", "-r", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--output", "-o", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        # build_parser reads BC_GROUP_CAP, which can be malformed or negative
        args = build_parser().parse_args(argv)
        _read_caps(args)
        return args.func(args)
    except BruhatCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        _detach_stdout()  # the reader of stdout went away
        return 1


def console_main() -> NoReturn:
    """Run main() on sys.argv and end the process with its exit code, skipping
    interpreter teardown.

    The atexit handlers run and stdout and stderr are flushed, as at a normal
    exit; then os._exit ends the process without finalizing modules and
    freeing every object, which took 10-39 ms per command on a 2-vCPU
    machine.  An exception or SystemExit leaving main (argparse's --help and
    usage errors), or a failed flush here, takes the normal exit path."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started without its fd
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()

"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 not in cone,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction

from . import asymptotics, decomposition, diagrams, secant
from .errors import BettiConeError, NotInCone

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_IN_CONE = 3
EXIT_IO = 4


# one item of a comma list: ASCII digits with an optional sign, and for a
# decimal a point and an exponent; no "_", no empty item
_LIST_ITEM = {
    int: (re.compile(r"\s*[+-]?\d+\s*", re.ASCII), "an integer"),
    float: (
        re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)(e[+-]?\d+)?\s*", re.ASCII | re.IGNORECASE),
        "a decimal number",
    ),
}


# the most characters of a refused item that its message repeats
_ITEM_SHOWN = 20


def _past_the_digit_limit(what: str, after: str = "") -> ValueError:
    """The refusal of what, a number past the interpreter's int digit
    limit: it names the limit, never the digits."""
    limit = f"the limit of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())"
    return ValueError(f"{what} has more digits than {limit}{after}")


def _parse_list(text: str, flag: str, kind: type = int) -> list:
    """The numbers of flag's comma list; ValueError names flag and the first
    item that is not an ASCII integer (or decimal, for kind float), by its
    position and its first _ITEM_SHOWN characters, or that has more digits
    than sys.get_int_max_str_digits() lets int read, by its position and
    the limit alone. A decimal has no such limit: a long one reads as inf."""
    pattern, noun = _LIST_ITEM[kind]
    numbers = []
    for i, item in enumerate(text.split(","), 1):
        if not pattern.fullmatch(item):
            shown = repr(item[:_ITEM_SHOWN]) + ("..." if len(item) > _ITEM_SHOWN else "")
            raise ValueError(f"{flag} item {i} ({shown}) is not {noun}")
        try:
            numbers.append(kind(item))
        except ValueError:  # a matched item fails only past the digit limit
            raise _past_the_digit_limit(f"{flag}: item {i}") from None
    return numbers


# The most cells render_table lays out. Its time and memory grow with the
# rectangle, not with the nonzero cells --format json prints: 100,001 rows
# of two columns took 0.48 s and 44 MB (2-CPU x86_64, Python 3.11.7).
_TABLE_CELLS_MAX = 100_000


def _table_rectangle(b: diagrams.BettiDiagram) -> tuple:
    """(q_lo, reg, pd): render_table's rows q_lo..reg and columns 0..pd,
    counted from the support before any row is built. ValueError if they
    hold more than _TABLE_CELLS_MAX cells."""
    pd = diagrams.projective_dimension(b)
    reg = diagrams.regularity(b)
    q_lo = min(min(q for (_, q) in b.support()), 0)
    cells = (reg - q_lo + 1) * (pd + 1)
    if cells > _TABLE_CELLS_MAX:
        raise ValueError(
            f"the table has {cells} cells, above the ceiling of {_TABLE_CELLS_MAX}; "
            "use --format json"
        )
    return q_lo, reg, pd


def render_table(b: diagrams.BettiDiagram) -> str:
    """Aligned text table, rows q = min(0, least weight)..regularity,
    columns p = 0..pd, of at most _TABLE_CELLS_MAX cells.

    Zeros inside the rectangle print as "-".
    """
    q_lo, reg, pd = _table_rectangle(b)
    grid = [[""] + [str(p) for p in range(pd + 1)]]
    for q in range(q_lo, reg + 1):
        grid.append([str(q)] + [str(b.get(p, q) or "-") for p in range(pd + 1)])
    widths = [max(len(r[c]) for r in grid) for c in range(pd + 2)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip() for r in grid]
    return "\n".join(lines)


def _unprintable_cell(b: diagrams.BettiDiagram):
    """The first cell (p, q), in (p, q) order, whose numerator or
    denominator has more digits than sys.get_int_max_str_digits() lets
    str() print; None if every entry prints."""
    limit = sys.get_int_max_str_digits()
    if not limit:  # 0: no limit, every int prints
        return None
    for cell, v in b.items():
        # at most 3·limit bits is below 8^limit, so at most limit digits
        if max(v.numerator.bit_length(), v.denominator.bit_length()) > 3 * limit:
            try:
                str(v)
            except ValueError:
                return cell
    return None


def _emit_diagram(b: diagrams.BettiDiagram, fmt: str, prefix: str = "") -> None:
    """Writes prefix and the diagram in one write once both are formatted,
    so a diagram that fails to format leaves stdout empty. An entry past
    the int-to-str digit limit is named by its cell and the limit."""
    try:
        body = render_table(b) if fmt == "table" else diagrams._diagram_json(b)
    except ValueError:
        if fmt == "table":
            _table_rectangle(b)  # a table past the ceiling keeps that refusal
        cell = _unprintable_cell(b)
        if cell is None:
            raise
        where = f"entry at ({cell[0]},{cell[1]})"
        raise _past_the_digit_limit(where, " and cannot be printed") from None
    sys.stdout.write(prefix + body + "\n")


# A comment line: blanks (str.isspace) other than "\n", "#", the rest of
# the line and its "\n". "^" under MULTILINE holds only after "\n".
_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*\n?", re.MULTILINE)


def _read_diagram_file(path: str) -> diagrams.BettiDiagram:
    """The diagram in a JSON file, read whole (a decode error names its byte
    offset in the file). Lines whose first non-blank character is "#" are
    dropped; a line ends at "\n" once the file's "\r\n" and "\r" are read
    as "\n", not at the other breaks str.splitlines knows. A JSON integer
    past the int digit limit is refused naming the limit."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if "#" in text:  # the scan costs ~0.1 ms on a 5 KB file that has no comment
        text = _COMMENT_LINE.sub("", text)
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # json.loads fails otherwise only past the digit limit
        raise _past_the_digit_limit("a JSON integer") from None
    return diagrams.BettiDiagram.from_json_obj(obj)


def cmd_pure(args) -> int:
    e = diagrams.DegreeSequence(_parse_list(args.degseq, "--degseq"))
    _emit_diagram(diagrams.pure_diagram(e), args.format)
    return EXIT_OK


def cmd_secant_pure(args) -> int:
    params = secant.SecantParams(args.g, args.k, args.d)
    if args.dominant:
        tup = secant.dominant_tuple(params)
    else:
        tup = tuple(_parse_list(args.tuple, "--tuple"))
    e = secant.degree_sequence(params, tup)
    comment = "# degseq: " + ",".join(str(x) for x in e) + "\n"
    _emit_diagram(diagrams.pure_diagram(e), args.format, prefix=comment)
    return EXIT_OK


def cmd_decompose(args) -> int:
    dec = decomposition.decompose(_read_diagram_file(args.input))
    sys.stdout.write(decomposition._decomposition_json(dec) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.kind == "purity":
        if args.d_min is None or args.d_max is None:
            raise ValueError("purity sweep needs --d-min and --d-max")
        rows = asymptotics.purity_sweep(args.g, args.k, args.d_min, args.d_max, args.step)
        write = asymptotics.write_purity_csv
    else:
        if args.d is None:
            raise ValueError("distribution sweep needs --d")
        rows = asymptotics.distribution_sweep(
            args.g, args.k, _parse_list(args.a, "--a", float), _parse_list(args.d, "--d")
        )
        write = asymptotics.write_distribution_csv
    if not rows:
        raise ValueError(f"{args.kind} sweep: the grid has no point")
    write(args.g, args.k, rows, args.out)
    return EXIT_OK


def _grid(args):
    for g in range(1, args.g_max + 1):
        for k in range(0, args.k_max + 1):
            for d in range(2 * g + 2 * k + 1, args.d_max + 1):
                yield secant.SecantParams(g, k, d)


def _case(params, extra: str) -> str:
    return f"g={params.g} k={params.k} d={params.d} {extra}"


def _suite_multiplicity(args):
    for params in _grid(args):
        for tup in secant.jump_tuples(params.g, params.k):
            ok = diagrams.multiplicity(secant.secant_pure_diagram(params, tup)) == 1
            yield _case(params, f"tuple={tup}"), ok


def _suite_dominant_kappa(args):
    for params in _grid(args):
        table = secant.secant_pure_diagram(params, secant.dominant_tuple(params))
        for p in range(1, params.r - params.g - 2 * params.k):
            ok = secant.kappa_dominant(params, p) == table.get(p, params.k + 1)
            yield _case(params, f"p={p}"), ok


def _suite_hn_leading(args):
    for params in _grid(args):
        for tup in secant.jump_tuples(params.g, params.k):
            if tup[0] < 1:
                continue
            # jump_tuples built the tuple valid and i_0 = 0 is skipped
            # above, so hn_leading_coefficient's checks would only repeat
            claimed = secant._hn_leading(params, tup)
            hn = diagrams.hilbert_numerator(secant.secant_pure_diagram(params, tup))
            yield _case(params, f"tuple={tup}"), claimed == hn.coefficient(2 * params.k + 2)


def _suite_herzog_kuhl(args):
    rng = random.Random(args.seed)
    for _ in range(args.count):
        n = rng.randint(1, 11)
        start = rng.randint(-3, 3)
        seq = [start]
        for _ in range(n):
            seq.append(seq[-1] + rng.randint(1, 4))
        table = diagrams.pure_diagram(seq)
        kappas = [(p, e, table.get(p, e - p)) for p, e in enumerate(seq)]
        for j in range(n):
            total = sum((-1) ** p * v * Fraction(e) ** j for p, e, v in kappas)
            yield f"degseq={tuple(seq)} j={j}", total == 0


_SUITES = {
    "multiplicity": _suite_multiplicity,
    "dominant-kappa": _suite_dominant_kappa,
    "hn-leading": _suite_hn_leading,
    "herzog-kuhl": _suite_herzog_kuhl,
}


# The most entries a verify run may compute: the columns of every pure
# diagram a grid suite builds, or at most a herzog-kuhl sequence's 12
# columns and its 11 sums of 12 terms. The CI run of the multiplicity
# suite at --g-max 4 --k-max 3 --d-max 120 computes 1,536,120 in 2.9 s,
# the README's largest 335,040. Just below the ceiling, multiplicity at
# --g-max 4 --k-max 3 --d-max 210 and hn-leading at --d-max 294 take
# 10 s each, herzog-kuhl at --count 34722 17 s, and dominant-kappa, which
# evaluates its closed form per column, 48 s at --d-max 1057 (2-CPU
# x86_64, Python 3.11.7).
_VERIFY_ENTRIES_MAX = 5_000_000


def _verify_entries(args) -> int:
    """The entries args.suite would compute (see _VERIFY_ENTRIES_MAX), from
    its arguments alone: no tuple or d is listed, and the sum over (g, k)
    stops once it passes the ceiling. Family (g, k, d) has r - 2k = d - g - 2k columns; over d
    from 2g + 2k + 1 to d_max that is (d_max + 1 - 2k)(d_max - 2g - 2k)/2
    columns per tuple, for C(g+k+1, k+1) tuples (multiplicity), the
    C(g+k, k+1) with i_0 >= 1 (hn-leading) or the dominant one alone."""
    if args.suite == "herzog-kuhl":
        return 144 * args.count
    extra = {"multiplicity": 1, "hn-leading": 0}.get(args.suite)  # None: the dominant tuple
    d_max = args.d_max
    total = 0
    for g in range(1, min(args.g_max, (d_max - 1) // 2) + 1):
        for k in range(min(args.k_max, (d_max - 1 - 2 * g) // 2) + 1):
            tuples = 1 if extra is None else math.comb(g + k + extra, k + 1)
            total += tuples * (d_max + 1 - 2 * k) * (d_max - 2 * g - 2 * k) // 2
            if total > _VERIFY_ENTRIES_MAX:
                return total
    return total


def cmd_verify(args) -> int:
    grid = f"--g-max {args.g_max} --k-max {args.k_max} --d-max {args.d_max}"
    chosen = f"--count {args.count}" if args.suite == "herzog-kuhl" else grid
    if _verify_entries(args) > _VERIFY_ENTRIES_MAX:
        ceiling = f"more than {_VERIFY_ENTRIES_MAX} entries, the ceiling"
        raise ValueError(f"{args.suite}: {chosen} would compute {ceiling}")
    checked = failed = 0
    for case, ok in _SUITES[args.suite](args):
        checked += 1
        if not ok:
            if not failed:
                print(f"{args.suite}: first failure at {case}", file=sys.stderr)
            failed += 1
    if not checked:
        raise ValueError(f"{args.suite}: {chosen} selects no case to check")
    status = "FAIL" if failed else "ok"
    print(f"{args.suite}: {checked - failed}/{checked} passed ({status})")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_calibrate(args) -> int:
    result = asymptotics.calibrate_purity(args.g, args.k, args.d_max, args.threshold)
    payload = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="betticone")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pure", help="pure diagram of a degree sequence")
    p.add_argument("--degseq", required=True, help="comma separated, e.g. 0,3,4,6,7,9")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=cmd_pure)

    p = sub.add_parser("secant-pure", help="family pure diagram of a jump tuple")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--tuple", help="comma separated jump tuple, e.g. 1,3")
    which.add_argument("--dominant", action="store_true", help="use the tuple (g,...,g)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=cmd_secant_pure)

    p = sub.add_parser("decompose", help="greedy decomposition of a diagram JSON file")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("sweep", help="write a purity or distribution CSV")
    p.add_argument("kind", choices=("purity", "distribution"))
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--d-min", type=int, default=None)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--a", default="0", help="comma separated a targets (distribution)")
    p.add_argument("--d", default=None, help="comma separated d values (distribution)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run an exact oracle sweep")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--g-max", type=int, default=3)
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--d-max", type=int, default=40)
    p.add_argument("--seed", type=int, default=0, help="herzog-kuhl only")
    p.add_argument("--count", type=int, default=500, help="herzog-kuhl only")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("calibrate", help="freeze purity sweep thresholds as JSON")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--threshold", default="99/100")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_calibrate)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later main() calls in
    the process; parse_args reads it and returns a fresh namespace."""
    return build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """What _parser().parse_args(argv) returns or raises, for the same
    argv (sys.argv[1:] if None).

    An argv that starts with a command name goes to that command's parser
    alone, which parses it as the top-level parser would have handed it
    on, and gets command set here. The top-level parser runs only when
    the first word is not a command, or when the command's parser leaves
    arguments over; it then writes its own help, usage error and exit
    code. A sweep argv is parsed in a little over half the time of the
    top-level pass.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = next(action.choices for action in parser._actions if action.dest == "command")
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Runs the command argv names (sys.argv[1:] if None) and returns its
    exit code; argparse exits 2 on a usage error and 0 after help.

    The arguments after a command name are parsed by that command's
    parser alone (_parse_args), with the namespace, help, errors and exit
    codes of the whole parser."""
    args = _parse_args(argv)
    try:
        return args.fn(args)
    except NotInCone as exc:
        print(f"not in cone: {exc}", file=sys.stderr)
        if exc.partial is not None:
            try:
                partial = decomposition._decomposition_json(exc.partial)
            except ValueError as err:  # an int past the digit limit
                partial = f"partial decomposition not written: {err}"
            print(partial, file=sys.stderr)
        return EXIT_NOT_IN_CONE
    except (BettiConeError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 domain error (mathematically invalid input) or
out of memory, 2 usage error (unknown flags, malformed
points/polynomials/numbers).
Exact symbolic values are always printed before any decimal rendering.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import __version__
from .exactnum import DomainError, FormalLog, ParseError, factor
from .wspace import WeightVector, classify, is_singular, parse_weights, reduce_weights
from .wpoint import (
    WPoint,
    _vanishing,
    canonicalize,
    equals,
    normalize,
    parse_coords,
    parse_point,
    wgcd,
)
from .wheight import hgcd, hwgcd_mult, lwh, split_height_S, wh_m_power
from .wpoly import SubschemeSpec, global_height_Y, parse_wpoly_file
from . import vojtalab
from .search import PackedHits, SearchConfig
from .search import search as run_search


class UsageError(Exception):
    """Malformed command-line input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input parsing helpers (syntax errors here are usage errors)
# ---------------------------------------------------------------------------


def _int_tuple(text: str, w: WeightVector) -> tuple[int, ...]:
    coords = parse_coords(text, w)
    for c in coords:
        if c.denominator != 1:
            raise UsageError(f"expected integer coordinates, got {c}")
    return tuple(c.numerator for c in coords)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed rational {text!r}")


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed integer list {text!r}")


def _jobs(text: str) -> int:
    """Worker count from --jobs or WPROJ_JOBS: a positive integer, clamped
    to the CPU count."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive integer (--jobs or WPROJ_JOBS), got {text!r}"
        )
    return min(n, os.cpu_count() or 1)


def _load_wpoly(path: str, w: WeightVector | None = None):
    """The header weights, their weight vector and the polynomials of a
    .wpoly file; with `w`, the header weights must be those of --weights."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        weights, polys = parse_wpoly_file(text)
    except ParseError as exc:
        raise UsageError(f"malformed polynomial file {path}: {exc}")
    if w is not None and tuple(weights.values()) != w.q:
        raise UsageError("polynomial weights do not match --weights")
    return weights, classify(list(weights.values())), polys


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _flog_fields(v: FormalLog) -> dict:
    return {"exact": v.symbolic(), "decimal": v.decimal(15)}


class _Output:
    """Where a command writes its report: stdout, or the --out file.

    The file is opened before the command runs, so an unwritable path is a
    usage error before any search or scan starts.  An existing regular file
    is written through a temporary sibling with its permission bits, which
    replaces it only when the command succeeds, so a command that fails
    leaves it as it was; a file the command created is removed if it fails.
    A device or pipe is written to as it is.
    """

    def __init__(self, path: str | None) -> None:
        self.path = path
        self.created = False
        self.tmp = None  # the sibling that replaces an existing regular file
        if not path:
            self.stream = sys.stdout
            return
        try:
            try:
                self.stream = open(path, "x")
                self.created = True
            except FileExistsError:
                # append mode empties nothing and checks the file is writable
                self.stream = open(path, "a")
                if os.path.isfile(path):
                    self.stream.close()
                    self._open_sibling()
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None

    def _open_sibling(self) -> None:
        import tempfile

        # through a symlink, the file it points to is the one replaced
        self.target = os.path.realpath(self.path)
        mode = os.stat(self.target).st_mode & 0o7777
        folder, name = os.path.split(self.target)
        fd, self.tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=folder)
        os.chmod(self.tmp, mode)
        self.stream = os.fdopen(fd, "w")

    def write(self, text: str) -> None:
        self.stream.write(text)

    def close(self, ok: bool) -> None:
        """Flush stdout, or close the file; on success put the sibling in
        the place of the existing file, on failure remove the sibling or the
        file the command created."""
        if not self.path:
            self.stream.flush()
            return
        self.stream.close()
        if self.tmp is not None:
            if ok:
                os.replace(self.tmp, self.target)
            else:
                os.remove(self.tmp)
        elif self.created and not ok:
            os.remove(self.path)


# One point of search's report in each format, written from the ints its
# key decodes to: the point dict {"coords", "vanishing", "wh_m_power"} as
# json.dumps(sort_keys=True, indent=2) lays it out at depth 2 of the report,
# the same dict as compact JSON inside a quoted csv field, and the plain
# listing line.


def _json_ints(values) -> str:
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def _json_point(wh_m: int, coords) -> str:
    return (
        '    {\n      "coords": ' + _json_ints(coords)
        + ',\n      "vanishing": ' + _json_ints(_vanishing(coords))
        + f',\n      "wh_m_power": {wh_m}\n    }}'
    )


def _csv_point(wh_m: int, coords) -> str:
    # csv doubles each quote inside a quoted field
    return (
        '{""coords"":[' + ",".join(map(str, coords))
        + '],""vanishing"":[' + ",".join(map(str, _vanishing(coords)))
        + f'],""wh_m_power"":{wh_m}}}'
    )


def _emit(
    out: _Output,
    args,
    result: dict | None,
    plain_lines: list[str],
    points: PackedHits | None = None,
) -> None:
    """Write a command's report to `out` in the --format of `args`.

    `points`, search's hits, are the report's last entry, "points".  They
    are written one at a time from the ints each key decodes to, so no
    hit, no dict per point and no string of the whole report is built; the
    rest of `result` goes through json.dumps, which keeps its escaping,
    key order and nulls.  A plain
    line may come as an iterator of pieces, each written as it comes.
    """
    fmt = getattr(args, "format", "plain")
    write = out.write
    hits = points.decoded() if points else iter(())
    if fmt == "plain":
        for line in plain_lines:
            if isinstance(line, str):
                write(line)
            else:  # vojta-scan's one line, its JSON report, record by record
                for piece in line:
                    write(piece)
            write("\n")
        if points:
            suffix = f"  wh^{points.w.m}="
            for wh_m, coords in hits:
                write(f"{':'.join(map(str, coords))}{suffix}{wh_m}\n")
    elif fmt == "json":
        if points is not None:
            result = {**result, "points": []}
        text = json.dumps(result, sort_keys=True, indent=2, default=str)
        if points:
            # the points go where "points" sorts among the keys
            head, _, tail = text.partition('\n  "points": []')
            write(head + '\n  "points": [\n' + _json_point(*next(hits)))
            for wh_m, coords in hits:
                write(",\n" + _json_point(wh_m, coords))
            text = "\n  ]" + tail
        write(text + "\n")
    else:  # csv: one key,value row per field, containers as compact JSON
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k, v in result.items():
            if isinstance(v, (dict, list, tuple)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"), default=str)
            writer.writerow([k, v])
        if points:
            write('points,"[' + _csv_point(*next(hits)))
            for wh_m, coords in hits:
                write("," + _csv_point(wh_m, coords))
            write(']"\n')
        elif points is not None:
            writer.writerow(["points", "[]"])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its report as the arguments of `_emit`
# after `out` and `args`, (result, plain_lines[, points]); `main` writes it
# ---------------------------------------------------------------------------


def _cmd_factor(args) -> tuple:
    try:
        n = int(args.n)
    except ValueError:
        raise UsageError(f"malformed integer {args.n!r}")
    f = factor(n)
    body = " * ".join(
        (f"{p}^{e}" if e > 1 else str(p)) for p, e in f.factors
    ) or "1"
    if f.unit < 0:
        body = "-" + body
    return (
        {"n": n, "unit": f.unit, "factors": [list(t) for t in f.factors]},
        [body],
    )


def _cmd_wgcd(args) -> tuple:
    w = parse_weights(args.weights)
    x = WPoint(w, _int_tuple(args.tuple, w))
    g = wgcd(x)
    return {"weights": str(w), "tuple": str(x), "wgcd": g}, [str(g)]


def _cmd_normalize(args) -> tuple:
    w = parse_weights(args.weights)
    y = normalize(WPoint(w, _int_tuple(args.tuple, w)))
    text = ":".join(str(c) for c in y.coords)
    return {"weights": str(w), "normalized": text}, [text]


def _cmd_canonical(args) -> tuple:
    w = parse_weights(args.weights)
    y = canonicalize(WPoint(w, _int_tuple(args.tuple, w)))
    text = ":".join(str(c) for c in y.coords)
    return {"weights": str(w), "canonical": text}, [text]


def _cmd_equals(args) -> tuple:
    w = parse_weights(args.weights)
    a = WPoint(w, _int_tuple(args.left, w))
    b = WPoint(w, _int_tuple(args.right, w))
    same = equals(a, b)
    return {"weights": str(w), "equal": same}, ["true" if same else "false"]


def _cmd_height(args) -> tuple:
    w = parse_weights(args.weights)
    x = parse_point(args.point, w)
    h = lwh(x)
    return (
        {
            "weights": str(w),
            "representative": str(x),
            "lwh": _flog_fields(h),
            "wh_m_power": wh_m_power(x),
            "m": w.m,
        },
        [h.symbolic(), h.decimal(15)],
    )


def _cmd_hwgcd(args) -> tuple:
    w = parse_weights(args.weights)
    g = hwgcd_mult(parse_coords(args.tuple, w), w)
    return (
        {
            "weights": str(w),
            "hwgcd": g,
            "archimedean_convention": "finite places only; the logarithmic "
            "form floors ord_oo+ = max(-log|x|, 0), which vanishes on integers",
        },
        [str(g)],
    )


def _cmd_hgcd(args) -> tuple:
    v = hgcd(_fraction(args.a), _fraction(args.b))
    return (
        {"a": str(args.a), "b": str(args.b), "hgcd": _flog_fields(v)},
        [v.symbolic(), v.decimal(15)],
    )


def _cmd_split_height(args) -> tuple:
    w = parse_weights(args.weights)
    x = normalize(parse_point(args.point, w))
    S = set(_int_list(args.primes)) if args.primes else set()
    divisor = list(_int_list(args.divisor)) if args.divisor else None
    sh = split_height_S(x, S, divisor)
    return (
        {
            "weights": str(w),
            "point": str(x),
            "S": sorted(S),
            "in_S": _flog_fields(sh.in_S),
            "out_S": _flog_fields(sh.out_S),
            "total": _flog_fields(sh.total()),
        },
        [
            f"in_S: {sh.in_S.symbolic()} = {sh.in_S.decimal(15)}",
            f"out_S: {sh.out_S.symbolic()} = {sh.out_S.decimal(15)}",
            f"total: {sh.total().symbolic()} = {sh.total().decimal(15)}",
        ],
    )


def _cmd_poly_check(args) -> tuple:
    weights, _, polys = _load_wpoly(args.poly)
    lines = [f"weights: {' '.join(f'{n}={q}' for n, q in weights.items())}"]
    for f in polys:
        lines.append(f"degree {f.degree}: {f}")
    return (
        {
            "weights": weights,
            "polynomials": [str(f) for f in polys],
            "degrees": [f.degree for f in polys],
        },
        lines,
    )


def _cmd_poly_eval(args) -> tuple:
    _, w, polys = _load_wpoly(args.poly)
    x = parse_point(args.point, w)
    values = [f.eval(x.coords) for f in polys]
    return {"point": str(x), "values": values}, [str(v) for v in values]


def _cmd_subscheme_height(args) -> tuple:
    _, w, polys = _load_wpoly(args.poly)
    spec = SubschemeSpec(tuple(polys), args.codim)
    x = parse_point(args.point, w)
    h = global_height_Y(spec, x)
    return (
        {
            "point": str(x),
            "asserted_codim": spec.asserted_codim,
            "height": _flog_fields(h),
        },
        [h.symbolic(), h.decimal(15)],
    )


def _cmd_singular(args) -> tuple:
    w = parse_weights(args.weights)
    coords = _int_tuple(args.tuple, w)
    s = is_singular(w, coords)
    return {"weights": str(w), "singular": s}, ["true" if s else "false"]


def _cmd_reduce_weights(args) -> tuple:
    w = parse_weights(args.weights)
    red, d = reduce_weights(w)
    return {"weights": str(w), "reduced": str(red), "d": d}, [str(red), f"d: {d}"]


def _cmd_search(args) -> tuple:
    w = parse_weights(args.weights)
    B = _fraction(args.bound)
    poly = None
    names: dict[str, int] = {}  # header variable -> coordinate index
    if args.poly:
        weights, _, polys = _load_wpoly(args.poly, w)
        if len(polys) != 1:
            raise UsageError("search expects exactly one polynomial")
        poly = polys[0]
        names = {name: i for i, name in enumerate(weights)}
    idx = set()
    if args.require_nonzero:
        # each token is a header name (with --poly) or a coordinate index
        for token in args.require_nonzero.split(","):
            token = token.strip()
            try:
                idx.add(names[token] if token in names else int(token))
            except ValueError:
                raise UsageError(f"unknown coordinate {token!r}")
    nonvanishing = frozenset(idx)
    config = SearchConfig(
        w=w,
        bound=B,
        hypersurface=poly,
        nonvanishing=nonvanishing,
        jobs=args.jobs,
        phase2=not args.no_phase2,
    )
    report = run_search(config)
    result = {
        "schema_version": vojtalab.SCHEMA_VERSION,
        "weights": str(w),
        "bound": str(B),
        "hypersurface": None if poly is None else str(poly),
        "nonvanishing": sorted(nonvanishing),
        "phase1_candidates": report.phase1_candidates,
        "phase2_candidates": report.phase2_candidates,
        "wall_time_seconds": round(report.wall_time, 3),
    }
    header = f"# {len(report.hits)} points, wh^{w.m} <= {str(B**w.m)}"
    return result, [header], report.hits


def _cmd_vojta_scan(args) -> tuple:
    w = parse_weights(args.weights)
    _, _, polys = _load_wpoly(args.poly, w)
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
        print(f"# generated seed: {seed}", file=sys.stderr)
    config = vojtalab.ScanConfig(
        spec=SubschemeSpec(tuple(polys), args.codim),
        w=w,
        S=frozenset(_int_list(args.primes)) if args.primes else frozenset(),
        epsilon_grid=_fraction_list(args.eps),
        delta_grid=_fraction_list(args.delta),
        box_radii=_int_list(args.box),
        samples=args.samples,
        seed=seed,
        require_coprime=args.coprime,
        jobs=args.jobs,
    )
    report = vojtalab.scan(config)
    # vojta-scan has no --format: its report is one line of JSON, written
    # one record at a time
    return None, [report.json_chunks()]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wproj",
        description="Exact arithmetic for weighted projective spaces over Q",
    )
    parser.add_argument("--version", action="version", version=f"wproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    report = [
        ("--format", {"choices": ["plain", "json", "csv"], "default": "plain"}),
        ("--out", {"help": "write output to a file"}),
    ]
    # a string default goes through type=_jobs too, so WPROJ_JOBS is checked
    jobs = ("--jobs", {"type": _jobs, "default": os.environ.get("WPROJ_JOBS", "1")})
    codim = ("--codim", {"type": int, "required": True})
    primes = ("--primes", {"default": ""})
    flag = {"action": "store_true"}
    # name, handler, help (None: not listed by `wproj --help`) and options,
    # each the name of a required option or (name, add_argument keywords)
    commands = [
        ("factor", _cmd_factor, "factor a nonzero integer", [("n", {}), *report]),
        ("wgcd", _cmd_wgcd, None, ["--weights", "--tuple", *report]),
        ("normalize", _cmd_normalize, None, ["--weights", "--tuple", *report]),
        ("canonical", _cmd_canonical, None, ["--weights", "--tuple", *report]),
        ("singular", _cmd_singular, None, ["--weights", "--tuple", *report]),
        ("equals", _cmd_equals, "same point of P_w(Q)?",
         ["--weights", "--left", "--right", *report]),
        ("height", _cmd_height, "logarithmic weighted height",
         ["--weights", "--point", *report]),
        ("hwgcd", _cmd_hwgcd, "weighted gcd over finite places",
         ["--weights", "--tuple", *report]),
        ("hgcd", _cmd_hgcd, "generalized logarithmic gcd of two rationals",
         ["--a", "--b", *report]),
        ("split-height", _cmd_split_height, "divisor height split at S",
         ["--weights", "--point", primes,
          ("--divisor", {"default": "", "help": "coordinate indices, default all"}),
          *report]),
        ("poly-check", _cmd_poly_check, "parse and validate a .wpoly file",
         ["--poly", *report]),
        ("poly-eval", _cmd_poly_eval, "evaluate polynomials at a point",
         ["--poly", "--point", *report]),
        ("subscheme-height", _cmd_subscheme_height,
         "global height relative to a subscheme",
         ["--poly", "--point", codim, *report]),
        ("reduce-weights", _cmd_reduce_weights, "divide out the weight gcd",
         ["--weights", *report]),
        ("search", _cmd_search, "bounded-height point search",
         ["--weights", "--bound", ("--poly", {}), ("--require-nonzero", {}), jobs,
          ("--no-phase2", {**flag, "help": "only points in the box |x_i| <= floor(B^q_i)"}),
          *report]),
        ("vojta-scan", _cmd_vojta_scan, "empirical gcd-bound scan",
         ["--weights", "--poly", codim, primes, "--eps", "--delta",
          ("--samples", {"type": int, "required": True}), "--box",
          ("--seed", {"type": int}), ("--coprime", flag), jobs, ("--out", {})]),
    ]
    for name, fn, text, options in commands:
        sp = sub.add_parser(name, **({"help": text} if text else {}))
        for opt in options:
            opt, kw = (opt, {"required": True}) if isinstance(opt, str) else opt
            sp.add_argument(opt, **kw)
        sp.set_defaults(fn=fn)
    return parser


# argparse reads a value such as "-12:360:7000:99" or "-1/2" as an option,
# because only a plain negative number passes for a value, so main() attaches
# a token made of a minus sign and a digit to the option before it, as in
# "--point=-12:360:7000:99", a form argparse always accepts.
def _attach_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        negative = token[:1] == "-" and token[1:2].isdigit()
        if negative and out and re.fullmatch(r"--\w[\w-]*", out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    print(
        f"# wproj {__version__} | {args.command} | "
        + " ".join(sys.argv[1:] if argv is None else argv),
        file=sys.stderr,
    )
    try:
        out = _Output(args.out)
        ok = False
        try:
            _emit(out, args, *args.fn(args))
            ok = True
        finally:
            out.close(ok)
    except (UsageError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # out.close(False) above has left an existing --out file as it was
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone, as in `wproj search ... | head -1`.
        # Pointing stdout at os.devnull lets the flush at interpreter exit
        # succeed instead of printing "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: parse matrices, dispatch to the library, print
canonical text or JSON."""

import argparse
import functools
import json
import os
import sys

from .builtins import BUILTIN_NAMES, specific_slack_matrix
from .errors import (ParseError, SizeMismatchError, SlackkitError,
                     UniverseMismatchError, check_support)
from .geometry import GaleTransform, PointConfiguration, gale_transform
from .rationals import RationalMatrix
from .scaling import (contains_flag, dehomogenized_ideal, graphic_ideal,
                      irrationality_certificate, reduced_slack_matrix,
                      rehomogenize_ideal, set_ones, set_ones_forest, slack_ideal)
from .slack import (ONE, ScaledSlackMatrix, SlackMatrix, count_minors,
                    slack_from_gale_circuits, slack_from_gale_plucker,
                    slack_matrix, symbolic_slack_matrix)


class UsageError(Exception):
    """Bad flag combination; reported like a parse error (exit 2)."""


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def parse_matrix_input(text) -> RationalMatrix:
    """Whitespace/newline text or a JSON array of arrays of rational strings."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        return RationalMatrix.from_json(text)
    return RationalMatrix.from_text(text)


def _load_matrix(path) -> RationalMatrix:
    return parse_matrix_input(_read_input(path))


def _parse_indices(text):
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"not a list of integer indices: {text!r}") from None


def _given_sources(args):
    return [name for name in ("vertices", "matrix", "pattern", "builtin")
            if getattr(args, name, None)]


def _source_matrix(args):
    """Resolve --vertices / --matrix / --pattern / --builtin into a slack
    matrix object (numeric, symbolic or scaled)."""
    given = _given_sources(args)
    if len(given) != 1:
        raise UsageError(
            "need exactly one of --vertices, --matrix, --pattern, --builtin")
    kind = given[0]
    if args.object is not None and kind != "vertices":
        raise UsageError("--object applies to --vertices only")
    if kind == "builtin":
        return specific_slack_matrix(args.builtin)
    M = _load_matrix(getattr(args, kind))
    if kind == "vertices":
        return slack_matrix(M.rows, object=args.object or "polytope")
    if kind == "matrix":
        check_support(M.rows)
        return SlackMatrix(M)
    return symbolic_slack_matrix(M)


def _numeric(S) -> SlackMatrix:
    if not isinstance(S, SlackMatrix):
        raise UsageError("this command needs a numeric slack matrix")
    return S


def _infer_d(args, S):
    # a d-polytope's slack matrix has rank d + 1, and the slack ideal of a
    # rank-r matroid takes d = r - 1; either has at least d + 1 rows
    rank = S.rank() if isinstance(S, SlackMatrix) else None
    if args.d is not None:
        if args.d < 0:
            raise UsageError(f"-d must be non-negative, got {args.d}")
        if rank is not None and rank != args.d + 1:
            raise UsageError(f"-d {args.d} does not fit the input: its slack "
                             f"matrix has rank {rank}, so d is {rank - 1}")
        if S is not None and S.nrows <= args.d:
            raise UsageError(f"-d {args.d} does not fit the input: it has "
                             f"{S.nrows} rows, fewer than d + 1")
        return args.d
    if rank is not None:
        return rank - 1
    raise UsageError("-d is required with pattern input")


def _scaled(args):
    """The source matrix, from which d is inferred, and its scaled pattern."""
    S = _source_matrix(args)
    if isinstance(S, ScaledSlackMatrix):
        if args.ones:
            raise UsageError("this input already has its ones fixed")
        return S, S
    sym = symbolic_slack_matrix(S)
    if args.ones:
        return S, set_ones(sym, _parse_indices(args.ones))
    return S, set_ones_forest(sym)[0]


def _print_matrix(M: RationalMatrix, fmt):
    print(M.to_json() if fmt == "json" else M.to_text())


def _print_rows(rows, fmt):
    if fmt == "json":
        print(json.dumps(rows))
    else:
        print("\n".join(" ".join(row) for row in rows))


def _print_pattern(S, fmt):
    """A symbolic or scaled pattern, its cells printed as 0, 1 or x<v>."""
    _print_rows([["0" if v is None else "1" if v == ONE else f"x{v}"
                  for v in row] for row in S.grid], fmt)


def _print_ideal(I):
    for s in I.to_strings():
        print(s)


def _cmd_slack_matrix(args):
    S = _numeric(_source_matrix(args))
    _print_matrix(S.entries, args.format)


def _cmd_symbolic(args):
    S = _source_matrix(args)
    if not isinstance(S, ScaledSlackMatrix):
        S = symbolic_slack_matrix(S)
    _print_pattern(S, args.format)


def _cmd_ideal(args):
    S = _source_matrix(args)
    d = _infer_d(args, S)
    _print_ideal(slack_ideal(d, S))


def _cmd_gale(args):
    V = PointConfiguration(_load_matrix(args.vertices).rows)
    _print_matrix(gale_transform(V).matrix, args.format)


def _cmd_gale_slack(args):
    M = _load_matrix(args.gale)
    if not M.nrows:
        # `gale` prints a simplex's 0 x n transform as an empty line or []
        raise SizeMismatchError("empty Gale transform (a simplex): it does "
                                "not record its number of points")
    G = GaleTransform(M)
    if args.cofacets is not None:
        cofacets = [_parse_indices(group) for group in args.cofacets.split(";")]
        S = slack_from_gale_plucker(G, cofacets)
    else:
        S = slack_from_gale_circuits(G)
    _print_matrix(S.entries, args.format)


def _cmd_scale(args):
    _print_pattern(_scaled(args)[1], args.format)


def _cmd_dehomogenize(args):
    S, Y = _scaled(args)
    _print_ideal(dehomogenized_ideal(_infer_d(args, S), Y))


def _cmd_rehomogenize(args):
    S, Y = _scaled(args)
    _print_ideal(rehomogenize_ideal(_infer_d(args, S), Y))


def _cmd_reduce(args):
    S = _source_matrix(args)
    flag = _parse_indices(args.flag_indices) if args.flag_indices else None
    R = reduced_slack_matrix(_infer_d(args, S), S, flag_indices=flag)
    _print_pattern(R, args.format)


def _cmd_contains_flag(args):
    S = _source_matrix(args)
    print("true" if contains_flag(_parse_indices(args.indices), S) else "false")


def _cmd_graphic_ideal(args):
    _print_ideal(graphic_ideal(_source_matrix(args)))


def _cmd_certificate(args):
    S, Y = _scaled(args)
    if args.variable in Y.ones_at:
        raise UniverseMismatchError(
            f"variable x{args.variable} is scaled to one; "
            "certify a surviving variable")
    I = dehomogenized_ideal(_infer_d(args, S), Y)
    cert = irrationality_certificate(I, args.variable)
    print(json.dumps(cert.to_dict()))


def _cmd_builtin(args):
    S = specific_slack_matrix(args.name)
    if isinstance(S, SlackMatrix):
        _print_matrix(S.entries, args.format)
    elif isinstance(S, ScaledSlackMatrix):
        _print_pattern(S, args.format)
    else:
        _print_rows([["1" if c else "0" for c in row] for row in S.support],
                    args.format)


def _cmd_count_minors(args):
    if args.rows is not None or args.cols is not None:
        if args.rows is None or args.cols is None:
            raise UsageError("--rows and --cols go together")
        if _given_sources(args):
            raise UsageError("--rows and --cols replace the source matrix")
        if args.d is None:
            raise UsageError("-d is required")
        if args.rows < 0 or args.cols < 0:
            raise UsageError("--rows and --cols must be non-negative")
        print(count_minors(_infer_d(args, None), nrows=args.rows, ncols=args.cols))
        return
    S = _source_matrix(args)
    print(count_minors(_infer_d(args, S), S=S))


# each option once, by name: its flag and the keywords that add it to a
# parser; `gale` and `certificate` print --vertices and --ones their own way
_OPTIONS = {
    "vertices": ("--vertices", {"help": "vertex matrix file ('-' = stdin)"}),
    "object": ("--object", {"choices": ("polytope", "matroid")}),
    "matrix": ("--matrix", {"help": "numeric slack matrix file"}),
    "pattern": ("--pattern", {"help": "0/1 support pattern file"}),
    "builtin": ("--builtin", {"choices": BUILTIN_NAMES}),
    "gale-vertices": ("--vertices", {"required": True}),
    "gale": ("--gale", {"required": True, "help": "Gale vector matrix file"}),
    "cofacets": ("--cofacets",
                 {"help": "semicolon-separated cofacet index groups"}),
    "ones": ("--ones",
             {"help": "comma-separated variable indices to scale to 1"}),
    "certificate-ones": ("--ones", {}),
    "flag-indices": ("--flag-indices", {}),
    "indices": ("--indices", {"required": True}),
    "variable": ("--variable", {"type": int, "required": True,
                                "help": "variable to eliminate down to"}),
    "name": ("name", {"choices": BUILTIN_NAMES}),
    "rows": ("--rows", {"type": int}),
    "cols": ("--cols", {"type": int}),
    "d": ("-d", {"type": int,
                 "help": "dimension (inferred from numeric input if omitted)"}),
    "format": ("--format", {"choices": ("text", "json"), "default": "text"}),
}

# the options naming a source matrix, which _source_matrix reads
_SOURCE = "vertices object matrix pattern builtin"

# (verb, its line in the top-level help or None, handler, its options in
# usage order), in the order the top-level usage and help list them
_VERBS = (
    ("slack-matrix", "numeric slack matrix", _cmd_slack_matrix,
     "vertices object matrix builtin format"),
    ("symbolic", "symbolic slack matrix", _cmd_symbolic, _SOURCE + " format"),
    ("ideal", "slack ideal generators", _cmd_ideal, _SOURCE + " d"),
    ("gale", "Gale transform of vertices", _cmd_gale, "gale-vertices format"),
    ("gale-slack", "slack matrix from a Gale transform", _cmd_gale_slack,
     "gale cofacets format"),
    ("scale", None, _cmd_scale, _SOURCE + " ones format"),
    ("dehomogenize", None, _cmd_dehomogenize, _SOURCE + " ones d"),
    ("rehomogenize", None, _cmd_rehomogenize, _SOURCE + " ones d"),
    ("reduce", "reduced slack matrix", _cmd_reduce,
     _SOURCE + " flag-indices d format"),
    ("contains-flag", None, _cmd_contains_flag,
     "vertices object matrix builtin indices"),
    ("graphic-ideal", "toric ideal of the non-incidence graph",
     _cmd_graphic_ideal, _SOURCE),
    ("certificate", "irrationality certificate (JSON)", _cmd_certificate,
     _SOURCE + " certificate-ones variable d"),
    ("builtin", "print a stored slack matrix", _cmd_builtin, "name format"),
    ("count-minors", None, _cmd_count_minors, _SOURCE + " rows cols d"),
)


class _VerbParser:
    """Stands in for a verb's argument parser as the subparser argparse
    keeps; the first attribute argparse reads builds the parser, and every
    attribute is read from it.

    The top-level parser names every verb in its usage, help and errors,
    but a request parses with one verb's parser, and building all of them
    would be most of the cost of a small request."""

    def __init__(self, func, options, **kwargs):
        self._build = (func, options, kwargs)

    @functools.cached_property
    def parser(self):
        func, options, kwargs = self._build
        p = argparse.ArgumentParser(**kwargs)
        for name in options.split():
            flag, keywords = _OPTIONS[name]
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
        return p

    def __getattr__(self, name):
        return getattr(self.parser, name)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each verb's own parser is built on its first request."""
    ap = argparse.ArgumentParser(prog="slackkit")
    sub = ap.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)
    for verb, line, func, options in _VERBS:
        listed = {} if line is None else {"help": line}
        sub.add_parser(verb, func=func, options=options, **listed)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`slackkit builtin ... | head`): as
        # Python's SIGPIPE note advises, point stdout at devnull so the
        # flush at exit cannot fail again, and exit 1 without a message
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (SlackkitError, ParseError, UsageError, OSError) as e:
        # a domain error exits 1; a parse, usage or file error exits 2
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, SlackkitError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

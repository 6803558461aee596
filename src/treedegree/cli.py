"""Command-line interface.

Subcommands: ``count``, ``enumerate``, ``encode``, ``decode``, ``verify``,
``table``. Output is deterministic; ``--format json`` emits one
schema-versioned document per invocation, and JSON count values are
decimal strings because they outgrow 64-bit integers quickly.

Exit codes: 0 success (also when the reader closes stdout early), 1
verification mismatch or internal consistency failure (counterexample
printed), 2 usage or validation error.

A call imports only the layer its command runs: each command imports the
library functions it calls, so ``count`` loads ``exact_math`` and nothing
that enumerates, sweeps or expands series, and ``json`` is imported only
where a JSON document is written. :func:`build_parser` returns the
process's one parser, built on its first call, so repeated in-process
calls of :func:`main` pay only for their command. Each ``_cmd_*`` handler
only computes, and returns ``(fields, lines)``: the JSON body after
``schema`` and ``kind`` (the subcommand), and the text lines. :func:`main`
prints the one document and maps ``ok: false`` to exit code 1, a
``ValueError`` to 2, an ``AssertionError`` to 1 and a closed pipe to 0.

:func:`build_parser` declares every command's name and summary up front,
for ``--help`` and the invalid-choice error, and builds a command's own
flags and subcommands on demand: the first time a parse selects it. A
group command (``count``, ``enumerate``, ``encode``, ``decode``) is one
call of :func:`_add_group` and each leaf command one call of
:func:`_add_command`: its summary, handler and flags in order, after which
``--format`` follows. Each flag that several commands take alike is
written once there: ``-n/--edges``, ``-k/--arity`` and ``-i/--outdegree``
in a required and an optional form, and ``--word``.
"""

import argparse
import functools
import os
import sys

from ._limits import CHECK_NAMES, DEFAULT_MAX_ARITY, DEFAULT_MAX_EDGES

SCHEMA = "treedegree/1"

__all__ = ["build_parser", "main"]


class _OnDemand(argparse._SubParsersAction):
    """Subcommands whose names and summaries are declared at once, and whose
    own flags and subcommands are added the first time a parse selects them."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._unbuilt = {}

    def declare(self, name: str, summary: str, build) -> None:
        """Add the command ``name``; ``build(parser)`` fills it in when selected."""
        self.add_parser(name, help=summary)
        self._unbuilt[name] = build

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        build = self._unbuilt.pop(values[0], None)
        if build is not None:
            build(self.choices[values[0]])
        super().__call__(parser, namespace, values, option_string)


def _add_command(sub: _OnDemand, name: str, summary: str, func, *flags, csv: bool = False) -> None:
    """Declare the leaf command ``name`` in ``sub``: each of ``flags``, a pair
    of add_argument names and keywords, in order, then ``--format`` and ``func``."""
    def build(parser: argparse.ArgumentParser) -> None:
        for names, keywords in flags:
            parser.add_argument(*names, **keywords)
        choices = ["text", "json", "csv"] if csv else ["text", "json"]
        parser.add_argument("--format", choices=choices, default="text")
        parser.set_defaults(func=func)

    sub.declare(name, summary, build)


def _add_group(sub: _OnDemand, name: str, summary: str, dest: str, *commands: tuple) -> None:
    """Declare the command ``name`` in ``sub``, which takes one of ``commands``
    (each the arguments of an :func:`_add_command` call) into ``dest``."""
    def build(parser: argparse.ArgumentParser) -> None:
        group = parser.add_subparsers(dest=dest, required=True, action=_OnDemand)
        for command in commands:
            _add_command(group, *command)

    sub.declare(name, summary, build)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call. Help and
    usage errors read COLUMNS when they are printed, not here."""
    parser = argparse.ArgumentParser(
        prog="treedegree",
        description="Exact vertex-outdegree counting and bijections for plane and k-ary trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_OnDemand)
    # The flags that several commands share, in their required and optional forms.
    n, k, i = ("-n", "--edges"), ("-k", "--arity"), ("-i", "--outdegree")
    edges, arity, outdegree = ((names, dict(type=int, required=True)) for names in (n, k, i))
    edges_opt, arity_opt, outdegree_opt = ((names, dict(type=int)) for names in (n, k, i))
    word = ("--word",), dict(required=True)

    _add_group(sub, "count", "closed-form vertex counts", "family",
               ("plane", "outdegree-i vertices over n-edge plane trees",
                _cmd_count_plane, edges, outdegree),
               ("kary", "outdegree-i vertices over n-edge k-ary trees",
                _cmd_count_kary, arity, edges, outdegree))
    _add_group(sub, "enumerate", "list all trees of a given size", "family",
               ("plane", "all plane trees with n edges", _cmd_enumerate_plane, edges),
               ("kary", "all k-ary trees with n edges", _cmd_enumerate_kary, arity, edges))
    _add_group(sub, "encode", "trees and marked trees to word/subset form", "what",
               ("plane-pair", "marked plane tree to cyclic word", _cmd_encode_plane_pair,
                (("--tree",), dict(required=True, help="balanced-parentheses tree text")),
                (("--mark",), dict(type=int, required=True, help="1-based preorder index"))),
               ("kary-pair", "marked k-ary tree to 0/k word", _cmd_encode_kary_pair,
                (("--tree",), dict(required=True, help="slot-form tree text, '.' = empty")),
                (("--mark",), dict(type=int, required=True)),
                (k, dict(type=int, help="optional, validated against the tree"))),
               ("subsets", "0/k word to subset pair (X, Y)", _cmd_encode_subsets,
                (("--word",), dict(required=True, help="composition text, e.g. (3,0,0,0)")),
                arity_opt, edges_opt))
    _add_group(sub, "decode", "word/subset form back to trees", "what",
               ("plane", "unit word to plane tree; with --outdegree, cyclic word to marked tree",
                _cmd_decode_plane, word, outdegree_opt),
               ("plane-pair", "cyclic word to marked plane tree", _cmd_decode_plane_pair,
                word, (i, dict(type=int, help="optional, validated against the word"))),
               ("kary-pair", "0/k word to marked k-ary tree", _cmd_decode_kary_pair,
                word, arity_opt, edges_opt, outdegree_opt),
               ("subsets", "subset pair (X, Y) to 0/k word", _cmd_decode_subsets,
                (("--X",), dict(default="", help="comma-separated subset of 1..k")),
                (("--Y",), dict(default="", help="comma-separated subset of 1..kn")),
                arity, edges))
    _add_command(sub, "verify", "formula-vs-oracle sweeps", _cmd_verify,
                 (("what",), dict(choices=[*CHECK_NAMES, "all"])),
                 (("--max-edges",), dict(
                     type=int, default=DEFAULT_MAX_EDGES,
                     help="largest edge count to sweep (lagrange runs at fixed orders)")),
                 ((*k, "--max-arity"), dict(
                     dest="max_arity", type=int, default=DEFAULT_MAX_ARITY,
                     help="largest arity to sweep")))
    _add_command(sub, "table", "count matrix (rows i, columns n)", _cmd_table,
                 (k, dict(type=int, help="omit for plane trees")),
                 (("--max-edges",), dict(type=int, default=8)), csv=True)
    return parser


def _cmd_count_plane(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .exact_math import count_plane_outdegree
    value = str(count_plane_outdegree(args.edges, args.outdegree))
    fields = {"family": "plane", "n": str(args.edges), "i": str(args.outdegree), "count": value}
    return fields, [value]


def _cmd_count_kary(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .exact_math import count_kary_outdegree
    value = str(count_kary_outdegree(args.edges, args.arity, args.outdegree))
    fields = {
        "family": "kary", "k": str(args.arity), "n": str(args.edges),
        "i": str(args.outdegree), "count": value,
    }
    return fields, [value]


def _cmd_enumerate_plane(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .plane_trees import _plane_texts
    trees = list(_plane_texts(args.edges))
    fields = {"family": "plane", "n": str(args.edges), "count": str(len(trees)), "trees": trees}
    return fields, trees


def _cmd_enumerate_kary(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .kary_trees import _kary_texts
    trees = _kary_texts(args.arity, args.edges)
    fields = {
        "family": "kary", "k": str(args.arity), "n": str(args.edges),
        "count": str(len(trees)), "trees": trees,
    }
    return fields, trees


def _cmd_encode_plane_pair(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .compositions import format_composition
    from .plane_trees import MarkedPlaneTree, bar_delta_encode, parse_plane_tree
    tree = parse_plane_tree(args.tree)
    word = bar_delta_encode(MarkedPlaneTree(tree, args.mark))
    n = tree.edge_count
    text = format_composition(word)
    return {"what": "plane-pair", "n": str(n), "i": str(n - sum(word)), "word": text}, [text]


def _cmd_encode_kary_pair(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .compositions import format_composition
    from .kary_trees import MarkedKaryTree, kary_pair_to_composition, parse_kary_tree
    tree = parse_kary_tree(args.tree, args.arity)
    text = format_composition(kary_pair_to_composition(MarkedKaryTree(tree, args.mark)))
    fields = {"what": "kary-pair", "k": str(tree.arity), "n": str(tree.edge_count), "word": text}
    return fields, [text]


def _cmd_encode_subsets(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .compositions import parse_composition
    from .kary_trees import phi
    pair = phi(parse_composition(args.word), args.arity, args.edges)
    fields = {"k": pair.k, "n": pair.n, "X": sorted(pair.X), "Y": sorted(pair.Y)}
    return {"what": "subsets", "pair": fields}, [pair.to_json()]


def _cmd_decode_plane(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .compositions import parse_composition
    from .plane_trees import (
        bar_delta_decode, delta_decode, format_marked_plane_tree, format_plane_tree,
    )
    word = parse_composition(args.word)
    if args.outdegree is None:
        rendered = format_plane_tree(delta_decode(word))
    else:
        rendered = format_marked_plane_tree(bar_delta_decode(word, args.outdegree))
    return {"what": "plane", "tree": rendered}, [rendered]


def _cmd_decode_plane_pair(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .compositions import parse_composition
    from .plane_trees import bar_delta_decode, format_marked_plane_tree
    word = parse_composition(args.word)
    derived = len(word) - sum(word)
    if derived < 0:
        raise ValueError(f"word sum exceeds its length: {args.word!r}")
    if args.outdegree is not None and args.outdegree != derived:
        raise ValueError(f"word encodes outdegree {derived}, expected {args.outdegree}")
    rendered = format_marked_plane_tree(bar_delta_decode(word, derived))
    return {"what": "plane-pair", "tree": rendered}, [rendered]


def _cmd_decode_kary_pair(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .compositions import parse_composition
    from .kary_trees import composition_to_kary_pair, format_marked_kary_tree
    word = parse_composition(args.word)
    marked = composition_to_kary_pair(word, args.arity, args.edges, args.outdegree)
    rendered = format_marked_kary_tree(marked)
    return {"what": "kary-pair", "tree": rendered}, [rendered]


def _parse_subset(text: str, label: str) -> frozenset[int]:
    stripped = text.strip()
    if not stripped:
        return frozenset()
    try:
        values = [int(piece.strip()) for piece in stripped.split(",")]
    except ValueError:
        raise ValueError(f"{label} must be comma-separated integers: {text!r}") from None
    subset = frozenset(values)
    if len(subset) != len(values):
        raise ValueError(f"{label} contains repeated elements: {text!r}")
    return subset


def _cmd_decode_subsets(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .compositions import format_composition
    from .kary_trees import SubsetPair, phi_inverse
    x, y = _parse_subset(args.X, "--X"), _parse_subset(args.Y, "--Y")
    text = format_composition(phi_inverse(SubsetPair(args.arity, args.edges, x, y)))
    return {"what": "subsets", "word": text}, [text]


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .verification import run_checks
    results = run_checks(args.what, args.max_edges, args.max_arity)
    checks = [
        {
            "name": r.name,
            "scope": r.scope,
            "status": "pass" if r.passed else "fail",
            "detail": r.detail,
        }
        for r in results
    ]
    fields = {"what": args.what, "ok": all(r.passed for r in results), "checks": checks}
    return fields, [r.line() for r in results]


def _cmd_table(args: argparse.Namespace) -> tuple[dict, list[str]]:
    from .exact_math import count_kary_outdegree, count_plane_outdegree
    max_edges = args.max_edges
    if max_edges < 1:
        raise ValueError("--max-edges must be at least 1")
    if args.arity is None:
        rows = range(0, max_edges + 1)
        cell = lambda i, n: count_plane_outdegree(n, i)  # noqa: E731
        fields: dict = {"family": "plane"}
    else:
        if args.arity < 1:
            raise ValueError("--arity must be at least 1")
        rows = range(0, args.arity + 1)
        cell = lambda i, n: count_kary_outdegree(n, args.arity, i)  # noqa: E731
        fields = {"family": "kary", "k": str(args.arity)}
    # Every cell in decimal once; each format is built from these strings.
    edges = range(1, max_edges + 1)
    columns = list(map(str, edges))
    body = [[str(i), *(str(cell(i, n)) for n in edges)] for i in rows]
    fields["columns"] = columns
    fields["rows"] = [{"i": i, "counts": counts} for i, *counts in body]
    if args.format == "csv":
        return fields, [",".join(r) for r in [["i/n", *columns], *body]]
    grid = [["i\\n", *columns], *body]
    widths = [max(map(len, column)) for column in zip(*grid)]
    return fields, ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in grid]


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run its command; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Counts are exact, so they print in full: lift Python's cap on decimal
    # conversion (4,300 digits since 3.11 and 3.10.7) for this call only.
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_cap(0)
    try:
        # Inside the pipe handler, so that a reader gone while an error
        # prints is caught too.
        try:
            fields, lines = args.func(args)
            if args.format == "json":
                import json
                doc = {"schema": SCHEMA, "kind": args.command, **fields}
                print(json.dumps(doc, separators=(",", ":")))
            else:
                print("\n".join(lines))
            return 1 if fields.get("ok") is False else 0
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except AssertionError as exc:
            print(f"consistency failure: {exc}", file=sys.stderr)
            return 1
    except BrokenPipeError:
        # The reader closed stdout early (``| head``), which is no failure.
        # Point stdout at devnull, so that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        set_cap(cap)


if __name__ == "__main__":
    sys.exit(main())

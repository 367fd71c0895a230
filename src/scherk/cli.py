"""Command line front end.

Every command reads one JSON document (a file argument or stdin), writes a
machine readable result to stdout, and keeps diagnostics on stderr.  All
randomness sits behind --seed (default 0), and seed 0 selects the fully
deterministic construction, so outputs are byte-stable.

`main` is the one place that reads the input document, writes the answer
and maps an error to an exit code.  A command handler takes the decoded
document and the parsed arguments and returns a payload dict, or the DOT
text of `hasse`; only `factorize --chain` reads a second document, after
the input.  The handlers let library errors propagate, and `main` prints
each as one stderr line, `error: ...`, with nothing on stdout.  Exit
codes, by exception type alone: 0 success; 1 malformed input
(`jsonio.FormatError`: unreadable, not JSON, not the expected shape, or an
answer too long to print); 2 invalid isometry (`OrthogonalityError`, or
`CliError`: a `DimensionError` while decoding an isometry, or an isometry
whose dimension is not --dim or, in `order`, not w's); 3 invalid poset or
chain input (`PosetError`, `ChainError`, any other `DimensionError`).

A plain command line is read without argparse.  `_plain` reads a known
command, at most one input (a path, or `-` for stdin) and whole option
names, each valued one followed by a value that is not an option: a choice
of the command's, digits for an int.  Any other line, `-h`, `=` spellings,
abbreviations and every error among them, goes to the full argparse
parser, which is imported and built only then.  One table of each
command's options feeds both readers.

JSON output is written by a small recursive
writer, byte for byte what `json.dumps(payload, indent=2, sort_keys=True)`
writes, without the pure-Python encoder that any indent selects.  It works
per list, not per entry: a list of strings, such as every vector, is one
join, and only a list with another entry is written entry by entry.  An
int is written by `int.__repr__`, True, False and None as their literals,
and `json.dumps` writes only any other scalar.
"""

from __future__ import annotations

import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Optional

from . import jsonio, oracle, poset
from .factor import (
    ChainError,
    chain_to_factorization,
    factor,
    factorization_to_chain,
    verify_minimal,
)
from .isometry import (
    Isometry,
    OrthogonalityError,
    classify,
    interval_contains,
    interval_leq,
    standard_splitting,
)
from .linalg import DimensionError
from .poset import PosetContext, PosetError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ISOMETRY = 2
EXIT_POSET = 3


class CliError(Exception):
    """An invalid isometry the command line finds itself (exit 2)."""


def _read_document(path: Optional[str]) -> Any:
    """The JSON document in a file, or on stdin for None or "-"."""
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise jsonio.FormatError(f"cannot read input: {exc}")
    try:  # ValueError also means an int too long to convert
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise jsonio.FormatError(f"malformed JSON: {exc}")


def _decode_isometries(decode, obj: Any):
    """decode(obj), where a DimensionError makes the isometry invalid (exit 2)."""
    try:
        return decode(obj)
    except DimensionError as exc:
        raise CliError(f"invalid isometry: {exc}")


def _load_isometry(obj: Any, dim: Optional[int]) -> Isometry:
    w = _decode_isometries(jsonio.isometry_from_json, obj)
    if dim is not None and w.dim != dim:
        raise CliError(f"isometry has dimension {w.dim}, not {dim}")
    return w


def _context(top: Any, augmented: bool) -> PosetContext:
    return PosetContext(top=jsonio.element_from_json(top), augmented=augmented)


def _to_json(value: Any, newline: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, with
    newline (and the indent after it) before each closing bracket."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_to_json(value[key], inner)}"
            for key in sorted(value)
        ]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        try:  # a list of strings, such as a vector
            items = list(map(encode_basestring_ascii, value))
        except TypeError:
            items = [_to_json(item, inner) for item in value]
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    elif value is None:
        return "null"
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _emit_json(payload: Any) -> str:
    return _to_json(payload, "\n") + "\n"


def _emit(answer: Any, fmt: str) -> str:
    """An answer as stdout gets it: text (DOT) as it is, a payload as JSON
    or, under --format text, as one `key: value` line per sorted key."""
    if isinstance(answer, str):
        return answer
    if fmt == "text":
        lines = []
        for key, value in sorted(answer.items()):
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        return "\n".join(lines) + "\n"
    return _emit_json(answer)


def _cmd_analyze(doc: Any, args) -> dict:
    w = _load_isometry(doc, args.dim)
    cls = classify(w)
    mu, u = standard_splitting(w)
    return {
        "tag": cls.tag,
        "length": cls.length,
        "dim": w.dim,
        "move_set": jsonio.affine_v_to_json(cls.move_set),
        "min_set": jsonio.affine_e_to_json(cls.min_set),
        "splitting": {
            "mu": jsonio.vector_to_json(mu),
            "elliptic": jsonio.isometry_to_json(u),
        },
    }


def _cmd_factorize(doc: Any, args) -> dict:
    w = _load_isometry(doc, args.dim)
    if args.chain:
        [chain] = jsonio.fields(_read_document(args.chain), "chain file", "chain")
        f = chain_to_factorization(jsonio.elements_from_json(chain), w)
    elif args.seed:
        f = oracle.random_minimal_factorization(w, args.seed)
    else:
        f = factor(w)
    if not verify_minimal(f):
        raise ChainError("internal error: factorization failed verification")
    return jsonio.factorization_to_json(f)


def _cmd_chain(doc: Any, args) -> dict:
    f = _decode_isometries(jsonio.factorization_from_json, doc)
    return {"chain": [jsonio.element_to_json(p) for p in factorization_to_chain(f)]}


def _cmd_order(doc: Any, args) -> dict:
    jsonio.fields(doc, "order input")  # an object, whose keys pick the form
    if "p" in doc and "q" in doc:
        p, q = (jsonio.element_from_json(doc[key]) for key in "pq")
        return {"leq": poset.leq(p, q)}
    w, u = jsonio.fields(doc, "order input without p and q", "w", "u")
    w = _load_isometry(w, args.dim)
    u = _load_isometry(u, w.dim)
    if "v" in doc:
        return {"leq": interval_leq(w, u, _load_isometry(doc["v"], w.dim))}
    return {"contains": interval_contains(w, u)}


# The plain and the augmented bound of each bound command.
_BOUNDS = {"meet": (poset.meet, poset.dm_meet), "join": (poset.join, poset.dm_join)}


def _cmd_bound(doc: Any, args) -> dict:
    """meet or join of p and q, in the completion with --augmented."""
    top, p, q = jsonio.fields(doc, "input", "top", "p", "q")
    ctx = _context(top, args.augmented)
    p, q = jsonio.element_from_json(p), jsonio.element_from_json(q)
    plain, augmented = _BOUNDS[args.command]
    result = augmented([p, q], ctx) if args.augmented else plain(p, q, ctx)
    return {args.command: jsonio.bound_to_json(result)}


def _cmd_bowtie(doc: Any, args) -> dict:
    [top] = jsonio.fields(doc, "input", "top")
    ctx = _context(top, augmented=False)
    return dict(zip("abcd", map(jsonio.element_to_json, poset.find_bowtie(ctx))))


def _cmd_lattice(doc: Any, args) -> dict:
    [top] = jsonio.fields(doc, "input", "top")
    return {"lattice": poset.is_lattice(_context(top, args.augmented))}


def _cmd_complete(doc: Any, args) -> dict:
    top, elements = jsonio.fields(doc, "input", "top", "elements")
    ctx = _context(top, augmented=True)
    elements = jsonio.elements_from_json(elements)
    return {
        "meet": jsonio.element_to_json(poset.dm_meet(elements, ctx)),
        "join": jsonio.element_to_json(poset.dm_join(elements, ctx)),
    }


def _cmd_hasse(doc: Any, args) -> dict | str:
    """The DOT source of the Hasse diagram, or its payload under --format json."""
    top, elements = jsonio.fields(doc, "input", "top", "elements")
    top = jsonio.element_from_json(top)
    nodes, edges = poset.hasse_graph(jsonio.elements_from_json(elements), top=top)
    if args.format == "dot":
        return poset.dot_source(nodes, edges)
    return {"nodes": [jsonio.element_to_json(p) for p in nodes], "edges": edges}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "factorize": _cmd_factorize,
    "chain": _cmd_chain,
    "order": _cmd_order,
    "meet": _cmd_bound,
    "join": _cmd_bound,
    "bowtie": _cmd_bowtie,
    "lattice": _cmd_lattice,
    "complete": _cmd_complete,
    "hasse": _cmd_hasse,
}


def _options(name: str):
    """flag, (kind, default) of each option of one command, in help order;
    the kind is int, str, bool (a switch) or the tuple of the choices."""
    formats = ("dot", "json") if name == "hasse" else ("json", "text")
    yield "--seed", (int, 0)
    yield "--format", (formats, formats[0])
    if name in ("analyze", "factorize", "order"):
        yield "--dim", (int, None)
    if name == "factorize":
        yield "--chain", (str, None)
    if name in ("meet", "join", "lattice"):
        yield "--augmented", (bool, False)


# Each command's options, flag -> (kind, default): what both parsers read.
_OPTIONS = {name: dict(_options(name)) for name in _COMMANDS}


def _add_arguments(cmd, name: str) -> None:
    """The arguments of one command, on its subparser."""
    cmd.add_argument("input", nargs="?", default=None, help="JSON file or - for stdin")
    for flag, (kind, default) in _OPTIONS[name].items():
        if kind is bool:
            cmd.add_argument(flag, action="store_true")
        elif kind is int:
            cmd.add_argument(flag, type=int, default=default)
        elif kind is str:
            cmd.add_argument(flag, default=default, metavar="FILE")
        else:
            cmd.add_argument(flag, choices=kind, default=default)
    cmd.set_defaults(command=name, handler=_COMMANDS[name])


@functools.cache
def _build_parser():
    """The full command line parser, for every line _plain does not read."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="scherk",
        description=(
            "Exact reflection lengths, minimal reflection factorizations, and "
            "interval posets for euclidean isometries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_arguments(sub.add_parser(name), name)
    return parser


def _plain(argv: list) -> Optional[SimpleNamespace]:
    """What _build_parser().parse_args(argv) returns, when argv is a command,
    at most one input that is no option (or is "-") and whole option names,
    each valued one followed by a value that is no option; else None."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    args = {"command": argv[0], "handler": _COMMANDS[argv[0]], "input": None}
    args.update((flag[2:], default) for flag, (_, default) in options.items())
    tokens = iter(argv[1:])
    for token in tokens:
        kind, _ = options.get(token, (None, None))
        if kind is None:
            if args["input"] is not None or token.startswith("-") and token != "-":
                return None
            args["input"] = token
        elif kind is bool:
            args[token[2:]] = True
        else:
            value = next(tokens, "-")
            if kind is int:
                # int() reads 640 digits whatever its digit limit is set to
                if not (value.isascii() and value.isdigit() and len(value) <= 640):
                    return None
                value = int(value)
            elif value.startswith("-") or kind is not str and value not in kind:
                return None
            args[token[2:]] = value
    return SimpleNamespace(**args)


def _parse_args(argv):
    """What _build_parser().parse_args(argv) returns, or the same exit."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one command: the one place that reads its input document, writes
    its answer and maps an error to an exit code."""
    args = _parse_args(argv)
    try:
        answer = args.handler(_read_document(args.input), args)
        sys.stdout.write(_emit(answer, args.format))
        return EXIT_OK
    except jsonio.FormatError as exc:
        error, code = exc, EXIT_PARSE
    except (CliError, OrthogonalityError) as exc:
        error, code = exc, EXIT_ISOMETRY
    except (PosetError, ChainError, DimensionError) as exc:
        error, code = exc, EXIT_POSET
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

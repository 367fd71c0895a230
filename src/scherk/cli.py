"""Command line front end.

Every command reads one JSON document (a file argument or stdin), writes a
machine readable result to stdout, and keeps diagnostics on stderr.  Exit
codes: 0 success, 1 malformed input, 2 invalid isometry, 3 invalid poset or
chain input.  All randomness sits behind --seed (default 0), and seed 0
selects the fully deterministic construction, so outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
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
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_document(path: Optional[str]) -> Any:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read input: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal too long to convert
        raise CliError(EXIT_PARSE, f"malformed JSON: {exc}")


def _load_isometry(obj: Any, dim: Optional[int]) -> Isometry:
    try:
        w = jsonio.isometry_from_json(obj)
    except jsonio.FormatError as exc:
        raise CliError(EXIT_PARSE, f"bad isometry payload: {exc}")
    except (OrthogonalityError, DimensionError) as exc:
        raise CliError(EXIT_ISOMETRY, f"invalid isometry: {exc}")
    if dim is not None and w.dim != dim:
        raise CliError(EXIT_ISOMETRY, f"isometry has dimension {w.dim}, not {dim}")
    return w


def _load_element(obj: Any) -> poset.PosetElement:
    try:
        return jsonio.element_from_json(obj)
    except jsonio.FormatError as exc:
        raise CliError(EXIT_PARSE, f"bad poset element: {exc}")
    except (PosetError, DimensionError) as exc:
        raise CliError(EXIT_POSET, f"invalid poset element: {exc}")


def _load_elements(obj: Any) -> list[poset.PosetElement]:
    if not isinstance(obj, list):
        raise CliError(EXIT_PARSE, f"elements must be an array, got {obj!r}")
    return [_load_element(e) for e in obj]


def _context(obj: Any, augmented: bool) -> PosetContext:
    if not isinstance(obj, dict) or "top" not in obj:
        raise CliError(EXIT_PARSE, "input needs a top element")
    top = _load_element(obj["top"])
    try:
        return PosetContext(top=top, augmented=augmented)
    except PosetError as exc:
        raise CliError(EXIT_POSET, str(exc))


def _emit_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(payload: Any, fmt: str) -> str:
    if fmt == "text":
        lines = []
        for key, value in sorted(payload.items()):
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        return "\n".join(lines) + "\n"
    return _emit_json(payload)


def _cmd_analyze(args) -> str:
    w = _load_isometry(_read_document(args.input), args.dim)
    cls = classify(w)
    mu, u = standard_splitting(w)
    payload = {
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
    return _emit(payload, args.format)


def _cmd_factorize(args) -> str:
    w = _load_isometry(_read_document(args.input), args.dim)
    try:
        if args.chain:
            chain_doc = _read_document(args.chain)
            if not isinstance(chain_doc, dict) or "chain" not in chain_doc:
                raise CliError(EXIT_POSET, "chain file needs a chain array")
            chain = _load_elements(chain_doc["chain"])
            f = chain_to_factorization(chain, w)
        elif args.seed:
            f = oracle.random_minimal_factorization(w, args.seed)
        else:
            f = factor(w)
    except ChainError as exc:
        raise CliError(EXIT_POSET, f"invalid chain: {exc}")
    if not verify_minimal(f):
        raise CliError(EXIT_POSET, "internal error: factorization failed verification")
    return _emit(jsonio.factorization_to_json(f), args.format)


def _cmd_chain(args) -> str:
    doc = _read_document(args.input)
    try:
        f = jsonio.factorization_from_json(doc)
    except jsonio.FormatError as exc:
        raise CliError(EXIT_PARSE, f"bad factorization payload: {exc}")
    except (OrthogonalityError, DimensionError) as exc:
        raise CliError(EXIT_ISOMETRY, f"invalid isometry: {exc}")
    try:
        chain = factorization_to_chain(f)
    except ChainError as exc:
        raise CliError(EXIT_POSET, f"invalid factorization: {exc}")
    payload = {"chain": [jsonio.element_to_json(p) for p in chain]}
    return _emit(payload, args.format)


def _cmd_order(args) -> str:
    doc = _read_document(args.input)
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, "order input must be an object")
    if "p" in doc and "q" in doc:
        p = _load_element(doc["p"])
        q = _load_element(doc["q"])
        try:
            result = poset.leq(p, q)
        except DimensionError as exc:
            raise CliError(EXIT_POSET, str(exc))
        return _emit({"leq": result}, args.format)
    if "w" in doc and "u" in doc:
        w = _load_isometry(doc["w"], args.dim)
        u = _load_isometry(doc["u"], args.dim)
        v = _load_isometry(doc["v"], args.dim) if "v" in doc else u
        if not w.dim == u.dim == v.dim:
            raise CliError(EXIT_ISOMETRY, "isometries of different dimensions")
        if "v" in doc:
            return _emit({"leq": interval_leq(w, u, v)}, args.format)
        return _emit({"contains": interval_contains(w, u)}, args.format)
    raise CliError(EXIT_PARSE, "order input needs p/q elements or w/u isometries")


def _cmd_meet(args) -> str:
    return _meet_or_join(args, is_meet=True)


def _cmd_join(args) -> str:
    return _meet_or_join(args, is_meet=False)


def _meet_or_join(args, is_meet: bool) -> str:
    doc = _read_document(args.input)
    ctx = _context(doc, args.augmented)
    if not isinstance(doc, dict) or "p" not in doc or "q" not in doc:
        raise CliError(EXIT_PARSE, "input needs p and q elements")
    p = _load_element(doc["p"])
    q = _load_element(doc["q"])
    try:
        if args.augmented:
            result = (
                poset.dm_meet([p, q], ctx) if is_meet else poset.dm_join([p, q], ctx)
            )
        else:
            result = poset.meet(p, q, ctx) if is_meet else poset.join(p, q, ctx)
    except (PosetError, DimensionError) as exc:
        raise CliError(EXIT_POSET, str(exc))
    key = "meet" if is_meet else "join"
    return _emit({key: jsonio.bound_to_json(result)}, args.format)


def _cmd_bowtie(args) -> str:
    doc = _read_document(args.input)
    ctx = _context(doc, augmented=False)
    try:
        a, b, c, d = poset.find_bowtie(ctx)
    except (PosetError, DimensionError) as exc:
        raise CliError(EXIT_POSET, str(exc))
    payload = {
        "a": jsonio.element_to_json(a),
        "b": jsonio.element_to_json(b),
        "c": jsonio.element_to_json(c),
        "d": jsonio.element_to_json(d),
    }
    return _emit(payload, args.format)


def _cmd_lattice(args) -> str:
    doc = _read_document(args.input)
    ctx = _context(doc, args.augmented)
    return _emit({"lattice": poset.is_lattice(ctx)}, args.format)


def _cmd_complete(args) -> str:
    doc = _read_document(args.input)
    ctx = _context(doc, augmented=True)
    if not isinstance(doc, dict) or "elements" not in doc:
        raise CliError(EXIT_PARSE, "input needs an elements array")
    elements = _load_elements(doc["elements"])
    try:
        meet_result = poset.dm_meet(elements, ctx)
        join_result = poset.dm_join(elements, ctx)
    except (PosetError, DimensionError) as exc:
        raise CliError(EXIT_POSET, str(exc))
    payload = {
        "meet": jsonio.element_to_json(meet_result),
        "join": jsonio.element_to_json(join_result),
    }
    return _emit(payload, args.format)


def _cmd_hasse(args) -> str:
    doc = _read_document(args.input)
    if not isinstance(doc, dict) or "elements" not in doc or "top" not in doc:
        raise CliError(EXIT_PARSE, "hasse input needs top and elements")
    top = _load_element(doc["top"])
    elements = _load_elements(doc["elements"])
    try:
        nodes, edges = poset.hasse_graph(elements, top=top)
    except (PosetError, DimensionError) as exc:
        raise CliError(EXIT_POSET, str(exc))
    if args.format == "json":
        return _emit_json(
            {
                "nodes": [jsonio.element_to_json(p) for p in nodes],
                "edges": edges,
            }
        )
    return poset.dot_source(nodes, edges)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "factorize": _cmd_factorize,
    "chain": _cmd_chain,
    "order": _cmd_order,
    "meet": _cmd_meet,
    "join": _cmd_join,
    "bowtie": _cmd_bowtie,
    "lattice": _cmd_lattice,
    "complete": _cmd_complete,
    "hasse": _cmd_hasse,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="scherk",
        description=(
            "Exact reflection lengths, minimal reflection factorizations, and "
            "interval posets for euclidean isometries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("input", nargs="?", default=None, help="JSON file or - for stdin")
        cmd.add_argument("--seed", type=int, default=0)
        formats = ("dot", "json") if name == "hasse" else ("json", "text")
        cmd.add_argument("--format", choices=formats, default=formats[0])
        if name in ("analyze", "factorize", "order"):
            cmd.add_argument("--dim", type=int, default=None)
        if name == "factorize":
            cmd.add_argument("--chain", default=None, metavar="FILE")
        if name in ("meet", "join", "lattice"):
            cmd.add_argument("--augmented", action="store_true")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sys.stdout.write(args.handler(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend.

Subcommands: act, change-basis, pair, hom, generate, character, classify,
verify-paper.  All payloads and results are JSON with exact scalar strings;
output ordering is deterministic.  Exit codes: 0 success / all checks pass,
1 a check failed or stdout was closed before all output was written, 2
invalid input (a malformed flag or payload, reported as an {"error",
"message"} JSON object) or, with no check failed, one that refused its window.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import liealg, registry
from .errors import ObstructionAtIndex
from .explore import character_table, generate
from .hom import ModuleDescriptor, image_kernel, solve_by_recurrence, solve_intertwiner
from .module import ModuleElement, Params, act_word, pairing, u_to_w, w_to_u
from .scalars import format_scalar
from .serialize import (
    MAX_WINDOW,
    box_to_json,
    element_from_json,
    element_to_json,
    indexset_to_json,
    param_from_json,
    params_to_json,
    parse_descriptor,
    parse_indices,
    parse_set_expr,
    parse_window,
    parse_word,
)
from .subquotient import classify as classify_set


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line, so that it reaches main's error
    JSON and exit code 2 like any other invalid input."""

    def error(self, message):
        raise ValueError(message)


# flags whose valid values may start with "-", as "-1/3" and "-1,0,0" do;
# argparse takes such a value for a flag unless it looks like a negative number
_SIGNED_FLAGS = ("--mu1", "--mu2", "--start", "--seed")


def _radius(text: str) -> int:
    """parse_window for argparse, which would replace a ValueError's message."""
    try:
        return parse_window(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(e) from None


def _param(args, which: int) -> str:
    """The flag's mu1 or mu2, else 'symbolic' under --symbolic, else the
    default 1/3 or 1/5.  A payload's own mu1/mu2 wins over all three."""
    text = getattr(args, f"mu{which}")
    if text is None:
        text = "symbolic" if args.symbolic else ("1/3", "1/5")[which - 1]
    return text


def _params_from_args(args) -> Params:
    return Params(*(param_from_json(_param(args, which), which) for which in (1, 2)))


def _load_element(args, payload: str, basis: str | None = None) -> ModuleElement:
    """Decode an element payload (JSON text, or - for stdin).  `basis` is
    the basis the command implies; mu1/mu2 missing from the payload come
    from the flags."""
    if payload == "-":
        payload = sys.stdin.read()
    obj = json.loads(payload)
    if isinstance(obj, dict):
        if basis is not None:
            if obj.setdefault("basis", basis) != basis:
                raise ValueError(f"expected a {basis}-element, got {obj['basis']!r}")
        elif "basis" not in obj:
            raise ValueError(
                'the element has no basis: give "basis" in its JSON, or pass --basis to act'
            )
        for which in (1, 2):
            obj.setdefault(f"mu{which}", _param(args, which))
    return element_from_json(obj)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_act(args) -> int:
    v = _load_element(args, args.element, args.basis)
    word = [args.gen] if args.gen is not None else parse_word(args.word)
    out = act_word(word, v)
    _emit(element_to_json(out))
    return 0


def cmd_change_basis(args) -> int:
    v = _load_element(args, args.element)
    if args.to == "u":
        out = w_to_u(v)
    else:
        out = u_to_w(v)
    _emit(element_to_json(out))
    return 0


def cmd_pair(args) -> int:
    if args.eta == args.w == "-":
        raise ValueError("--eta and --w cannot both be -: stdin holds one payload")
    d = _load_element(args, args.eta, "eta")
    v = _load_element(args, args.w, "w")
    _emit({"value": format_scalar(pairing(d, v))})
    return 0


def cmd_hom(args) -> int:
    if args.seed is not None and not args.recurrence:
        raise ValueError("--seed needs --recurrence: only the recurrence starts from a seed")
    params = _params_from_args(args)
    source = parse_descriptor(args.source, params)
    target = parse_descriptor(args.target, params)
    box = source.window(args.window)
    result = {
        "source": args.source,
        "target": args.target,
        "window": box_to_json(box),
        "params": params_to_json(params),
        "obstructions": [],
    }
    if args.recurrence:
        seed = (parse_indices(args.seed, joined=False)[0] if args.seed is not None
                else (0, (box.lmin + box.lmax) // 2, 0))
        try:
            sol = solve_by_recurrence(source, target, seed, Fraction(1), box)
            sols = [sol]
            result["dimension"] = 1
        except ObstructionAtIndex as e:
            result["obstructions"] = [
                {"index": list(e.index), "generator": e.generator, "detail": e.detail}
            ]
            result["dimension"] = 0
            sols = []
    else:
        sols = solve_intertwiner(source, target, box)
        result["dimension"] = len(sols)
    result["solutions"] = [
        {f"{k},{l},{m}": format_scalar(c) for (k, l, m), c in sorted(s.x.items())}
        for s in sols
    ]
    if len(sols) == 1 and params.mu2_integral():
        img, ker = image_kernel(sols[0])
        if img is not None:
            result["image"] = indexset_to_json(img)
            result["kernel"] = indexset_to_json(ker)
    _emit(result)
    return 0


def cmd_generate(args) -> int:
    params = _params_from_args(args)
    desc = parse_descriptor(args.set if not args.dual else f"dual:{args.set}", params)
    box = desc.window(args.window)
    cert = generate(parse_indices(args.start), desc, box)
    _emit(
        {
            "descriptor": cert.descriptor,
            "params": params_to_json(params),
            "window": box_to_json(box),
            "start": [list(i) for i in cert.start],
            "verdict": cert.verdict,
            "reached": len(cert.reached),
            "missing": [list(i) for i in cert.missing[:20]],
        }
    )
    return 0


def cmd_character(args) -> int:
    params = _params_from_args(args)
    desc = parse_descriptor(args.set if not args.dual else f"dual:{args.set}", params)
    table = character_table(desc, args.window)
    _emit(
        {
            "params": params_to_json(params),
            "window": args.window,
            "table": {f"{s},{t}": n for (s, t), n in table.items()},  # _emit sorts
        }
    )
    return 0


def cmd_classify(args) -> int:
    if args.mu2 is None:
        args.mu2 = "0"  # classification only makes sense for integral mu2
    params = _params_from_args(args)
    J = parse_set_expr(args.set)
    box = ModuleDescriptor(params, J=J).window(args.window)
    kind = classify_set(J, box, params)
    _emit(
        {
            "set": indexset_to_json(J),
            "params": params_to_json(params),
            "window": args.window,
            "classification": kind,
        }
    )
    return 0


def cmd_verify_paper(args) -> int:
    for flag in ("--mu1", "--mu2", "--symbolic"):
        if getattr(args, flag[2:]):
            raise ValueError(f"verify-paper takes no {flag}: each check runs at "
                             "its own pinned parameters, which its report prints")
    names = registry.CHECKS if args.check in (None, "all") else [args.check]
    rec = registry.CHECKS.get(args.check)
    if rec is not None and rec.window is None and args.window is not None:
        raise ValueError(f"verify-paper --check {args.check} takes no --window: "
                         "the check has no window to set")
    verdicts = set()
    for name in names:
        rep = registry.run_check(name, window=args.window)
        _emit(rep)  # as it is made, so a later error loses no verdict
        verdicts.add(rep["verdict"])
    return 1 if "fail" in verdicts else 2 if "refused" in verdicts else 0


class _CheckIds:
    """The --check choices: the ids in registry.CHECKS when a request is
    parsed, so that the one shared parser never holds a stale copy."""

    def __iter__(self):
        return iter((*registry.CHECKS, "all"))

    def __contains__(self, name):
        return name == "all" or name in registry.CHECKS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every main call in this process shares, built on first use.
    Parsing leaves it as it is: each request gets a fresh namespace."""
    ap = _Parser(
        prog="gtsl3",
        description="Exact engine for a two-parameter family of "
        "Gelfand-Tsetlin sl3-modules",
    )
    ap.add_argument("--mu1", help="first parameter, e.g. 1/3 or 'symbolic'")
    ap.add_argument("--mu2", help="second parameter, e.g. 0 or 'symbolic'")
    ap.add_argument("--symbolic", action="store_true",
                    help="run over the rational-function field")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices  # subcommand name -> its parser

    p = sub.add_parser("act", help="apply a generator or word to an element")
    p.add_argument("--basis", choices=("u", "w", "eta"),
                   help="basis tag when the element JSON omits one")
    word = p.add_mutually_exclusive_group(required=True)
    word.add_argument("--gen", help="one of " + ",".join(liealg.GENERATORS))
    word.add_argument("--word", help="comma-separated word, leftmost acts last")
    p.add_argument("--element", required=True, help="element JSON, or - for stdin")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("change-basis", help="convert between u- and w-bases")
    p.add_argument("--to", choices=("u", "w"), required=True)
    p.add_argument("--element", required=True, help="element JSON, or - for stdin")
    p.set_defaults(func=cmd_change_basis)

    p = sub.add_parser("pair", help="pair an eta-element with a w-element")
    p.add_argument("--eta", required=True, help="eta-element JSON, or - for stdin")
    p.add_argument("--w", required=True, help="w-element JSON, or - for stdin")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("hom", help="solve for diagonal intertwiners on a window")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--window", type=_radius, default=4)
    p.add_argument("--recurrence", action="store_true",
                   help="propagate ratio recurrences from a seed instead of solving")
    p.add_argument("--seed", help="k,l,m of the seed index, with --recurrence; "
                   "default the window centre")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("generate", help="BFS generation certificate")
    p.add_argument("--start", required=True, help="semicolon-separated k,l,m triples")
    p.add_argument("--set", default="full")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--window", type=_radius, default=3)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("character", help="weight multiplicities over a cone")
    p.add_argument("--set", default="lbar>=0")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--window", type=_radius, default=6)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("classify", help="submodule / quotient / subquotient")
    p.add_argument("--set", required=True)
    p.add_argument("--window", type=_radius, default=3)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-paper",
                       help="re-run the registered structural checks")
    p.add_argument("--check", choices=_CheckIds(),
                   help="check id, or 'all'")
    p.add_argument("--window", type=_radius)
    p.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # "--mu1 -1/3" as "--mu1=-1/3"
        if argv[i - 1] in _SIGNED_FLAGS and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        try:
            parser = build_parser()
            # argparse would report the value of a leading --window as the subcommand
            head = next((i for i, a in enumerate(argv) if a in parser.commands), 0)
            if any(a.split("=")[0] == "--window" for a in argv[:head]):
                raise ValueError("--window goes after the subcommand, as in "
                                 "gtsl3 classify --set lbar=1 --window 3")
            args = parser.parse_args(argv)
            code = args.func(args)
        except (ValueError, KeyError, ZeroDivisionError, json.JSONDecodeError) as e:
            _emit({"error": type(e).__name__, "message": str(e)})
            code = 2
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader stopped early: send what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

The exit code follows the report verdict: 0 ``ok`` (normalized / is a
basis / embedded / equal), 1 ``fail``, 2 ``inconclusive`` (window boundary
or completion limits); 3 is an input error.

JSON reports (``--json OUT``) always carry exactly these keys:

* ``command``: the subcommand that ran;
* ``inputs.digest``: hash of the input file (or example name) and options;
* ``params``: the effective options;
* ``verdict``: ``ok`` | ``fail`` | ``inconclusive``;
* ``details``: command-specific payload (canonical polynomial text,
  composition verdicts and counts, word lists, basis members, ...);
* ``traces``: reduction traces when ``--trace`` is given, else ``[]``;
* ``timings``: wall-clock seconds when ``--timings`` is given, else null.

Keys are sorted and timings default to null, so identical inputs and flags
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .words import AlgebraSignature, ConformalError, compare_words
from .dsl import (_KNOWN_OPTIONS, ParseError, parse_poly, parse_presentation,
                  parse_word, poly_str)
from .rewriting import RelationSet, irr_enumerate, kd_basis, reduce_poly
from .gsb import (CompletionLimits, _monic_prepare, check_gsb_rset, complete,
                  minimalize, reduce_basis)
from .envelope import (IndexWindow, SchemaIndex, builtin_example,
                       comp_window_filter, embedding_check, equivalence_check,
                       instantiate_schemas)

EXIT_CODES = {"ok": 0, "fail": 1, "inconclusive": 2}
INPUT_ERROR = 3
_WINDOW_KEYS = ("window", "relation_multiplier")   # checked by IndexWindow


@dataclass
class Report:
    command: str
    digest: str
    params: dict
    verdict: str = "ok"
    details: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    timings: Optional[dict] = None

    def to_json(self) -> str:
        data = {"command": self.command, "inputs": {"digest": self.digest},
                "params": self.params, "verdict": self.verdict,
                "details": self.details, "traces": self.traces,
                "timings": self.timings}
        return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


# the positional arguments of the file subcommands that take any; these
# commands record them as their params, the others the effective options
_POSITIONALS = {"normalize": ("expr",), "order": ("left", "right"),
                "reduce": ("poly",)}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="OUT", help="write a JSON report")
    common.add_argument("--trace", action="store_true",
                        help="include reduction traces in output")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the JSON report")
    common.add_argument("--window", type=int, default=None,
                        help="composition window W for indexed families")
    common.add_argument("--relation-multiplier", type=int, default=None,
                        help="relation window multiplier M (radius is M*W)")
    common.add_argument("--max-length", type=int, default=None)
    common.add_argument("--max-dpow", type=int, default=None)
    common.add_argument("--max-iters", type=int, default=None,
                        help="completion round limit")
    common.add_argument("--max-basis", type=int, default=None,
                        help="completion basis size limit")

    ap = argparse.ArgumentParser(
        prog="conformal",
        description="Groebner-Shirshov bases in free associative conformal "
                    "algebras with uniform locality")
    sub = ap.add_subparsers(dest="command", required=True)

    def filecmd(name, help_):
        p = sub.add_parser(name, help=help_, parents=[common])
        p.add_argument("-f", "--file", required=True, help="presentation file")
        for argname in _POSITIONALS.get(name, ()):
            p.add_argument(argname)
        return p

    filecmd("normalize", "normalize an expression")
    filecmd("order", "compare two normal words")
    filecmd("reduce", "divide a polynomial by the relations")
    filecmd("compositions", "list all compositions and their verdicts")
    filecmd("check", "decide whether the relations form a basis")
    filecmd("complete", "run Shirshov completion")
    filecmd("minimalize", "drop relations with covered leading words")
    filecmd("reduce-basis", "compute the reduced basis")
    filecmd("irr", "list irreducible words within the bounds")
    filecmd("kdbasis", "list D-free irreducible words")

    px = sub.add_parser("example", help="run a built-in example",
                        parents=[common])
    px.add_argument("name", help="virasoro | heisenberg-virasoro")
    px.add_argument("action",
                    choices=["check", "irr", "kdbasis", "embed", "equiv"])
    return ap


@dataclass
class _Context:
    """One run: its report header (command, params, digest) and its inputs."""
    command: str
    params: dict
    digest: str
    sig: AlgebraSignature
    options: dict
    rset: Optional[RelationSet]
    gens: tuple
    window: Optional[IndexWindow]

    def report(self, verdict="ok", details=None) -> Report:
        return Report(self.command, self.digest, self.params, verdict,
                      details or {})


def _options(args, defaults: dict) -> dict:
    """The defaults overridden by every option flag that was given; a
    negative bound or limit is an input error."""
    options = dict(defaults)
    for key in sorted(_KNOWN_OPTIONS):
        v = getattr(args, key, None)
        if v is not None:
            options[key] = v
        if key not in _WINDOW_KEYS and options.get(key, 0) < 0:
            raise ConformalError(f"option {key} (--{key.replace('_', '-')}) "
                                 f"must not be negative, got {options[key]}")
    return options


def _window(options: dict) -> IndexWindow:
    """The options' index window; by default W = 2 and IndexWindow's M."""
    return IndexWindow(options.get("window", 2),
                       options.get("relation_multiplier", IndexWindow.M))


def _load_context(args) -> _Context:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    pf = parse_presentation(text)
    options = _options(args, pf.options)
    window, lazy = _window(options), None   # rejects W or M below 1
    polys = pf.concrete_relations()
    if pf.schemas:
        lazy = SchemaIndex(pf.schemas, pf.sig)
        polys = polys + instantiate_schemas(pf.schemas, pf.sig, window.radius)
    if pf.sig.generators is not None:
        gens = pf.sig.generators
    else:
        gens = pf.sig.family_generators(window.W)
    rset = RelationSet(pf.sig, _monic_prepare(polys), lazy=lazy)
    positionals = _POSITIONALS.get(args.command, ())
    params = ({k: getattr(args, k) for k in positionals} if positionals
              else options)
    # only schema instances are windowed; concrete relations all compose
    return _Context(args.command, params,
                    _digest(text, json.dumps(options, sort_keys=True)),
                    pf.sig, options, rset, gens,
                    window if pf.schemas else None)


def _limits(ctx) -> CompletionLimits:
    default = CompletionLimits()
    return CompletionLimits(
        max_rounds=ctx.options.get("max_iters", default.max_rounds),
        max_basis=ctx.options.get("max_basis", default.max_basis))


def _comp_filter(ctx):
    return None if ctx.window is None else comp_window_filter(ctx.window.W)


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        report = _dispatch(args)
    except (ParseError, ConformalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if args.json:
        if args.timings:
            report.timings = {"total_s": round(time.monotonic() - t0, 3)}
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return EXIT_CODES[report.verdict]


def _dispatch(args) -> Report:
    if args.command == "example":
        return _run_example(args)
    return _HANDLERS[args.command](_load_context(args), args)


def _cmd_normalize(ctx, args):
    p = parse_poly(args.expr, ctx.sig)
    print(poly_str(p))
    return ctx.report(details={"result": poly_str(p)})


def _cmd_order(ctx, args):
    u = parse_word(args.left, ctx.sig)
    v = parse_word(args.right, ctx.sig)
    c = compare_words(ctx.sig, u, v)
    word = {-1: "less", 0: "equal", 1: "greater"}[c]
    print(word)
    return ctx.report(details={"result": word})


def _cmd_reduce(ctx, args):
    p = parse_poly(args.poly, ctx.sig)
    trace = reduce_poly(p, ctx.rset)
    print(poly_str(trace.remainder))
    if args.trace:
        for st in trace.steps:
            print(f"  eliminated {st.pattern.word} via "
                  f"{st.pattern.describe()} (coefficient {st.coeff})")
    rep = ctx.report(details={"remainder": poly_str(trace.remainder),
                              "steps": len(trace.steps)})
    if args.trace:
        rep.traces = [trace.to_json()]
    return rep


def _check_core(ctx, keep="failures"):
    """The composition check; ``keep`` as in ``check_gsb_rset``."""
    return check_gsb_rset(ctx.rset, ctx.gens,
                          comp_filter=_comp_filter(ctx), keep=keep)


def _cmd_compositions(ctx, args):
    rep = _check_core(ctx, "traces" if args.trace else "verdicts")
    for v in rep.verdicts:
        print(f"{v.verdict:12s} {v.comp.describe()}")
        if v.verdict != "trivial":
            print(f"             remainder: {poly_str(v.remainder)}")
    return ctx.report(rep.verdict, rep.to_json(with_trace=args.trace))


def _cmd_check(ctx, args):
    rep = _check_core(ctx, "traces" if args.trace else "failures")
    print("basis: {} ({trivial} trivial, {nontrivial} nontrivial, "
          "{inconclusive} inconclusive compositions)".format(
              "yes" if rep.is_gsb else "no", **rep.tally))
    return ctx.report(rep.verdict, rep.to_json(with_trace=args.trace))


def _cmd_complete(ctx, args):
    res = complete(ctx.rset.polys(), ctx.sig, ctx.gens, limits=_limits(ctx),
                   comp_filter=_comp_filter(ctx))
    for p in res.basis:
        print(poly_str(p))
    if not res.completed:
        print(f"incomplete: {res.diagnostic}", file=sys.stderr)
    details = {"basis": [poly_str(p) for p in res.basis],
               "completed": res.completed, "rounds": res.rounds,
               "added": res.added}
    if res.diagnostic:
        details["diagnostic"] = res.diagnostic
    return ctx.report("ok" if res.completed else "inconclusive", details)


def _cmd_minimalize(ctx, args):
    out = minimalize(ctx.rset.polys(), ctx.sig)
    for p in out:
        print(poly_str(p))
    return ctx.report(details={"basis": [poly_str(p) for p in out]})


def _cmd_reduce_basis(ctx, args):
    out = reduce_basis(ctx.rset.polys(), ctx.sig)
    for p in out:
        print(poly_str(p))
    return ctx.report(details={"basis": [poly_str(p) for p in out]})


def _irr_limits(ctx):
    return (ctx.options.get("max_length", 3), ctx.options.get("max_dpow", 2))


def _words_report(ctx, words):
    for w in words:
        print(w)
    return ctx.report(details={"count": len(words),
                               "words": [str(w) for w in words]})


def _cmd_irr(ctx, args):
    max_len, max_dpow = _irr_limits(ctx)
    return _words_report(ctx, irr_enumerate(
        ctx.rset, ctx.gens, max_len, max_dpow))


def _cmd_kdbasis(ctx, args):
    words = kd_basis(ctx.rset, ctx.gens, _irr_limits(ctx)[0])
    return _words_report(ctx, words)


def _cmd_embed(ctx, args):
    """A reducible ``D^t b`` is a failure; otherwise a boundary word is
    inconclusive, and with every ``D^t b`` irreducible and none on the
    boundary the verdict is that of ``check``."""
    gsb = _check_core(ctx)
    emb = embedding_check(ctx.rset, ctx.gens, _irr_limits(ctx)[1])
    verdict = ("fail" if emb.reducible else "inconclusive" if emb.boundary
               else gsb.verdict)
    rep = ctx.report(verdict, {"gsb": gsb.is_gsb, **emb.to_json()})
    print(f"embedded: {'yes' if rep.verdict == 'ok' else 'no'}")
    return rep


def _run_example(args) -> Report:
    options = _options(args, {})
    window = _window(options)
    ex = builtin_example(args.name, window)
    # flags beyond the window enter params and the digest only when given,
    # so a default run keeps its digest
    flags = {k: v for k, v in sorted(options.items())
             if k not in _WINDOW_KEYS}
    ctx = _Context(
        f"example {args.action}",
        {"example": ex.name, "window": window.W,
         "relation_multiplier": window.M, **flags},
        _digest(args.name, str(window.W), str(window.M),
                *(f"{k}={v}" for k, v in flags.items())),
        ex.sig, options, None, ex.gens(), window)
    if args.action == "equiv":
        # equiv builds its own relation sets; both directions reducing to
        # zero proves the windowed equality even when completion stopped
        eq = equivalence_check(ex, limits=_limits(ctx))
        print(f"ideals equal over the window: {'yes' if eq.ok else 'no'}")
        verdict = ("ok" if eq.ok else "inconclusive"
                   if not eq.completion.completed else "fail")
        return ctx.report(verdict, eq.to_json())
    ctx.rset = ex.basis_rset()
    rep = _HANDLERS[args.action](ctx, args)
    if args.action in ("irr", "kdbasis"):
        # kdbasis lists the D-free words of the closed-form family
        max_len, max_dpow = _irr_limits(ctx)
        expected = ex.irr_expected(
            window.W, max_len, max_dpow if args.action == "irr" else 0)
        match = set(rep.details["words"]) == {str(w) for w in expected}
        print(f"matches closed form: {'yes' if match else 'no'}")
        rep.details["matches_closed_form"] = match
        if not match:
            rep.verdict = "fail"
    return rep


# file subcommands; example check|irr|kdbasis|embed run on the family's context
_HANDLERS = {
    "normalize": _cmd_normalize, "order": _cmd_order, "reduce": _cmd_reduce,
    "compositions": _cmd_compositions, "check": _cmd_check,
    "complete": _cmd_complete, "minimalize": _cmd_minimalize,
    "reduce-basis": _cmd_reduce_basis, "irr": _cmd_irr,
    "kdbasis": _cmd_kdbasis, "embed": _cmd_embed}


if __name__ == "__main__":
    sys.exit(main())

"""One job of a benchmark workload, run in a fresh Python process.

    python3 bench/job.py --workload NAME --seed N --out RESULT.json
                         [--setup-only] [--trace TRACE.bin] [--small]

Runs from the root of a checkout and imports ``conformal`` from its ``src``
directory only.  ``--setup-only`` imports the package and loads the
workload's input without solving.  Otherwise the job solves, checks its own
output where the workload defines a check, and writes RESULT.json with the
exit code, the verdict line and the sha256 of its output.  ``--trace``
installs the tracer and writes spans and counters to TRACE.bin.
``--small`` runs the reduced-size variant used by the benchmark's tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LHV_FILE = os.path.join("presentations", "heisenberg_virasoro.alg")

WORKLOADS = ("lhv-equiv", "lhv-check", "word-products")
WINDOW = (2, 1)             # LHV composition window: full size, reduced size
WINDOW_MULTIPLIER = 4       # relation window radius is 4 * W, the CLI default
PRODUCTS = (3000, 200)      # word-products: full size, reduced size


def cli_args(workload: str, small: bool) -> list:
    """The CLI command of an LHV workload (the file's own options at full size)."""
    if workload == "lhv-equiv":
        return ["example", "heisenberg-virasoro", "equiv", "--window",
                str(WINDOW[small])]
    return ["check", "-f", LHV_FILE] + (["--window", str(WINDOW[1])] if small else [])


def import_conformal():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "conformal", "__init__.py")):
        raise SystemExit(f"job: no conformal package under {SRC}")
    sys.path.insert(0, SRC)
    import conformal
    if os.path.dirname(os.path.dirname(os.path.abspath(conformal.__file__))) != SRC:
        raise SystemExit(f"job: conformal imported from {conformal.__file__}")
    return conformal


# word-products ----------------------------------------------------------------


def product_inputs(conformal, seed: int, count: int):
    """Seeded products (u, n, v) over {x, y, z} with N = 3, |w| <= 3, D^<=2."""
    sig = conformal.AlgebraSignature.finite(["x", "y", "z"], 3)
    words = list(conformal.normal_words(sig, sig.generators, 3, 2))
    rng = random.Random(seed)
    triples = []
    for _ in range(count):
        u, v = rng.choice(words), rng.choice(words)
        triples.append((u, rng.randrange(conformal.locality_bound(sig, u, v)), v))
    return sig, triples


def poly_text(p) -> str:
    return ";".join(sorted(f"{c} {w}" for w, c in p.terms.items()))


def run_products(conformal, sig, triples):
    """Multiply, check Leibniz and vanishing, return (code, verdict, digest)."""
    mult, apply_D = conformal.mult, conformal.apply_D
    poly_mult = conformal.poly_mult
    mono = conformal.ConformalPolynomial.monomial
    digest = hashlib.sha256()
    leibniz_bad = vanish_bad = 0
    for u, n, v in triples:
        p = mult(sig, u, n, v)
        pu, pv = mono(sig, u), mono(sig, v)
        # D(u (n) v) = Du (n) v + u (n) Dv, with Du the derivative of the
        # whole monomial u (not u with one more D on its tail letter)
        rhs = poly_mult(apply_D(pu), n, pv) + poly_mult(pu, n, apply_D(pv))
        if apply_D(p) != rhs:
            leibniz_bad += 1
        if not mult(sig, u, conformal.locality_bound(sig, u, v), v).is_zero():
            vanish_bad += 1
        digest.update(f"{u}|{n}|{v}|{poly_text(p)}\n".encode())
    verdict = (f"products: {len(triples)}, leibniz failures: {leibniz_bad}, "
               f"vanishing failures: {vanish_bad}")
    return (0 if leibniz_bad == vanish_bad == 0 else 1), verdict, digest.hexdigest()


# LHV workloads ----------------------------------------------------------------


def lhv_setup(conformal, workload: str, small: bool) -> None:
    """Load the input of an LHV workload without solving."""
    window = conformal.IndexWindow(WINDOW[small], WINDOW_MULTIPLIER)
    if workload == "lhv-equiv":
        ex = conformal.builtin_example("heisenberg-virasoro", window)
        conformal.RelationSet(ex.sig, ex.basis)
        return
    with open(LHV_FILE, encoding="utf-8") as fh:
        pf = conformal.parse_presentation(fh.read())
    polys = pf.concrete_relations() + conformal.instantiate_schemas(
        pf.schemas, pf.sig, window.radius)
    conformal.RelationSet(pf.sig, [p.monic() for p in polys if not p.is_zero()])


def run_cli(conformal, argv, report_path):
    """Run the CLI in-process; return (code, verdict line, report sha256)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = conformal.cli.main(argv + ["--json", report_path])
    lines = out.getvalue().strip().splitlines()
    try:
        with open(report_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(report_path)
    except FileNotFoundError:
        digest = None
    return code, (lines[-1] if lines else ""), digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="TRACE")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    conformal = import_conformal()
    if args.setup_only:
        if args.workload == "word-products":
            product_inputs(conformal, args.seed, PRODUCTS[args.small])
        else:
            lhv_setup(conformal, args.workload, args.small)
        return 0

    import conformal.cli  # noqa: F401
    tracer = None
    if args.trace:
        from tracer import Tracer       # bench/, this script's directory
        tracer = Tracer()
        tracer.install()

    if args.workload == "word-products":
        sig, triples = product_inputs(conformal, args.seed, PRODUCTS[args.small])
        code, verdict, digest = run_products(conformal, sig, triples)
    else:
        cli_main = conformal.cli.main
        if tracer is not None:
            conformal.cli.main = tracer.span("cli.main", "cli", cli_main)
        code, verdict, digest = run_cli(conformal,
                                        cli_args(args.workload, args.small),
                                        args.out + ".report.json")
    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "verdict": verdict, "digest": digest}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

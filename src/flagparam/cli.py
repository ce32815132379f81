"""Command-line front end: JSON in, JSON out.

Subcommands::

    param-to-rho       density parameters -> density matrix
    rho-to-param       density matrix -> density parameters
    decompose-unitary  unitary -> flag coordinates + block-diagonal residue
    sample             seeded random parameters and density matrix
    verify             run the seeded property suites

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 numeric failure, 4 eigenvalue-gap ambiguity.  Every library error emits a
machine-readable ``{"error": {"code", "message"}}`` object; its class (see
:mod:`flagparam.errors`) declares both the code and the exit status.
``rho-to-param --gap-tol`` sets the eigenvalue clustering threshold;
``param-to-rho`` needs only strictly decreasing eigenvalues.  The
environment variable ``FLAGPARAM_TOL`` overrides the default input
validation tolerances (unitarity, hermiticity, trace); it must be finite
and >= 0.  ``sample`` and ``verify`` take ``--seed`` >= 0, and ``sample``
takes n <= ``iojson.MAX_N``.

Each document is one line of compact JSON with sorted keys
(``python -m json.tool`` pretty-prints one).  The program entry :func:`run`
ends the process with ``os._exit`` right after flushing its output;
:func:`main` returns the exit status to in-process callers.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import iojson, verify
from .coset import _peel, reconstruct_unitary, validate_profile
from .density import GAP_TOL, TRACE_TOL, _deparametrize, _hermitian_unit_trace, parametrize
from .errors import FlagparamError, ValidationError
from .linalg import EPS_HERMITIAN, EPS_UNITARY, _unitary_within, as_square, frobenius, require_tol
from .sampling import random_density_parameters

EXIT_OK = 0
EXIT_VERIFY = 1


def _env_tol(default):
    raw = os.environ.get("FLAGPARAM_TOL")
    if raw is None:
        return default
    return require_tol(raw, "FLAGPARAM_TOL")


def _read_doc(args):
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fp:
            return iojson.loads(fp.read())
    return iojson.loads(sys.stdin.read())


def _write_doc(doc, args):
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fp:
            fp.write(iojson.dumps(doc))
    else:
        sys.stdout.write(iojson.dumps(doc))


def cmd_param_to_rho(args):
    params = iojson.params_from_json(_read_doc(args))
    _write_doc(iojson.matrix_to_json(parametrize(params)), args)
    return EXIT_OK


def cmd_rho_to_param(args):
    # deparametrize with its checks at the CLI tolerances, in its order, each run once
    gap_tol = require_tol(args.gap_tol, "gap_tol")
    rho = iojson.matrix_from_json(_read_doc(args))
    h = _hermitian_unit_trace(rho, _env_tol(EPS_HERMITIAN), _env_tol(TRACE_TOL))
    params = _deparametrize(h, gap_tol)
    _write_doc(iojson.params_to_json(params), args)
    return EXIT_OK


def cmd_decompose_unitary(args):
    g = as_square(iojson.matrix_from_json(_read_doc(args)))
    if _unitary_within(g, _env_tol(EPS_UNITARY)) > EPS_UNITARY:
        # accepted under a loosened tolerance: decompose the closest unitary
        w, _, vh = np.linalg.svd(g)
        g = w @ vh
    profile = validate_profile(args.profile.split(","), n=g.shape[0])
    # unitary at EPS_UNITARY by the check above: decompose_unitary without its own
    coords, blocks = _peel(g, profile, residues=True)
    doc = iojson.coords_to_json(coords)
    doc["h_blocks"] = [iojson.matrix_to_json(b) for b in blocks.blocks]
    if args.reconstruct:
        doc["reconstruction_residual"] = frobenius(reconstruct_unitary(coords, blocks) - g)
    _write_doc(doc, args)
    return EXIT_OK


def cmd_sample(args):
    if not 1 <= args.n <= iojson.MAX_N:
        raise ValidationError(
            f"n = {args.n} is outside 1..MAX_N = {iojson.MAX_N}", code="BAD_DIMENSION"
        )
    profile = validate_profile(args.profile.split(",") if args.profile else (1,) * args.n, n=args.n)
    params = random_density_parameters(profile, np.random.default_rng(args.seed))
    doc = {
        "params": iojson.params_to_json(params),
        "rho": iojson.matrix_to_json(parametrize(params)),
    }
    _write_doc(doc, args)
    return EXIT_OK


def cmd_verify(args):
    report = verify.run(args.suite, seed=args.seed)
    _write_doc(report, args)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flagparam",
        description="Ball-chart parametrization of unitary and density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", metavar="FILE", help="read input from FILE, not stdin")
        p.add_argument("--out", dest="outfile", metavar="FILE", help="write output to FILE, not stdout")

    p = sub.add_parser("param-to-rho", help="density parameters JSON -> density matrix JSON")
    common(p)
    p.set_defaults(func=cmd_param_to_rho)

    p = sub.add_parser("rho-to-param", help="density matrix JSON -> density parameters JSON")
    common(p)
    p.add_argument("--gap-tol", type=float, default=GAP_TOL, help="eigenvalue clustering tolerance")
    p.set_defaults(func=cmd_rho_to_param)

    p = sub.add_parser("decompose-unitary", help="unitary JSON -> flag coordinates + blocks")
    common(p)
    p.add_argument("--profile", required=True, metavar="K1,K2,...", help="multiplicity profile")
    p.add_argument(
        "--reconstruct", action="store_true", help="also report the reconstruction residual"
    )
    p.set_defaults(func=cmd_decompose_unitary)

    p = sub.add_parser("sample", help="seeded random parameters and density matrix")
    common(p)
    p.add_argument("n", type=int, help="matrix dimension")
    p.add_argument("--profile", metavar="K1,K2,...", help="multiplicity profile (default 1,1,...,1)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the seeded property suites")
    common(p)
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(verify.SUITES) + ["all"],
        help="which suite to run",
    )
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)
    return parser


def _emit_error(exc, args):
    doc = {"error": {"code": exc.code, "message": str(exc)}}
    try:
        _write_doc(doc, args)
    except OSError:
        sys.stdout.write(iojson.dumps(doc))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # numpy's generators take only nonnegative seeds
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}", code="BAD_SEED")
        return args.func(args)
    except FlagparamError as exc:
        _emit_error(exc, args)
        return exc.exit_status


def run(argv=None):
    """Program entry: ``main``, then a flush of both streams and ``os._exit``.

    Once every byte is out the process ends without the interpreter's
    teardown of numpy.  An exception or argparse's ``SystemExit`` leaves
    ``main`` before the flush and ends through the normal interpreter exit.
    """
    status = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()

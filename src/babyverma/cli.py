"""Command line front end.

Subcommands: check (one weight), campaign (family sweeps), dump
(inspection of structure constants, monomial orders, operator
matrices), selftest.  Exit codes: 0 for irreducible or a passing
campaign, 1 for reducible or a failing campaign, 2 for invalid input
or an undecidable case.

Any subcommand accepts --config FILE with key=value lines; the file
expands in place, so flags given after it still win.  --save-config
FILE writes the resolved options back in the same format.
"""

import argparse
import json
import os
import sys
import time

from . import campaigns
from .chevalley import ChevalleyAlgebra, PChar, make_pchar
from .modules import (
    DIM_CAP,
    LINES_CAP,
    AdjointModule,
    CapExceeded,
    build_baby_verma,
    build_parabolic_baby_verma,
    is_irreducible,
    verify_commutators,
    verify_frobenius,
)
from .pbw import fix_order
from .roots import RootSystem, root_label


def _int(token, option):
    """int(token), or a ValueError that names the option and the token."""
    try:
        return int(token)
    except ValueError:
        raise ValueError("%s: %r is not an integer" % (option, token)) from None


def _parse_int_list(text, option):
    if text is None or text.strip() == "":
        return ()
    return tuple(_int(x, option) for x in text.split(","))


def _parse_I(text):
    """--I as simple indices, each given once."""
    I = _parse_int_list(text, "--I")
    for k, i in enumerate(I):
        if i in I[:k]:
            raise ValueError("--I: index %d is given twice" % i)
    return I


def _parse_chi(text):
    if text is None or text.strip() == "":
        return None
    out = {}
    for part in text.split(","):
        k, eq, v = part.partition("=")
        if not eq:
            raise ValueError("--chi: %r is not of the form i=c" % part)
        i = _int(k, "--chi")
        if i in out:
            raise ValueError("--chi: index %d is given twice" % i)
        out[i] = _int(v, "--chi")
    return out


def _parse_root(label, rank):
    """Inverse of root_label: a1+2a2 -> (1, 2, 0, ...)."""
    c = [0] * rank
    for term in label.split("+"):
        head, _, idx = term.strip().partition("a")
        if not idx or not 1 <= _int(idx, "--gen") <= rank:
            raise ValueError("--gen: bad root label %r" % label)
        c[int(idx) - 1] += _int(head, "--gen") if head else 1
    return tuple(c)


def _resolve_lambda(args, rank):
    lam = getattr(args, "lam", None)
    lam_rho = getattr(args, "lam_rho", None)
    if (lam is None) == (lam_rho is None):
        raise ValueError("give exactly one of --lambda and --lambda-rho")
    if lam is not None:
        out = _parse_int_list(lam, "--lambda")
    else:
        out = tuple(x - 1 for x in _parse_int_list(lam_rho, "--lambda-rho"))
    if len(out) != rank:
        raise ValueError("weight needs %d coordinates" % rank)
    return out


def _expand_config(argv):
    """Replace --config FILE with the option tokens stored in FILE."""
    while "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            raise ValueError("--config needs a file argument")
        tokens = []
        with open(argv[i + 1]) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "config":
                    raise ValueError("config files cannot nest: %s" % argv[i + 1])
                opt = "--" + key
                if value.lower() == "true":
                    tokens.append(opt)
                elif value.lower() == "false":
                    pass
                else:
                    # one token, so a value such as -1,0 is not read as an option
                    tokens.append(opt + "=" + value)
        argv = argv[:i] + tokens + argv[i + 2 :]
    return argv


# option dests whose flag is not the dest with dashes for underscores
_FLAGS = {"lam": "lambda", "lam_rho": "lambda-rho"}


def _save_config(args):
    skip = {"save_config", "config", "func", "cmd", "sub"}
    lines = []
    for dest, value in vars(args).items():
        if dest in skip or value is None or value is False:
            continue
        key = _FLAGS.get(dest, dest.replace("_", "-"))
        lines.append("%s=%s" % (key, "true" if value is True else value))
    with open(args.save_config, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _algebra_from_args(args):
    rs = RootSystem(args.type, args.rank)
    return ChevalleyAlgebra(rs, sign_flip=args.sign_flip)


def _module_from_args(args):
    """The module check and dump matrix work on: induced from the Levi
    head when --I is nonempty, else the baby Verma at chi = 0."""
    # each such module has dim >= p
    campaigns.check_prime(args.type, args.p, args.cap)
    alg = _algebra_from_args(args)
    I = _parse_I(args.I)
    lam = _resolve_lambda(args, alg.rs.n)
    if I:
        chi = make_pchar(alg, args.p, I, _parse_chi(args.chi))
        return build_parabolic_baby_verma(alg, chi, lam, cap=args.cap)
    if args.chi:
        raise ValueError("--chi needs a nonempty --I")
    return build_baby_verma(alg, PChar(args.p, ()), lam, cap=args.cap)


def _check_writable(*paths):
    """Fail before any work if an output file could not be created:
    its directory must exist and be writable."""
    for path in paths:
        if path:
            d = os.path.dirname(os.path.abspath(path))
            if not (os.path.isdir(d) and os.access(d, os.W_OK)):
                raise OSError("cannot write %s: no writable directory %s" % (path, d))


def cmd_check(args):
    _check_writable(args.json)
    t0 = time.monotonic()
    mod = _module_from_args(args)
    I = _parse_I(args.I)
    lam = mod.lam
    if args.type == "A" and (args.rank + 1) % args.p == 0:
        print(
            "warning: p divides rank+1, the trace form is degenerate here",
            file=sys.stderr,
        )
    rep = is_irreducible(mod, cap=args.lines_cap)
    millis = int((time.monotonic() - t0) * 1000)
    print(
        "%s%d p=%d I=%s lambda=%s"
        % (
            args.type,
            args.rank,
            args.p,
            ",".join(str(i) for i in I) if I else "-",
            ",".join(str(x) for x in lam),
        )
    )
    print("dim %d" % mod.dim)
    for (wt, kap), count in sorted(rep.profile.items()):
        print(
            "block weight=%s component=%s kernel=%d"
            % (",".join(str(x) for x in wt), ",".join(str(x) for x in kap), count)
        )
    print("verdict %s" % ("irreducible" if rep.irreducible else "reducible"))
    print("millis %d" % millis)
    if args.json:
        out = rep.to_dict()
        out["type"] = args.type
        out["rank"] = args.rank
        out["I"] = list(I)
        out["millis"] = millis
        campaigns.write_json(out, args.json)
    return 0 if rep.irreducible else 1


def _row_line(sub, row):
    """One campaign row as a line of stdout; its first field names the row."""
    if sub == "main-theorem":
        return "lambda=%s dim=%s %s (%d ms)" % (
            row["lambda"], row["dim"], row["verdict"], row["millis"]
        )
    if sub == "negative-controls":
        return "%s expected=%s got=%s %s" % (
            row["case"], row["expected"], row["got"], "ok" if row["ok"] else "MISMATCH"
        )
    if row.get("skipped"):
        return "i=%d lambda+rho=%s skipped" % (row["i"], row["lambda_plus_rho"])
    return "i=%d dim=%s expected=%d %s" % (
        row["i"], row["dim"], row["expected_dim"], row["verdict"]
    )


def cmd_campaign(args):
    _check_writable(getattr(args, "csv", None), args.json)
    if args.sub == "main-theorem":
        if args.workers < 1:
            raise ValueError("--workers: %d is not a positive count" % args.workers)
        report = campaigns.verify_main_theorem(
            args.type,
            args.rank,
            args.p,
            _parse_I(args.I),
            cap=args.cap,
            lines_cap=args.lines_cap,
            workers=args.workers,
        )
        title = "main-theorem %s%d p=%d I=%s" % (args.type, args.rank, args.p, args.I)
        if args.csv:
            campaigns.write_csv(report["rows"], args.csv)
    elif args.sub == "negative-controls":
        report = campaigns.negative_controls()
        title = args.sub
    else:
        fn = (
            campaigns.subregular_block_a
            if args.sub == "subregular-A"
            else campaigns.subregular_block_b
        )
        report = fn(
            args.p,
            _parse_int_list(args.r, "--r"),
            cap=args.cap,
            lines_cap=args.lines_cap,
            build=not args.no_build,
        )
        title = "%s p=%d r=%s" % (args.sub, args.p, args.r)
    for row in report["rows"]:
        line = _row_line(args.sub, row)
        print(line)
        if row.get("verdict") == "error":
            print("error: %s: %s" % (line.split()[0], row["error"]), file=sys.stderr)
    if report.get("vacuous"):
        print("sweep empty: no p-regular weights in the first alcove (vacuous pass)")
    print("%s: %s" % (title, "PASS" if report["passed"] else "FAIL"))
    if args.json:
        campaigns.write_json(report, args.json)
    return 0 if report["passed"] else 1


def cmd_dump(args):
    if args.sub == "brackets":
        for line in _algebra_from_args(args).bracket_lines():
            print(line)
        return 0
    if args.sub == "order":
        I = _parse_I(args.I)
        for g in fix_order(RootSystem(args.type, args.rank), I):
            print(root_label(g))
        return 0
    mod = _module_from_args(args)
    gen = args.gen
    if ":" in gen:
        kind, _, label = gen.partition(":")
    else:
        kind, label = gen[:1], "a" + gen[1:]
    if kind == "h":
        key = ("h", _int(gen[1:], "--gen"))
    else:
        key = (kind, _parse_root(label, mod.rs.n))
    if key not in mod.alg.basis:
        raise ValueError(
            "generator %r is not a basis element of %s%d" % (gen, args.type, args.rank)
        )
    mat = mod.op_matrix(key)
    triples = []
    for col, column in mat.items():
        for row, value in column.items():
            triples.append((row, col, value))
    for row, col, value in sorted(triples):
        print("%d %d %d" % (row, col, value))
    return 0


def cmd_selftest(args):
    t0 = time.monotonic()
    checks = []

    def step(name, fn):
        ok = bool(fn())
        checks.append((name, ok))
        print("%-40s %s" % (name, "ok" if ok else "FAIL"))

    a2 = ChevalleyAlgebra(RootSystem("A", 2))
    b2 = ChevalleyAlgebra(RootSystem("B", 2))
    step("jacobi A2", lambda: verify_commutators(AdjointModule(a2, 13)))
    step("jacobi B2", lambda: verify_commutators(AdjointModule(b2, 13)))
    step("restricted identities B2 p=5", lambda: verify_frobenius(AdjointModule(b2, 5)))

    step("negative controls", lambda: campaigns.negative_controls()["passed"])

    def parabolic():
        chi = make_pchar(a2, 5, [1])
        mod = build_parabolic_baby_verma(a2, chi, (0, 1))
        return (
            mod.dim == 50
            and is_irreducible(mod).irreducible
            and verify_commutators(mod)
            and verify_frobenius(mod)
        )

    step("parabolic module A2 p=5", parabolic)

    def orders():
        fix_order(RootSystem("B", 3), (2, 3))
        fix_order(RootSystem("C", 3), (1,))
        fix_order(RootSystem("D", 4), (2, 3, 4))
        fix_order(RootSystem("D", 4), (1, 2, 3))
        return True

    step("monomial orders B3/C3/D4", orders)
    passed = all(ok for _, ok in checks)
    print("selftest: %s (%.1fs)" % ("PASS" if passed else "FAIL", time.monotonic() - t0))
    return 0 if passed else 1


def _add_common(sp):
    sp.add_argument("--config", help="key=value option file, expanded in place")
    sp.add_argument("--save-config", help="write resolved options to this file")


def _add_module_params(sp, need_p=True, need_I=True, sign_flip=False):
    sp.add_argument("--type", required=True, choices=["A", "B", "C", "D"])
    sp.add_argument("--rank", required=True, type=int)
    if need_p:
        sp.add_argument("--p", required=True, type=int)
    if need_I:
        sp.add_argument("--I", default=None, help="comma separated simple indices, empty for none")
    if sign_flip:
        sp.add_argument(
            "--sign-flip", action="store_true", help="alternate structure constant signs"
        )


def _add_module_args(sp):
    """The options _module_from_args reads."""
    _add_module_params(sp, sign_flip=True)
    sp.add_argument("--lambda", dest="lam", help="weight coordinates, comma separated")
    sp.add_argument("--lambda-rho", dest="lam_rho", help="weight plus rho coordinates")
    sp.add_argument("--chi", help="values on the Levi part, like 1=2,3=1")
    sp.add_argument("--cap", type=int, default=DIM_CAP)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="babyverma",
        description="exact induced modules for restricted Lie algebras in types A-D",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="build one induced module and decide irreducibility")
    _add_module_args(sp)
    sp.add_argument("--lines-cap", type=int, default=LINES_CAP)
    sp.add_argument("--json", help="write the full report here")
    _add_common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("campaign", help="verify a whole family at once")
    csub = sp.add_subparsers(dest="sub", required=True)

    c = csub.add_parser("main-theorem", help="sweep all alcove-regular weights")
    _add_module_params(c)
    c.add_argument("--cap", type=int, default=DIM_CAP)
    c.add_argument("--lines-cap", type=int, default=LINES_CAP)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--csv", help="write rows as CSV")
    c.add_argument("--json", help="write the report as JSON")
    _add_common(c)
    c.set_defaults(func=cmd_campaign)

    for name in ("subregular-A", "subregular-B"):
        c = csub.add_parser(name, help="walk one subregular orbit block")
        c.add_argument("--p", required=True, type=int)
        c.add_argument("--r", required=True, help="alcove pairings of the base weight")
        c.add_argument("--cap", type=int, default=DIM_CAP)
        c.add_argument("--lines-cap", type=int, default=LINES_CAP)
        c.add_argument("--no-build", action="store_true", help="check orbit closed forms only")
        c.add_argument("--json", help="write the report as JSON")
        _add_common(c)
        c.set_defaults(func=cmd_campaign)

    c = csub.add_parser("negative-controls", help="known reducible and irreducible cases")
    c.add_argument("--json", help="write the report as JSON")
    _add_common(c)
    c.set_defaults(func=cmd_campaign)

    sp = sub.add_parser("dump", help="inspect brackets, orders and operator matrices")
    dsub = sp.add_subparsers(dest="sub", required=True)

    d = dsub.add_parser("brackets", help="all structure constants, one bracket per line")
    _add_module_params(d, need_p=False, need_I=False, sign_flip=True)
    _add_common(d)
    d.set_defaults(func=cmd_dump)

    d = dsub.add_parser("order", help="the fixed monomial order for a shape")
    _add_module_params(d, need_p=False)
    _add_common(d)
    d.set_defaults(func=cmd_dump)

    d = dsub.add_parser("matrix", help="sparse matrix of one generator on a module")
    _add_module_args(d)
    d.add_argument("--gen", required=True, help="x1, y2, h1 or x:a1+a2")
    _add_common(d)
    d.set_defaults(func=cmd_dump)

    sp = sub.add_parser("selftest", help="run the built-in consistency battery")
    _add_common(sp)
    sp.set_defaults(func=cmd_selftest)

    return parser, sub


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(list(argv))
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    parser, _ = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "save_config", None):
            _save_config(args)
        return args.func(args)
    except (OSError, ValueError, CapExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

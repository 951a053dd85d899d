"""Command-line front end: catalog, residual sweeps, zero scans, tracking, reports.

Exit codes, set in main alone from the verdict a command returns: 0 success /
all claims PASS, 1 FAIL, 2 usage error (every numeric flag given, read by the
command or not, and the --out path are checked before any computation, t and
sigma against analytic's T_LIMIT, SIGMA_LIMITS and --step against zerofind's
MIN_STEP; an output file that still cannot be written is one too), 3 numerical
failure, 4 internal error (an exception no other code covers), 141 a reader
that closed stdout early (128 + SIGPIPE, what a shell reports for a writer
the signal ends; nothing more is printed).  Numeric output
has 12 significant digits, CSV blocks open with a versioned header line, and
identical inputs produce byte-identical output, safe to diff across runs.

An optional key=value config file (--config FILE or --config=FILE, given
once) mirrors the flags of the chosen command; explicit flags win because
the config tokens are inserted before them.

Importing this module loads argparse (with the re, gettext and functools it
brings), math, cmath, itertools, collections and the package, and nothing
else: json and pathlib are imported by the code that writes JSON or touches
files, so a command that does neither does not pay for them.
"""

import argparse
import math
import os
import re
import sys

from .analytic import SIGMA_LIMITS, T_LIMIT, FunctionSpec
from .characters import catalog_self_dual
from .deformation import (
    REPORT_T1,
    REPORT_T_MAX,
    TAU_GRID_DEFAULT,
    Trajectory,
    cataloged_character,
    named_function,
    pair_zeros,
    run_claim_report,
    standard_family,
)
from .errors import (
    BoundaryZeroError,
    DomainError,
    PoleError,
    PrecisionError,
)
from .funceq import FE_RESIDUAL_TOL, fe_modulus, residual_sweep, worst_residual
from .zerofind import (
    MIN_STEP,
    SCAN_STEP,
    Rect,
    ZeroRecord,
    count_zeros_box,
    scan_line_zeros,
    verdict_of,
    verify_on_line,
)

HEADER = "# deform-zeros v1"
# moduli above this make the L-series too slow to be an interactive command:
# a point of L(s, chi mod q) sums up to q Hurwitz values (~2 ms per point at
# q = 199); the catalog is cheap (~0.16 s for all moduli up to 240)
Q_LIMIT = 200

# numeric flag -> (accepts the value, what it must be); nan fails every test
_FLAG_RULES = {
    "step": (lambda x: MIN_STEP <= x < math.inf, f"finite and >= {MIN_STEP:g}"),
    "tol": (lambda x: 0.0 < x < math.inf, "finite and positive"),
    "tau": (lambda x: 0.0 <= x <= 1.0, "in [0, 1]"),
    "tmax": (lambda x: REPORT_T1 < x <= T_LIMIT, f"in ({REPORT_T1:g}, {T_LIMIT:g}]"),
    "q": (lambda x: 1 <= x <= Q_LIMIT, f"an integer in [1, {Q_LIMIT}]"),
    "qmax": (lambda x: 1 <= x <= Q_LIMIT, f"an integer in [1, {Q_LIMIT}]"),
}


def _validate(args) -> None:
    for name, (ok, need) in _FLAG_RULES.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise DomainError(f"--{name} must be {need}, got {value!r}")
    if getattr(args, "out", None) is not None:
        _check_out(args.out, is_dir=args.command == "track")


def _check_out(path: str, is_dir: bool) -> None:
    """--out names a directory for track (made if missing) and a file in an
    existing directory for report; that directory must be writable."""
    from pathlib import Path

    out = Path(path)
    if is_dir:
        # the nearest existing ancestor; "." or "/" always exists
        base = next(p for p in (out, *out.parents) if p.exists())
    elif out.is_dir():
        raise DomainError(f"--out {str(out)!r} is a directory, not a file")
    else:
        base = out.parent
    if not base.is_dir():
        raise DomainError(f"--out {str(out)!r}: {str(base)!r} is not an existing directory")
    if not os.access(base, os.W_OK):
        raise DomainError(f"--out {str(out)!r}: {str(base)!r} is not writable")


def _g(x: float) -> str:
    return f"{x:.12g}"


def zero_csv_lines(records: list[ZeroRecord]) -> list[str]:
    lines = [HEADER, "t,sigma,kind,residual"]
    for r in records:
        lines.append(f"{_g(r.t)},{_g(r.sigma)},{r.kind},{_g(r.residual)}")
    return lines


def trajectory_csv_lines(trajectories: tuple[Trajectory, ...]) -> list[str]:
    """CSV rows (trajectory_id, tau, t, abs_phi), ids in start-ordinate order."""
    lines = [HEADER, "trajectory_id,tau,t,abs_phi"]
    for tid, tr in enumerate(sorted(trajectories, key=lambda tr: tr.start_zero.t)):
        for (tau, t), a in zip(tr.samples, tr.abs_phi):
            lines.append(f"{tid},{_g(tau)},{_g(t)},{_g(a)}")
    return lines


def _kappa(parity: str) -> int:
    return 0 if parity == "even" else 1


def _parse_family(text: str) -> int:
    m = re.fullmatch(r"q(\d+)", text)
    if m is None:
        raise DomainError(f"family selector must look like q5, got {text!r}")
    q = int(m.group(1))
    if q < 1:
        raise DomainError(f"modulus in {text!r} must be >= 1")
    if q > Q_LIMIT:
        raise DomainError(f"modulus in {text!r} exceeds {Q_LIMIT}")
    return q


def _parse_numbers(text: str, what: str, shape: str) -> list[float]:
    """The finite numbers of the colon list `text`, laid out like `shape`."""
    parts = text.split(":")
    if len(parts) != shape.count(":") + 1:
        raise DomainError(f"{what} must look like {shape}, got {text!r}")
    try:
        xs = [float(p) for p in parts]
    except ValueError:
        raise DomainError(f"{what} must be numeric, got {text!r}")
    if not all(map(math.isfinite, xs)):
        raise DomainError(f"{what} must be finite, got {text!r}")
    return xs


def _check_window(text: str, what: str, sigmas=(), ts=()) -> None:
    """Every t within |t| <= T_LIMIT, then every sigma within SIGMA_LIMITS."""
    if max(map(abs, ts), default=0.0) > T_LIMIT:
        raise DomainError(f"{what} must stay within |t| <= {_g(T_LIMIT)}, got {text!r}")
    lo, hi = SIGMA_LIMITS
    if not all(lo <= x <= hi for x in sigmas):
        raise DomainError(f"{what} must keep sigma within [{_g(lo)}, {_g(hi)}], got {text!r}")


def _parse_range(text: str, axis: str) -> tuple[float, float]:
    """--t or --sigma (axis "t" or "sigma"): lo:hi with lo < hi, in the window."""
    what = f"{axis} range"
    lo, hi = _parse_numbers(text, what, "a:b")
    if not lo < hi:
        raise DomainError(f"{what} needs {axis}1 < {axis}2, got {text!r}")
    _check_window(text, what, **{f"{axis}s": (lo, hi)})
    return lo, hi


def _parse_box(text: str) -> Rect:
    s1, s2, t1, t2 = _parse_numbers(text, "box", "sigma1:sigma2:t1:t2")
    _check_window(text, "box", (s1, s2), (t1, t2))
    return Rect(s1, s2, t1, t2)


def _resolve_spec(args) -> FunctionSpec:
    """The chosen function, with the equation it satisfies as its natural_fe:
    the member of --family q<q> at an interior --tau, or else
    named_function(--f, --q, --parity), whose plan keeps its points.  --family
    q<q> --tau 0|1 is --f f0|L --q <q> built on the family's character
    (cataloged_character), so --f f0 and --f L are the tau = 0 and tau = 1
    members, and a modulus with no family is a usage error at every tau."""
    kappa = _kappa(args.parity)
    name, q, chi = args.func, args.q, None
    if args.family is not None:
        q = _parse_family(args.family)
        if 0.0 < args.tau < 1.0:
            return standard_family(q, kappa).member(args.tau)
        chi = cataloged_character(q, kappa)
        name = "f0" if args.tau == 0.0 else "L"
    elif name is None:
        raise DomainError("pick a function with --family qN or --f zeta|f0|L")
    elif name != "zeta" and q is None:
        raise DomainError(f"--f {name} needs --q")
    return named_function(name, q, kappa, chi)


# ----------------------------------------------------------------- commands

def cmd_chars(args) -> None:
    entries = catalog_self_dual(args.qmax, _kappa(args.parity))
    if args.json:
        import json

        payload = [
            {
                "q": e.q,
                "label": e.character.label,
                "parity": e.classification.parity,
                "conductor": e.classification.conductor,
                "primitive": e.classification.is_primitive,
                "epsilon": [e.epsilon.real, e.epsilon.imag],
            }
            for e in entries
        ]
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    lines = [HEADER, "q,label,parity,conductor,primitive,epsilon_re,epsilon_im"]
    for e in entries:
        lines.append(
            f"{e.q},{e.character.label},{e.classification.parity},"
            f"{e.classification.conductor},{'yes' if e.classification.is_primitive else 'no'},"
            f"{_g(e.epsilon.real)},{_g(e.epsilon.imag)}"
        )
    print("\n".join(lines))


def cmd_verify_fe(args) -> str:
    kwargs = {}
    if args.sigma is not None:
        kwargs["sigma_range"] = _parse_range(args.sigma, "sigma")
    if args.t is not None:
        kwargs["t_range"] = _parse_range(args.t, "t")
    fe = None if args.fe is None else fe_modulus(_parse_family(args.fe), _kappa(args.parity))
    f = _resolve_spec(args)
    fe = fe or f.natural_fe
    [(rows, skipped)] = residual_sweep([f], fe, **kwargs)
    worst = worst_residual(rows)
    verdict = verdict_of([worst < args.tol])
    lines = [
        HEADER,
        f"function,{f.name}",
        f"fe,q={fe.modulus},kappa={fe.kappa}",
        f"grid_points,{len(rows)}",
        f"max_residual,{_g(worst)}",
        f"tolerance,{_g(args.tol)}",
        f"skipped,{len(skipped)}",
    ]
    for sig, t, reason in skipped:
        lines.append(f"skipped_point,{_g(sig)},{_g(t)},{reason}")
    lines.append(f"verdict,{verdict}")
    print("\n".join(lines))
    return verdict


def cmd_zeros(args) -> str | None:
    if args.action == "scan" and args.t is None:
        raise DomainError("zeros scan needs --t a:b")
    if args.action != "scan" and args.box is None:
        raise DomainError(f"zeros {args.action} needs --box sigma1:sigma2:t1:t2")
    # every flag given is checked, also the one the action does not read
    t_range = None if args.t is None else _parse_range(args.t, "t")
    rect = None if args.box is None else _parse_box(args.box)
    if args.action == "scan":
        records = scan_line_zeros(_resolve_spec(args), t_range, step=args.step)
        print("\n".join(zero_csv_lines(records)))
        return None
    if args.action == "verify" and not rect.straddles_line():
        raise DomainError(f"box {args.box!r} does not straddle the critical line")
    f = _resolve_spec(args)
    if args.action == "count":
        rep = count_zeros_box(f, rect, step=args.step)
        r, margin = rep.rectangle, rep.certified_margin
        lines = [
            HEADER,
            f"box,{_g(r.sigma1)},{_g(r.sigma2)},{_g(r.t1)},{_g(r.t2)}",
            f"winding_count,{rep.winding_count}",
            f"line_count,{'' if rep.line_count is None else rep.line_count}",
            f"boundary_min_modulus,{_g(rep.boundary_min_modulus)}",
            f"certified_margin,{'' if margin is None else _g(margin)}",
        ]
        print("\n".join(lines))
        return None
    rep, mismatches = verify_on_line(f, rect, step=args.step)
    r = rep.rectangle
    lines = [
        HEADER,
        f"box,{_g(r.sigma1)},{_g(r.sigma2)},{_g(r.t1)},{_g(r.t2)}",
        f"winding_count,{rep.winding_count}",
        f"line_count,{rep.line_count}",
        f"verdict,{rep.verdict}",
    ]
    for d in mismatches:
        b = d.rectangle
        lines.append(
            f"discrepancy,{_g(b.sigma1)},{_g(b.sigma2)},{_g(b.t1)},{_g(b.t2)},"
            f"{d.winding_count},{'' if d.line_count is None else d.line_count}"
        )
    print("\n".join(lines))
    return rep.verdict


def cmd_track(args) -> None:
    from pathlib import Path

    q = _parse_family(args.family)
    t_range = _parse_range(args.t, "t")
    fam = standard_family(q, _kappa(args.parity))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for tau in TAU_GRID_DEFAULT:
        records = scan_line_zeros(fam.member(tau), t_range, step=args.step)
        path = out / f"zeros_tau{tau:g}.csv"
        path.write_text("\n".join(zero_csv_lines(records)) + "\n")
        written.append(path)
    pairing = pair_zeros(fam, t_range, step=args.step)
    path = out / "trajectories.csv"
    path.write_text("\n".join(trajectory_csv_lines(pairing.trajectories)) + "\n")
    written.append(path)
    statuses = [tr.status for tr in pairing.trajectories]
    print(
        "\n".join(
            [
                HEADER,
                f"family,q={q},kappa={fam.shared_fe.kappa}",
                f"interval,{_g(pairing.interval[0])},{_g(pairing.interval[1])}",
                f"extended,{_g(pairing.extended[0])},{_g(pairing.extended[1])}",
                f"n0,{pairing.n0}",
                f"n1,{pairing.n1}",
                f"pairs,{len(pairing.pairs)}",
                f"completed,{statuses.count('completed')}",
                f"merged,{statuses.count('merged')}",
                f"lost,{statuses.count('lost')}",
                f"files,{len(written)}",
            ]
        )
    )


def cmd_report(args) -> str:
    import json
    from pathlib import Path

    rep = run_claim_report(args.q, _kappa(args.parity), args.tmax, args.step)
    text = json.dumps(rep, sort_keys=True, indent=2)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return verdict_of(v == "PASS" for v in rep["claims"].values())


# ------------------------------------------------------------------ plumbing

def _add_function_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="deformation family, e.g. q5")
    p.add_argument("--tau", type=float, default=0.0, help="family parameter in [0, 1]")
    p.add_argument("--f", dest="func", choices=("zeta", "f0", "L"), help="fixed function")
    p.add_argument("--q", type=int, help="modulus for --f f0 / --f L")
    p.add_argument("--parity", choices=("even", "odd"), default="even")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections are usage errors like every other:
    error() raises DomainError instead of printing and exiting, and the
    subparsers, built from the parser's own class, inherit it."""

    def error(self, message: str):
        raise DomainError(message)


# the commands, in help order
COMMANDS = ("chars", "verify-fe", "zeros", "track", "report")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone: a subparser does
    not read its siblings, so the one built alone parses, helps and rejects
    as it does among them."""
    p = _Parser(
        prog="deform-zeros",
        description="Shared-functional-equation families: catalog, verification, "
        "zero tracking, claim reports.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    built = COMMANDS if command is None else (command,)

    if "chars" in built:
        c = sub.add_parser("chars", help="catalog of real non-principal characters")
        c.add_argument("--parity", choices=("even", "odd"), default="even")
        c.add_argument("--qmax", type=int, default=21)
        c.add_argument("--json", action="store_true")
        c.set_defaults(run=cmd_chars)

    if "verify-fe" in built:
        v = sub.add_parser("verify-fe", help="functional-equation residual sweep")
        _add_function_flags(v)
        v.add_argument("--fe", help="impose the equation of this modulus, e.g. q8")
        v.add_argument("--sigma", help="sigma grid range a:b")
        v.add_argument("--t", help="t grid range a:b")
        v.add_argument("--tol", type=float, default=FE_RESIDUAL_TOL)
        v.set_defaults(run=cmd_verify_fe)

    if "zeros" in built:
        z = sub.add_parser("zeros", help="scan, count, or verify critical-line zeros")
        z.add_argument("action", choices=("scan", "count", "verify"))
        _add_function_flags(z)
        z.add_argument("--t", help="line scan range a:b")
        z.add_argument("--box", help="rectangle sigma1:sigma2:t1:t2")
        z.add_argument("--step", type=float, default=SCAN_STEP)
        z.set_defaults(run=cmd_zeros)

    if "track" in built:
        tr = sub.add_parser("track", help="trajectory CSVs over the default tau grid")
        tr.add_argument("--family", required=True)
        tr.add_argument("--parity", choices=("even", "odd"), default="even")
        tr.add_argument("--t", default="0:30")
        tr.add_argument("--step", type=float, default=SCAN_STEP)
        tr.add_argument("--out", default=".")
        tr.set_defaults(run=cmd_track)

    if "report" in built:
        r = sub.add_parser("report", help="full measured claim report as JSON")
        r.add_argument("--q", type=int, required=True)
        r.add_argument("--parity", choices=("even", "odd"), default="even")
        r.add_argument("--tmax", type=float, default=REPORT_T_MAX)
        r.add_argument("--step", type=float, default=SCAN_STEP)
        r.add_argument("--out", help="write the JSON here instead of stdout")
        r.set_defaults(run=cmd_report)

    return p


def _config_tokens(path: str) -> list[str]:
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key=value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise DomainError(f"config line has an empty key: {raw!r}")
        if key == "config":
            raise DomainError(f"--config may be given once, and {path} gives it again: {raw!r}")
        if val.lower() == "true":
            tokens.append(f"--{key}")
        elif val.lower() == "false":
            continue
        else:
            tokens.extend((f"--{key}", val))
    return tokens


# flags whose values may start with a minus sign (negative sigma or t);
# argparse reads such a value as an option unless it is joined with "="
_VALUE_FLAGS = ("--box", "--t", "--sigma")


def _join_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _apply_config(argv: list[str]) -> list[str]:
    """argv with its --config FILE or --config=FILE, which may be given
    once, replaced by the file's flags."""
    at = [k for k, tok in enumerate(argv) if tok.partition("=")[0] == "--config"]
    if not at:
        return argv
    if len(at) > 1:
        raise DomainError("--config may be given once")
    i = at[0]
    # the path is the rest of --config=FILE, or else the next token
    _, joined, path = argv[i].partition("=")
    end = i + 1 if joined else i + 2
    if end > len(argv) or joined and not path:
        raise DomainError("--config needs a file path")
    tokens = _config_tokens(path if joined else argv[i + 1])
    rest = argv[:i] + argv[end:]
    # insert after the positionals so explicit flags, coming later, win
    k = 0
    while k < len(rest) and not rest[k].startswith("-"):
        k += 1
    return rest[:k] + tokens + rest[k:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _join_dash_values(_apply_config(argv))
        # a leading command builds its own subparser alone; anything else
        # (no command, an unknown one, -h) builds them all
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
        _validate(args)
        verdict = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the final flush
        return 1 if verdict == "FAIL" else 0
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except (PrecisionError, BoundaryZeroError, PoleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # silence the interpreter's final flush, as the signal docs' note on SIGPIPE does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # an output path that failed after the checks above
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must keep meaning "a claim check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

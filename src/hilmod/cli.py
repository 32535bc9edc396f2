"""Command-line surface: field info, function evaluation, identity checks,
and equidistribution experiments with machine-readable output."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

from . import domains, eisenstein, equidist, fields, geometry, zeta
from .errors import DomainError, HilmodError

SCHEMA_VERSION = 1


def _half(m: int) -> str:
    """m / 2 as a reduced fraction, such as 3 or -1/2."""
    return str(m // 2) if m % 2 == 0 else "%d/2" % m


def _field_info_dict(fd: fields.FieldData) -> dict:
    unit = None
    if fd.fundamental_unit is not None:  # a + b sqrt d
        a, b = fields._sqrt_d_coords(fd.d, *fd.fundamental_unit)
        unit = {"a": _half(a), "b": _half(b)}
    return {
        "schema": SCHEMA_VERSION,
        "d": fd.d, "r1": fd.r1, "r2": fd.r2, "n": fd.n,
        "D": fd.D, "disc_signed": fd.disc_signed, "h": fd.h,
        "omega": fd.omega, "regulator": fd.regulator,
        "fundamental_unit": unit,
        "different_norm": abs(fields._coord_norm(fd, *fd.different_gen)),
        "l1_estimate": fd.l1_estimate,
    }


def cmd_field_info(args) -> int:
    fd = fields.make_field(args.field_d)
    json.dump(_field_info_dict(fd), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _parse_s(text: str) -> complex:
    """s from text such as 2, 1.5+9.5i or inf: only a closing i is the
    imaginary unit, so inf and nan keep theirs.  DomainError for text that
    is not a number."""
    try:
        return complex(re.sub(r"i(?=\)?$)", "j", text.replace(" ", "")))
    except ValueError:
        raise DomainError("s must be a number such as 2 or 1.5+9.5i, got %r" % (text,)) from None


def _parse_point(field, text: str):
    """z from one 'x,y' pair per place, joined by ';' (x complex, such as
    0.2+0.1i, at a complex place, real at a real one); DomainError for any
    other text."""
    chunks = text.split(";")
    if len(chunks) != field.r:
        raise DomainError("expected %d 'x,y' pairs joined by ';', got %r" % (field.r, text))
    pairs = []
    try:
        for chunk, deg in zip(chunks, field.place_degrees):
            x_str, y_str = chunk.rsplit(",", 1)
            x = complex(x_str.replace("i", "j"))
            if deg == 1 and x.imag != 0:
                raise DomainError("x must be real at a real place, got %r" % (x_str,))
            pairs.append((x if deg == 2 else x.real, float(y_str)))
    except ValueError:
        raise DomainError("point must be 'x,y' pairs of numbers, got %r" % (text,)) from None
    return geometry.make_point(field, *pairs)


def _default_point(field):
    if field.d == 0:
        return geometry.make_point(field, (0.28, 1.3))
    if field.d > 0:
        return geometry.make_point(field, (0.21, 1.05), (-0.37, 0.93))
    return geometry.make_point(field, (0.21 + 0.13j, 0.95))


def cmd_eval(args) -> int:
    row = {"schema": SCHEMA_VERSION, "kind": args.kind, "field_d": args.field_d, "s": args.s}
    try:
        s = _parse_s(args.s)
        row["s"] = str(s)  # one spelling of s in every row past the parse
        fd = fields.make_field(args.field_d)
        ctx = zeta.make_context(fd)
        if args.kind == "zeta":
            val = zeta.dedekind_zeta(ctx, s)
            row.update(method="euler-maclaurin factorization", est_error=1e-12)
        elif args.kind == "completed-zeta":
            val = zeta.completed_zeta(ctx, s)
            row.update(method="lambda * zeta_K", est_error=1e-12)
        elif args.kind == "phi":
            val = zeta.phi(ctx, s)
            row.update(method="completed-zeta ratio", est_error=1e-10)
        elif args.kind in ("eisenstein-direct", "eisenstein-fourier"):
            z = _parse_point(fd, args.z) if args.z else _default_point(fd)
            if args.kind == "eisenstein-direct":
                params = eisenstein.EisensteinParams(s=s, norm_bound=args.norm_bound)
                val, main, tail, npairs = eisenstein.eisenstein_direct(
                    fd, geometry.cusp_infinity(fd), z, params, return_parts=True)
                row.update(method="lattice sum + continuum tail",
                           pairs=npairs, est_error=abs(tail) * 0.05)
            else:
                val, err = eisenstein._fourier_value(fd, z, s, ctx)
                row.update(method="bessel-divisor fourier expansion", est_error=err)
        else:
            raise HilmodError("unknown eval kind %r" % (args.kind,))
    except HilmodError as exc:
        row.update(error=type(exc).__name__, message=str(exc))
        json.dump(row, sys.stdout, sort_keys=True)
        print()
        return 1
    row.update(value_re=val.real if hasattr(val, "real") else float(val),
               value_im=getattr(val, "imag", 0.0))
    json.dump(row, sys.stdout, sort_keys=True)
    print()
    return 0


def _check_rows(kind: str, field_d: int, tolerance: float | None):
    defaults = {"functional-equation": 1e-6, "volume": 1e-7, "residue": 1e-3,
                "maass-selberg": 1e-3, "rankin-selberg": 1e-4 if field_d == 0 else 1e-3,
                "bessel": 1e-10}
    if kind not in defaults:
        raise HilmodError("unknown check kind %r" % (kind,))
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise DomainError("tolerance must be finite and >= 0, got %r" % (tolerance,))
    tol = defaults[kind] if tolerance is None else tolerance
    fd = fields.make_field(field_d)
    ctx = zeta.make_context(fd)
    rows = []

    def add(name, lhs, rhs):
        resid = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append({"check": name, "field_d": field_d, "lhs": _fmt(lhs),
                     "rhs": _fmt(rhs), "residual": "%.3e" % resid,
                     "tolerance": "%.1e" % tol,
                     "status": "pass" if resid <= tol else "fail"})

    if kind == "functional-equation":
        for s in (complex(0.3, 2.0), complex(0.6, 5.0), complex(0.25, 11.0)):
            add("zeta-star(s)=zeta-star(1-s) s=%s" % s,
                zeta.completed_zeta(ctx, s), zeta.completed_zeta(ctx, 1 - s))
    elif kind == "volume":
        closed = eisenstein.orbifold_volume(fd, ctx)
        if field_d == 0:
            add("volume closed vs domain quadrature",
                closed, domains.modular_domain_volume_numeric())
        else:
            lhs, rhs = domains.remark_identity_check(fd, 2.0, 3.0, ctx)
            add("truncated-orbifold integral identity s'=2", lhs, rhs)
    elif kind == "residue":
        closed = eisenstein.residue_at_one(fd, ctx)
        z = _default_point(fd)
        eps = 1e-4
        probe = (eps * eisenstein.eisenstein_fourier(fd, z, 1 + eps, ctx=ctx)).real
        add("residue closed vs (s-1)E probe", closed, probe)
    elif kind == "maass-selberg":
        if field_d != 0:
            raise HilmodError("numeric Maass-Selberg check runs on d=0 only")
        num = domains.maass_selberg_numeric(fd, 1.5, 1.25, 3.0, ctx=ctx)
        closed = eisenstein.maass_selberg_closed_form(fd, 1.5, 1.25, 3.0, ctx)
        add("maass-selberg (1.5, 1.25, T=3)", num, closed)
    elif kind == "rankin-selberg":
        f = equidist.make_test_function(fd, 2.0, 4.0)
        lhs, rhs = equidist.rankin_selberg_check(fd, f, 2.0, ctx)
        add("rankin-selberg bump [2,4] s=2", lhs, rhs)
    elif kind == "bessel":
        from .specfun import bessel_k
        for s, y in ((0.7 + 0.3j, 2.0), (0.3, 1.0), (1.2 - 2.0j, 5.0)):
            add("K_s(y)=K_{-s}(y) s=%s y=%g" % (s, y),
                bessel_k(s, y), bessel_k(-s, y))
        # at real order the symmetry rows compare two mirror-image sums,
        # so they cannot catch a wrong K; these closed forms can
        for y in (0.5, 2.0, 7.0):
            k_half = math.sqrt(math.pi / (2 * y)) * math.exp(-y)
            add("K_1/2(y) closed form y=%g" % y, bessel_k(0.5, y), k_half)
            add("K_3/2(y) closed form y=%g" % y, bessel_k(1.5, y),
                k_half * (1 + 1 / y))
    return rows


def _fmt(v) -> str:
    v = complex(v)
    if abs(v.imag) < 1e-14 * (1 + abs(v.real)):
        return "%.10g" % v.real
    return "%.10g%+.10gj" % (v.real, v.imag)


def cmd_check(args) -> int:
    rows = _check_rows(args.kind, args.field_d, args.tolerance)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return 0 if all(r["status"] == "pass" for r in rows) else 1


# the keys of an equidist config and the types of their values
_CONFIG_TYPES = {"schema": (int,), "field_d": (int,), "k_min": (int,), "k_max": (int,),
                 "t0": (int, float), "t1": (int, float), "amplitude": (int, float),
                 "out": (str, type(None)), "svg": (str, type(None))}


def _load_config(args) -> dict:
    """The equidist settings: defaults, then the --config JSON object, then
    the options.  DomainError for a file that is not such an object, an
    unknown key, or a value of another type or not finite."""
    cfg = {"schema": SCHEMA_VERSION, "field_d": 0, "k_min": 3, "k_max": 12,
           "t0": equidist.DEFAULT_BUMP[0], "t1": equidist.DEFAULT_BUMP[1],
           "amplitude": 1.0, "out": None, "svg": None}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError("cannot read config %s: %s" % (args.config, exc)) from None
        if not isinstance(loaded, dict):
            raise DomainError("config must be a JSON object, got %s" % type(loaded).__name__)
        for key, value in loaded.items():
            if key not in _CONFIG_TYPES:
                raise DomainError("unknown config key %r" % (key,))
            if (isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key])
                    or isinstance(value, float) and not math.isfinite(value)):
                raise DomainError("config %s = %r is not allowed: expected a finite %s"
                                  % (key, value, " or ".join(t.__name__ for t in _CONFIG_TYPES[key])))
        if loaded.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise HilmodError("unsupported config schema %r" % loaded.get("schema"))
        cfg.update(loaded)
    for key in ("field_d", "k_min", "k_max"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if args.out:
        cfg["out"] = args.out
    if args.svg:
        cfg["svg"] = args.svg
    return cfg


def cmd_equidist(args) -> int:
    cfg = _load_config(args)
    fd = fields.make_field(cfg["field_d"])
    f = equidist.make_test_function(fd, cfg["t0"], cfg["t1"],
                                    amplitude=cfg["amplitude"])
    report = equidist.decay_exponent_fit(f, fd, cfg["k_min"], cfg["k_max"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "q", "m_q", "m", "e", "nodes", "quad_err"])
    for row in report.rows():
        writer.writerow([row["k"], "%.12g" % row["q"], "%.12g" % row["m_q"],
                         "%.12g" % row["m"], "%.12g" % row["e"], row["nodes"],
                         "%.3g" % row["quad_err"]])
    csv_text = buf.getvalue()
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    meta = {"schema": SCHEMA_VERSION, "field_d": cfg["field_d"],
            "fitted_slope": report.fitted_slope,
            "slope_ci": list(report.slope_ci), "degenerate": report.degenerate,
            "markers": {"unconditional": 0.5, "riemann_hypothesis": 0.75},
            "runtime_s": round(report.runtime, 3)}
    json.dump(meta, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    if cfg["svg"]:
        _write_svg(cfg["svg"], report)
    return 0


def _write_svg(path: str, report) -> None:
    """Self-contained log-log SVG of e(q) with reference slopes 0.5, 0.75."""
    import math as m
    pts = [(q, e) for q, e in zip(report.q_grid, report.errors) if e > 0]
    if not pts:
        with open(path, "w") as fh:
            fh.write('<svg xmlns="http://www.w3.org/2000/svg" width="480" '
                     'height="360"><text x="20" y="40">degenerate fit</text></svg>')
        return
    W, H, pad = 480, 360, 48
    lx = [m.log10(q) for q, _ in pts]
    ly = [m.log10(e) for _, e in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 += 1e-9; y1 += 1e-9

    def sx(v): return pad + (v - x0) / (x1 - x0) * (W - 2 * pad)
    def sy(v): return H - pad - (v - y0) / (y1 - y0) * (H - 2 * pad)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (W, H),
             '<rect width="100%" height="100%" fill="white"/>']
    # reference slope lines through the last data point
    qa, ea = pts[-1]
    for slope, color in ((0.5, "#888888"), (0.75, "#bb4444")):
        xs = [x0, x1]
        ys = [m.log10(ea) + slope * (xv - m.log10(qa)) for xv in xs]
        parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                     'stroke="%s" stroke-dasharray="5,4"/>' %
                     (sx(xs[0]), sy(ys[0]), sx(xs[1]), sy(ys[1]), color))
        parts.append('<text x="%.1f" y="%.1f" fill="%s" font-size="11">slope %.2f</text>'
                     % (W - pad - 60, sy(ys[1]) - 4, color, slope))
    # fitted line
    if not report.degenerate:
        b = ly[-1] - report.fitted_slope * lx[-1]
        parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#2255cc"/>'
                     % (sx(x0), sy(report.fitted_slope * x0 + b),
                        sx(x1), sy(report.fitted_slope * x1 + b)))
    for xv, yv in zip(lx, ly):
        parts.append('<circle cx="%.1f" cy="%.1f" r="3" fill="#222222"/>' % (sx(xv), sy(yv)))
    parts.append('<text x="%d" y="%d" font-size="12">log10 q</text>' % (W // 2 - 20, H - 12))
    parts.append('<text x="12" y="%d" font-size="12" transform="rotate(-90 12 %d)">'
                 'log10 |m_q - m|</text>' % (H // 2, H // 2))
    parts.append('<text x="%d" y="20" font-size="12">fitted slope %.4f</text>'
                 % (pad, report.fitted_slope))
    parts.append('</svg>')
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hilmod",
                                 description="Eisenstein series and cusp-section "
                                             "equidistribution laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="print field invariants as JSON")
    p.add_argument("--field-d", type=int, required=True)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("eval", help="evaluate a special function")
    p.add_argument("kind", choices=["zeta", "completed-zeta", "phi",
                                    "eisenstein-direct", "eisenstein-fourier"])
    p.add_argument("--field-d", type=int, default=0)
    p.add_argument("--s", default="2")
    p.add_argument("--z", default=None,
                   help="point as 'x,y' pairs joined by ';' (complex x allowed)")
    p.add_argument("--norm-bound", type=float, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="run an identity check (exit 1 on failure)")
    p.add_argument("kind", choices=["functional-equation", "maass-selberg",
                                    "rankin-selberg", "volume", "residue", "bessel"])
    p.add_argument("--field-d", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("equidist", help="run the decay-exponent experiment")
    p.add_argument("--config", default=None, help="JSON config (schema 1)")
    p.add_argument("--field-d", type=int, default=None)
    p.add_argument("--k-min", type=int, dest="k_min", default=None)
    p.add_argument("--k-max", type=int, dest="k_max", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_equidist)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HilmodError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

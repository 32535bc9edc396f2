import csv
import io
import json
import math

import pytest

from hilmod.cli import _parse_s, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_field_info_q5(capsys):
    rc, out, _ = run_cli(capsys, "field-info", "--field-d", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["D"] == 5 and data["h"] == 1
    assert abs(data["regulator"] - 0.481212) < 1e-6


def test_field_info_rational_and_d6(capsys):
    rc, out, _ = run_cli(capsys, "field-info", "--field-d", "0")
    assert rc == 0 and json.loads(out)["D"] == 1
    rc, out, _ = run_cli(capsys, "field-info", "--field-d", "6")
    assert rc == 0 and json.loads(out)["D"] == 24


def test_field_info_unsupported(capsys):
    rc, _, err = run_cli(capsys, "field-info", "--field-d", "10")
    assert rc == 2 and "UnsupportedField" in err


def test_eval_zeta(capsys):
    rc, out, _ = run_cli(capsys, "eval", "zeta", "--field-d", "0", "--s", "2")
    assert rc == 0
    row = json.loads(out)
    assert abs(row["value_re"] - 1.6449340668) < 1e-9


def test_eval_phi_pole_row(capsys):
    rc, out, _ = run_cli(capsys, "eval", "phi", "--field-d", "0", "--s", "1")
    assert rc == 1
    assert json.loads(out)["error"] == "ScatteringPole"


def test_eval_eisenstein_two_methods(capsys):
    rc1, out1, _ = run_cli(capsys, "eval", "eisenstein-fourier", "--field-d", "0",
                           "--s", "1.5", "--z", "0.28,1.3")
    rc2, out2, _ = run_cli(capsys, "eval", "eisenstein-direct", "--field-d", "0",
                           "--s", "1.5", "--z", "0.28,1.3", "--norm-bound", "1e6")
    assert rc1 == rc2 == 0
    a = json.loads(out1)["value_re"]
    b = json.loads(out2)["value_re"]
    assert abs(a - b) <= 1e-6 * abs(a)


@pytest.mark.parametrize("bound", ["0", "-1", "1e-3"])
def test_eval_eisenstein_direct_bad_bound_row(capsys, bound):
    rc, out, _ = run_cli(capsys, "eval", "eisenstein-direct", "--field-d", "0",
                         "--s", "1.5", "--z", "0.28,1.3", "--norm-bound", bound)
    assert rc == 1
    assert json.loads(out)["error"] == "DomainError"


def _strict_json(text):
    def refuse(name):
        raise ValueError("not JSON: %s" % name)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("kind", ["eisenstein-direct", "eisenstein-fourier"])
@pytest.mark.parametrize("s", ["nan", "inf", "-inf", "1.5+nani", "nan+1i", "1.5+infi"])
def test_eval_eisenstein_non_finite_s_row(capsys, kind, s):
    # these printed a row of NaNs, which is not JSON, with exit 0, or died
    # with a traceback (the i of inf was read as the imaginary unit)
    rc, out, _ = run_cli(capsys, "eval", kind, "--field-d", "0", "--s=" + s,
                         "--norm-bound", "2e4")
    assert rc == 1
    assert _strict_json(out)["error"] == "DomainError"


@pytest.mark.parametrize("kind", ["zeta", "completed-zeta", "phi"])
@pytest.mark.parametrize("s", ["nan", "inf", "-inf", "1.5+nani", "nan+1i", "1.5+infi"])
@pytest.mark.parametrize("d", ["0", "5", "-1"])
def test_eval_zeta_non_finite_s_row(capsys, kind, s, d):
    # zeta at inf on Q(sqrt 5) printed a row of NaNs with exit 0, and phi at
    # nan or inf died with a ValueError traceback
    rc, out, _ = run_cli(capsys, "eval", kind, "--field-d", d, "--s=" + s)
    assert rc == 1
    assert _strict_json(out)["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ("phi", "--s", "abc"),
    ("eisenstein-fourier", "--z", "0.1,-1"),
    ("eisenstein-fourier", "--z", "0.1,1;0.2,1"),
    ("eisenstein-direct", "--z", "abc", "--norm-bound", "2e4"),
    ("eisenstein-fourier", "--field-d", "5", "--z", "0.1,1"),
])
def test_eval_bad_input_row(capsys, argv):
    # each died with a traceback: ValueError from the parsers or the point,
    # IndexError for more pairs than places
    rc, out, err = run_cli(capsys, "eval", *argv)
    assert rc == 1 and err == ""
    assert _strict_json(out)["error"] == "DomainError"


def test_eval_fourier_where_its_terms_cancel_row(capsys):
    # printed value_re -2322304.0 with est_error 1e-10; the direct route
    # reads 1.908297113059037 at this point
    rc, out, err = run_cli(capsys, "eval", "eisenstein-fourier", "--z", "0.1,0.01", "--s", "10")
    assert rc == 1 and err == ""
    assert _strict_json(out)["error"] == "DomainError"


def test_eval_fourier_est_error_bounds_the_error(capsys):
    # printed est_error 1e-10 where the value 9765625.000716329 is 7.2e-4
    # from the direct route's 9765625.00000029
    rows = []
    for kind in ("eisenstein-fourier", "eisenstein-direct"):
        rc, out, _ = run_cli(capsys, "eval", kind, "--z", "0.1,0.1", "--s", "10")
        assert rc == 0
        rows.append(_strict_json(out))
    fourier, direct = rows
    assert fourier["est_error"] >= abs(fourier["value_re"] - direct["value_re"]) > 1e-4
    assert fourier["est_error"] <= 1e-6 * fourier["value_re"]


def test_eval_direct_past_the_pair_budget_row(capsys):
    # about 1.2e12 lattice pairs: the call ran on until it was killed
    rc, out, err = run_cli(capsys, "eval", "eisenstein-direct", "--z", "0.1,1.5", "--s", "2",
                           "--norm-bound", "1e12")
    assert rc == 1 and err == ""
    assert _strict_json(out)["error"] == "QuadratureBudgetExceeded"


@pytest.mark.parametrize("argv", [
    ("--z", "0.28+5i,1.3"),
    ("--z", "0.28+nani,1.3"),
    ("--field-d", "5", "--z", "0.1,1;0.2+0.3i,1"),
])
def test_eval_complex_x_at_real_place_row(capsys, argv):
    # the imaginary part was dropped: the value at x = 0.28, with exit 0
    rc, out, err = run_cli(capsys, "eval", "eisenstein-fourier", *argv)
    assert rc == 1 and err == ""
    assert _strict_json(out)["error"] == "DomainError"


def test_eval_complex_x_at_complex_place(capsys):
    rc, out, _ = run_cli(capsys, "eval", "eisenstein-fourier", "--field-d", "-1",
                         "--z", "0.21+0.13i,0.95")
    assert rc == 0 and "error" not in json.loads(out)


@pytest.mark.parametrize("kind", ["zeta", "eisenstein-fourier"])
def test_eval_unsupported_field_row(capsys, kind):
    # the field was built outside the error handler: "error: ..." on
    # stderr and exit 2
    rc, out, err = run_cli(capsys, "eval", kind, "--field-d", "10")
    assert rc == 1 and err == ""
    row = _strict_json(out)
    assert (row["error"], row["field_d"]) == ("UnsupportedField", 10)


def test_eval_s_spelled_once(capsys):
    # an unsupported field printed the raw "2", a bad point and a value the
    # parsed "(2+0j)"; only text that does not parse keeps its spelling
    rows = [_strict_json(run_cli(capsys, "eval", *argv)[1]) for argv in (
        ("zeta", "--field-d", "10", "--s", "2"),
        ("eisenstein-fourier", "--z", "0.28+5i,1.3", "--s", "2"),
        ("zeta", "--field-d", "5", "--s", "2"))]
    assert [row["s"] for row in rows] == ["(2+0j)"] * 3
    assert ["error" in row for row in rows] == [True, True, False]
    assert _strict_json(run_cli(capsys, "eval", "phi", "--s", "abc")[1])["s"] == "abc"


def test_parse_s_maps_only_the_imaginary_unit():
    assert _parse_s("1.5+9.5i") == 1.5 + 9.5j
    assert _parse_s("1.3 + 0.5i") == 1.3 + 0.5j
    assert _parse_s("2") == 2 and _parse_s("2j") == 2j
    assert _parse_s("inf") == complex(math.inf)
    assert _parse_s("-infinity") == complex(-math.inf)
    assert _parse_s("1.5+infi") == complex(1.5, math.inf)
    assert math.isnan(_parse_s("nan").real) and math.isnan(_parse_s("1+nani").imag)


def test_check_pass_and_exit_codes(capsys):
    rc, out, _ = run_cli(capsys, "check", "bessel")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check,")
    assert all(line.endswith("pass") for line in lines[1:])
    # absurd tolerance forces failure exit
    rc, out, _ = run_cli(capsys, "check", "bessel", "--tolerance", "1e-30")
    assert rc == 1


def test_check_bessel_closed_forms(capsys):
    # K_1/2 and K_3/2 against their closed forms: rows that, unlike the
    # K_s = K_-s symmetry at real order, would catch a wrong K
    rc, out, _ = run_cli(capsys, "check", "bessel")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    closed = [r for r in rows if "closed form" in r["check"]]
    assert sorted({r["check"].split()[0] for r in closed}) == ["K_1/2(y)", "K_3/2(y)"]
    assert len(closed) >= 4
    assert all(r["status"] == "pass" for r in closed)


def test_check_tolerance_zero_is_used(capsys):
    # a zero tolerance was read as "unset" and the rows checked at 1e-10
    rc, out, _ = run_cli(capsys, "check", "bessel", "--tolerance", "0")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["tolerance"] for r in rows} == {"0.0e+00"}
    # rows with a residual of one rounding now fail
    assert rc == 1 and "fail" in {r["status"] for r in rows}


@pytest.mark.parametrize("tolerance", ["-0.001", "nan", "inf"])
def test_check_rejects_bad_tolerance(capsys, tolerance):
    rc, out, err = run_cli(capsys, "check", "bessel", "--tolerance", tolerance)
    assert rc == 2 and out == ""
    assert err.startswith("error: DomainError: ")


def test_check_functional_equation(capsys):
    rc, out, _ = run_cli(capsys, "check", "functional-equation", "--field-d", "-1")
    assert rc == 0


def test_equidist_deterministic_csv(tmp_path, capsys):
    cfg = {"schema": 1, "field_d": 0, "k_min": 3, "k_max": 6}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    svg = tmp_path / "a.svg"
    rc, _, err1 = run_cli(capsys, "equidist", "--config", str(cfg_path),
                          "--out", str(out1), "--svg", str(svg))
    assert rc == 0
    rc, _, err2 = run_cli(capsys, "equidist", "--config", str(cfg_path),
                          "--out", str(out2))
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "k,q,m_q,m,e,nodes,quad_err"
    meta = json.loads(err1.strip().splitlines()[-1])
    assert meta["markers"] == {"unconditional": 0.5, "riemann_hypothesis": 0.75}
    svg_text = svg.read_text()
    assert svg_text.startswith("<svg") and "slope 0.75" in svg_text


def test_equidist_degenerate_flag(tmp_path, capsys):
    cfg = {"schema": 1, "field_d": 0, "k_min": 3, "k_max": 6,
           "amplitude": 0.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, "equidist", "--config", str(cfg_path))
    assert rc == 0
    meta = json.loads(err.strip().splitlines()[-1])
    assert meta["degenerate"] is True


def test_equidist_schema_guard(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 99}))
    rc, _, err = run_cli(capsys, "equidist", "--config", str(cfg_path))
    assert rc == 2


@pytest.mark.parametrize("k_min, k_max", [("4", "4"), ("5", "3")])
def test_equidist_needs_two_heights(capsys, k_min, k_max):
    rc, out, err = run_cli(capsys, "equidist", "--k-min", k_min, "--k-max", k_max)
    assert rc == 2 and out == ""
    assert err.startswith("error: DomainError: ")


@pytest.mark.parametrize("text", [
    "[1, 2]",                       # not an object
    '"cfg"',
    '{"t0": "2.0"}',                # not a number
    '{"k_min": 3.5}',
    '{"field_d": true}',
    '{"t0": NaN}',
    '{"t0": 1.0}',                  # not above l1 = 1 on Q
    '{"t0": 2.0, "t1": 1.9}',       # not an interval
    '{"seed": 7}',                  # unknown key
    '{"t0": 2.0',                   # not JSON
])
def test_equidist_bad_config(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc, out, err = run_cli(capsys, "equidist", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error: DomainError: ")

"""Command line behavior: exit codes, dump formats, config files."""

import json

import pytest

from babyverma import campaigns, cli
from babyverma.cli import main


def _stable(text):
    return [l for l in text.splitlines() if not l.startswith("millis")]


def test_check_reducible_exit_code(capsys):
    rc = main(["check", "--type", "A", "--rank", "1", "--p", "5", "--I", "", "--lambda", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "dim 5" in out
    assert "verdict reducible" in out


def test_check_irreducible_exit_code(capsys):
    rc = main(["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1", "--lambda", "0,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dim 25" in out
    assert "verdict irreducible" in out


def test_check_rejects_composite_p(capsys):
    rc = main(["check", "--type", "A", "--rank", "2", "--p", "4", "--I", "1", "--lambda", "0,0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not prime" in err


def test_huge_p_refused_by_cap_before_primality(monkeypatch, capsys):
    # every module check builds has dim >= p, so p = 2^61 - 1 is over the
    # cap; trial division on it would not finish
    calls = []
    monkeypatch.setattr(campaigns, "is_prime", lambda p: calls.append(p) or True)
    p = 2**61 - 1
    rc = main(["check", "--type", "A", "--rank", "1", "--p", str(p), "--lambda", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "dimension at least %d exceeds cap 50000" % p in err
    assert calls == []


def test_campaign_p_over_cap_refused_before_primality(monkeypatch, capsys):
    # every sweep row's module has dim >= p, so main-theorem refuses p over
    # its cap without trial division, which p = 2^61 - 1 would not finish
    calls = []
    monkeypatch.setattr(campaigns, "is_prime", lambda p: calls.append(p) or True)
    argv = ["campaign", "main-theorem", "--type", "A", "--rank", "1", "--I", "1"]
    rc = main(argv + ["--p", "101", "--cap", "100"])
    assert rc == 2
    assert "dimension at least 101 exceeds cap 100" in capsys.readouterr().err
    p = 2**61 - 1
    assert main(argv + ["--p", str(p)]) == 2
    assert "dimension at least %d exceeds cap 50000" % p in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("cmd", [["check"], ["dump", "matrix", "--gen", "h1"]])
@pytest.mark.parametrize("typ", ["B", "C", "D"])
def test_bad_prime_two_rejected(cmd, typ, capsys):
    # p = 2 is a bad prime outside type A; C2 at lambda = 1,1 used to
    # come out reducible at the Steinberg weight
    rank = 4 if typ == "D" else 2
    lam = ",".join(["1"] * rank)
    rc = main(cmd + ["--type", typ, "--rank", str(rank), "--p", "2", "--lambda", lam])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad prime" in err


def test_check_warns_when_p_divides_rank_plus_one(capsys):
    rc = main(["check", "--type", "A", "--rank", "2", "--p", "3", "--I", "1", "--lambda", "0,0"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" in captured.err


def test_check_lambda_rho_equivalent(capsys):
    rc1 = main(["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1", "--lambda", "0,1"])
    out1 = capsys.readouterr().out
    rc2 = main(["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1", "--lambda-rho", "1,2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2
    assert _stable(out1) == _stable(out2)


def test_check_requires_exactly_one_weight_flag(capsys):
    rc = main(["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1"])
    assert rc == 2
    rc = main(
        ["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1",
         "--lambda", "0,0", "--lambda-rho", "1,1"]
    )
    assert rc == 2


def test_check_json_report(tmp_path, capsys):
    path = tmp_path / "rep.json"
    rc = main(
        ["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1",
         "--lambda", "0,1", "--json", str(path)]
    )
    capsys.readouterr()
    assert rc == 0
    rep = json.loads(path.read_text())
    assert rep["dim"] == 50
    assert rep["irreducible"] is True
    assert rep["I"] == [1]


_A2_CHECK = ["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1", "--lambda", "0,0"]


@pytest.mark.parametrize(
    "args",
    [
        _A2_CHECK + ["--json"],
        ["campaign", "main-theorem", "--type", "A", "--rank", "2", "--p", "5",
         "--I", "1", "--csv"],
        _A2_CHECK + ["--save-config"],
    ],
)
def test_unwritable_output_path_exits_2(args, tmp_path, capsys):
    # exit 1 means reducible or a failing campaign, so a path that
    # cannot be written must be an error line with exit 2, not a traceback
    rc = main(args + [str(tmp_path / "missing" / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "missing" in err


@pytest.mark.parametrize(
    "args",
    [
        _A2_CHECK + ["--json"],
        ["campaign", "main-theorem", "--type", "A", "--rank", "2", "--p", "5",
         "--I", "1", "--csv"],
        ["campaign", "main-theorem", "--type", "A", "--rank", "2", "--p", "5",
         "--I", "1", "--json"],
    ],
)
def test_unwritable_output_path_fails_before_any_work(args, tmp_path, monkeypatch, capsys):
    # the output path is checked first, so no module is built or decided
    # only to have its result thrown away
    built = []

    def build(*a, **kw):
        built.append(a)
        raise AssertionError("module built before the output path was checked")

    monkeypatch.setattr(cli, "_module_from_args", build)
    monkeypatch.setattr(campaigns, "build_parabolic_baby_verma", build)
    rc = main(args + [str(tmp_path / "missing" / "out")])
    err = capsys.readouterr().err
    assert (rc, built) == (2, [])
    assert err.startswith("error: ") and "missing" in err


def test_campaign_main_theorem_cli(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    rc = main(
        ["campaign", "main-theorem", "--type", "A", "--rank", "2", "--p", "5",
         "--I", "1", "--csv", str(csv_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert csv_path.read_text().count("irreducible") == 6


def test_campaign_vacuous_cli(capsys):
    rc = main(["campaign", "main-theorem", "--type", "C", "--rank", "3", "--p", "3", "--I", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "vacuous" in out


def test_campaign_subregular_cli(tmp_path, capsys):
    path = tmp_path / "block.json"
    rc = main(["campaign", "subregular-A", "--p", "5", "--r", "1,2", "--json", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    rep = json.loads(path.read_text())
    assert [r["dim"] for r in rep["rows"]] == [50, 25, 50]
    rc = main(["campaign", "subregular-B", "--p", "17", "--r", "2,3,5", "--no-build"])
    capsys.readouterr()
    assert rc == 0


def test_campaign_subregular_validation_exit(capsys):
    rc = main(["campaign", "subregular-A", "--p", "5", "--r", "4,4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error" in err


def test_campaign_subregular_cap_hit_fails(capsys):
    rc = main(["campaign", "subregular-A", "--p", "5", "--r", "1,2", "--cap", "30"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "i=0 dim= expected=50 skipped" in out
    assert "subregular-A p=5 r=1,2: FAIL" in out


def test_campaign_subregular_error_row_cli(monkeypatch, capsys):
    from babyverma import campaigns

    def boom(mod, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(campaigns, "is_irreducible", boom)
    rc = main(["campaign", "subregular-B", "--p", "5", "--r", "1,2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "i=3 dim= expected=125 error" in captured.out
    assert "error: i=3: RuntimeError: boom" in captured.err


def test_campaign_main_theorem_rejects_sign_flip(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "main-theorem", "--type", "A", "--rank", "2", "--p", "5",
              "--I", "1", "--sign-flip"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_campaign_negative_controls_cli(capsys):
    rc = main(["campaign", "negative-controls"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "negative-controls: PASS" in out


def test_dump_brackets_rank_one(capsys):
    rc = main(["dump", "brackets", "--type", "A", "--rank", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == [
        "(x(a1), y(a1)) -> 1*h1",
        "(x(a1), h1) -> -2*x(a1)",
        "(y(a1), h1) -> 2*y(a1)",
    ]


@pytest.mark.parametrize("I", ["1", "banana"])
def test_dump_brackets_rejects_I(capsys, I):
    # the bracket table does not depend on a Levi shape
    with pytest.raises(SystemExit) as exc:
        main(["dump", "brackets", "--type", "A", "--rank", "1", "--I", I])
    assert exc.value.code == 2
    assert "--I" in capsys.readouterr().err


def test_dump_order_golden(capsys):
    rc = main(["dump", "order", "--type", "A", "--rank", "3", "--I", "1,2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["a1", "a1+a2", "a2", "a1+a2+a3", "a2+a3"]


def test_dump_matrix_torus_diagonal(capsys):
    rc = main(
        ["dump", "matrix", "--type", "A", "--rank", "1", "--p", "5", "--I", "",
         "--lambda", "3", "--gen", "h1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["0 0 3", "1 1 1", "2 2 4", "3 3 2"]


def test_dump_matrix_accepts_root_labels(capsys):
    rc = main(
        ["dump", "matrix", "--type", "A", "--rank", "2", "--p", "3", "--I", "1",
         "--lambda", "0,0", "--gen", "x:a1+a2"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines and all(len(l.split()) == 3 for l in lines)


def test_dump_matrix_rejects_bad_generator(capsys):
    rc = main(
        ["dump", "matrix", "--type", "A", "--rank", "1", "--p", "5", "--I", "",
         "--lambda", "0", "--gen", "q1"]
    )
    assert rc == 2


@pytest.mark.parametrize("gen", ["x:a9", "h9", "x:a0", "x9", "y0", "x:2a1", "x:ba1", "hx"])
def test_dump_matrix_rejects_non_basis_generator(gen, capsys):
    rc = main(
        ["dump", "matrix", "--type", "A", "--rank", "2", "--p", "3", "--I", "1",
         "--lambda", "0,0", "--gen", gen]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


CHECK_A2 = ["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1", "--lambda", "0,0"]
MAIN_A2 = ["campaign", "main-theorem", "--type", "A", "--rank", "2", "--p", "5"]


@pytest.mark.parametrize(
    "argv, said",
    [
        (CHECK_A2 + ["--chi", "1"], "--chi: '1'"),
        (CHECK_A2 + ["--chi", "a=1"], "--chi: 'a'"),
        (CHECK_A2 + ["--lambda", "0,x"], "--lambda: 'x'"),
        (CHECK_A2 + ["--I", "1,x"], "--I: 'x'"),
        (["campaign", "subregular-A", "--p", "5", "--r", "1,x"], "--r: 'x'"),
        (["check", "--type", "A", "--rank", "3", "--p", "3", "--I", "1,1",
          "--chi", "1=1,1=2", "--lambda", "0,1,0"], "--I: index 1"),
        (["check", "--type", "A", "--rank", "3", "--p", "3", "--I", "1",
          "--chi", "1=1,1=2", "--lambda", "0,1,0"], "--chi: index 1"),
        (MAIN_A2 + ["--I", "1,1"], "--I: index 1"),
        (["dump", "order", "--type", "A", "--rank", "3", "--I", "2,1,2"], "--I: index 2"),
        (MAIN_A2 + ["--I", "1", "--workers", "0"], "--workers: 0"),
        (MAIN_A2 + ["--I", "1", "--workers", "-3"], "--workers: -3"),
    ],
)
def test_bad_integer_names_its_option_and_token(argv, said, capsys):
    # the last of a repeated option wins, so the bad value replaces the good
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: " + said)


def test_dump_matrix_chi_needs_levi(capsys):
    rc = main(
        ["dump", "matrix", "--type", "A", "--rank", "1", "--p", "5", "--I", "",
         "--lambda", "0", "--chi", "1=2", "--gen", "h1"]
    )
    assert rc == 2
    assert "--chi" in capsys.readouterr().err


def test_selftest(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selftest: PASS" in out


def test_config_round_trip(tmp_path, capsys):
    cases = [
        (["--type", "B", "--rank", "2", "--p", "5", "--I", "2", "--lambda", "0,1"],
         "lambda=0,1", 0),
        # a value starting with "-" must not be read back as an option
        (["--type", "A", "--rank", "2", "--p", "5", "--lambda=-1,0"], "lambda=-1,0", 1),
    ]
    for k, (argv, line, code) in enumerate(cases):
        cfg = tmp_path / ("run%d.cfg" % k)
        rc = main(["check"] + argv + ["--save-config", str(cfg)])
        out1 = capsys.readouterr().out
        assert rc == code
        text = cfg.read_text()
        assert "type=" + argv[1] in text and line in text
        rc = main(["check", "--config", str(cfg)])
        out2 = capsys.readouterr().out
        assert rc == code
        assert _stable(out1) == _stable(out2)


def test_config_flags_after_file_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    main(
        ["check", "--type", "A", "--rank", "2", "--p", "5", "--I", "1",
         "--lambda", "0,0", "--save-config", str(cfg)]
    )
    capsys.readouterr()
    rc = main(["check", "--config", str(cfg), "--lambda", "0,1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dim 50" in out


def test_config_missing_file(capsys):
    rc = main(["check", "--config", "/nonexistent/path.cfg"])
    assert rc == 2


def test_config_cannot_nest(tmp_path, capsys):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("type=A\nconfig=%s\n" % cfg)
    rc = main(["check", "--config", str(cfg)])
    assert rc == 2
    assert "nest" in capsys.readouterr().err

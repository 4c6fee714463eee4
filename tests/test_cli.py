import argparse
import contextlib
import csv
import io
import json
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillgaps import potential_to_dict, mathieu, power_decay, from_fourier
from hillgaps import NumericalError, serialize, spectrum
from hillgaps.cli import build_parser, main

HUGE_K = {"coeffs": [{"k": 1000000000000, "re": 0.1}]}


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, q in (
        ("zero", from_fourier(0.0, [])),
        ("mathieu01", mathieu(0.1)),
        ("mathieu05", mathieu(0.5)),
        ("pd2_16", power_decay(2.0, 16)),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(potential_to_dict(q)), encoding="utf-8")
        paths[name] = str(p)
    w = tmp_path / "w1.json"
    w.write_text(json.dumps({"kind": "power", "s": 1.0}), encoding="utf-8")
    paths["w1"] = str(w)
    w2 = tmp_path / "wex.json"
    w2.write_text(json.dumps({"kind": "example_2_4", "s": 1.0}), encoding="utf-8")
    paths["wex"] = str(w2)
    paths["dir"] = tmp_path
    return paths


def test_spectrum_zero_galerkin(files, capsys):
    out = files["dir"] / "edges.csv"
    rc = main(["spectrum", "--potential", files["zero"], "--nmax", "5", "--method", "galerkin", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,parity,lambda_minus,lambda_plus,gap,method,n_trunc_or_steps"
    assert len(lines) == 7  # header + lambda0 row + 5 pairs
    for row in lines[1:]:
        fields = row.split(",")
        assert float(fields[4]) == 0.0
    assert lines[1].startswith("0,periodic,")
    assert lines[2].startswith("1,semiperiodic,")


def test_spectrum_both_reports_discrepancy(files, capsys):
    out = files["dir"] / "m.csv"
    rc = main(["spectrum", "--potential", files["mathieu01"], "--nmax", "4", "--method", "both", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().err
    assert "max relative edge discrepancy" in text
    val = float(text.rsplit(":", 1)[1])
    assert val < 1e-8
    assert (files["dir"] / "m.galerkin.csv").exists()
    assert (files["dir"] / "m.discriminant.csv").exists()


def test_spectrum_both_csv_stdout_is_one_table(files, capsys):
    rc = main(["spectrum", "--potential", files["mathieu01"], "--nmax", "2", "--method", "both", "--steps", "512"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[0] for r in rows].count("n") == 1
    assert rows[0] == ["n", "parity", "lambda_minus", "lambda_plus", "gap", "method", "n_trunc_or_steps"]
    assert [r[5] for r in rows[1:]] == ["galerkin"] * 3 + ["discriminant"] * 3


def test_spectrum_non_finite_edges_exit_3(files, capsys):
    huge = files["dir"] / "huge.json"
    huge.write_text(json.dumps({"mean": 0.0, "coeffs": [{"k": 1, "re": 1e308, "im": 0.0}]}), encoding="utf-8")
    out = files["dir"] / "huge.csv"
    rc = main(["spectrum", "--potential", str(huge), "--nmax", "2", "--method", "galerkin", "--out", str(out)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, doc, extra, code, message",
    [
        # 1e308 + 1e308 overflows inside the Galerkin matrix; the eigensolver cannot run on it
        ("spectrum", {"coeffs": [{"k": 1, "re": 1e308}, {"k": 3, "re": 1e308}]}, [], 3, "non-finite"),
        # the default fit range comes from the h^0 norm
        ("gaps", {"mean": 1e308, "coeffs": []}, [], 3, "no default fit range"),
        # the summability report squares Python floats: a valid coefficient whose norm overflows
        ("verify", {"coeffs": [{"k": 1, "re": 1e200}]}, [], 3, "coefficient norm overflows"),
        # the square is finite, the weighted sum is not
        ("verify", {"coeffs": [{"k": 1, "re": 1e154}]}, [], 3, "coefficient norm overflows"),
        # the order argument alone overflows the weight (1+2m)^(2s)
        ("verify", {"coeffs": [{"k": 1, "re": 0.1}]}, ["--mo-s", "400"], 2, "summability order s=400"),
        # outside the summability range, the h^1 norms of the consistency check overflow
        ("verify", {"coeffs": [{"k": 2, "re": 1e154}]}, [], 3, "coefficient norm overflows"),
        # 3^644 is finite and so is the coefficient column, but 3^644 gamma(1)^2 is not
        ("verify", {"coeffs": [{"k": 1, "re": 1.6}]}, ["--mo-s", "322"], 3, "order-322 gap sum overflows"),
    ],
    ids=[
        "spectrum-matrix",
        "gaps-fit-range",
        "verify-summability",
        "verify-summability-sum",
        "verify-mo-s",
        "verify-norm-consistency",
        "verify-summability-gaps",
    ],
)
def test_overflow_exit_codes(files, capsys, command, doc, extra, code, message):
    big = files["dir"] / "big.json"
    big.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--potential", str(big), "--nmax", "1", *extra]) == code
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert message in err and "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "doc",
    [
        # the slacks were -8.9e-16 and -3.5e-18: rounding of the three norms, not a failure
        {"coeffs": [{"k": 1, "re": 1.6}]},
        {"coeffs": [{"k": 1, "re": 0.010883429350935921}]},
    ],
    ids=["re-1.6", "re-0.0109"],
)
def test_triangle_check_within_rounding_exits_0(files, capsys, doc):
    pot = files["dir"] / "q.json"
    pot.write_text(json.dumps(doc), encoding="utf-8")
    out = files["dir"] / "v.json"
    assert main(["verify", "--potential", str(pot), "--nmax", "1", "--out", str(out)]) == 0
    block = json.loads(out.read_text())["checks"]
    (tri,) = [c for c in block if c["name"] == "membership_triangle_inequality"]
    assert tri["passed"] and tri["blocks"][0]["triangle_slack"] < 0


@pytest.mark.parametrize(
    "doc, method",
    [
        # the trace overflows in the first sweep; doubling the steps cannot cure that
        ({"coeffs": [{"k": 2, "re": 1e154}]}, "discriminant"),
        ({"coeffs": [{"k": 1, "re": 1e308}, {"k": 3, "re": 1e308}]}, "galerkin"),
    ],
    ids=["discriminant", "galerkin"],
)
def test_overflow_reports_without_numpy_warnings(files, capsys, doc, method):
    big = files["dir"] / "big.json"
    big.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["spectrum", "--potential", str(big), "--nmax", "1", "--method", method, "--steps", "256"])
    assert rc == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "non-finite" in err and "RuntimeWarning" not in err
    if method == "discriminant":
        assert "steps=256" in err


def test_spectrum_malformed_json_exit_2(files):
    bad = files["dir"] / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    rc = main(["spectrum", "--potential", str(bad), "--nmax", "3"])
    assert rc == 2


def test_spectrum_missing_file_exit_2(files):
    rc = main(["spectrum", "--potential", str(files["dir"] / "nope.json")])
    assert rc == 2


def test_cli_outputs_deterministic(files):
    out1 = files["dir"] / "a.json"
    out2 = files["dir"] / "b.json"
    args = ["gaps", "--potential", files["mathieu01"], "--nmax", "6", "--weight", files["w1"],
            "--range", "1:6", "--format", "json"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gaps_summary_contains_rho(files):
    out = files["dir"] / "g.json"
    rc = main(["gaps", "--potential", files["mathieu01"], "--nmax", "6", "--weight", files["w1"],
               "--range", "1:6", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "hill-gaps/1"
    assert doc["rho_summary"]["rho_1_re"] == 0.0
    rows = doc["gaps"]["rows"]
    assert len(rows) == 6
    assert rows[0]["two_qhat"] == pytest.approx(0.2)


def test_gaps_csv_and_tail_files(files):
    out = files["dir"] / "g.csv"
    rc = main(["gaps", "--potential", files["pd2_16"], "--nmax", "8", "--weight", files["w1"],
               "--range", "2:8", "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "n,gamma,two_qhat,rho_re,rho_im,resid_plain,resid_corrected"
    assert (files["dir"] / "g.summary.json").exists()
    tail = files["dir"] / "g.tail0.csv"
    assert tail.read_text().splitlines()[0] == "m,partial_sum,increment"


def test_gaps_slope_field_power_decay(files, tmp_path):
    q = power_decay(2.0, 32)
    p = tmp_path / "pd32.json"
    p.write_text(json.dumps(potential_to_dict(q)), encoding="utf-8")
    wex = files["wex"]
    out = tmp_path / "pd.json"
    rc = main(["gaps", "--potential", str(p), "--nmax", "28", "--weight", wex,
               "--range", "8:28", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["slopes"]["resid_plain"]["slope"] <= -2.0


def test_verify_all_pass(files, capsys):
    out = files["dir"] / "v.json"
    rc = main(["verify", "--potential", files["zero"], "--nmax", "5", "--weight", files["w1"],
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"]
    names = {c["name"] for c in doc["checks"]}
    assert "membership_triangle_inequality" in names
    assert "conv_failure_witness_growth" in names
    text = capsys.readouterr().err
    assert "PASS" in text and "FAIL" not in text


def test_verify_stdout_is_the_json_document(files, capsys):
    rc = main(["verify", "--potential", files["zero"], "--nmax", "5", "--weight", files["w1"]])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"]


def test_verify_short_table_weight(files):
    wt = files["dir"] / "wt.json"
    wt.write_text(json.dumps({"kind": "table", "values": [1, 2, 3, 4, 5, 6, 7, 8]}), encoding="utf-8")
    out = files["dir"] / "vt.json"
    rc = main(["verify", "--potential", files["mathieu01"], "--nmax", "3", "--weight", str(wt),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"]
    assert doc["reports"]["sandwich"][0]["weight"] == "table(len=8)"


def test_verify_weight_extension_reports_checked_range(files):
    # the extension is checked up to each weight's own range; the report gives the smallest
    wt = files["dir"] / "wt8.json"
    wt.write_text(json.dumps({"kind": "table", "values": [1, 2, 3, 4, 5, 6, 7, 8]}), encoding="utf-8")
    out = files["dir"] / "vt8.json"
    rc = main(["verify", "--potential", files["mathieu01"], "--nmax", "3", "--weight", files["w1"],
               "--weight", str(wt), "--out", str(out)])
    assert rc == 0
    (ext,) = [c for c in json.loads(out.read_text())["checks"] if c["name"] == "weight_extension"]
    assert ext["passed"] and ext["k_checked"] == 8


def test_verify_length_one_table_weight(files):
    # a one-entry table has no slope to fit: the sandwich block is skipped, not failed
    wt = files["dir"] / "wt1.json"
    wt.write_text(json.dumps({"kind": "table", "values": [2]}), encoding="utf-8")
    out = files["dir"] / "vt1.json"
    rc = main(["verify", "--potential", files["mathieu01"], "--nmax", "1", "--weight", str(wt),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"]
    (entry,) = doc["reports"]["sandwich"]
    assert entry["weight"] == "table(len=1)"
    assert entry["passed"] is None
    assert "k_max >= 2" in entry["not_applicable"]


def test_out_into_missing_directory_exit_2(files, capsys):
    missing = files["dir"] / "no_such_dir" / "x.csv"
    for argv in (
        ["spectrum", "--potential", files["mathieu01"], "--nmax", "2"],
        ["gaps", "--potential", files["mathieu01"], "--nmax", "2"],
    ):
        assert main(argv + ["--out", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err
    assert not missing.parent.exists()


@pytest.mark.parametrize(
    "command, doc, extra",
    [
        (command, doc, extra)
        for command in ("spectrum", "gaps", "verify")
        for doc, extra in ((HUGE_K, []), ({"coeffs": [{"k": 1, "re": 0.1}]}, ["--trunc", "100000"]))
    ],
    ids=[f"{case}{suffix}" for suffix in ("", "-gaps", "-verify") for case in ("huge-k", "huge-trunc")],
)
def test_galerkin_truncation_bound_exit_2(files, capsys, monkeypatch, command, doc, extra):
    pot = files["dir"] / "bound.json"
    pot.write_text(json.dumps(doc), encoding="utf-8")

    def no_matrix(*args, **kwargs):
        raise AssertionError("galerkin_matrix must not run past the truncation bound")

    monkeypatch.setattr(spectrum, "galerkin_matrix", no_matrix)
    tracemalloc.start()
    try:
        rc = main([command, "--potential", str(pot), "--nmax", "2", "--method", "galerkin"] + extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert "n_trunc=" in err and "4096" in err


def test_gaps_discriminant_on_huge_cutoff_finishes(files, capsys):
    # 256 steps cannot resolve a harmonic of frequency 1e12: the route refuses
    # at once instead of reporting the gaps of an aliased potential
    pot = files["dir"] / "huge.json"
    pot.write_text(json.dumps(HUGE_K), encoding="utf-8")
    t0 = time.perf_counter()
    rc = main(["gaps", "--potential", str(pot), "--nmax", "2", "--method", "discriminant", "--steps", "256"])
    assert time.perf_counter() - t0 < 5.0
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["verify", "--method", "discriminant", "--steps", "256"], HUGE_K, "alias"),
        (["spectrum", "--method", "discriminant"], {"coeffs": [{"k": 600, "re": 0.1}]}, "alias"),
        (["converge", "--target", "steps", "--sweep", "256,512"], {"coeffs": [{"k": 100, "re": 0.1}]}, "alias"),
        (["spectrum", "--method", "discriminant", "--steps", "10000000000000"], {"coeffs": []}, "65536"),
        (["spectrum", "--method", "discriminant", "--steps", "0"], {"coeffs": []}, "256"),
    ],
    ids=["verify-huge-k", "spectrum-k600", "converge-k100", "steps-1e13", "steps-0"],
)
def test_discriminant_step_count_bounds_exit_2(files, capsys, argv, doc, message):
    # 4 K > steps aliases the potential on the integrator grid, and a step
    # count beyond 65536 would allocate the grid before any sweep ran
    pot = files["dir"] / "steps.json"
    pot.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.perf_counter()
    rc = main([argv[0], "--potential", str(pot), "--nmax", "2", *argv[1:]])
    assert time.perf_counter() - t0 < 5.0
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_spectrum_both_probes_in_one_band_exit_3(files, capsys):
    # the band probes on both sides of gap 1 fall inside one band of this strong
    # potential, where D peaks at -0.19 with a rounding bound of 4e-14: no collapse
    pot = files["dir"] / "strong.json"
    pot.write_text(json.dumps({"mean": 0, "coeffs": [{"k": 3, "re": 40, "im": 7}]}), encoding="utf-8")
    out = files["dir"] / "edges.csv"
    rc = main(["spectrum", "--potential", str(pot), "--nmax", "12", "--method", "both", "--out", str(out)])
    assert rc == 3
    assert "inside one band" in capsys.readouterr().err
    assert list(files["dir"].glob("edges*")) == []


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("potential", {"coeffs": [{"k": "x"}]}),
        ("potential", {"coeffs": [{"k": 1, "re": None}]}),
        ("weight", {"kind": "power", "s": "abc"}),
    ],
)
def test_malformed_values_exit_2(files, capsys, kind, doc):
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    pot = str(bad) if kind == "potential" else files["mathieu01"]
    argv = ["gaps", "--potential", pot, "--nmax", "2"] + (["--weight", str(bad)] if kind == "weight" else [])
    assert main(argv) == 2
    assert "input error" in capsys.readouterr().err


def test_verify_conv_block_reports_failure_regime(files):
    out = files["dir"] / "v2.json"
    rc = main(["verify", "--potential", files["mathieu01"], "--nmax", "5", "--weight", files["w1"],
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    block = next(c for c in doc["checks"] if c["name"] == "conv_failure_witness_growth")
    assert block["regime"] == "fails to hold"
    assert block["growth_factor"] >= 1.5


def test_verify_or_class_block(files):
    out = files["dir"] / "v3.json"
    rc = main(["verify", "--potential", files["zero"], "--nmax", "4", "--weight", files["wex"],
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    orc = doc["reports"]["or_class"][0]
    assert orc["passed"]  # at the default class constant
    assert orc["worst_ratio"] == pytest.approx(15.2, abs=0.2)


def test_converge_trunc_changes_shrink(files, tmp_path):
    # needs a potential whose coupling still reaches past the lowest level:
    # fully-converged inputs (like mathieu at 32) only show the noise floor
    q = power_decay(1.0, 30)
    p = tmp_path / "pd30.json"
    p.write_text(json.dumps(potential_to_dict(q)), encoding="utf-8")
    out = files["dir"] / "c.json"
    rc = main(["converge", "--potential", str(p), "--nmax", "8",
               "--sweep", "32,64,128", "--target", "trunc", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    changes = [r["max_abs_change"] for r in doc["rows"] if "max_abs_change" in r]
    assert len(changes) == 2
    assert changes[1] < changes[0]


def test_converge_steps_fourth_order(files, tmp_path):
    q = from_fourier(0.0, [(1, 2.0), (2, 1.0)])
    p = tmp_path / "strong.json"
    p.write_text(json.dumps(potential_to_dict(q)), encoding="utf-8")
    out = tmp_path / "cs.json"
    rc = main(["converge", "--potential", str(p), "--nmax", "4", "--sweep", "256,512,1024",
               "--target", "steps", "--lam", "60.0", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    orders = doc["rows"][-1]["estimated_order"]
    assert orders[0] == pytest.approx(4.0, abs=0.6)


@pytest.mark.parametrize("sweep", ["256,512,1024", "256,512,1024,2048"])
def test_converge_steps_csv_writes_one_order_per_row(tmp_path, sweep):
    # each order was one quoted cell holding a Python list repr
    p = tmp_path / "two.json"
    p.write_text(json.dumps({"coeffs": [{"k": 1, "re": 1.0}, {"k": 2, "re": 0.5}]}), encoding="utf-8")
    outs = {fmt: tmp_path / f"c.{fmt}" for fmt in ("csv", "json")}
    for fmt, out in outs.items():
        rc = main(["converge", "--potential", str(p), "--target", "steps", "--sweep", sweep,
                   "--lam", "60", "--format", fmt, "--out", str(out)])
        assert rc == 0
    orders = json.loads(outs["json"].read_text())["rows"][-1]["estimated_order"]
    assert len(orders) == len(sweep.split(",")) - 2
    table = list(csv.DictReader(io.StringIO(outs["csv"].read_text())))
    assert list(table[0]) == ["abs_change", "delta", "estimated_order", "level"]
    assert [r["estimated_order"] for r in table if r["estimated_order"]] == [format(o, ".17g") for o in orders]
    assert all(r["level"] == "" for r in table[-len(orders):])
    assert "[" not in outs["csv"].read_text()


def test_converge_steps_zero_potential_exact(files, tmp_path):
    out = tmp_path / "cz.json"
    rc = main(["converge", "--potential", files["zero"], "--nmax", "4", "--sweep", "256,512,1024",
               "--target", "steps", "--lam", "60.0", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    changes = [r["abs_change"] for r in doc["rows"] if "abs_change" in r]
    assert all(c < 1e-12 for c in changes)


def test_converge_steps_evaluates_only_its_levels(tmp_path, capsys):
    # the witness fails at 2048 steps here (drift 3.8e-6): the 4096-step
    # trace was reported under level 2048 with abs_change 0 and exit 0
    p = tmp_path / "k32.json"
    p.write_text(json.dumps({"coeffs": [{"k": 32, "re": 0, "im": 160}]}), encoding="utf-8")
    out = tmp_path / "c.json"
    rc = main(["converge", "--potential", str(p), "--target", "steps", "--sweep", "2048,4096",
               "--lam", "-159.26629944986382", "--format", "json", "--out", str(out)])
    assert rc == 3
    assert "steps=2048" in capsys.readouterr().err
    assert not out.exists()


def test_converge_rejects_non_integer_level(files):
    rc = main(["converge", "--potential", files["mathieu01"], "--sweep", "64,x", "--target", "trunc"])
    assert rc == 2


def test_converge_rejects_non_increasing_levels(files):
    for sweep in ("64,64", "512,256"):
        rc = main(["converge", "--potential", files["zero"], "--sweep", sweep, "--target", "steps"])
        assert rc == 2


def test_gaps_rejects_method_both(files):
    rc = main(["gaps", "--potential", files["mathieu01"], "--nmax", "4", "--method", "both"])
    assert rc == 2


def test_csv_floats_have_17_significant_digits(files):
    out = files["dir"] / "e17.csv"
    main(["spectrum", "--potential", files["mathieu01"], "--nmax", "2", "--out", str(out)])
    row = out.read_text().splitlines()[2].split(",")
    val = row[2]
    assert float(val) != 0
    assert format(float(val), ".17g") == val


# ------------------------------------------------------------------ exit-code contract

NUMBER = (
    st.floats(-2.0, 2.0)
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from([None, "x", 1e308, -1e308, True])
)
CLI_COEFF = st.fixed_dictionaries({"k": st.integers(-1, 64)}, optional={"re": NUMBER, "im": NUMBER})
CLI_POTENTIALS = (
    st.fixed_dictionaries({"coeffs": st.lists(CLI_COEFF, max_size=4)}, optional={"mean": NUMBER})
    | st.sampled_from([[], {"coeffs": {}}, {"coeffs": [7]}, "x", None])
)
CLI_WEIGHTS = (
    st.fixed_dictionaries({"kind": st.just("power")}, optional={"s": NUMBER})
    | st.fixed_dictionaries({"kind": st.just("example_2_4")}, optional={"s": NUMBER})
    | st.fixed_dictionaries(
        {"kind": st.just("log_power")}, optional={"s": NUMBER, "r": st.lists(NUMBER, max_size=3)}
    )
    | st.fixed_dictionaries({"kind": st.just("table"), "values": st.lists(NUMBER, max_size=10)})
    | st.sampled_from([{"kind": "gaussian"}, [], None])
)


def _reject_constant(name):
    raise AssertionError(f"bare {name} in a JSON output")


def _run_contract(d: Path, pot, argv: list[str], weights=()) -> None:
    """Run main on a written potential; assert the exit-code contract and strict outputs.

    main runs in process, so an exception escaping it (the traceback a user
    would see) fails the example by itself, and so does any numpy
    RuntimeWarning.  Every JSON file written under ``d/out`` must parse
    without NaN or Infinity.
    """
    (d / "q.json").write_text(json.dumps(pot), encoding="utf-8")
    argv = [argv[0], "--potential", str(d / "q.json"), *argv[1:]]
    for i, w in enumerate(weights):
        (d / f"w{i}.json").write_text(json.dumps(w), encoding="utf-8")
        argv += ["--weight", str(d / f"w{i}.json")]
    (d / "out").mkdir()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv + ["--out", str(d / "out" / "report")])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    for path in (d / "out").iterdir():
        text = path.read_text(encoding="utf-8")
        if text.startswith("{"):
            json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["spectrum", "gaps", "verify"]),
    nmax=st.integers(1, 6),
    pot=CLI_POTENTIALS,
    weights=st.lists(CLI_WEIGHTS, max_size=2),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(command="spectrum", nmax=2, pot=HUGE_K, weights=[], fmt="csv")
@example(command="verify", nmax=2, pot=HUGE_K, weights=[], fmt="json")
@example(command="verify", nmax=1, pot={"coeffs": [{"k": 2, "re": 1e154}]}, weights=[], fmt="json")
def test_cli_exit_code_contract(command, nmax, pot, weights, fmt):
    argv = [command, "--nmax", str(nmax), "--method", "galerkin"]
    if command != "verify":  # verify always writes JSON
        argv += ["--format", fmt]
    with tempfile.TemporaryDirectory() as tmp:
        _run_contract(Path(tmp), pot, argv, weights if command != "spectrum" else ())


@settings(max_examples=30, deadline=None)
@given(
    argv=st.sampled_from(
        [
            ["spectrum", "--method", "discriminant"],
            ["spectrum", "--method", "both", "--format", "json"],
            ["converge", "--target", "steps", "--sweep", "256,512,1024", "--format", "json"],
        ]
    ),
    nmax=st.integers(1, 4),
    pot=CLI_POTENTIALS,
    lam=st.sampled_from(["-30", "0", "10", "1e6", "nan"]),
)
# both routes solve the mean-free potential and add a huge mean back
@example(argv=["spectrum", "--method", "both", "--format", "json"], nmax=2, pot={"mean": 1e308, "coeffs": []},
         lam="0")
def test_cli_exit_code_contract_discriminant(argv, nmax, pot, lam):
    # converge takes its step counts from --sweep
    extra = ["--lam", lam] if argv[0] == "converge" else ["--steps", "256"]
    with tempfile.TemporaryDirectory() as tmp:
        _run_contract(Path(tmp), pot, [*argv, "--nmax", str(nmax), *extra])


def test_dump_json_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericalError, match="non-finite"):
            serialize.dump_json({"x": [1.0, bad]})


def test_to_csv_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericalError, match="non-finite"):
            serialize.to_csv(["m", "partial_sum"], [[1, 0.5], [2, bad]])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_weight_exits_3_without_output(files, capsys, fmt):
    # (1 + 2k)^400 overflows float64 from k = 3 on: the weighted tails were
    # written to CSV as inf with exit 0, and numpy warned on stderr
    pot = files["dir"] / "cos.json"
    pot.write_text(json.dumps({"mean": 0.0, "coeffs": [{"k": 1, "re": 2.0, "im": 0.0}]}), encoding="utf-8")
    w = files["dir"] / "w400.json"
    w.write_text(json.dumps({"kind": "power", "s": 400}), encoding="utf-8")
    out_dir = files["dir"] / "out"
    out_dir.mkdir()
    for command in ("gaps", "verify"):
        argv = [command, "--potential", str(pot), "--weight", str(w), "--out", str(out_dir / "g.out")]
        if command == "gaps":
            argv += ["--format", fmt]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "power(s=400)" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []


# ------------------------------------------------------------------ option sets

OPTIONS = {
    "spectrum": {"potential", "nmax", "method", "trunc", "steps", "out", "format"},
    "gaps": {"potential", "nmax", "method", "trunc", "steps", "out", "format", "weight", "range"},
    "verify": {
        "potential", "nmax", "method", "trunc", "steps", "out", "seed", "weight", "range",
        "sandwich_s", "or_a", "or_c", "or_tmax", "mo_s",
    },
    "converge": {"potential", "nmax", "sweep", "target", "lam", "out", "format"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, expected in OPTIONS.items():
        declared = {a.dest for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"}
        assert declared == expected, command
    assert sum(len(v) for v in OPTIONS.values()) == 37


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--seed", "1"],
        ["verify", "--format", "csv"],
        ["converge", "--sweep", "256,512", "--steps", "512"],
        ["gaps", "--method", "both"],
    ],
    ids=["spectrum-seed", "verify-format", "converge-steps", "gaps-both"],
)
def test_options_a_subcommand_does_not_read_exit_2(files, capsys, argv):
    assert main([argv[0], "--potential", files["mathieu01"], *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--or-tmax", "nan"], "t_max"),
        (["verify", "--or-tmax", "inf"], "t_max"),
        (["verify", "--or-tmax", "1000001"], "t_max"),
        (["verify", "--or-tmax", "0.5"], "t_max"),
        (["verify", "--or-a", "nan"], "finite a > 1"),
        (["verify", "--or-a", "inf"], "finite a > 1"),
        (["verify", "--or-c", "nan"], "finite a > 1"),
        (["verify", "--sandwich-s", "nan"], "finite s >= 0"),
        (["verify", "--sandwich-s", "inf"], "finite s >= 0"),
        (["converge", "--target", "steps", "--sweep", "256,512", "--lam", "nan"], "spectral parameter"),
        (["converge", "--target", "steps", "--sweep", "256,512", "--lam", "inf"], "spectral parameter"),
        # a one-entry table skips the sandwich fit and ends the scaling grid at t = 1
        (["verify", "--weight", "TABLE1", "--sandwich-s", "nan"], "finite s >= 0"),
        (["verify", "--weight", "TABLE1", "--or-tmax", "inf"], "t_max"),
    ],
    ids=[
        "or-tmax-nan", "or-tmax-inf", "or-tmax-above-1e6", "or-tmax-below-1", "or-a-nan", "or-a-inf", "or-c-nan",
        "sandwich-s-nan", "sandwich-s-inf", "lam-nan", "lam-inf", "table1-sandwich-s-nan", "table1-or-tmax-inf",
    ],
)
def test_non_finite_or_unbounded_parameters_exit_2(files, capsys, argv, message):
    table1 = files["dir"] / "table1.json"
    table1.write_text(json.dumps({"kind": "table", "values": [2]}), encoding="utf-8")
    argv = [str(table1) if tok == "TABLE1" else tok for tok in argv]
    out = files["dir"] / "p.json"
    assert main([argv[0], "--potential", files["mathieu01"], "--nmax", "1", *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err and "Traceback" not in err
    assert not out.exists()
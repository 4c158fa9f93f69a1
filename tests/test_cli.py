import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import random_psd, random_reduced_game, random_sym
from lqpersuasion import cli, evaluator, instance, programs
from lqpersuasion.demo import BENCH3_D, BENCH3_E, BENCH3_Q, bench3_form, bench3_hypothesis
from lqpersuasion.errors import NumericalFailure, OracleDiverged


def _bench_doc(eps=1.0, **fields) -> str:
    """The bench3 instance file at scale eps, with ``fields`` replaced."""
    doc = {
        "schema_version": "1",
        "n": 3,
        "reduced": {"Q": BENCH3_Q.tolist(), "l": [0.0] * 6, "r": 0.0},
        "hypothesis": {"scaled_identity": eps},
        "prior": {"family": "gaussian", "n": 3},
    }
    return json.dumps({**doc, **fields})


def _bench_instance(tmp_path, eps=1.0, name="bench.json"):
    path = tmp_path / name
    path.write_text(_bench_doc(eps), encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def test_solve_record_writes_each_projection_under_both_keys(tmp_path):
    # every program's optimum is projective, so the record writes its
    # projection as Sigma too, the same text, and UOP's is BP's; the numbers
    # are compared as text, so -0 and 0 differ
    qf = random_reduced_game(np.random.default_rng(7), 10)
    doc = {"schema_version": "1", "n": 10,
           "reduced": {"Q": qf.Q.tolist(), "l": qf.l.tolist(), "r": qf.r},
           "hypothesis": {"wasserstein": {"epsilon": 0.5}}}
    for i, text in enumerate((_bench_doc(), json.dumps(doc))):
        inst, out = tmp_path / f"in{i}.json", tmp_path / f"out{i}.json"
        inst.write_text(text, encoding="utf-8")
        assert cli.main(["solve", "--instance", str(inst), "--out", str(out)]) == 0
        rec = json.loads(out.read_text(), parse_float=str, parse_int=str)
        res = {r["program"]: r for r in rec["results"]}
        assert list(res) == ["BP", "PP", "UOP", "POP", "SPOP"]
        for r in res.values():
            assert r["Sigma"] == r["projection"], r["program"]
        assert res["UOP"]["projection"] == res["BP"]["projection"]


def test_solve_bp_golden(tmp_path):
    inst = _bench_instance(tmp_path)
    out = tmp_path / "solve.json"
    rc = cli.main(["solve", "--instance", inst, "--program", "bp", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    coeff = doc["coefficients"]
    assert np.allclose(coeff["D"], BENCH3_D, atol=1e-9)
    assert np.allclose(coeff["E"], BENCH3_E, atol=1e-9)
    assert coeff["lambda_bar"] == pytest.approx(4.0, abs=1e-12)
    assert coeff["f"] == pytest.approx(0.0, abs=1e-12)
    assert coeff["c"] == pytest.approx(210.0, abs=1e-9)
    (res,) = doc["results"]
    assert res["program"].lower() == "bp"
    assert res["value"] == pytest.approx(167.0, abs=1e-9)
    assert res["rank"] == 3
    assert np.allclose(res["Sigma"], np.eye(3), atol=1e-9)
    thr = doc["pessimistic_noinfo_threshold"]
    assert thr["raw_inequality_solution_s"] == pytest.approx(
        43.0**2 / np.linalg.eigvalsh(BENCH3_E).min(), rel=1e-9
    )
    assert thr["reading_eps_equals_sqrt_s"] == pytest.approx(
        np.sqrt(thr["raw_inequality_solution_s"]), rel=1e-12
    )


def test_solve_all_equal_at_zero_radius(tmp_path):
    inst = _bench_instance(tmp_path, eps=0.0, name="zero.json")
    out = tmp_path / "all.json"
    rc = cli.main(["solve", "--instance", inst, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    values = [r["value"] for r in doc["results"]]
    assert len(values) == 5
    assert all(v == pytest.approx(167.0, abs=1e-9) for v in values)


def test_solve_pp_rho_self_consistency(tmp_path):
    inst = _bench_instance(tmp_path)
    vals = {}
    for rho in (1e-3, 1e-5):
        out = tmp_path / f"pp_{rho}.json"
        rc = cli.main(
            ["solve", "--instance", inst, "--program", "pp",
             "--rho", str(rho), "--out", str(out)]
        )
        assert rc == 0
        vals[rho] = json.loads(out.read_text())["results"][0]["value"]
    assert abs(vals[1e-3] - vals[1e-5]) <= 1e-3


def test_solve_output_is_byte_identical(tmp_path):
    inst = _bench_instance(tmp_path)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["solve", "--instance", inst, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"\r" not in outs[0]  # LF only


@pytest.mark.parametrize(
    "kind", ["matrix", "wasserstein", "costly_update", "mismatched_prior", "affine_distortion"]
)
def test_solve_raw_game_under_each_hypothesis(tmp_path, kind):
    # a raw game reduced by decompose_nonneg, under each hypothesis kind of the
    # file format: the written coefficients are derive_coefficients' on the
    # hypothesis the library builder makes from the same parameters
    rng = np.random.default_rng(21)
    a, w = rng.normal(size=(6, 6)), rng.normal(size=6)
    game = instance.RawGame(n=3, k=3, M=a.T @ a, p=2.0 * a.T @ w, q=float(w @ w),
                            B=rng.normal(size=(3, 3)), b=rng.normal(size=3))
    c = rng.normal(size=(3, 3))
    r21 = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    r = np.block([[np.eye(3), r21.T], [r21, r21 @ r21.T + np.eye(3)]])
    params, hyp = {
        "matrix": (c.tolist(), instance.EllipsoidalHypothesis(C=c)),
        "wasserstein": ({"epsilon": 0.7}, instance.hypothesis_wasserstein(0.7, 3)),
        "costly_update": ({"R": r.tolist(), "epsilon": 0.5},
                          instance.hypothesis_costly_update(r, 3, 0.5)),
        "mismatched_prior": ({"epsilon": 0.3, "trace_sigma_bound": 2.0},
                             instance.hypothesis_mismatched_prior(0.3, 3, 2.0)),
        "affine_distortion": ({"chi": 0.25, "epsilon": 1.2},
                              instance.hypothesis_affine_distortion(0.25, 1.2, 3)),
    }[kind]
    raw = {"k": 3, "M": game.M.tolist(), "p": game.p.tolist(), "q": game.q,
           "B": game.B.tolist(), "b": game.b.tolist()}
    path, out = tmp_path / "raw.json", tmp_path / "out.json"
    path.write_text(json.dumps({"schema_version": "1", "n": 3, "raw": raw,
                                "hypothesis": {kind: params}}), encoding="utf-8")
    assert cli.main(["solve", "--instance", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = instance.derive_coefficients(instance.decompose_nonneg(game), hyp)
    for key in ("D", "E", "f", "c", "lambda_bar", "lambda_bar_2", "t_bar"):
        x = np.asarray(getattr(want, key))
        np.testing.assert_allclose(doc["coefficients"][key], x, rtol=1e-12,
                                   atol=1e-12 * (1.0 + np.abs(x).max()), err_msg=key)
    assert len(doc["results"]) == 5


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def test_solve_derives_and_decomposes_d_once(tmp_path, monkeypatch):
    # the instance is derived once, at its unit hypothesis; the programs, the
    # default rho and the no-information threshold all read that system's
    # record, whose one eigendecomposition of D gives its spectrum and the
    # BP projection
    inst_path = _bench_instance(tmp_path)
    d = instance.derive_coefficients(bench3_form(), bench3_hypothesis(1.0)).D
    derive = [0]
    splits = [0]
    derive_orig = instance.derive_coefficients

    def counting_derive(*args, **kwargs):
        derive[0] += 1
        return derive_orig(*args, **kwargs)

    monkeypatch.setattr(instance, "derive_coefficients", counting_derive)
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _orig=getattr(np.linalg, name), **kwargs):
            splits[0] += np.array_equal(a, d)
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rc = cli.main(["solve", "--instance", inst_path, "--out", str(tmp_path / "all.json")])
    assert rc == 0
    assert (derive[0], splits[0]) == (1, 1)


def test_solve_matches_one_step_sweep(tmp_path):
    # solve at eps = 0.3 runs on the unit system scaled by 0.3, the same
    # arithmetic as the sweep row at 0.3, so the shared columns agree exactly
    inst_path = _bench_instance(tmp_path, eps=0.3)
    out_json = tmp_path / "solve.json"
    out_csv = tmp_path / "sweep.csv"
    assert cli.main(["solve", "--instance", inst_path, "--rho", "1e-4",
                     "--out", str(out_json)]) == 0
    assert cli.main(["sweep", "--instance", inst_path, "--eps-lo", "0.3", "--steps", "1",
                     "--rho", "1e-4", "--out", str(out_csv)]) == 0
    res = {r["program"]: r for r in json.loads(out_json.read_text())["results"]}
    header, line = out_csv.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert float(row["epsilon"]) == 0.3
    assert res["UOP"]["value"] == float(row["val_uop"])
    assert res["PP"]["value"] == float(row["val_pp"])
    assert res["PP"]["rank"] == int(row["rank_pp"])


def test_dump_json_matrix_text():
    # a matrix is written a row per line with 17 significant digits; signed
    # zeros and tiny values keep their text, and nan and +-inf are quoted
    # (JSON has no literal for them) in a row that also holds finite values
    a = np.array([[0.0, -0.0, 1e-300], [np.nan, 0.1, -np.inf], [np.inf, -2.5e17, 1e300]])
    assert cli._dump_json({"m": a}) == (
        '{\n'
        '  "m": [\n'
        '    [0, -0, 1e-300],\n'
        '    ["nan", 0.10000000000000001, "-inf"],\n'
        '    ["inf", -2.5e+17, 1.0000000000000001e+300]\n'
        '  ]\n'
        '}'
    )


def test_dump_json_shared_array_text():
    # a record holding one array twice (as BP and UOP share their Sigma and
    # projection) writes exactly the text of a record holding two equal copies
    a = np.array([[0.25, -0.0, 1e-300], [np.nan, 1.0 / 3.0, -np.inf]])
    shared = {"x": a, "ys": [{"y": a}, {"y": a}], "z": {"w": a}}
    copies = {"x": a.copy(), "ys": [{"y": a.copy()}, {"y": a.copy()}], "z": {"w": a.copy()}}
    assert cli._dump_json(shared) == cli._dump_json(copies)


def test_dump_json_memo_text():
    # the writer formats an array once per indent: an array written at two
    # indents, and the 2-D slices of 3-D arrays (views that live only while
    # their array is written), write exactly the text of equal copies
    a = np.array([[0.25, -0.0, 1e-300], [np.nan, 1.0 / 3.0, -np.inf]])
    cubes = {"c": np.stack([a, 2.0 * a]), "d": np.stack([3.0 * a, 4.0 * a])}
    shared = {"x": a, "y": {"z": a}, "w": a, **cubes}
    copies = {"x": a.copy(), "y": {"z": a.copy()}, "w": a.copy(),
              **{k: [m.copy() for m in c] for k, c in cubes.items()}}
    assert cli._dump_json(shared) == cli._dump_json(copies)
    assert cli._dump_json(a, 2) == cli._dump_json(a.copy(), 2) != cli._dump_json(a)


def _reference_text(a: np.ndarray, indent: int) -> str:
    """The writer's text of array ``a`` at ``indent``, built entry by entry
    from ``_scalar``: a row of the last axis per line."""
    pad = "  " * indent
    if a.ndim == 1:
        return "[" + ", ".join(cli._scalar(float(v)) for v in a) + "]"
    if len(a) == 0:
        return "[]"
    rows = [pad + "  " + _reference_text(r, indent + 1) for r in a]
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]"


@pytest.mark.parametrize("indent", [0, 1, 2, 3])
def test_dump_json_array_text_matches_scalar_reference(indent):
    # the one-pass writer of an array writes the text that _scalar gives
    # entry by entry: seeded matrices over 60 decades; the values where
    # '%.17g' switches to exponent form, alone (one format for the whole
    # array) and with nan and +-inf, or +-inf alone (quoted); empty, one-row,
    # one-column and 3-D shapes
    rng = np.random.default_rng(23)
    edges = [0.0, -0.0, 5e-324, 1e-300, 1e16, 1e17, -2.5e17, 1.0 / 3.0]
    arrays = [
        rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-30, 30, size=(4, 4)),
        rng.normal(size=(3, 5)),
        np.array(edges).reshape(2, 4),
        np.array(edges + [np.nan, np.inf, -np.inf, 1.0]).reshape(3, 4),
        np.empty((0, 0)), np.empty((0, 3)), np.array([[-0.0]]),
        rng.normal(size=(1, 6)), rng.normal(size=(6, 1)),
        rng.normal(size=(2, 3, 4)), np.stack([np.array(edges).reshape(2, 4)] * 3),
        np.array([[[np.inf, 1e17]], [[-np.inf, -0.0]]]),
    ]
    for a in arrays:
        assert cli._dump_json(a, indent) == _reference_text(a, indent), a.shape


def test_sweep_header_and_single_step(tmp_path):
    inst = _bench_instance(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["sweep", "--instance", inst, "--eps-lo", "0.5", "--steps", "1",
         "--rho", "1e-4", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epsilon,val_uop,val_pop,val_spop,val_pp,val_2uop,rank_pp"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.5
    uop, pop, spop, pp, two_uop = map(float, cells[1:6])
    assert uop <= pop + 1e-12 <= spop + 2e-12 <= pp + 3e-12
    assert two_uop == pytest.approx(2.0 * uop, rel=1e-12)
    assert cells[6] in {"0", "1", "2", "3"}


def test_sweep_mc_columns_and_determinism(tmp_path):
    inst = _bench_instance(tmp_path)
    outs = []
    for name in ("m1.csv", "m2.csv"):
        out = tmp_path / name
        rc = cli.main(
            ["sweep", "--instance", inst, "--eps-lo", "0.3", "--eps-hi", "0.9",
             "--steps", "2", "--rho", "1e-3", "--mc-samples", "2000",
             "--mc-seed", "7", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header.endswith(",mc_true_mean,mc_true_stderr")


def test_sweep_mc_cells_are_the_estimate_at_pp_projection(tmp_path):
    # each Monte-Carlo cell is the evaluator's estimate at the projection at
    # which the sweep's row scores PP, character for character.  On this
    # grid the pass finds, at two scales, a projection other than the one a
    # standalone solve returns (the other columns' refinements add points),
    # so the cells must read the sweep's own projection
    inst = _bench_instance(tmp_path)
    out = tmp_path / "mc.csv"
    assert cli.main(["sweep", "--instance", inst, "--eps-lo", "1.4", "--eps-hi", "1.5",
                     "--steps", "8", "--rho", "1e-4", "--mc-samples", "500",
                     "--mc-seed", "3", "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    qf, c0 = bench3_form(), bench3_hypothesis(1.0).C
    prior = instance.PriorSpec("gaussian", 3)
    dc0 = instance.derive_coefficients(qf, bench3_hypothesis(1.0))
    rows = programs.sweep(dc0, instance.prior_stats(prior), np.linspace(1.4, 1.5, 8), 1e-4)
    assert len(lines) == len(rows) == 8
    differs = 0
    for line, r in zip(lines, rows):
        row = dict(zip(header.split(","), line.split(",")))
        assert float(row["epsilon"]) == r.epsilon
        est = evaluator.mc_true_cost(
            qf, r.epsilon * c0, prior, r.projection_pp, n_samples=500, seed=3,
        )
        assert (row["mc_true_mean"], row["mc_true_stderr"]) == (
            cli._fmt(est.mean), cli._fmt(est.stderr))
        fresh = instance.derive_coefficients(qf, bench3_hypothesis(1.0)).scaled(r.epsilon)
        differs += not np.array_equal(programs.solve_pp(fresh, 1e-4).projection,
                                      r.projection_pp)
    assert differs >= 1


@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_command_repeats_byte_identical(tmp_path, command):
    # every cache a command fills (oracle values, probes, thresholding
    # splits, seed grids) lives on the records of that command's instance, so
    # a second run in the same process writes the same bytes
    inst = _bench_instance(tmp_path)
    if command == "sweep":
        args = ["sweep", "--instance", inst, "--eps-lo", "0", "--eps-hi", "2.5",
                "--steps", "20"]
    else:
        args = ["solve", "--instance", inst, "--program", "all"]
    outs = []
    for name in ("a.out", "b.out"):
        out = tmp_path / name
        assert cli.main([*args, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --------------------------------------------------------------------------
# example
# --------------------------------------------------------------------------


def test_example_oned_thresholds_and_table(tmp_path, capsys):
    out = tmp_path / "oned.csv"
    rc = cli.main(
        ["example", "--which", "oned", "--k", "2", "--steps", "5",
         "--eps-hi", "4", "--out", str(out)]
    )
    assert rc == 0
    msg = capsys.readouterr().out
    assert "eps_minus=1.5" in msg
    assert "eps_star=1.8799" in msg
    assert "eps_plus=5.3561" in msg
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,abp_ni,abp_fi,pp_ni,pp_fi,pop_ni,pop_fi"
    assert len(lines) == 6
    row0 = list(map(float, lines[1].split(",")))
    # at eps = 0 every variant collapses to the same NI/FI pair (4 and 1)
    assert row0 == pytest.approx([0.0, 4.0, 1.0, 4.0, 1.0, 4.0, 1.0], abs=1e-12)


def test_example_opening_n1_matches_oned(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["--k", "2", "--steps", "7", "--eps-hi", "3"]
    assert cli.main(["example", "--which", "oned", *args, "--out", str(a)]) == 0
    assert cli.main(
        ["example", "--which", "opening", "--n", "1", *args, "--out", str(b)]
    ) == 0
    capsys.readouterr()
    rows_a = a.read_text().splitlines()
    rows_b = b.read_text().splitlines()
    assert rows_a[0] == rows_b[0]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        va = list(map(float, ra.split(",")))
        vb = list(map(float, rb.split(",")))
        assert va == pytest.approx(vb, abs=1e-12)


def test_example_oned_is_opening_at_n1(tmp_path, capsys):
    # one implementation: the scalar table and thresholds are the tracking
    # example's at n = 1, byte for byte
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for k in ("0.6", "2", "3.7", "10"):
        args = ["--k", k, "--steps", "61", "--eps-hi", "6"]
        assert cli.main(["example", "--which", "oned", *args, "--out", str(a)]) == 0
        out_a = capsys.readouterr().out
        assert cli.main(
            ["example", "--which", "opening", "--n", "1", *args, "--out", str(b)]
        ) == 0
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert out_b.splitlines()[0] == out_a.strip()


def test_example_opening_writes_radius_scan(tmp_path, capsys):
    out = tmp_path / "opening.csv"
    rc = cli.main(
        ["example", "--which", "opening", "--k", "2", "--n", "3",
         "--eps-lo", "10", "--eps-hi", "10", "--steps", "1", "--out", str(out)]
    )
    assert rc == 0
    msg = capsys.readouterr().out
    assert "eps_plus_over_eps_minus=" in msg
    scan = tmp_path / "opening_radius.csv"
    assert scan.exists()
    lines = scan.read_text().splitlines()
    assert lines[0] == "R,cost"
    costs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(costs) == 40
    # witness of linear-policy suboptimality: strictly below k^2 n + eps^2
    assert min(costs) < 112.0


def test_example_out_of_regime_exit_code(capsys):
    rc = cli.main(["example", "--which", "oned", "--k", "0.5"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--which", "oned", "--k", "nan"],
        ["--which", "opening", "--k", "inf", "--n", "3"],
        ["--which", "oned", "--eps-hi", "nan"],
        ["--which", "opening", "--eps-lo=-inf"],
        ["--which", "opening", "--k", "1e308", "--n", "3"],  # (k-1)^2 is inf
        ["--which", "oned", "--eps-hi", "1e200"],  # overflows eps**2
        ["--which", "opening", "--n", "0"],
        ["--which", "opening", "--steps", "0"],
    ],
)
def test_example_bad_input_exit_code(tmp_path, capsys, args):
    out = tmp_path / "ex.csv"
    rc = cli.main(["example", *args, "--out", str(out)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# error handling
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        json.dumps({"schema_version": "2", "n": 3}),
        json.dumps({"schema_version": "1"}),
        json.dumps({"schema_version": "1", "n": 3, "hypothesis": {"matrix": [[1]]}}),
        json.dumps(
            {
                "schema_version": "1",
                "n": 3,
                "reduced": {"Q": [[1.0]]},
                "raw": {"k": 1, "M": [[1.0]], "B": [[1.0]]},
                "hypothesis": {"matrix": [[1.0]]},
            }
        ),
        json.dumps(
            {
                "schema_version": "1",
                "n": 3,
                "reduced": {"Q": BENCH3_Q.tolist()},
                "hypothesis": {"unknown_kind": 1.0},
            }
        ),
        # a field of the wrong JSON type, each in an otherwise valid bench3 file
        _bench_doc(reduced={"Q": BENCH3_Q.tolist(), "r": "abc"}),
        _bench_doc(reduced={"Q": BENCH3_Q.tolist(), "r": [1]}),
        _bench_doc(hypothesis={"scaled_identity": "x"}),
        _bench_doc(hypothesis={"wasserstein": 0.5}),
        _bench_doc(prior={"family": "gaussian", "n": "x"}),
        _bench_doc(prior=["family", "gaussian"]),
        _bench_doc(reduced="Q"),
        _bench_doc(hypothesis={"mismatched_prior": {"epsilon": 0.5, "trace_sigma_bound": "x"}}),
        # read as n = 1, this one-dimensional instance would solve
        json.dumps({"schema_version": "1", "n": True,
                    "reduced": {"Q": [[4.0, -2.0], [-2.0, 1.0]]},
                    "hypothesis": {"scaled_identity": 1.0}}),
        # a huge integral n or k: Q's or M's shape is checked against it
        # before a default sized from it (l, p, b) is built
        _bench_doc(n=1e300, reduced={"Q": BENCH3_Q.tolist()}),
        json.dumps({"schema_version": "1", "n": 1e300,
                    "raw": {"k": 3, "M": np.eye(6).tolist(), "B": np.eye(3).tolist()},
                    "hypothesis": {"scaled_identity": 1.0}}),
        json.dumps({"schema_version": "1", "n": 3,
                    "raw": {"k": 1e300, "M": np.eye(6).tolist(), "B": np.eye(3).tolist()},
                    "hypothesis": {"scaled_identity": 1.0}}),
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    rc = cli.main(["solve", "--instance", str(path), "--program", "bp"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_nan_scale_or_rho_exits_2(tmp_path, capsys):
    inst = _bench_instance(tmp_path)
    # at eps = 3, SPOP's optimum lies in the linear part of its penalty, and
    # BP and UOP never run a penalized search: rho is checked before any
    # program runs
    inst3 = _bench_instance(tmp_path, eps=3.0, name="bench3.json")
    for argv in (
        ["sweep", "--instance", inst, "--eps-hi", "nan", "--steps", "3",
         "--out", str(tmp_path / "sweep.csv")],
        ["solve", "--instance", inst, "--program", "pp", "--rho", "nan",
         "--out", str(tmp_path / "pp.json")],
        ["solve", "--instance", inst3, "--program", "bp", "--rho", "nan",
         "--out", str(tmp_path / "bp.json")],
        ["solve", "--instance", inst3, "--program", "spop", "--rho", "nan",
         "--out", str(tmp_path / "spop.json")],
        ["solve", "--instance", inst3, "--program", "uop", "--rho", "-1",
         "--out", str(tmp_path / "uop.json")],
        ["sweep", "--instance", inst, "--rho", "0", "--steps", "3",
         "--out", str(tmp_path / "sweep0.csv")],
    ):
        rc = cli.main(argv)
        assert rc == 2, argv
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--mc-samples", "0"],
        ["--mc-samples", "-5"],
        ["--mc-samples", "10", "--mc-seed", "-1"],
        ["--mc-samples", "10", "--mc-seed", str(2**64)],
        ["--eps-hi", "nan"],
        ["--eps-hi", "-1"],
        # eps^2 * E overflows: the scaled coefficients are refused
        ["--eps-hi", "1e200"],
    ],
)
def test_bad_sweep_input_solves_no_row(tmp_path, capsys, monkeypatch, args):
    inst = _bench_instance(tmp_path)
    rows = [0]
    search = programs._minimize_penalized

    def counting(*a, **kw):
        rows[0] += 1
        return search(*a, **kw)

    monkeypatch.setattr(programs, "_minimize_penalized", counting)
    rc = cli.main(["sweep", "--instance", inst, "--steps", "3", *args,
                   "--out", str(tmp_path / "sweep.csv")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    assert rows[0] == 0


@pytest.mark.parametrize("hyp", [{"scaled_identity": 1e200}, {"matrix": [[1e200]]}])
def test_overflowing_scale_exits_2(tmp_path, capsys, hyp):
    # on the n = 1 game Q = [[4, -2], [-2, 1]], E = 4*C^2 overflows at
    # C = 1e200: the coefficients are refused, not solved to nan values
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema_version": "1", "n": 1, "hypothesis": hyp,
                                "reduced": {"Q": [[4.0, -2.0], [-2.0, 1.0]]}}))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["solve", "--instance", str(path), "--out", str(out)])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    rc = cli.main(["solve", "--instance", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    inst = _bench_instance(tmp_path)

    def boom(dc):
        raise NumericalFailure("synthetic failure")

    monkeypatch.setattr(cli.programs, "solve_bp", boom)
    rc = cli.main(["solve", "--instance", inst, "--program", "bp"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_oracle_step_budget_fails_typed(monkeypatch):
    # an oracle call that spends its probe budget before a gap of the tree
    # around t certifies fails the duality-gap check: OracleDiverged
    monkeypatch.setattr(programs, "_MAX_PROBES", 1)
    rng = np.random.default_rng(0)
    d, e = random_sym(rng, 6), random_psd(rng, 6)
    with pytest.raises(OracleDiverged, match="duality gap"):
        programs.h_eq(d, e, 0.1 * float(np.trace(e)))


def test_search_evaluation_budget_fails_typed(tmp_path, capsys, monkeypatch):
    # a penalized search that needs an evaluation past its budget raises
    # NumericalFailure, and the CLI exits 3
    monkeypatch.setattr(programs, "_MAX_EVALS", 0)
    dc = instance.derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    with pytest.raises(NumericalFailure, match="evaluation budget"):
        programs.solve_pp(dc)
    rc = cli.main(["solve", "--instance", _bench_instance(tmp_path), "--program", "pp",
                   "--out", str(tmp_path / "pp.json")])
    assert rc == 3
    assert "evaluation budget" in capsys.readouterr().err


# --------------------------------------------------------------------------
# the parser, built once per process
# --------------------------------------------------------------------------


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    inst = _bench_instance(tmp_path)
    for program in ("bp", "uop", "bp"):
        assert cli.main(["solve", "--instance", inst, "--program", program,
                         "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_reused_parser_keeps_no_options(tmp_path, monkeypatch):
    # the options of one call do not carry over to the next: a plain sweep
    # after a 3-step sweep at rho 1e-3 solves 200 steps at the default rho
    seen = []
    sweep = programs.sweep
    monkeypatch.setattr(programs, "sweep", lambda dc, ps, grid, rho:
                        seen.append((len(grid), rho)) or sweep(dc, ps, grid, rho))
    inst, out = _bench_instance(tmp_path), tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--instance", inst, "--steps", "3", "--rho", "1e-3"]) == 0
    assert cli.main(["sweep", "--instance", inst, "--out", str(out)]) == 0
    dc = instance.derive_coefficients(bench3_form(), bench3_hypothesis(1.0))
    assert seen == [(3, 1e-3), (200, programs.default_rho(dc))]
    assert len(out.read_text().splitlines()) == 201


def test_parser_error_leaves_the_next_call_unchanged(tmp_path):
    # an argparse error (exit 2) between two calls: the call after it writes
    # what the call before it wrote, every program at the default rho
    inst = _bench_instance(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["solve", "--instance", inst, "--out", str(a)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--program", "pp", "--rho", "1e-3"])
    assert exc.value.code == 2
    assert cli.main(["solve", "--instance", inst, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(json.loads(b.read_text())["results"]) == 5


# --------------------------------------------------------------------------
# subprocess entry point
# --------------------------------------------------------------------------


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "lqpersuasion", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout
    assert "sweep" in proc.stdout
    assert "example" in proc.stdout


def test_module_entry_point_solve_stdout(tmp_path):
    inst = _bench_instance(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "lqpersuasion", "solve",
         "--instance", inst, "--program", "bp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"][0]["value"] == pytest.approx(167.0, abs=1e-9)


def test_in_process_output_equals_module_entry_point(tmp_path):
    # each command writes the same bytes through cli.main, with its parser
    # reused, as through python -m lqpersuasion in a fresh interpreter
    inst = _bench_instance(tmp_path)
    commands = {
        "solve.json": ["solve", "--instance", inst],
        "sweep.csv": ["sweep", "--instance", inst, "--steps", "20", "--mc-samples", "200"],
        "opening.csv": ["example", "--which", "opening", "--k", "2", "--n", "3"],
    }
    for name, argv in commands.items():
        out, ref = tmp_path / f"in-{name}", tmp_path / f"module-{name}"
        assert cli.main([*argv, "--out", str(out)]) == 0
        proc = subprocess.run([sys.executable, "-m", "lqpersuasion", *argv, "--out", str(ref)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == ref.read_bytes(), name
    assert ((tmp_path / "in-opening_radius.csv").read_bytes()
            == (tmp_path / "module-opening_radius.csv").read_bytes())


def test_runs_without_scipy(tmp_path):
    # the library needs numpy alone: with scipy unimportable, the package
    # imports, solves every program on bench3 and writes the opening example
    inst = _bench_instance(tmp_path)
    solved, opening = tmp_path / "solve.json", tmp_path / "opening.csv"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lqpersuasion import cli\n"
        f"sys.exit(cli.main(['solve', '--instance', {inst!r}, '--program', 'all',\n"
        f"                   '--out', {str(solved)!r}])\n"
        "         or cli.main(['example', '--which', 'opening', '--k', '2', '--n', '3',\n"
        f"                      '--out', {str(opening)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(solved.read_text())["results"]) == 5
    assert (tmp_path / "opening_radius.csv").is_file()


def test_sweep_imports_no_lazy_modules(tmp_path):
    # numpy.ma (which np.unique imports on its first call) and scipy load in
    # tens of milliseconds: a bench3 sweep in a fresh interpreter loads
    # neither
    inst = _bench_instance(tmp_path)
    code = (
        "import sys\n"
        "from lqpersuasion import cli\n"
        f"assert cli.main(['sweep', '--instance', {inst!r}, '--steps', '200', '--rho', '1e-4',\n"
        f"                 '--out', {str(tmp_path / 'sweep.csv')!r}]) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'scipy') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

import json
import subprocess
import sys

import numpy as np
import pytest

from lqpersuasion import cli
from lqpersuasion.demo import BENCH3_D, BENCH3_E, BENCH3_Q
from lqpersuasion.errors import NumericalFailure


def _bench_instance(tmp_path, eps=1.0, name="bench.json"):
    doc = {
        "schema_version": "1",
        "n": 3,
        "reduced": {"Q": BENCH3_Q.tolist(), "l": [0.0] * 6, "r": 0.0},
        "hypothesis": {"scaled_identity": eps},
        "prior": {"family": "gaussian", "n": 3},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


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
    for argv in (
        ["sweep", "--instance", inst, "--eps-hi", "nan", "--steps", "3",
         "--out", str(tmp_path / "sweep.csv")],
        ["solve", "--instance", inst, "--program", "pp", "--rho", "nan",
         "--out", str(tmp_path / "pp.json")],
    ):
        rc = cli.main(argv)
        assert rc == 2, argv
        assert "input error" in capsys.readouterr().err


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

"""File formats and the command-line surface, including exit codes."""

import json

import numpy as np
import pytest

import csv_oracle
from rejectsvm import model_io, sim
from rejectsvm.cli import main, parse_dict_spec
from rejectsvm.dictionary import (
    build_constant_linear,
    build_linear,
    build_rbf_lattice,
    estimated_c_f,
    evaluate as dic_eval,
)
from rejectsvm.evaluate import predict
from rejectsvm.losses import CostParams
from rejectsvm.lp import LpNumericalError
from rejectsvm.model_io import (
    DataError,
    load_data,
    load_distribution,
    load_model,
    save_model,
    write_reports_csv,
    write_rows_csv,
)
from rejectsvm.theory import CheckReport
from rejectsvm.train import cross_validate, default_r_grid, fit

TRAIN_CSV = """x1,x2,y
1.0,0.2,1
0.8,-0.1,1
1.2,0.4,1
-0.9,0.1,-1
-1.1,-0.3,-1
-0.7,0.2,-1
"""

DIST_CSV = """p,eta,x1,x2
0.3333333333333333,0.1,-1.0,0.0
0.3333333333333333,0.5,0.0,1.0
0.3333333333333334,0.9,1.0,0.0
"""


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text(TRAIN_CSV)
    return str(path)


def test_data_loader_roundtrip(tmp_path, data_file):
    x, y = load_data(data_file)
    assert x.shape == (6, 2)
    assert np.array_equal(y, [1, 1, 1, -1, -1, -1])
    # y column may sit anywhere; remaining columns keep file order
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("y,x2,x1\n1,0.2,1.0\n-1,0.1,-0.9\n")
    x2, y2 = load_data(str(shuffled))
    assert np.array_equal(x2, [[0.2, 1.0], [0.1, -0.9]])
    assert np.array_equal(y2, [1, -1])


def test_data_loader_rejects_bad_files(tmp_path):
    cases = {
        "empty.csv": "",
        "headeronly.csv": "x1,y\n",
        "ragged.csv": "x1,x2,y\n1.0,2.0,1\n1.0,1\n",
        "missing.csv": "x1,y\n1.0,1\n,1\n",
        "badlabel.csv": "x1,y\n1.0,2\n",
        "nonnumeric.csv": "x1,y\nabc,1\n",
        "onlyy.csv": "y\n1\n",
        "nan.csv": "x1,y\nnan,1\n",
        "inf.csv": "x1,y\n1.0,1\n-inf,-1\n",
        "overflow.csv": "x1,y\n1e400,1\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DataError):
            load_data(str(path))
    # messages name the file line and the column, blank lines included
    for text, where in (("x0,y\n1,1\n\n\nabc,-1\n", "line 5, column x0"),
                        ("x0,x1,y\n1,1,1\n\n2,inf,-1\n", "line 4, column x1"),
                        ("x0,y\n1,1\n\n2,3\n", "line 4: label")):
        path = tmp_path / "where.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=where):
            load_data(str(path))
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("x1,x2\n1.0,2.0\n")
    x, y = load_data(str(unlabeled))
    assert y is None
    with pytest.raises(DataError):
        load_data(str(unlabeled), require_y=True)


@pytest.mark.parametrize("text, message", [
    # numpy parses this row, at width 3
    ("x0,y\n1,1,1\n", "line 2: expected 2 fields, got 3"),
    ("x0\n1\n \n2\n", "missing value at line 3, column x0"),
    ("x0,y\nnan,1\n", "non-finite value 'nan' at line 2, column x0"),
    ("x0,y\n1,1\ninfinity,-1\n",
     "non-finite value 'infinity' at line 3, column x0"),
    ("x0,y\r\n1,1\r\n\r\n\r\n2,3\r\n", "line 5: label 3.0 is not -1 or +1"),
])
def test_data_loader_messages_are_word_for_word(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    with pytest.raises(DataError) as exc:
        load_data(str(path))
    assert str(exc.value) == message


def test_well_formed_data_is_read_once_by_numpy(tmp_path, data_file,
                                                monkeypatch):
    read_table, read_by_cells = model_io._read_table, []

    def counted(path):
        read_by_cells.append(path)
        return read_table(path)

    monkeypatch.setattr(model_io, "_read_table", counted)
    x, y = load_data(data_file)
    assert x.shape == (6, 2) and read_by_cells == []
    # only a bad label has the file read again, for its line number
    bad = tmp_path / "label.csv"
    bad.write_text("x0,y\n1,1\n2,0\n")
    with pytest.raises(DataError, match="line 3: label 0.0"):
        load_data(str(bad))
    assert read_by_cells == [str(bad)]


_ODD_CELLS = ("1_000", "\u0661", "1e-320", "-0", "nan", "inf", "-Infinity",
              "1e400", "", " ", "0x10", '"1,5"', "abc")


def _fuzz_cell(rng):
    if rng.random() < 0.04:
        return str(rng.choice(_ODD_CELLS))
    value = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-310, 308))
    token = str(rng.choice([repr(value), "%.17g" % value, "%.25e" % value,
                            "%.3f" % value, str(int(rng.integers(-5, 6)))]))
    if token[0] not in "+-" and rng.random() < 0.1:
        token = str(rng.choice(["+", "-"])) + token
    decor = rng.random()
    if decor < 0.1:
        token = f'"{token}"'
    elif decor < 0.2:
        token = str(rng.choice([" ", "\t", "\xa0", "\x1c"])) + token + " "
    elif decor < 0.22:
        token = "\ufeff" + token
    elif decor < 0.23:
        token = f'"{token}\n"'
    return token


def _fuzz_table(rng):
    width = int(rng.integers(1, 4))
    lines = [",".join(f"x{j}" for j in range(width))]
    if rng.random() < 0.1:
        lines[0] = "\ufeff" + lines[0]
    for _ in range(int(rng.integers(0, 9))):
        if rng.random() < 0.06:
            lines.append(str(rng.choice(["", "", "  "])))
        n = width
        if rng.random() < 0.03:
            n = max(1, width + int(rng.choice([-1, 1])))
        lines.append(",".join(_fuzz_cell(rng) for _ in range(n)))
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def _outcome(read, path):
    try:
        header, table = read(path)
    except DataError as exc:
        return "error", str(exc)
    return "ok", header, table.shape, table.tobytes()


def test_data_reader_fuzz_matches_the_cell_by_cell_oracle(tmp_path):
    """Every table reads to the oracle's bits or fails with its message."""
    rng = np.random.default_rng(2021)
    path = str(tmp_path / "fuzz.csv")
    kinds = []
    for _ in range(1500):
        text = _fuzz_table(rng)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = _outcome(csv_oracle.read_floats, path)
        assert _outcome(model_io._read_floats, path) == want, repr(text)
        kinds.append(want[0])
    # both sides of the fuzz are exercised
    assert 400 < kinds.count("ok") < 1100


def test_distribution_loader(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text(DIST_CSV)
    dist = load_distribution(str(path))
    assert dist.n_atoms == 3 and dist.dim == 2
    assert np.array_equal(dist.eta, [0.1, 0.5, 0.9])
    bad = tmp_path / "bad.csv"
    bad.write_text("p,eta,x1\n0.9,0.5,0.0\n")  # masses do not sum to 1
    with pytest.raises(DataError):
        load_distribution(str(bad))
    nofeat = tmp_path / "nofeat.csv"
    nofeat.write_text("p,eta\n1.0,0.5\n")
    with pytest.raises(DataError):
        load_distribution(str(nofeat))
    nan_eta = tmp_path / "nan_eta.csv"
    nan_eta.write_text("p,eta,x1\n0.5,0.5,0.0\n0.5,nan,1.0\n")
    with pytest.raises(DataError, match="line 3, column eta"):
        load_distribution(str(nan_eta))


def test_model_roundtrip_is_byte_identical(tmp_path, data_file):
    x, y = load_data(data_file)
    dic = build_rbf_lattice((2, 2), x.min(axis=0), x.max(axis=0), beta=1.5)
    model = fit(dic_eval(dic, x, y), CostParams(d=0.25), 0.1, dic=dic)
    first = tmp_path / "model.json"
    second = tmp_path / "model2.json"
    save_model(model, str(first))
    loaded = load_model(str(first))
    save_model(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(loaded.lam, model.lam)
    assert loaded.dic == dic
    assert loaded.cp.a == model.cp.a


def test_model_loader_rejects_corruption(tmp_path, data_file):
    x, y = load_data(data_file)
    dic = build_linear(2)
    model = fit(dic_eval(dic, x, y), CostParams(d=0.25), 0.1, dic=dic)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())

    bad = tmp_path / "bad.json"
    for a in (2.5, float("nan")):  # break the slope identity a = (1 - d) / d
        doc["a"] = a
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"slope a={a} inconsistent "
                                            f"with d=0.25"):
            load_model(str(bad))

    doc["a"] = 3.0
    doc["format_version"] = 99
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(str(bad))

    bad.write_text("not json at all")
    with pytest.raises(DataError):
        load_model(str(bad))

    doc["format_version"] = 1
    for key, value in [("lambda", doc["lambda"][:1]),  # truncated
                       ("lambda", [float("nan")] * 2),
                       ("lambda", 1.0)]:
        bad.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(DataError, match="lambda must hold 2 finite"):
            load_model(str(bad))
    # M must be what the kind implies: dim for linear, here 2
    bad.write_text(json.dumps({**doc, "dictionary": {**doc["dictionary"],
                                                      "M": 3},
                               "lambda": doc["lambda"] + [0.0]}))
    with pytest.raises(DataError, match="dictionary M is 3"):
        load_model(str(bad))
    bad.write_text(json.dumps({**doc, "dictionary": {**doc["dictionary"],
                                                      "M": 2.5}}))
    with pytest.raises(DataError, match="dictionary M is 2.5"):
        load_model(str(bad))
    # dim, n and iterations are JSON integers: no float, bool or infinity
    for edit, message in [
            ({"dictionary": {**doc["dictionary"], "dim": 2.7}}, "dim"),
            ({"dictionary": {**doc["dictionary"], "dim": 2.0}}, "dim"),
            ({"dictionary": {**doc["dictionary"], "dim": True}}, "dim"),
            ({"train_meta": {**doc["train_meta"], "n": 59.9}}, "n"),
            ({"train_meta": {**doc["train_meta"], "n": "60"}}, "n"),
            ({"train_meta": {**doc["train_meta"],
                             "iterations": float("inf")}}, "iterations")]:
        bad.write_text(json.dumps({**doc, **edit}))
        with pytest.raises(DataError, match=f"malformed model file: "
                                            f"{message} must be an integer"):
            load_model(str(bad))
    # an rbf model needs a finite beta > 0, finite (M, dim) centers and
    # integer grid counts
    rbf = build_rbf_lattice((2, 2), x.min(axis=0), x.max(axis=0))
    save_model(fit(dic_eval(rbf, x, y), CostParams(d=0.25), 0.1, dic=rbf),
               str(path))
    rbf_doc = json.loads(path.read_text())
    spec = rbf_doc["dictionary"]
    wide = [row + [0.0] for row in spec["centers"]]
    for edit, message in [({"beta": None}, "rbf beta"),
                          ({"beta": -1.0}, "rbf beta"),
                          ({"beta": float("inf")}, "rbf beta"),
                          ({"centers": wide}, "rbf centers"),
                          ({"centers": [[float("nan")] * 2] * 4},
                           "rbf centers"),
                          ({"grid": [2.0, 2.0]}, "grid count must be an "
                                                 "integer, not 2.0"),
                          ({"grid": [True, 4]}, "grid count must be an "
                                                "integer, not True")]:
        bad.write_text(json.dumps({**rbf_doc,
                                   "dictionary": {**spec, **edit}}))
        with pytest.raises(DataError, match=message):
            load_model(str(bad))
    # M must be the number of centers, here 4
    bad.write_text(json.dumps({**rbf_doc, "dictionary": {**spec, "M": 5},
                               "lambda": rbf_doc["lambda"] + [0.0]}))
    with pytest.raises(DataError, match="dictionary M is 5, but its kind "
                                        "and shape give 4 functions"):
        load_model(str(bad))

    del doc["format_version"]
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(str(bad))


def test_constant_linear_model_roundtrip_and_wrong_m(tmp_path, data_file):
    x, y = load_data(data_file)
    dic = build_constant_linear(2)
    model = fit(dic_eval(dic, x, y), CostParams(d=0.25), 0.1, dic=dic)
    first, second = tmp_path / "model.json", tmp_path / "model2.json"
    save_model(model, str(first))
    loaded = load_model(str(first))
    save_model(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert loaded.dic == dic
    assert loaded.lam.tobytes() == model.lam.tobytes()
    doc = json.loads(first.read_text())
    # M must be dim + 1 for constant_linear, here 3
    for m in (2, 4):
        first.write_text(json.dumps({
            **doc, "dictionary": {**doc["dictionary"], "M": m},
            "lambda": [0.0] * m}))
        with pytest.raises(DataError, match=f"malformed model file: "
                                            f"dictionary M is {m}, but its "
                                            f"kind and shape give 3"):
            load_model(str(first))


def test_model_loader_refuses_c_f_flags_that_do_not_fit_the_kind(tmp_path,
                                                                data_file):
    x, y = load_data(data_file)
    path = tmp_path / "model.json"
    for dic in (build_linear(2),
                build_rbf_lattice((2, 2), x.min(axis=0), x.max(axis=0))):
        save_model(fit(dic_eval(dic, x, y), CostParams(d=0.25), 0.1,
                       dic=dic), str(path))
        doc = json.loads(path.read_text())
        spec = doc["dictionary"]
        flag = spec["C_F_estimated"]
        assert (spec["C_F"], flag, doc["c_f_estimated"]) == \
            (dic.C_F, dic.C_F_estimated, dic.C_F_estimated)
        assert load_model(str(path)).dic.kind == dic.kind
        for edit in [{"dictionary": {**spec, "C_F": 0.5}},
                     {"dictionary": {**spec, "C_F": float("nan")}},
                     {"dictionary": {**spec, "C_F_estimated": not flag}},
                     {"c_f_estimated": not flag}]:
            path.write_text(json.dumps({**doc, **edit}))
            with pytest.raises(DataError, match=f"do not fit a {dic.kind} "
                                                f"dictionary"):
                load_model(str(path))


def test_model_loader_refuses_a_c_f_that_does_not_fit_the_kind(tmp_path,
                                                               data_file):
    x, y = load_data(data_file)
    path = tmp_path / "model.json"
    nan, inf = float("nan"), float("inf")
    for dic, bad_values in [
            (build_linear(2), (nan, -1.0, 0.0, inf)),
            (build_rbf_lattice((2, 2), x.min(axis=0), x.max(axis=0)), (7.0,))]:
        save_model(fit(dic_eval(dic, x, y), CostParams(d=0.25), 0.1,
                       dic=dic), str(path))
        doc = json.loads(path.read_text())
        assert load_model(str(path)).c_f == doc["c_f"]
        for c_f in bad_values:
            path.write_text(json.dumps({**doc, "c_f": c_f}))
            with pytest.raises(DataError, match=f"c_f={c_f!r} does not fit "
                                                f"a {dic.kind} dictionary"):
                load_model(str(path))


def test_model_loader_refuses_a_grid_box_or_unused_field_that_does_not_fit(
        tmp_path, data_file):
    x, y = load_data(data_file)
    path = tmp_path / "model.json"
    for dic, edit, message in [
            (build_rbf_lattice((4, 4), x.min(axis=0), x.max(axis=0)),
             {"grid": [9, 9], "box": [[5.0, 5.0], [-5.0, -5.0]]},
             "degenerate box on axis 0"),
            (build_linear(2), {"beta": -3.0,
                               "centers": [[float("nan")] * 2] * 2},
             "a linear dictionary has no centers or beta")]:
        save_model(fit(dic_eval(dic, x, y), CostParams(d=0.25), 0.1,
                       dic=dic), str(path))
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "dictionary": {
            **doc["dictionary"], **edit}}))
        with pytest.raises(DataError, match=message):
            load_model(str(path))


def test_row_writer_uses_exact_reprs(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(str(path), {"a": [0.1], "b": [3], "c": ["x"]})
    text = path.read_text()
    assert text == "a,b,c\n0.1,3,x\n"
    write_rows_csv(str(path), {"v": [1.0 / 3.0]})
    assert path.read_text() == "v\n0.3333333333333333\n"


def test_result_files_match_the_csv_writer_reference(tmp_path, data_file,
                                                     capsys):
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"

    def same_bytes(rows, columns):
        csv_oracle.write_rows(str(ref), rows, columns)
        return out.read_bytes() == ref.read_bytes()

    model_path = str(tmp_path / "model.json")
    assert main(["train", "--data", data_file, "--r", "0.1", "--out",
                 model_path]) == 0
    score = tmp_path / "score.csv"
    x = np.random.default_rng(3).normal(size=(300, 2))
    score.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n"
                                          for a, b in x.tolist()))
    assert main(["predict", "--model", model_path, "--data", str(score),
                 "--out", str(out)]) == 0
    dec, f = predict(load_model(model_path), x)
    assert same_bytes([{"margin": m, "decision": int(d)}
                       for m, d in zip(f, dec)], ("margin", "decision"))

    for scenario, cfg, study, columns in (
            ("two_gaussian", {"repetitions": 1, "n_test": 200, "n_train": 12,
                              "M": 3, "r_grid": [0.2, 0.5]},
             lambda c: sim.run_reject_vs_plain(c), sim.RESULT_COLUMNS),
            ("mixture", {"n_train": 60, "r_grid": [0.05, 0.2]},
             lambda c: sim.run_mixture_boundaries(c)[0], sim.GRID_COLUMNS)):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--scenario", scenario, "--config",
                     str(cfg_path), "--seed", "4", "--out", str(out)]) == 0
        config = sim.ExperimentConfig(scenario=scenario, seed=4, **{
            **cfg, "r_grid": tuple(cfg["r_grid"])})
        assert same_bytes(study(config), columns), scenario
    capsys.readouterr()

    reports = [CheckReport("prop21", "pass", 0.25,
                           'worst at x=(1.0, 2.0), the "far" atom'),
               CheckReport("plateau", "fail", -1e-300, ""),
               CheckReport("lemma_a1", "skipped", float("nan"),
                           "two\nlines, one\rcarriage return")]
    write_reports_csv(str(out), reports)
    assert same_bytes([{"name": r.name, "status": r.status, "slack": r.slack,
                        "witness": r.witness} for r in reports],
                      ("name", "status", "slack", "witness"))

    # string cells against csv.writer's quoting, beside numeric columns
    # given as arrays or as lists of numpy scalars
    rng = np.random.default_rng(5)
    for width in (1, 1, 2, 3) * 25:
        n = int(rng.integers(0, 5))
        names = [f"c{j}" for j in range(width)]
        columns = {name: ["".join(rng.choice(list(',"\n\r a\t'),
                                             int(rng.integers(0, 4))))
                          for _ in range(n)] for name in names}
        if width > 1:
            columns[names[0]] = rng.choice(
                [0.1, -0.0, 1e-320, np.inf, np.nan, 7.0], n)
            columns[names[-1]] = list(rng.integers(-3, 3, n)) if n % 2 \
                else rng.random(n) < 0.5
        write_rows_csv(str(out), columns)
        rows = [{name: columns[name][i] for name in names} for i in range(n)]
        assert same_bytes(rows, names), columns


def test_dict_spec_parsing():
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert parse_dict_spec("linear", x).kind == "linear"
    assert parse_dict_spec("constant_linear", x).M == 3
    dic = parse_dict_spec("rbf_lattice:3x2,0.7", x)
    assert dic.kind == "rbf_lattice"
    assert dic.grid == (3, 2) and dic.beta == 0.7
    assert parse_dict_spec("rbf_lattice:2x2", x).beta == 2.0
    with pytest.raises(ValueError):
        parse_dict_spec("rbf_lattice:3", x)  # axis count mismatch
    with pytest.raises(ValueError):
        parse_dict_spec("rbf_lattice:axb", x)
    with pytest.raises(ValueError):
        parse_dict_spec("fourier", x)


def test_cli_train_predict_eval_roundtrip(tmp_path, data_file, capsys):
    model_path = str(tmp_path / "model.json")
    code = main(["train", "--data", data_file, "--d", "0.25",
                 "--r", "0.1", "--out", model_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "n=6 M=2" in out and "support=1" in out
    # deterministic re-train writes identical bytes
    again = str(tmp_path / "model_again.json")
    main(["train", "--data", data_file, "--d", "0.25",
          "--r", "0.1", "--out", again])
    capsys.readouterr()
    assert (tmp_path / "model.json").read_bytes() == \
        (tmp_path / "model_again.json").read_bytes()
    model = load_model(model_path)
    assert model.lam[0] == pytest.approx(10.0 / 7.0)
    assert model.support_size() == 1

    pred_path = str(tmp_path / "pred.csv")
    assert main(["predict", "--model", model_path, "--data", data_file,
                 "--out", pred_path]) == 0
    lines = (tmp_path / "pred.csv").read_text().strip().splitlines()
    assert lines[0] == "margin,decision"
    assert len(lines) == 7
    decisions = [int(line.split(",")[1]) for line in lines[1:]]
    assert decisions == [1, 1, 1, -1, -1, -1]

    eval_path = str(tmp_path / "eval.csv")
    assert main(["eval", "--model", model_path, "--data", data_file,
                 "--out", eval_path]) == 0
    out = capsys.readouterr().out
    assert "misclass_rate=0.0" in out and "reject_rate=0.0" in out
    header, row = (tmp_path / "eval.csv").read_text().strip().splitlines()
    rep = dict(zip(header.split(","), [float(v) for v in row.split(",")]))
    assert rep["ell_risk"] == pytest.approx(
        rep["misclass_rate"] + 0.25 * rep["reject_rate"], abs=1e-15)


def test_cli_train_cv_saves_the_fit_at_the_picked_r(tmp_path, data_file,
                                                    capsys):
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--cv", "--data", data_file, "--folds", "2",
                 "--cv-points", "4", "--out", model_path]) == 0
    x, y = load_data(data_file)
    dic = build_linear(2)
    cp = CostParams(d=0.25, tau=0.5)
    design = dic_eval(dic, x, y)
    grid = default_r_grid(cp, estimated_c_f(dic, design), num=4)
    r_star, table = cross_validate(design, cp, grid, folds=2)
    assert (f"cross-validation picked r={r_star!r} over {len(table)} grid "
            f"points") in capsys.readouterr().out
    lam = load_model(model_path).lam
    assert lam.tobytes() == fit(design, cp, r_star).lam.tobytes()


def test_cli_bounds_and_simulate(tmp_path, data_file, capsys):
    model_path = str(tmp_path / "model.json")
    main(["train", "--data", data_file, "--d", "0.25", "--r", "0.1",
          "--out", model_path])
    bounds_path = str(tmp_path / "bounds.csv")
    assert main(["bounds", "--model", model_path, "--data", data_file,
                 "--delta", "0.1", "--out", bounds_path]) == 0
    header = (tmp_path / "bounds.csv").read_text().splitlines()[0]
    assert header.startswith("bound_misclass,bound_reject")
    capsys.readouterr()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"repetitions": 1, "n_test": 200,
                               "n_train": 12, "M": 3,
                               "r_grid": [0.2, 0.5]}))
    sim_path = str(tmp_path / "sim.csv")
    assert main(["simulate", "--scenario", "two_gaussian", "--config",
                 str(cfg), "--out", sim_path]) == 0
    lines = (tmp_path / "sim.csv").read_text().strip().splitlines()
    assert lines[0].startswith("scenario,repetition,r,arm")
    assert len(lines) == 1 + 1 * 2 * 2
    capsys.readouterr()
    # reruns are byte-identical
    sim2 = str(tmp_path / "sim2.csv")
    main(["simulate", "--scenario", "two_gaussian", "--config", str(cfg),
          "--out", sim2])
    capsys.readouterr()
    assert (tmp_path / "sim.csv").read_bytes() == \
        (tmp_path / "sim2.csv").read_bytes()

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("[1, 2]")
    assert main(["simulate", "--scenario", "two_gaussian", "--config",
                 str(bad_cfg), "--out", sim_path]) == 3


@pytest.mark.parametrize("scenario, field, value", [
    ("two_gaussian", "r_grid", 0.1),
    ("two_gaussian", "r_grid", [None]),
    ("two_gaussian", "n_train", 12.0),
    ("two_gaussian", "n_test", 1.5),
    ("two_gaussian", "M", 2.5),
    ("two_gaussian", "repetitions", 1.5),
    ("two_gaussian", "seed", 1.5),
    ("two_gaussian", "repetitions", True),
    ("two_gaussian", "seed", True),
    ("two_gaussian", "r_grid", [True]),
    ("two_gaussian", "d", None),
    ("mixture", "n_train", 60.5),
])
def test_cli_simulate_rejects_malformed_config(tmp_path, capsys, scenario,
                                               field, value):
    cfg = {"repetitions": 1, "n_train": 12, "M": 3, "r_grid": [0.2]}
    cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--scenario", scenario, "--config", str(path),
                 "--out", str(tmp_path / "sim.csv")]) == 2
    assert field in capsys.readouterr().err


def test_cli_diagnose_reports_plateau(tmp_path, capsys):
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text(DIST_CSV)
    report_path = str(tmp_path / "report.csv")
    code = main(["diagnose", "--dist", str(dist_path), "--dict", "linear",
                 "--d", "0.25", "--checks", "all",
                 "--r-grid", "0.05,0.1,0.2,0.4",
                 "--out", report_path])
    assert code == 0
    text = (tmp_path / "report.csv").read_text()
    assert text.splitlines()[0] == "name,status,slack,witness"
    assert "plateau verified" in text
    rows = text.strip().splitlines()[1:]
    assert len(rows) == 4
    assert all(",pass," in row or ",skipped," in row for row in rows)


def test_cli_diagnose_builds_its_default_grid(tmp_path, capsys):
    # without --r-grid the path checks walk 20 points up to a * C_F
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text(DIST_CSV)
    assert main(["diagnose", "--dist", str(dist_path), "--checks", "prop21",
                 "plateau"]) == 0
    shrink, plateau = capsys.readouterr().out.splitlines()
    # a * C_F is 3 here, so the grid steps by 0.15
    assert shrink.startswith("population_path_shrinkage: pass ")
    assert shrink.endswith(" at r=0.15")
    assert plateau.startswith("plateau: pass ")
    assert "verified through r=0.3;" in plateau


@pytest.mark.parametrize("grid", ["0.1,nan", "0.1,inf", "0.1,0"])
def test_cli_diagnose_rejects_a_grid_point_that_is_not_positive(tmp_path,
                                                                capsys, grid):
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text(DIST_CSV)
    assert main(["diagnose", "--dist", str(dist_path), "--dict", "linear",
                 "--checks", "prop21", "--r-grid", grid]) == 2
    assert capsys.readouterr().err == ("usage error: r_grid must be finite, "
                                       "positive and non-empty\n")


def test_cli_diagnose_builds_a_grid_only_for_the_path_checks(tmp_path,
                                                            capsys):
    # every feature is 0, so no sup-norm and no default grid can be had,
    # but the domination check needs neither
    dist_path = tmp_path / "zero.csv"
    dist_path.write_text("p,eta,x1\n0.5,0.2,0.0\n0.5,0.8,0.0\n")
    argv = ["diagnose", "--dist", str(dist_path), "--dict", "linear"]
    assert main(argv + ["--checks", "domination"]) == 0
    assert capsys.readouterr().out.startswith(
        "excess_risk_domination: pass ")
    assert main(argv + ["--checks", "all"]) == 2
    assert capsys.readouterr().err == ("usage error: cannot estimate a "
                                       "positive sup-norm from this data\n")


def test_cli_exit_codes(tmp_path, data_file, monkeypatch, capsys):
    model_path = str(tmp_path / "m.json")
    # parameter out of range -> usage
    assert main(["train", "--data", data_file, "--d", "0.8", "--r", "0.1",
                 "--out", model_path]) == 2
    # unknown dictionary -> usage
    assert main(["train", "--data", data_file, "--dict", "wavelets",
                 "--r", "0.1", "--out", model_path]) == 2
    # unreadable file -> data
    assert main(["train", "--data", str(tmp_path / "nope.csv"),
                 "--r", "0.1", "--out", model_path]) == 3
    # malformed model file -> data
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{}")
    assert main(["predict", "--model", str(bad_model), "--data",
                 data_file]) == 3
    # feature-count mismatch between model and data -> data
    main(["train", "--data", data_file, "--d", "0.25", "--r", "0.1",
          "--out", model_path])
    wide = tmp_path / "wide.csv"
    wide.write_text("x1,x2,x3\n1.0,2.0,3.0\n")
    assert main(["predict", "--model", model_path, "--data",
                 str(wide)]) == 3
    wide_labeled = tmp_path / "wide_labeled.csv"
    wide_labeled.write_text("x1,x2,x3,y\n1.0,2.0,3.0,1\n")
    for cmd in ("eval", "bounds"):
        assert main([cmd, "--model", model_path, "--data",
                     str(wide_labeled)]) == 3
    # lambda or M that does not fit the dictionary, or a dim or iterations
    # that is not an integer -> data
    with open(model_path) as fh:
        doc = json.load(fh)
    for cmd, edit in [("predict", {"lambda": doc["lambda"][:1]}),
                      ("predict", {"lambda": [float("nan")] * 2}),
                      ("bounds", {"dictionary": {**doc["dictionary"],
                                                 "M": 7}}),
                      ("bounds", {"dictionary": {**doc["dictionary"],
                                                 "dim": 2.7}}),
                      ("bounds", {"train_meta": {**doc["train_meta"],
                                                 "iterations": float("inf")}})]:
        bad_model.write_text(json.dumps({**doc, **edit}))
        assert main([cmd, "--model", str(bad_model), "--data",
                     data_file]) == 3
    # rbf beta or centers that do not fit the dictionary -> data
    main(["train", "--data", data_file, "--d", "0.25", "--r", "0.1",
          "--dict", "rbf_lattice:2x2", "--out", model_path])
    with open(model_path) as fh:
        doc = json.load(fh)
    spec = doc["dictionary"]
    for edit in [{"beta": None}, {"beta": -1.0},
                 {"centers": [row + [0.0] for row in spec["centers"]]}]:
        bad_model.write_text(json.dumps({**doc,
                                         "dictionary": {**spec, **edit}}))
        assert main(["predict", "--model", str(bad_model), "--data",
                     data_file]) == 3
    # non-finite cell -> data
    nan_data = tmp_path / "nan.csv"
    nan_data.write_text("x1,x2,y\n1.0,nan,1\n")
    assert main(["train", "--data", str(nan_data), "--d", "0.25",
                 "--r", "0.1", "--out", model_path]) == 3
    # solver failure -> numerical
    import rejectsvm.cli as cli_mod

    def boom(*args, **kwargs):
        raise LpNumericalError("forced failure")

    monkeypatch.setattr(cli_mod.train, "fit", boom)
    assert main(["train", "--data", data_file, "--d", "0.25", "--r", "0.1",
                 "--out", model_path]) == 4
    # bare argparse usage errors exit with 2 as well
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", data_file, "--out", model_path])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_train_refuses_a_beta_that_is_not_finite(tmp_path, data_file,
                                                     capsys):
    model_path = tmp_path / "m.json"
    for beta in ("inf", "nan", "0"):
        assert main(["train", "--data", data_file, "--r", "0.1", "--dict",
                     f"rbf_lattice:3x3,{beta}", "--out",
                     str(model_path)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: rbf beta must be a finite number > 0, "
            f"not {float(beta)!r}\n")
        assert not model_path.exists()


def test_cli_bounds_refuses_a_p_that_is_not_finite_and_positive(
        tmp_path, data_file, capsys):
    model_path = str(tmp_path / "m.json")
    assert main(["train", "--data", data_file, "--r", "0.1", "--out",
                 model_path]) == 0
    out = tmp_path / "bounds.csv"
    for p in ("nan", "inf", "0", "-1"):
        capsys.readouterr()
        assert main(["bounds", "--model", model_path, "--data", data_file,
                     "--p", p, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: p must be a finite number > 0, "
            f"not {float(p)!r}\n")
        assert not out.exists()


def test_cli_train_warns_that_r_0_has_no_penalty(tmp_path, data_file,
                                                capsys):
    assert main(["train", "--data", data_file, "--r", "0", "--out",
                 str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().err == (
        "warning: r=0 trains without a penalty; the solution may be "
        "non-unique\n")


@pytest.mark.parametrize("text, message", [
    ("{not json", "error: config is not valid JSON: "),
    ('{"repetitions": 1, "colour": "red"}', "error: bad config field: "),
])
def test_cli_simulate_refuses_an_unreadable_config(tmp_path, capsys, text,
                                                   message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "two_gaussian", "--config",
                 str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_cli_seed_env_var_is_read_only_by_a_check_that_draws(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text(DIST_CSV)
    monkeypatch.setenv("REJECTSVM_SEED", "lots")
    argv = ["diagnose", "--dist", str(dist_path), "--r-grid", "0.1,0.2",
            "--checks"]
    assert main(argv + ["plateau"]) == 0
    assert capsys.readouterr().out.startswith("plateau: pass ")
    assert main(argv + ["prop21", "plateau"]) == 0
    capsys.readouterr()
    for check in ("lemma_a1", "domination", "all"):
        assert main(argv + [check]) == 2
        assert capsys.readouterr().err == (
            "usage error: REJECTSVM_SEED must be an integer, got 'lots'\n")
    # --seed wins over the variable
    assert main(argv + ["lemma_a1", "--seed", "3"]) == 0
    capsys.readouterr()
    # simulate draws with its config's seed when the config gives one
    cfg = tmp_path / "cfg.json"
    sim_argv = ["simulate", "--scenario", "two_gaussian", "--config",
                str(cfg), "--out", str(tmp_path / "sim.csv")]
    settings = {"repetitions": 1, "n_train": 12, "M": 3, "r_grid": [0.2]}
    cfg.write_text(json.dumps(settings))
    assert main(sim_argv) == 2
    assert "REJECTSVM_SEED must be an integer" in capsys.readouterr().err
    cfg.write_text(json.dumps({**settings, "seed": 4}))
    assert main(sim_argv) == 0
    capsys.readouterr()


def test_cli_seed_env_var(tmp_path, data_file, monkeypatch, capsys):
    dist_path = tmp_path / "dist.csv"
    dist_path.write_text(DIST_CSV)
    monkeypatch.setenv("REJECTSVM_SEED", "17")
    assert main(["diagnose", "--dist", str(dist_path), "--checks",
                 "domination"]) == 0
    monkeypatch.setenv("REJECTSVM_SEED", "lots")
    assert main(["diagnose", "--dist", str(dist_path), "--checks",
                 "domination"]) == 2
    # only simulate and diagnose draw; the other commands neither read the
    # variable nor take --seed
    model_path = str(tmp_path / "m.json")
    assert main(["train", "--data", data_file, "--r", "0.1", "--out",
                 model_path]) == 0
    for cmd in ("predict", "eval", "bounds"):
        assert main([cmd, "--model", model_path, "--data", data_file]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--model", model_path, "--data", data_file,
              "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()

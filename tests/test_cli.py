import csv
import json

import numpy as np
import pytest

from demfit import LmmModel, Theta
from demfit.cli import main
from demfit.diagnostics import theta_to_json
from demfit.transport import SocketPool


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    assert run(["simulate", "--m", 40, "--n", 600, "--p", 3, "--q", 3,
                "--seed", 2, "--out", ws / "data"]) == 0
    return ws


def test_simulate_outputs(workspace):
    sidecar = json.loads((workspace / "data.json").read_text())
    assert sidecar["m"] == 40 and sidecar["n"] == 600
    assert "true_theta" in sidecar
    assert (workspace / "data.npz").exists()


def test_fit_and_compare(workspace):
    assert run(["fit", "--data", workspace / "data", "--algo", "ecme0",
                "--out", workspace / "base"]) == 0
    assert run(["fit", "--data", workspace / "data", "--algo", "dem",
                "--gamma", 0.5, "--K", 4, "--out", workspace / "dem"]) == 0
    assert run(["fit", "--data", workspace / "data", "--algo", "iem",
                "--K", 4, "--out", workspace / "iem"]) == 0
    assert run(["compare", workspace / "base", workspace / "dem",
                workspace / "iem", "--out", workspace / "cmp.csv"]) == 0
    with open(workspace / "cmp.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row["loglik_ratio"]) - 1.0) < 1e-6
        assert float(row["err_beta"]) < 1e-3
        assert float(row["iter_ratio"]) >= 1.0


def test_fit_gamma_one_reproduces_baseline_trace(workspace):
    assert run(["fit", "--data", workspace / "data", "--algo", "dem",
                "--gamma", 1.0, "--K", 4, "--out", workspace / "g1"]) == 0
    base = json.loads((workspace / "base.trace.json").read_text())
    g1 = json.loads((workspace / "g1.trace.json").read_text())
    assert g1["n_iterations"] == base["n_iterations"]
    assert g1["logliks"] == base["logliks"]
    for a, b in zip(g1["thetas"], base["thetas"]):
        assert a == b


def test_self_compare_zeros(workspace):
    assert run(["compare", workspace / "base", workspace / "base",
                "--out", workspace / "self.csv"]) == 0
    with open(workspace / "self.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["err_beta"]) == 0.0
    assert float(row["loglik_ratio"]) == 1.0


def test_gamma_with_ecme0_rejected(workspace):
    with pytest.raises(SystemExit):
        run(["fit", "--data", workspace / "data", "--algo", "ecme0",
             "--gamma", 0.5, "--out", workspace / "bad"])
    with pytest.raises(SystemExit):
        run(["fit", "--data", workspace / "data", "--algo", "iem",
             "--gamma", 0.5, "--K", 4, "--out", workspace / "bad"])


@pytest.mark.parametrize("flag", [["--K", 4], ["--transport", "socket"],
                                  ["--completion", "finish"], ["--exact-loglik-check"],
                                  ["--forced-split"], ["--seed", 5]],
                         ids=["K", "transport", "completion", "exact", "forced_split",
                              "seed"])
def test_ecme0_rejects_flags_it_does_not_read(workspace, flag):
    # ecme0 runs one worker in process with header logliks: any other
    # setting would be dropped without a word
    with pytest.raises(SystemExit, match=f"--algo ecme0 is incompatible with {flag[0]}$"):
        run(["fit", "--data", workspace / "data", "--algo", "ecme0", *flag,
             "--out", workspace / "bad"])
    assert run(["fit", "--data", workspace / "data", "--algo", "ecme0", "--K", 1,
                "--transport", "in_process", "--out", workspace / "ecme0_k1"]) == 0


def test_one_default_stop_tolerance():
    from demfit.cli import _build_parser
    from demfit.model import ConvergenceMonitor
    from demfit.runtime import RunConfig

    parser, _ = _build_parser()
    args = parser.parse_args(["fit", "--data", "d", "--out", "o"])
    assert args.tol == RunConfig(K=1).tol == ConvergenceMonitor().tol


@pytest.mark.parametrize("flag", [["--tol", "nan"], ["--tol", -1], ["--seed", -1]],
                         ids=["tol_nan", "tol_negative", "seed_negative"])
def test_fit_rejects_bad_tol_and_seed(workspace, tmp_path, capsys, flag):
    assert run(["fit", "--data", workspace / "data", *flag, "--out", tmp_path / "bad"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[0][2:]} must be")


def test_compare_needs_two_runs(workspace, tmp_path):
    with pytest.raises(SystemExit, match="compare needs at least two run prefixes"):
        run(["compare", workspace / "base", "--out", tmp_path / "cmp.csv"])


@pytest.mark.parametrize("source, message", [
    ([], "ingest needs --ratings or --ratings-dat/--movies-dat"),
    (["--ratings-dat", "ratings.dat"], "--ratings-dat requires --movies-dat"),
], ids=["no_source", "dat_without_movies"])
def test_ingest_needs_a_whole_source(tmp_path, source, message):
    with pytest.raises(SystemExit, match=message):
        run(["ingest", *source, "--out", tmp_path / "ml"])


def test_maxiter_exit_code(workspace):
    args = ["fit", "--data", workspace / "data", "--algo", "dem", "--K", 4,
            "--gamma", 0.5, "--max-iter", 3, "--out", workspace / "short"]
    assert run(args) == 1
    assert run(args + ["--allow-maxiter"]) == 0


def test_config_file_with_flag_override(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "dem", "K": 4, "gamma": 0.5, "seed": 3,
                               "max_iter": 300, "exact_loglik_check": True}))
    assert run(["--config", cfg, "fit", "--data", workspace / "data",
                "--out", workspace / "cfgrun"]) == 0
    trace = json.loads((workspace / "cfgrun.trace.json").read_text())
    assert trace["config"]["gamma"] == 0.5 and trace["config"]["K"] == 4
    assert trace["config"]["max_iter"] == 300 and trace["config"]["exact_loglik_check"] is True
    # explicit flag wins over the config value
    assert run(["--config", cfg, "fit", "--data", workspace / "data",
                "--gamma", 0.75, "--out", workspace / "cfgrun2"]) == 0
    trace2 = json.loads((workspace / "cfgrun2.trace.json").read_text())
    assert trace2["config"]["gamma"] == 0.75


def test_config_unknown_key_rejected(workspace, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus_flag": 1}))
    with pytest.raises(SystemExit, match="bogus_flag"):
        run(["--config", cfg, "fit", "--data", workspace / "data",
             "--out", workspace / "x"])


@pytest.mark.parametrize("content", [None, "{\"K\": 4,", "[]"],
                         ids=["missing", "malformed", "not_an_object"])
def test_config_file_error_is_reported(workspace, tmp_path, capsys, content):
    """A --config file that does not exist, is not JSON or holds no JSON
    object is an error line naming the file, not a traceback."""
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert run(["--config", cfg, "fit", "--data", workspace / "data",
                "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err


@pytest.mark.parametrize("key, value", [("algo", "foo"), ("exact_loglik_check", "no"),
                                        ("K", True), ("max_iter", 2.5)])
def test_config_value_is_read_like_its_flag(workspace, tmp_path, capsys, key, value):
    """A config value goes through its flag's type and choices, and a
    switch takes only true or false; a bad one is an error line naming the
    file and the key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run(["--config", cfg, "fit", "--data", workspace / "data",
                "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: {key}=")
    assert not (tmp_path / "x.trace.json").exists()


def test_diagnose(workspace, capsys):
    assert run(["diagnose", "--data", workspace / "data",
                "--theta", workspace / "base.theta.json", "--K", 4,
                "--split", "0,1", "--out", workspace / "diag.json"]) == 0
    report = json.loads((workspace / "diag.json").read_text())
    assert report["identity_residual"] < 1e-6
    assert len(report["S_EM"]) == 3 + 6 + 1  # beta, vech(L), tau2


@pytest.mark.parametrize("split", [["--split", "0,7"], ["--split", "9"], ["--split=-1"]])
def test_diagnose_split_out_of_range_is_an_error(workspace, tmp_path, capsys, split):
    (tmp_path / "start.theta.json").write_text(
        json.dumps(theta_to_json(Theta.default_start(3, 3))))
    assert run(["diagnose", "--data", workspace / "data",
                "--theta", tmp_path / "start.theta.json", "--K", 4, *split,
                "--out", tmp_path / "diag.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: split ids [")
    assert "lie outside 0..K-1 for K=4" in err
    assert not (tmp_path / "diag.json").exists()


def test_diagnose_walkthrough_fit_is_stationary(tmp_path, capsys):
    """The README walkthrough's ecme0 fit stops within its tolerance of the
    maximum: the Newton decrement is far below it, although the gradient
    norm (about 1e-3) is not small.  diagnose warns of nothing."""
    assert run(["simulate", "--m", 60, "--n", 480, "--p", 4, "--q", 3,
                "--seed", 0, "--out", tmp_path / "data"]) == 0
    assert run(["fit", "--data", tmp_path / "data", "--algo", "ecme0",
                "--out", tmp_path / "base"]) == 0
    capsys.readouterr()
    assert run(["diagnose", "--data", tmp_path / "data",
                "--theta", tmp_path / "base.theta.json", "--K", 4,
                "--split", "0,1", "--out", tmp_path / "diag.json"]) == 0
    assert "warning" not in capsys.readouterr().err
    report = json.loads((tmp_path / "diag.json").read_text())
    assert report["warnings"] == []
    assert 0 < report["newton_decrement"] < 1e-7 < report["grad_norm"]


def test_ingest_and_fit(workspace, tmp_path):
    from demfit.movielens import RatingsRecord, write_ratings_file

    rng = np.random.default_rng(1)
    records = []
    for t in range(400):
        g = [0] * 19
        g[int(rng.integers(0, 19))] = 1
        records.append(RatingsRecord(int(rng.integers(1, 11)),
                                     int(rng.integers(1, 30)),
                                     float(rng.integers(1, 11)) * 0.5, t, tuple(g)))
    ratings = tmp_path / "r.csv"
    write_ratings_file(ratings, records)
    assert run(["ingest", "--ratings", ratings, "--out", tmp_path / "ml"]) == 0
    meta = json.loads((tmp_path / "ml.json").read_text())
    assert meta["p"] == 6 and meta["q"] == 6 and meta["n"] == 400
    assert run(["fit", "--data", tmp_path / "ml", "--algo", "dem", "--K", 2,
                "--gamma", 0.5, "--max-iter", 50, "--allow-maxiter",
                "--out", tmp_path / "mlfit"]) == 0


def test_ingest_dat_pair_without_intermediate_file(tmp_path):
    from demfit.movielens import convert_dat

    rng = np.random.default_rng(1)
    genres = ["Action", "Children's", "Comedy", "Drama|Romance", "Sci-Fi|Comedy"]
    movies = tmp_path / "movies.dat"
    movies.write_text("".join(f"{i}::Film {i} (2000)::{genres[i % 5]}\n"
                              for i in range(1, 31)))
    ratings = tmp_path / "ratings.dat"
    ratings.write_text("".join(
        f"{rng.integers(1, 11)}::{rng.integers(1, 31)}::{rng.integers(1, 11) * 0.5}::{t}\n"
        for t in range(400)))
    assert convert_dat(ratings, movies, tmp_path / "r.csv") == 400
    assert run(["ingest", "--ratings", tmp_path / "r.csv", "--out", tmp_path / "csv"]) == 0
    assert run(["ingest", "--ratings-dat", ratings, "--movies-dat", movies,
                "--out", tmp_path / "dat"]) == 0
    with np.load(tmp_path / "csv.npz") as want, np.load(tmp_path / "dat.npz") as got:
        assert sorted(got.files) == sorted(want.files)
        for name in want.files:
            np.testing.assert_array_equal(got[name], want[name])
    assert (tmp_path / "dat.json").read_text() == (tmp_path / "csv.json").read_text()
    assert not list(tmp_path.glob("*.ratings.csv"))


def test_error_exit_code(tmp_path, capsys):
    assert run(["fit", "--data", tmp_path / "missing", "--algo", "ecme0",
                "--out", tmp_path / "x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_unknown_movie_is_an_error(tmp_path, capsys):
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    movies.write_text("1::Some Film (1999)::Action\n")
    ratings.write_text("7::1::4::100\n7::42::3::101\n")
    assert run(["ingest", "--ratings-dat", ratings, "--movies-dat", movies,
                "--out", tmp_path / "ml"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "movie 42" in err and ":2:" in err


@pytest.mark.parametrize("bad_file, bad_line", [
    ("ratings.dat", "7::1::4"),
    ("ratings.dat", "7::1::4.2::101"),
    ("movies.dat", "x::Other Film (2000)::Comedy"),
    ("movies.dat", "2::Other Film (2000)"),
    ("movies.dat", "2::Other Film (2000)::Jazz"),
    ("ratings.csv", "7,1,4.0,101"),
    ("ratings.csv", "7,1,4.2,101," + "0" * 19),
], ids=["dat_3_fields", "dat_off_grid", "movie_id_x", "movies_2_fields",
        "unknown_genre", "csv_4_fields", "csv_off_grid"])
def test_ingest_malformed_line_names_file_and_line(tmp_path, capsys, bad_file, bad_line):
    good = {"movies.dat": "1::Some Film (1999)::Action",
            "ratings.dat": "7::1::4::100",
            "ratings.csv": "7,1,4.0,100,1" + "0" * 18}
    for name, line in good.items():
        # the blank line counts: the bad line is line 3
        lines = [line, "", bad_line] if name == bad_file else [line]
        (tmp_path / name).write_text("".join(f"{ln}\n" for ln in lines))
    if bad_file == "ratings.csv":
        source = ["--ratings", tmp_path / "ratings.csv"]
    else:
        source = ["--ratings-dat", tmp_path / "ratings.dat",
                  "--movies-dat", tmp_path / "movies.dat"]
    assert run(["ingest", *source, "--out", tmp_path / "ml"]) == 1
    assert f"error: {tmp_path / bad_file}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["csv", "dat"])
def test_ingest_of_no_ratings_is_an_error(tmp_path, capsys, source):
    """A ratings file without a rating, blank lines only, names itself."""
    ratings = tmp_path / f"ratings.{source}"
    ratings.write_text("\n\n")
    movies = tmp_path / "movies.dat"
    movies.write_text("1::Some Film (1999)::Action\n")
    flags = (["--ratings", ratings] if source == "csv"
             else ["--ratings-dat", ratings, "--movies-dat", movies])
    assert run(["ingest", *flags, "--out", tmp_path / "ml"]) == 1
    assert capsys.readouterr().err == f"error: {ratings}: no ratings\n"
    assert not (tmp_path / "ml.npz").exists()


def test_scheduler_option_removed(workspace, tmp_path):
    with pytest.raises(SystemExit):
        run(["fit", "--data", workspace / "data", "--K", 2,
             "--scheduler", "real", "--out", tmp_path / "real"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scheduler": "deterministic"}))
    with pytest.raises(SystemExit, match="scheduler"):
        run(["--config", config, "fit", "--data", workspace / "data", "--K", 2,
             "--out", tmp_path / "cfg"])


def test_socket_worker_failure_is_an_error(workspace, tmp_path, capsys, monkeypatch):
    def failing_esteps(self, theta, shards):
        raise RuntimeError("boom")

    monkeypatch.setattr(LmmModel, "local_esteps", failing_esteps)
    assert run(["fit", "--data", workspace / "data", "--K", 2,
                "--transport", "socket", "--out", tmp_path / "sock"]) == 1
    assert "error: worker 0 failed: RuntimeError: boom\n" in capsys.readouterr().err


def test_socket_reply_of_the_wrong_length_is_an_error(workspace, tmp_path, capsys,
                                                       monkeypatch):
    local_esteps = LmmModel.local_esteps

    def long_reply(self, theta, shards):
        # an E-step batch's block goes out whole: each row two values long
        rows = local_esteps(self, theta, shards)
        return np.concatenate([rows, np.zeros((len(rows), 2))], axis=1)

    monkeypatch.setattr(LmmModel, "local_esteps", long_reply)
    assert run(["fit", "--data", workspace / "data", "--K", 2,
                "--transport", "socket", "--out", tmp_path / "long"]) == 1
    assert "error: subset 0: statistics payload of 34 values" in capsys.readouterr().err


def test_dead_socket_worker_is_an_error(workspace, tmp_path, capsys, monkeypatch):
    def dead_worker(self, conn, shards):
        conn.close()

    monkeypatch.setattr(SocketPool, "_serve", dead_worker)
    assert run(["fit", "--data", workspace / "data", "--K", 2,
                "--transport", "socket", "--out", tmp_path / "dead"]) == 1
    assert "error: worker 0: connection lost" in capsys.readouterr().err

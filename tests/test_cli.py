import numpy as np
import pytest

from truncsm.cli import main
from truncsm.experiments import SCHEMA

from support import parse_params, solve_every_restart


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema={SCHEMA}"
    assert lines[1].startswith("# config=")
    header = lines[2].split(",")
    rows = []
    for line in lines[3:]:
        parts = line.split(",")
        # params may contain no commas by construction (semicolon-separated)
        rows.append(dict(zip(header, parts)))
    return rows


def test_unknown_experiment_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["--experiment", "nope", "--out", "x.csv"])


def test_missing_required_inputs_error(tmp_path, capsys):
    rc = main(["--experiment", "chicago", "--points-file", "nope.csv",
               "--out", str(tmp_path / "o.csv")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, n_seeds", [
    (["chicago", "--n", "50"], 50),
    (["maha-vs-euclid", "--sigma", "0.3", "--n", "50"], 50),
    (["l1-vs-l2", "--d-grid", "2", "--n", "20"], 50),
    (["capped-scaling", "--b-grid", "1", "--cap", "10", "--n", "200"], 20),
    (["identity-check", "--n", "2000"], 10),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_seeds_default_to_the_papers_count(tmp_path, args, n_seeds):
    out = tmp_path / "o.csv"
    assert main(["--experiment"] + args + ["--out", str(out)]) == 0
    assert {int(r["seed"]) for r in read_rows(out)} == set(range(n_seeds))


def test_l1_vs_l2_dimension_out_of_range_fails_without_output(tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc = main(["--experiment", "l1-vs-l2", "--d-grid", "13", "--seeds", "0",
               "--n", "20", "--out", str(out)])
    assert rc == 1
    assert "1 <= d <= 12" in capsys.readouterr().err
    assert not out.exists()


def test_identity_check_run(tmp_path):
    out = tmp_path / "id.csv"
    rc = main(["--experiment", "identity-check", "--seeds", "0,1",
               "--n", "5000", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 2
    for r in rows:
        params = parse_params(r["params"])
        assert float(params["zscore"]) >= 0.0


@pytest.mark.parametrize("path", ["synthetic", "real"])
def test_fixed_seed_byte_identical_output(tmp_path, path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--experiment", "chicago", "--seeds", "0,1,2", "--n", "400"]
    if path == "real":
        csv, poly = city_files(tmp_path)
        args = ["--experiment", "chicago", "--seeds", "0", "--points-file", str(csv),
                "--domain-file", str(poly), "--sigma", "0.1", "--restarts", "5",
                "--particles", "5000"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ba = a.read_bytes()
    bb = b.read_bytes()
    # outputs identical except for the echoed out path in the config line
    assert ba.replace(b"a.csv", b"o.csv") == bb.replace(b"b.csv", b"o.csv")
    assert a.with_suffix(".csv.timing.csv").exists()
    if path == "real":
        assert a.with_suffix(".centers.csv").read_bytes() == \
            b.with_suffix(".centers.csv").read_bytes()


def test_gmm_polygon_smoke(tmp_path):
    out = tmp_path / "gmm.csv"
    rc = main(["--experiment", "gmm-polygon", "--seeds", "0", "--n", "3000",
               "--restarts", "4", "--particles", "20000",
               "--method", "truncsm,rjmle,sm-constant", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert {r["method"] for r in rows} == {"truncsm", "rjmle", "sm-constant"}
    for r in rows:
        assert float(r["error"]) >= 0.0


def test_capped_scaling_capped_fraction_monotone(tmp_path):
    out = tmp_path / "cap.csv"
    rc = main(["--experiment", "capped-scaling", "--seeds", "0,1,2",
               "--b-grid", "0.5,2,8", "--cap", "1.0", "--n", "600",
               "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    fracs = {}
    for r in rows:
        p = parse_params(r["params"])
        if p["template"] == "square":
            fracs.setdefault(float(p["b"]), []).append(float(p["capped_fraction"]))
    bs = sorted(fracs)
    med = [float(np.median(fracs[b])) for b in bs]
    assert all(x <= y + 1e-12 for x, y in zip(med, med[1:]))


def test_l1_vs_l2_d1_metrics_coincide(tmp_path):
    out = tmp_path / "l1.csv"
    rc = main(["--experiment", "l1-vs-l2", "--seeds", "0,1,2,3,4",
               "--d-grid", "1", "--n", "80", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    errs = {"l1": {}, "l2": {}}
    for r in rows:
        errs[r["weight"]][r["seed"]] = float(r["error"])
    for seed in errs["l1"]:
        assert errs["l1"][seed] == pytest.approx(errs["l2"][seed], rel=1e-8)


def test_maha_rho0_metrics_coincide(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["--experiment", "maha-vs-euclid", "--seeds", "0,1,2",
               "--sigma", "0.0", "--n", "300", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    by = {}
    for r in rows:
        by.setdefault(r["seed"], {})[r["weight"]] = float(r["error"])
    for seed, d in by.items():
        assert d["euclidean"] == pytest.approx(d["mahalanobis"], rel=1e-6)


def test_rjmle_error_nonincreasing_in_particles(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["--experiment", "gmm-polygon", "--seeds", "0,1,2,3,4",
               "--n", "4000", "--restarts", "3", "--method", "rjmle",
               "--particles", "1000,10000,100000", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    errs = {}
    for r in rows:
        N = int(parse_params(r["params"])["particles"])
        errs.setdefault(N, []).append(float(r["error"]))
    med = [float(np.median(errs[N])) for N in sorted(errs)]
    # median trend: more particles never much worse
    assert med[-1] <= med[0] + 1e-9


def test_identity_check_n_scaling(tmp_path):
    gaps = {}
    for n in (4000, 16000):
        out = tmp_path / f"id{n}.csv"
        assert main(["--experiment", "identity-check", "--n", str(n),
                     "--seeds", ",".join(str(s) for s in range(8)),
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        gs = []
        for r in rows:
            p = parse_params(r["params"])
            gs.append(abs(float(p["lhs"]) - float(p["rhs"])))
        gaps[n] = float(np.median(gs))
    # 4x the sample size shrinks the gap roughly 2x; allow generous slack
    assert gaps[16000] < gaps[4000]


def test_chicago_synthetic_west_of_mle(tmp_path):
    out = tmp_path / "chi.csv"
    rc = main(["--experiment", "chicago", "--seeds", "0,1,2,3,4",
               "--n", "500", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    x = {}
    for r in rows:
        p = parse_params(r["params"])
        x.setdefault(r["seed"], {})[r["method"]] = float(p["center_x"])
    west = sum(x[s]["truncsm"] < x[s]["mle"] for s in x)
    assert west >= 4


def city_files(tmp_path):
    """Points CSV and boundary file of a synthetic "city": polygon boundary in
    lon/lat-like units, two clearly separated clusters, sigma per the
    half-city-width rule."""
    rng = np.random.default_rng(0)
    mid = np.array([-87.66, 41.82])
    u = np.array([0.47, 0.88])
    pts = np.vstack([rng.normal(mid - 0.15 * u, 0.05, size=(200, 2)),
                     rng.normal(mid + 0.15 * u, 0.05, size=(200, 2))])
    csv = tmp_path / "pts.csv"
    csv.write_text("longitude,latitude\n" +
                   "\n".join(f"{a},{b}" for a, b in pts) + "\n")
    poly = tmp_path / "city.txt"
    # wide box around the clusters, in projected coords x = lon*cos(lat0)
    lat0 = np.deg2rad(pts[:, 1].mean())
    lo_x, hi_x = -87.9 * np.cos(lat0), -87.4 * np.cos(lat0)
    poly.write_text(f"{lo_x},41.6\n{hi_x},41.6\n{hi_x},42.0\n{lo_x},42.0\n")
    return csv, poly


def test_chicago_real_data_path(tmp_path):
    csv, poly = city_files(tmp_path)
    out = tmp_path / "chi.csv"
    rc = main(["--experiment", "chicago", "--seeds", "0",
               "--points-file", str(csv), "--domain-file", str(poly),
               "--sigma", "0.1", "--restarts", "20",
               "--method", "truncsm,mle", "--particles", "20000",
               "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 2
    for r in rows:
        p = parse_params(r["params"])
        assert float(p["center_sd"]) < 0.1 * float(p["bbox_diag"])
    centers = (tmp_path / "chi.centers.csv").read_text().splitlines()
    assert centers[0] == "method,restart,component,x,y"
    assert len(centers) == 1 + 2 * 2 * 20  # methods * components * restarts


def test_chicago_real_restarts_start_at_kmeans_centers(tmp_path, monkeypatch):
    from truncsm import estimator

    starts = []
    kmeans = estimator.kmeans_init
    monkeypatch.setattr(estimator, "kmeans_init", lambda *a: starts.append(kmeans(*a)) or starts[-1])
    csv, poly = city_files(tmp_path)
    rc = main(["--experiment", "chicago", "--seeds", "0", "--points-file", str(csv),
               "--domain-file", str(poly), "--sigma", "0.1", "--restarts", "3",
               "--method", "truncsm,mle", "--out", str(tmp_path / "chi.csv")])
    assert rc == 0
    assert len(starts) == 3  # one per restart, shared by every method


def test_chicago_real_methods_share_one_set_of_starts(tmp_path, monkeypatch):
    from truncsm import estimator

    starts = []
    initial = estimator.initial_points
    monkeypatch.setattr(estimator, "initial_points",
                        lambda *a: starts.append(np.array(initial(*a))) or list(starts[-1]))
    csv, poly = city_files(tmp_path)
    rc = main(["--experiment", "chicago", "--seeds", "0", "--points-file", str(csv),
               "--domain-file", str(poly), "--sigma", "0.1", "--restarts", "3",
               "--particles", "2000", "--out", str(tmp_path / "chi.csv")])
    assert rc == 0
    # the driver's k-means starts, then the starts of truncsm, rjmle and mle
    assert len(starts) == 1 + 3
    assert starts[0].shape == (3, 4)
    assert all(np.array_equal(s, starts[0]) for s in starts[1:])


def test_chicago_files_match_the_loop_that_solves_every_restart(tmp_path, monkeypatch):
    from truncsm import baselines, estimator

    csv, poly = city_files(tmp_path)

    def files(name):
        out = tmp_path / name / "chi.csv"
        out.parent.mkdir()
        rc = main(["--experiment", "chicago", "--seeds", "0", "--points-file", str(csv),
                   "--domain-file", str(poly), "--sigma", "0.1", "--restarts", "5",
                   "--particles", "2000", "--out", str(out)])
        assert rc == 0
        return (out.read_text().replace(str(out), "<out>"),
                out.with_suffix(".centers.csv").read_text())

    reports = []
    run_restarts = estimator._run_restarts
    with monkeypatch.context() as m:
        for owner in (estimator, baselines):
            m.setattr(owner, "_run_restarts",
                      lambda *a, **k: reports.append(run_restarts(*a, **k)) or reports[-1])
        shipped = files("shipped")
    for owner in (estimator, baselines):
        monkeypatch.setattr(owner, "_run_restarts", solve_every_restart)
    oracle = files("oracle")
    # truncsm, rjmle and mle, each from the same starts; some of them equal
    assert [len(rep.restarts) for rep in reports] == [5, 5, 5]
    assert all(rep.diagnostics["distinct_starts"] < 5 for rep in reports)
    assert shipped == oracle


@pytest.mark.parametrize("path", ["gmm-polygon", "synthetic", "real"])
def test_unknown_method_fails_before_any_fit(tmp_path, monkeypatch, capsys, path):
    from truncsm import baselines, estimator

    calls = []
    for owner, name in ((estimator, "fit"), (baselines, "fit_rjmle"),
                        (baselines, "fit_mle_untruncated")):
        monkeypatch.setattr(owner, name, lambda *a, _n=name, **k: calls.append(_n))
    args = ["--experiment", "chicago", "--seeds", "0", "--n", "200"]
    if path == "gmm-polygon":
        args = ["--experiment", "gmm-polygon", "--seeds", "0", "--n", "500"]
    elif path == "real":
        csv, poly = city_files(tmp_path)
        args = ["--experiment", "chicago", "--seeds", "0", "--points-file", str(csv),
                "--domain-file", str(poly), "--sigma", "0.1"]
    out = tmp_path / "o.csv"
    rc = main(args + ["--method", "truncsm,foo", "--out", str(out)])
    assert rc == 1
    assert "unknown method 'foo'" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("driver, option, args", [
    ("gmm-polygon", "--n", ["--seeds", "0", "--n", "100,200"]),
    ("capped-scaling", "--n", ["--seeds", "0", "--n", "100,200"]),
    ("l1-vs-l2", "--n", ["--seeds", "0", "--n", "100,200"]),
    ("chicago", "--n", ["--seeds", "0", "--n", "100,200"]),
    ("identity-check", "--n", ["--seeds", "0", "--n", "100,200"]),
    # the points-file path of chicago
    ("chicago", "--seeds", ["--seeds", "0,1", "--sigma", "0.1"]),
    ("chicago", "--sigma", ["--seeds", "0", "--sigma", "0.1,0.2"]),
    ("chicago", "--particles", ["--seeds", "0", "--sigma", "0.1", "--particles", "1000,2000"]),
], ids=lambda v: v if isinstance(v, str) else "")
def test_grid_a_driver_ignores_fails_before_any_fit(tmp_path, monkeypatch, capsys,
                                                     driver, option, args):
    from truncsm import baselines, estimator

    calls = []
    for owner, name in ((estimator, "fit"), (estimator, "ibp_identity_check"),
                        (baselines, "fit_rjmle"), (baselines, "fit_mle_untruncated")):
        monkeypatch.setattr(owner, name, lambda *a, _n=name, **k: calls.append(_n))
    if "--sigma" in args:
        csv, poly = city_files(tmp_path)
        args = args + ["--points-file", str(csv), "--domain-file", str(poly)]
    out = tmp_path / "o.csv"
    rc = main(["--experiment", driver] + args + ["--out", str(out)])
    assert rc == 1
    assert f"{driver} takes one {option} value" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("args, unread, real", [
    (["identity-check", "--n", "1000", "--seeds", "0", "--cap", "5", "--b-grid", "2",
      "--d-grid", "3", "--particles", "7"], "--cap", False),
    (["maha-vs-euclid", "--seeds", "0", "--restarts", "3"], "--restarts", False),
    (["l1-vs-l2", "--seeds", "0", "--method", "mle"], "--method", False),
    (["chicago", "--seeds", "0", "--sigma", "0.1"], "--sigma", False),
    (["chicago", "--seeds", "0", "--sigma", "0.1", "--n", "200"], "--n", True),
], ids=["identity-check", "maha-vs-euclid", "l1-vs-l2", "chicago", "chicago-real"])
def test_option_a_driver_does_not_read_fails_before_any_fit(tmp_path, monkeypatch, capsys,
                                                            args, unread, real):
    from truncsm import baselines, data, estimator

    calls = []
    for owner, name in ((estimator, "fit"), (estimator, "ibp_identity_check"),
                        (baselines, "fit_rjmle"), (baselines, "fit_mle_untruncated"),
                        (data, "sample_truncated_n")):
        monkeypatch.setattr(owner, name, lambda *a, _n=name, **k: calls.append(_n))
    if real:
        csv, poly = city_files(tmp_path)
        args = args + ["--points-file", str(csv), "--domain-file", str(poly)]
    out = tmp_path / "o.csv"
    assert main(["--experiment"] + args + ["--out", str(out)]) == 1
    assert f"{args[0]} does not read {unread}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# The options each experiment reads: the paper's option matrix.  "chicago-real"
# is chicago with --points-file.
READS = {
    "gmm-polygon": {"seeds", "n", "methods", "particles", "restarts", "domain_file"},
    "maha-vs-euclid": {"seeds", "n", "sigma"},
    "capped-scaling": {"seeds", "n", "cap", "b_grid"},
    "l1-vs-l2": {"seeds", "n", "d_grid"},
    "chicago": {"seeds", "n", "methods"},
    "identity-check": {"seeds", "n"},
    "chicago-real": {"seeds", "methods", "particles", "restarts", "domain_file",
                     "points_file", "sigma"},
}
FLAGS = {"seeds": "--seeds", "n": "--n", "methods": "--method", "cap": "--cap",
         "particles": "--particles", "restarts": "--restarts",
         "domain_file": "--domain-file", "points_file": "--points-file",
         "sigma": "--sigma", "b_grid": "--b-grid", "d_grid": "--d-grid"}
# every option an experiment does not read; --points-file is how chicago
# picks its real-data driver, so the synthetic one never sees it
UNREAD = [(name, option) for name, reads in READS.items() for option in FLAGS
          if option not in reads and (name, option) != ("chicago", "points_file")]


def test_option_tables_match_the_matrix():
    from truncsm.cli import build_parser
    from truncsm.experiments import CHICAGO_REAL, DRIVERS

    parsed = vars(build_parser().parse_args(["--experiment", "chicago"]))
    assert set(FLAGS) == set(parsed) - {"experiment", "out"}
    tables = {name: set(defaults) for name, (_, defaults) in DRIVERS.items()}
    tables["chicago-real"] = set(CHICAGO_REAL[1])
    assert tables == READS


@pytest.mark.parametrize("name, option", UNREAD, ids=[f"{n}-{o}" for n, o in UNREAD])
def test_every_unread_option_fails_before_any_fit(tmp_path, monkeypatch, capsys,
                                                  name, option):
    from truncsm import baselines, data, estimator

    calls = []
    for owner, fn in ((estimator, "fit"), (estimator, "ibp_identity_check"),
                      (baselines, "fit_rjmle"), (baselines, "fit_mle_untruncated"),
                      (data, "sample_truncated"), (data, "sample_truncated_n"),
                      (data, "sample_gaussian_in_l1_hemiball"), (data, "load_points_csv")):
        monkeypatch.setattr(owner, fn, lambda *a, _n=fn, **k: calls.append(_n))
    csv, poly = city_files(tmp_path)
    values = {"seeds": "0", "n": "100", "methods": "truncsm", "cap": "5",
              "particles": "7", "restarts": "3", "domain_file": str(poly),
              "points_file": str(csv), "sigma": "0.1", "b_grid": "2", "d_grid": "3"}
    args = ["--experiment", name.replace("-real", ""), "--seeds", "0"]
    if name == "chicago-real":
        args += ["--points-file", str(csv), "--domain-file", str(poly), "--sigma", "0.1"]
    out = tmp_path / "o.csv"
    rc = main(args + [FLAGS[option], values[option], "--out", str(out)])
    assert rc == 1
    assert f"does not read {FLAGS[option]}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_help_lists_each_experiments_options_and_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    # one entry per experiment, "  <label>: --opt=default ...", wrapped lines indented
    entries = {}
    for line in text[text.index("The options each experiment reads"):].splitlines():
        if line.startswith("  ") and not line.startswith("   "):
            label, rest = line.strip().split(": ", 1)
            entries[label] = rest.split()
        elif line.startswith("      "):
            entries[label] += line.split()
    labels = {"chicago-real": "chicago with --points-file"}
    assert set(entries) == {labels.get(name, name) for name in READS}
    for name, reads in READS.items():
        shown = dict(word.split("=", 1) for word in entries[labels.get(name, name)])
        assert sorted(shown) == sorted(FLAGS[option] for option in reads)
    # a few paper defaults, as the paper states them
    assert entries["gmm-polygon"][1:] == ["--n=10000", "--method=[truncsm,rjmle]",
                                          "--particles=[500000]", "--restarts=10",
                                          "--domain-file=-"]
    assert "--n=[250,1000,4000]" in entries["maha-vs-euclid"]
    assert "--restarts=500" in entries["chicago with --points-file"]
    assert "--seeds=[0,1,...,49]" in entries["l1-vs-l2"]


@pytest.mark.parametrize("args, message", [
    (["l1-vs-l2", "--d-grid", "2,13", "--n", "20"], "1 <= d <= 12"),
    (["maha-vs-euclid", "--sigma", "0.3,1.5", "--n", "50"], "correlation must lie in [0, 1)"),
    (["capped-scaling", "--b-grid", "1,-1", "--n", "200"], "scale factor b must be positive"),
    (["capped-scaling", "--b-grid", "1", "--cap", "10,-1", "--n", "200"],
     "cap must be positive"),
    (["gmm-polygon", "--n", "500", "--restarts", "1", "--particles", "1000,0"],
     "--particles must be at least 1, got [1000, 0]"),
    (["maha-vs-euclid", "--sigma", "0.3", "--n", "100,0"], "--n must be at least 1, got [100, 0]"),
    (["l1-vs-l2", "--seeds", "0,-1", "--n", "40", "--d-grid", "2"],
     "--seeds must be at least 0, got [0, -1]"),
], ids=["l1-vs-l2-d-grid", "maha-vs-euclid-sigma", "capped-scaling-b-grid",
        "capped-scaling-cap", "gmm-polygon-particles", "maha-vs-euclid-n", "l1-vs-l2-seeds"])
def test_bad_grid_value_fails_before_any_fit(tmp_path, monkeypatch, capsys, args, message):
    from truncsm import baselines, estimator

    calls = []
    for owner, name in ((estimator, "fit"), (baselines, "fit_rjmle"),
                        (baselines, "fit_mle_untruncated")):
        monkeypatch.setattr(owner, name, lambda *a, _n=name, **k: calls.append(_n))
    out = tmp_path / "o.csv"
    seeds = [] if "--seeds" in args else ["--seeds", "0"]
    rc = main(["--experiment"] + args + seeds + ["--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("path", ["gmm-polygon", "real"])
def test_restarts_below_one_fails_before_any_fit(tmp_path, monkeypatch, capsys, path):
    from truncsm import baselines, estimator

    calls = []
    for owner, name in ((estimator, "fit"), (baselines, "fit_rjmle"),
                        (baselines, "fit_mle_untruncated")):
        monkeypatch.setattr(owner, name, lambda *a, _n=name, **k: calls.append(_n))
    args = ["--experiment", "gmm-polygon", "--seeds", "0", "--n", "500"]
    if path == "real":
        csv, poly = city_files(tmp_path)
        args = ["--experiment", "chicago", "--seeds", "0", "--points-file", str(csv),
                "--domain-file", str(poly), "--sigma", "0.1"]
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--restarts", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "--restarts: must be at least 1, got 0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()

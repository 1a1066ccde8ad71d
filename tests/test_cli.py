import json
from fractions import Fraction

import pytest

from mconvex.cli import _frac, _int_range, main
from mconvex.metric import FiniteMetricSpace


def read(tmp_path, name):
    return (tmp_path / name).read_text()


def test_list_catalog(capsys):
    assert main(["list"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "laakso-ratio" in data["experiments"]
    assert "quotient-lift" in data["experiments"]


def test_laakso_ratio_artifacts(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "laakso-ratio", "--m", "1..2"]) == 0
    data = json.loads(read(tmp_path, "laakso-ratio.json"))
    assert data["rows"][0]["ratio"] == "85/128"
    assert data["rows"][1]["ratio"] == "10427/8192"
    csv = read(tmp_path, "laakso-ratio.csv")
    assert csv.splitlines()[0] == "m,ratio,lhs,rhs"
    assert read(tmp_path, "laakso-ratio.svg").startswith("<svg")


def test_reruns_byte_identical(tmp_path, capsys):
    args = ["classify", "--kind", "midpoint", "--delta", "1/32",
            "--trials", "40", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a)] + args) == 0
    assert main(["--out", str(b)] + args) == 0
    assert read(a, "classify.json") == read(b, "classify.json")


def test_seed_is_mandatory_for_randomized(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--kind", "midpoint", "--delta", "1/32"])


def test_run_dispatch(tmp_path, capsys):
    # `run name args...` behaves exactly like the direct subcommand
    assert main(["--out", str(tmp_path), "run", "bn-ratio", "--n", "4"]) == 0
    direct = json.loads(read(tmp_path, "bn-ratio.json"))
    assert direct["experiment"] == "bn-ratio" and direct["n"] == 4


def test_error_reported_as_json(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "bn-ratio", "--n", "0"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfRange"


def test_quotient_commands(tmp_path, capsys):
    X = FiniteMetricSpace([str(i) for i in range(5)],
                          lambda a, b: Fraction(abs(int(a) - int(b))))
    Y = FiniteMetricSpace([str(i) for i in range(3)],
                          lambda a, b: Fraction(abs(int(a) - int(b))))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({
        "source": json.loads(X.to_json()),
        "target": json.loads(Y.to_json()),
        "assignment": {str(i): str(abs(2 - i)) for i in range(5)}}))
    ch = tmp_path / "chain.json"
    ch.write_text(json.dumps({
        "states": ["0", "1", "2"], "t_min": 0, "t_max": 2,
        "kernels": {"1": {"0": {"1": "1"}, "1": {"0": "1/2", "2": "1/2"}},
                    "2": {"1": {"2": "1"}}},
        "initial": {"1": "1"}}))
    assert main(["--out", str(tmp_path), "quotient-verify", "--map", str(mp),
                 "--a", "1", "--b", "1"]) == 0
    out = json.loads(read(tmp_path, "quotient-verify.json"))
    assert out["is_quotient"]
    assert main(["--out", str(tmp_path), "quotient-lift", "--map", str(mp),
                 "--chain", str(ch), "--a", "1", "--b", "1"]) == 0
    lifts = json.loads(read(tmp_path, "quotient-lift.json"))["lifts"]
    # every lifted point maps back onto the trajectory's endpoint under folding
    for traj, u in lifts.items():
        assert abs(2 - int(u)) == int(traj.split("/")[-1])


def test_bad_input_reported_as_json(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_source = tmp_path / "nosource.json"
    no_source.write_text(json.dumps({"target": {}, "assignment": {}}))
    zero_den = tmp_path / "zero.json"
    zero_den.write_text(json.dumps({
        "source": {"points": ["0", "1"], "dist": [["0/1", "1/0"], ["1/0", "0/1"]],
                   "exact": True},
        "target": {"points": ["0"], "dist": [["0/1"]], "exact": True},
        "assignment": {"0": "0", "1": "0"}}))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "states": ["0", "1"], "t_min": 0, "t_max": 1,
        "kernels": {"1": {"0": {"0": "3/2", "1": "-1/2"}}}, "initial": {"0": "1"}}))
    runs = [["quotient-verify", "--map", str(bad_json), "--a", "1", "--b", "1"],
            ["quotient-verify", "--map", str(no_source), "--a", "1", "--b", "1"],
            ["quotient-verify", "--map", str(zero_den), "--a", "1", "--b", "1"],
            ["quotient-verify", "--map", str(tmp_path / "missing.json"), "--a", "1",
             "--b", "1"],
            ["quotient-verify", "--map", str(bad_json), "--a", "1/0", "--b", "1"],
            ["quotient-verify", "--map", str(bad_json), "--a", "abc", "--b", "1"],
            ["quotient-verify", "--map", str(bad_json), "--a", "1", "--b", "2.x"],
            ["quotient-lift", "--map", str(zero_den), "--chain", str(chain),
             "--a", "1", "--b", "1"],
            ["b4-search", "--s-const", "0", "--seed", "1"],
            ["b4-search", "--s-const", "-3", "--seed", "1"],
            ["b4-search", "--trials", "-3", "--seed", "1"],
            ["distortion-gap", "--s-const", "0", "--seed", "1"],
            ["distortion-gap", "--s-const", "-3", "--seed", "1"],
            ["laakso-ratio", "--m", "4..2"],
            ["laakso-ratio", "--m", "1..x"]]
    # the depth budget n of distortion-gap is checked by the experiment itself
    out_of_range = [["distortion-gap", "--n", n, "--seed", "1"] for n in ("13", "0", "-2")]
    for argv in runs + out_of_range:
        capsys.readouterr()
        assert main(["--out", str(tmp_path)] + argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == ("OutOfRange" if argv in out_of_range else "BadInput")
        assert err["message"]
    # plain numbers keep their type: "3" is the int 3, "0.5" a float
    assert _frac("3") == 3 and type(_frac("3")) is int
    assert _frac("0.5") == 0.5 and type(_frac("0.5")) is float
    assert _frac("1/32") == Fraction(1, 32)
    assert _int_range("3") == [3] and _int_range("2..4") == [2, 3, 4]

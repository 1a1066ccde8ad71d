import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mconvex.cli
from mconvex.cli import _build_parser, _frac, _int_range, main
from mconvex.markov import RATIO_LIMIT, laakso_ratio
from mconvex.metric import FiniteMetricSpace, rat_to_str


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


def test_classify_zero_trials(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "classify", "--kind", "fork", "--delta", "1/128",
                 "--trials", "0", "--seed", "1"]) == 0
    data = json.loads(read(tmp_path, "classify.json"))
    assert (data["trials"], data["variants"], data["unclassified"]) == (0, {}, 0)


@pytest.mark.parametrize("chunk", [3, 1024])
def test_classify_raises_the_first_failing_trial(tmp_path, capsys, monkeypatch, chunk):
    # trials 2 and 5 fail, in two spaces, and trial 5's space is classified
    # first: the error is trial 2's, as in a loop over the trials in order,
    # whether the two are drawn in one chunk or trial 5 in a later one
    from mconvex.embeddings import classify, generators
    monkeypatch.setattr(classify, "CLASSIFY_CHUNK", chunk)
    from mconvex.trees import ROOT, TreeVertex
    a = generators.make_space(Fraction(1, 128), depth=20)
    b = generators.make_space(Fraction(1, 512), depth=20)
    x = TreeVertex((0,) * 12)
    good, off = (x, x.ancestor(6), ROOT), (x, x.ancestor(1), ROOT)
    deep = (TreeVertex((1,) * 21), x, ROOT)
    trials = iter([(a, *good), (b, *good), (b, *off), (a, *good), (b, *good), (a, *deep)])
    monkeypatch.setattr(generators, "gen_midpoint", lambda rng, delta: next(trials))
    assert main(["--out", str(tmp_path), "classify", "--kind", "midpoint", "--delta", "1/32",
                 "--trials", "6", "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "PreconditionViolated", "message": "y is not a delta-approximate midpoint of x, z"}


def test_classify_chunks_leave_the_output_unchanged(tmp_path, capsys, monkeypatch):
    # classify draws and classifies its trials a chunk at a time: chunks of 7
    # give the bytes of one chunk, with one bulk call or more per chunk
    from mconvex.embeddings import classify
    args = ["classify", "--kind", "fork", "--delta", "1/128", "--trials", "40", "--seed", "4"]
    assert main(["--out", str(tmp_path / "a")] + args) == 0
    forks, sizes = classify.classify_forks, []

    def counting(space, rows, delta):
        sizes.append(len(rows))
        return forks(space, rows, delta)

    monkeypatch.setattr(classify, "classify_forks", counting)
    monkeypatch.setattr(classify, "CLASSIFY_CHUNK", 7)
    assert main(["--out", str(tmp_path / "b")] + args) == 0
    assert read(tmp_path / "a", "classify.json") == read(tmp_path / "b", "classify.json")
    assert sum(sizes) == 40 and max(sizes) <= 7 and len(sizes) >= 6


def test_reruns_byte_identical(tmp_path, capsys):
    args = ["classify", "--kind", "midpoint", "--delta", "1/32",
            "--trials", "40", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a)] + args) == 0
    assert main(["--out", str(b)] + args) == 0
    assert read(a, "classify.json") == read(b, "classify.json")


# SHA-256 of <name>.json for the seeded commands that walk the binary tree,
# frozen from the code before vertices became heap indices: any change in the
# random stream, in vertex order or naming, or in a distance fails here
FROZEN_ARTIFACTS = [
    (["classify", "--kind", "midpoint", "--delta", "1/32", "--trials", "100", "--seed", "1"],
     "438f160eaba985d076d858d0eb87fc6d4257c18ab662b08f9c49d5774fd2f7b3"),
    (["classify", "--kind", "fork", "--delta", "1/128", "--trials", "100", "--seed", "2"],
     "f9e6911421e1658c5c6d231e32bdde3c6b71c81f3c6857f4a4a1ff7a8dcd589e"),
    (["classify", "--kind", "3path", "--delta", "1/256", "--trials", "100", "--seed", "3"],
     "1320b72f1146afea589422fe69a49707d887be0d27525f53f20e073014d27bb6"),
    (["b4-search", "--trials", "20", "--seed", "1"],
     "f2fe790625e68d4df09a724863bbe0ee0a68041a57a2c78dec022552995e7be2"),
    (["distortion-gap", "--n", "8", "--seed", "1"],
     "8b63f33808cabeb5e388114b6243b4686eeed338d6bc051b19f3dc0428684f15"),
    (["distortion-gap", "--n", "12", "--s-const", "5", "--seed", "2"],
     "c9428b0964b114f803779846cabbd7b517cb7fc34ebb4ee913fc97e17cddd9bf"),
    # the sampled triples reach depth 64, past the float-exact numpy depths
    (["htree-validate", "--sequences", "2", "--exhaustive-depth", "5", "--samples", "300",
      "--seed", "1"],
     "60759e5f18d76e65cd59d3fc4c9e2cd44111b874ec24bd0026526f3476dd725c"),
    (["extract-subtree", "--n", "7"],
     "a8b4aaaa4ad1498928b831ab60ea378c69682090e6b479b0176125a3d95fd632"),
    (["ramsey-toy", "--seed", "1"],
     "044ca39e7ef6b9654ce2e45eb5117f3d05c375dc08e4798b28fb1ebfcf6e94cc"),
]


@pytest.mark.parametrize("argv,digest", FROZEN_ARTIFACTS,
                         ids=[" ".join(a[:3]) for a, _ in FROZEN_ARTIFACTS])
def test_seeded_artifacts_frozen(tmp_path, capsys, argv, digest):
    assert main(["--out", str(tmp_path)] + argv) == 0
    data = (tmp_path / (argv[0] + ".json")).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_b4_search_chunks_match_the_trial_loop(tmp_path, capsys, monkeypatch):
    # b4-search draws and checks its trials in chunks; with every third
    # trial's check failing, the violations it reports (trial numbers across
    # chunks, dist, bound and the TreeVertex map) are those of the trial loop
    # it replaced, one nested_b4_indices map a trial on the same seed
    from mconvex.embeddings import classify, search
    from mconvex.embeddings.generators import make_space
    from mconvex.trees import _vertex
    checks = classify.b4_bound_checks
    calls = []

    def flagging(space, rows, delta):
        calls.append(len(rows))
        return [(dist, bound, holds and (i + sum(calls[:-1])) % 3 != 0)
                for i, (dist, bound, holds) in enumerate(checks(space, rows, delta))]

    monkeypatch.setattr(classify, "b4_bound_checks", flagging)
    trials = 2 * search.B4_CHUNK + 5
    assert main(["--out", str(tmp_path), "b4-search", "--trials", str(trials),
                 "--seed", "3"]) == 0
    assert calls == [search.B4_CHUNK, search.B4_CHUNK, 5]
    space = make_space(Fraction(1, 5), depth=60)
    rng = random.Random(3)
    expected = []
    for i in range(trials):
        f = dict(zip(classify._B4, map(_vertex, search.nested_b4_indices(space, rng))))
        dist, bound, _ = classify.b4_bound_check(space, lambda v: f[v], Fraction(1, 512))
        if i % 3 == 0:
            expected.append({"trial": i, "dist": rat_to_str(dist), "bound": rat_to_str(bound),
                             "map": {str(k): str(v) for k, v in f.items()}})
    assert json.loads(read(tmp_path, "b4-search.json"))["violations"] == expected
    # a delta past 1/400 fails on the first chunk, and with no trials nothing is checked
    monkeypatch.undo()
    assert main(["--out", str(tmp_path), "b4-search", "--delta", "1/400", "--trials", "3",
                 "--seed", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "PreconditionViolated", "message": "requires delta < 1/400"}
    assert main(["--out", str(tmp_path), "b4-search", "--delta", "1/400", "--trials", "0",
                 "--seed", "1"]) == 0
    assert json.loads(read(tmp_path, "b4-search.json"))["violations"] == []
    # delta = 0 is in range (a negative one is OutOfRange): the maps are
    # exactly faithful, so every check runs
    assert main(["--out", str(tmp_path), "b4-search", "--delta", "0", "--trials", "3",
                 "--seed", "1"]) == 0
    assert json.loads(read(tmp_path, "b4-search.json"))["violations"] == []


# SHA-256 of every artifact of the Laakso commands, frozen from the exact DP
# that built G_m before they ran on the branch-interval closed form: the
# ratios, their rational strings and the plots must not move by a byte
LAAKSO_ARTIFACTS = [
    (["laakso-ratio", "--m", "1..4", "--p", "2"], {
        ".json": "153e65d7ede5d31a7eee1b80056f4edf5172e7c221e8479af7dc2b29d80dca7e",
        ".csv": "e9c4734c52bab3cfb4a078ed36b8632d81105be2650e905f2ac8b7d88ef72786",
        ".svg": "4076926245394e56f3862b6ac039ca76699cd1ddfc3b7e975aa983e90b0d7064"}),
    (["laakso-ratio", "--m", "1..4", "--p", "3"], {
        ".json": "260e379734512e4f101a479e868cdc02d52b6156aedcd07beb6f4d4c4405d664",
        ".csv": "44868e6197d65429c3a94500e263669730b7adbac1a03da30fff86b7712dea31",
        ".svg": "07d32d6a8f82e5b8dc971d68beb994ab42cd5e1edccb652f07592b4bd335b94d"}),
    (["laakso-ratio", "--m", "0..5", "--p", "1"], {
        ".json": "784045871e3db67384ed701926d90f535dc6bd0db9658d4332c625a1e69f7c34",
        ".csv": "77057ce6d523c16204ef04c06222621fe5b8f848afb10293ce60dfc8c3ee651b",
        ".svg": "347b7de6ad8a85d892fb7777171d23e62c6b01438796239d15c67d339735a525"}),
    (["per-k-bound", "--m", "4", "--p", "2"], {
        ".json": "a566c93eb9d254b9fe6ef8d20f296cc80e88c5ae642e40e89fea480643cbac40",
        ".svg": "a8d166cda28a5e7d04a5f45283738c86bd89427c298b724b10bb19ea41af02c8"}),
    (["per-k-bound", "--m", "5", "--p", "3"], {
        ".json": "bf2de2252acb87b1a30f95ea019de49f79abd0f1c5d3b6635773b2586a8efe3a",
        ".svg": "4981dfb2d048e8b2b13e065bd35307130ec102b00a9a9bc370a237fba19c5795"}),
]


@pytest.mark.parametrize("argv,digests", LAAKSO_ARTIFACTS,
                         ids=[" ".join(a) for a, _ in LAAKSO_ARTIFACTS])
def test_laakso_artifacts_frozen(tmp_path, capsys, argv, digests):
    assert main(["--out", str(tmp_path)] + argv) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == {argv[0] + suffix: digest for suffix, digest in digests.items()}


# SHA-256 of the bn-ratio artifacts, frozen from the per-(t, s) Fraction loop
# over bn_pair_expectation before bn_ratio ran on the branch-interval kernel
BN_ARTIFACTS = [
    (["bn-ratio", "--n", "5", "--p", "1"], {
        ".json": "40256044da4d99e73d8c1c659a98c1f678bd88ce60f2413750c4cfbd252d3b23",
        ".csv": "00d98e9505c9f5c3fad270e3abdce47d2b4cf6156138a80349428ae695085e5b"}),
    (["bn-ratio", "--n", "16", "--p", "2"], {
        ".json": "e31d9494122f6d2054c553b519bad1d5a4cc49eff80d0a9cbc0cc3904c713b11",
        ".csv": "a616e05e38f3b65a2c503076619e04787104a51eab6bbdef7a4ec61902050f08"}),
    (["bn-ratio", "--n", "64", "--p", "3"], {
        ".json": "d3cf637cae7d65327e78c75f4f0698654939ecbe7f29036e26797a41e14eb726",
        ".csv": "2742f32c12fc91dcc1404a5afc92f0b2d450e4fadccb956c27beeba4b2ae2dfd"}),
]


@pytest.mark.parametrize("argv,digests", BN_ARTIFACTS,
                         ids=[" ".join(a) for a, _ in BN_ARTIFACTS])
def test_bn_artifacts_frozen(tmp_path, capsys, argv, digests):
    assert main(["--out", str(tmp_path)] + argv) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == {argv[0] + suffix: digest for suffix, digest in digests.items()}


def seeded_lift_chain(seed):
    """chain.json text: a random walk of horizon 3 on the four target points
    of seeded_quotient_map, every row on 1-3 points with rational weights."""
    rng = random.Random(seed)
    tgt = [f"y{j}" for j in range(4)]
    kernels = {}
    for t in range(1, 4):
        rows = {}
        for z in tgt:
            support = rng.sample(tgt, rng.randint(1, 3))
            weights = [rng.randint(1, 4) for _ in support]
            rows[z] = {x: f"{w}/{sum(weights)}" for x, w in zip(support, weights)}
        kernels[str(t)] = rows
    return json.dumps({"states": tgt, "t_min": 0, "t_max": 3, "kernels": kernels,
                       "initial": {rng.choice(tgt): "1"}}, sort_keys=True)


# SHA-256 of <name>.json for seeded commands whose numbers are exact or float
# by their inputs, frozen from the code before exactness was decided in one
# place: a Fraction path under an exact and a float delta, the exact Prop 2.1
# transfer, and lifts over a float target under exact and float factors.
# seeded_quotient_map(1) is a (73/4, 13/4)-quotient, with both factors least
# among the multiples of 1/4
POLICY_ARTIFACTS = [
    (["boost", "--seed", "1"],
     "fe69921576e0b7244a520a5d19dd7323020dc71e78314b14942eaf97b4778ebc"),
    (["boost", "--delta", "0.5", "--seed", "2"],
     "d83b5e6856ae860127716b0dd39d9e6085866fb256183ad829a418d761c4f3ce"),
    (["boost", "--n", "256", "--t", "2", "--delta", "1/4", "--seed", "3"],
     "cfa2a22794743a12bfac7271fc72ac40b8e635aff16a123ed7a3fe0903ad8753"),
    (["prop21-check", "--trials", "20", "--seed", "1"],
     "4c6ea0aab1ef8b560e696beffc50826f9d44f1482a55ac4c7f66cba76b884fab"),
    (["quotient-lift", "--map", "{tmp}/map.json", "--chain", "{tmp}/chain.json",
      "--a", "73/4", "--b", "13/4"],
     "a56f3c8171fec0d1a47b2939cb919bc575208d35739f985f4a26ee33c272fd24"),
    (["quotient-lift", "--map", "{tmp}/map.json", "--chain", "{tmp}/chain.json",
      "--a", "18.25", "--b", "3.25"],
     "a56f3c8171fec0d1a47b2939cb919bc575208d35739f985f4a26ee33c272fd24"),
]


@pytest.mark.parametrize("argv,digest", POLICY_ARTIFACTS,
                         ids=[" ".join(a[:1] + a[-4:]) for a, _ in POLICY_ARTIFACTS])
def test_policy_artifacts_frozen(tmp_path, capsys, argv, digest):
    (tmp_path / "map.json").write_text(seeded_quotient_map(1))
    (tmp_path / "chain.json").write_text(seeded_lift_chain(1))
    out = tmp_path / "out"
    assert main(["--out", str(out)] + [a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    data = (out / (argv[0] + ".json")).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_pconvex_check_K_keeps_its_type(tmp_path, capsys):
    # an exact K is written as "p/q", a float K as a JSON number
    for K, written in (("3/2", "3/2"), ("1.5", 1.5), ("2", "2/1")):
        assert main(["--out", str(tmp_path), "pconvex-check", "--K", K, "--trials", "100",
                     "--seed", "1"]) == 0
        data = json.loads(read(tmp_path, "pconvex-check.json"))
        assert data["K"] == written and type(data["K"]) is type(written)
    # a rational p is written as "p/q" too, and sampled as the float 2.5
    slacks = []
    for p, written in (("5/2", "5/2"), ("2.5", 2.5)):
        assert main(["--out", str(tmp_path), "pconvex-check", "--p", p, "--K", "3/2",
                     "--trials", "1000", "--seed", "1"]) == 0
        data = json.loads(read(tmp_path, "pconvex-check.json"))
        assert data["p"] == written and data["violations"] == 0
        slacks.append(data["min_slack"])
    assert slacks[0] == slacks[1] > 0


def test_laakso_commands_past_the_graph_limit(tmp_path, capsys):
    # neither command builds G_m, so both run past the graph-size guard
    # (BUILD_LIMIT = 6) up to RATIO_LIMIT for integer p and INTERVAL_LIMIT
    # for other p, and refuse beyond them
    assert main(["--out", str(tmp_path), "per-k-bound", "--m", "7"]) == 0
    assert json.loads(read(tmp_path, "per-k-bound.json"))["all_ok"] is True
    assert main(["--out", str(tmp_path), "laakso-ratio", "--m", "7"]) == 0
    assert json.loads(read(tmp_path, "laakso-ratio.json"))["rows"][0]["ratio"] == \
        "31155714793969/8796093022208"
    # past the branch-interval sum's m = 9, on the copy recursion
    assert main(["--out", str(tmp_path), "per-k-bound", "--m", "10"]) == 0
    assert json.loads(read(tmp_path, "per-k-bound.json"))["all_ok"] is True
    assert main(["--out", str(tmp_path), "laakso-ratio", "--m", "9..10", "--p", "3"]) == 0
    rows = json.loads(read(tmp_path, "laakso-ratio.json"))["rows"]
    assert [row["ratio"] for row in rows] == [rat_to_str(laakso_ratio(m, 3).ratio)
                                              for m in (9, 10)]
    # a rational p is written as "p/q" and runs in floats
    assert main(["--out", str(tmp_path), "laakso-ratio", "--m", "2..3", "--p", "5/2"]) == 0
    data = json.loads(read(tmp_path, "laakso-ratio.json"))
    assert data["p"] == "5/2"
    assert [row["ratio"] for row in data["rows"]] == [laakso_ratio(m, 2.5).ratio
                                                      for m in (2, 3)]
    past = str(RATIO_LIMIT + 1)
    for argv in (["laakso-ratio", "--m", past], ["per-k-bound", "--m", past],
                 ["laakso-ratio", "--m", "10", "--p", "5/2"],
                 ["per-k-bound", "--m", "10", "--p", "5/2"]):
        capsys.readouterr()
        assert main(["--out", str(tmp_path)] + argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "TooLarge"


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
    # maps that once crashed or ran, each with its error message: an
    # assignment to no target point, a ragged matrix, a negative, infinite,
    # asymmetric or nonzero diagonal entry, and duplicate point names
    line = {"points": ["0", "1", "2"], "exact": True,
            "dist": [["0/1", "1/1", "2/1"], ["1/1", "0/1", "1/1"], ["2/1", "1/1", "0/1"]]}
    pair = {"points": ["a", "b"], "exact": True, "dist": [["0/1", "1/1"], ["1/1", "0/1"]]}
    onto = {"0": "a", "1": "b", "2": "b"}
    bad_maps = {"assignment: '2' goes to 'zz', not a target point": json.dumps(
        {"source": line, "target": pair, "assignment": {**onto, "2": "zz"}})}
    for why, space in (("dist is not a 2 x 2 matrix", {"dist": [["0/1"], ["1/1", "0/1"]]}),
                       ("dist[0][1] = -1 is negative",
                        {"dist": [["0/1", "-1/1"], ["-1/1", "0/1"]]}),
                       ("dist[0][1] = 1 differs from dist[1][0]",
                        {"dist": [["0/1", "1/1"], ["2/1", "0/1"]]}),
                       ("dist[0][0] = 1 is a nonzero diagonal entry",
                        {"dist": [["1/1", "1/1"], ["1/1", "0/1"]]}),
                       ("duplicate point names", {"points": ["a", "a"]})):
        bad_maps[f"target: {why}"] = json.dumps({"source": line, "target": {**pair, **space},
                                                 "assignment": onto})
    bad_maps["target: dist[0][1] = inf is not finite"] = \
        bad_maps["target: dist[0][1] = -1 is negative"].replace('"-1/1"', "1e400")
    map_files = {}
    for k, (why, text) in enumerate(bad_maps.items()):
        map_files[why] = tmp_path / f"badmap{k}.json"
        map_files[why].write_text(text)
    backwards = tmp_path / "backwards.json"
    backwards.write_text(json.dumps({"states": ["y0"], "t_min": 3, "t_max": 1, "kernels": {},
                                     "initial": {"y0": "1"}}))
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
            ["laakso-ratio", "--m", "1..x"],
            # every integer option has a least value its command runs with
            ["laakso-ratio", "--m", "-1"],
            ["laakso-ratio", "--m=-1..2"],
            ["laakso-ratio", "--m", "1", "--p", "0"],
            ["laakso-ratio", "--m", "1", "--p", "1/2"],
            ["per-k-bound", "--m", "1", "--p", "0.5"],
            ["bn-ratio", "--n", "abc"],
            ["bn-ratio", "--n", "3", "--p", "0"],
            ["per-k-bound", "--m", "-1"],
            ["pconvex-check", "--trials", "0", "--seed", "1"],
            ["pconvex-check", "--d", "-1", "--seed", "1"],
            ["classify", "--kind", "fork", "--delta", "1/128", "--trials", "-3",
             "--seed", "1"],
            ["prop21-check", "--trials", "-2", "--seed", "1"],
            ["htree-validate", "--exhaustive-depth", "-1", "--seed", "1"],
            ["htree-validate", "--samples", "-5", "--seed", "1"],
            ["htree-validate", "--sequences", "-1", "--seed", "1"],
            ["htree-validate", "--exhaustive-depth", "3", "--max-depth", "2", "--seed", "1"],
            ["boost", "--t", "1", "--seed", "1"],
            ["ramsey-toy", "--r", "0", "--seed", "1"],
            ["extract-subtree", "--t", "1"],
            ["classify", "--kind", "fork", "--delta", "1/128", "--seed", "x"],
            # a number past the float range is refused as it is parsed
            ["classify", "--kind", "fork", "--delta", "1e400", "--trials", "1", "--seed", "1"],
            ["boost", "--delta", "1e400", "--seed", "1"],
            ["boost", "--delta=-1e400", "--seed", "1"],
            # a negative value in scientific notation is a value, not an option
            ["boost", "--delta", "-1e400", "--seed", "1"],
            ["quotient-verify", "--map", str(bad_json), "--a", "1e400", "--b", "1"]]
    fold = tmp_path / "fold.json"
    fold.write_text(seeded_quotient_map(1))
    still = tmp_path / "still.json"
    still.write_text(json.dumps({"states": ["y0"], "t_min": 0, "t_max": 1, "kernels": {},
                                 "initial": {"y0": "1"}}))
    runs.append(["quotient-lift", "--map", str(fold), "--chain", str(backwards),
                 "--a", "1", "--b", "1"])
    # the depth budget n of distortion-gap is checked by the experiment
    # itself, the quotient factors (> 0) by verify_quotient, the boost
    # slack delta (>= 0) by path_boost, and the b4-search delta (>= 0) by
    # b4_bound_checks
    out_of_range = [["distortion-gap", "--n", n, "--seed", "1"] for n in ("13", "0", "-2")]
    out_of_range += [["quotient-verify", "--map", str(fold), "--a", a, "--b", b]
                     for a, b in (("0", "1"), ("1", "-1"))]
    # an exact factor past the float range meets the fold's float distances
    huge = "1" + "0" * 400 + "/1"
    out_of_range += [["quotient-verify", "--map", str(fold), "--a", a, "--b", b]
                     for a, b in ((huge, "1"), ("1", huge))]
    out_of_range.append(["boost", "--delta", "-1e-3", "--seed", "1"])
    out_of_range += [["b4-search", "--delta", delta, "--trials", "5", "--seed", "1"]
                     for delta in ("-1/2", "-1e-3")]
    out_of_range.append(["quotient-lift", "--map", str(fold), "--chain", str(still),
                         "--a", "1", "--b", "-1"])
    # no generated instance has a negative delta: the generators refuse it
    # before their rejection loops start
    out_of_range += [["classify", "--kind", kind, "--delta", delta, "--seed", "1"]
                     for kind, delta in (("midpoint", "-1"), ("fork", "-1/1000"),
                                         ("3path", "-1/2"), ("3path", "-1"))]
    # the sampled p-convexity inequality needs p >= 2 and K > 0
    out_of_range += [["pconvex-check", *opts, "--seed", "1"]
                     for opts in (["--K", "0"], ["--K", "-1", "--p", "5/2"], ["--p", "1"],
                                  ["--p", "0"], ["--p", "-1"])]
    # a delta too small to move 1 + delta/4 off 1 as a float leaves the
    # coloring's logarithms no base
    out_of_range += [["extract-subtree", *opts]
                     for opts in (["--xi", "0"], ["--xi", "-1"], ["--delta", "-1"],
                                  ["--delta", "0"], ["--delta", "1e-300"],
                                  ["--delta", "1/10000000000000000000"])]
    # an exact number past the float range, where a command works in floats
    out_of_range += [["pconvex-check", "--K", huge, "--trials", "10", "--seed", "1"],
                     ["pconvex-check", "--p", huge, "--trials", "10", "--seed", "1"],
                     ["boost", "--delta", huge, "--seed", "1", "--n", "64"],
                     ["extract-subtree", "--delta", huge]]
    # B_21 has more vertices than enumerate_bn lists (ENUMERATE_LIMIT = 20),
    # and the exhaustive triangle count stops at EXHAUSTIVE_TRIANGLE_DEPTH = 12
    too_large = [["htree-validate", "--exhaustive-depth", d, "--seed", "1"]
                 for d in ("21", "13")]
    for argv in runs + out_of_range + too_large:
        capsys.readouterr()
        assert main(["--out", str(tmp_path)] + argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == ("OutOfRange" if argv in out_of_range else
                                "TooLarge" if argv in too_large else "BadInput")
        assert err["message"]
    for why, mp in map_files.items():
        assert main(["--out", str(tmp_path), "quotient-verify", "--map", str(mp),
                     "--a", "1", "--b", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadInput"
        assert err["message"] == f"bad map file {mp}: BadInput: {why}"
    # plain numbers keep their type: "3" is the int 3, "0.5" a float
    assert _frac("3") == 3 and type(_frac("3")) is int
    assert _frac("0.5") == 0.5 and type(_frac("0.5")) is float
    assert _frac("1/32") == Fraction(1, 32)
    assert _int_range("3") == [3] and _int_range("2..4") == [2, 3, 4]


def test_inexact_chain_probability_is_bad_input(tmp_path, capsys):
    # a probability given as a JSON number is a float, no exact rational:
    # ChainSpec refuses it, naming the row, as the chain file is loaded
    (tmp_path / "map.json").write_text(seeded_quotient_map(1))
    chain = json.loads(seeded_lift_chain(1))
    chain["kernels"]["2"]["y1"] = {"y0": 0.5, "y2": "1/2"}
    (tmp_path / "chain.json").write_text(json.dumps(chain))
    assert main(["--out", str(tmp_path / "out"), "quotient-lift",
                 "--map", str(tmp_path / "map.json"), "--chain", str(tmp_path / "chain.json"),
                 "--a", "73/4", "--b", "13/4"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadInput"
    assert "kernel row at time 2, state 'y1' gives inexact probability 0.5 to 'y0'" \
        in err["message"]


def seeded_quotient_map(seed):
    """map.json text: 9 points at random integer places on a line onto 4
    points at random places (multiples of 1/4, given as floats), every
    target point hit.  Far from a quotient: many colip and lip violations."""
    rng = random.Random(seed)
    xs = rng.sample(range(40), 9)
    ys = [rng.randint(0, 40) / 4 for _ in range(4)]
    src, tgt = [f"x{i}" for i in range(9)], [f"y{j}" for j in range(4)]
    images = list(range(4)) + [rng.randrange(4) for _ in range(5)]
    rng.shuffle(images)
    return json.dumps({
        "source": {"points": src, "exact": True,
                   "dist": [[f"{abs(a - b)}/1" for b in xs] for a in xs]},
        "target": {"points": tgt, "exact": False,
                   "dist": [[abs(a - b) for b in ys] for a in ys]},
        "assignment": {p: tgt[j] for p, j in zip(src, images)}}, sort_keys=True)


def test_quotient_verify_violations_frozen(tmp_path, capsys):
    # SHA-256 frozen from the center x radius loop before the radius sweep,
    # and retaken once when verify_quotient began to decide exact vs float
    # once per call: the float target makes every radius a float, so the
    # exact source's radii are now written as floats (the list, its order
    # and its values are unchanged); nothing else may move by a byte
    mp = tmp_path / "map.json"
    mp.write_text(seeded_quotient_map(7))
    assert main(["--out", str(tmp_path), "quotient-verify", "--map", str(mp),
                 "--a", "3/2", "--b", "1"]) == 0
    data = (tmp_path / "quotient-verify.json").read_bytes()
    kinds = [v["kind"] for v in json.loads(data)["violations"]]
    assert (kinds.count("colip"), kinds.count("lip")) == (269, 98)
    assert hashlib.sha256(data).hexdigest() == \
        "d8bae33ebac4cff083410949b1ea91cd258da046fdac744ac57881d26f6d6e19"


def test_one_parser_per_process(tmp_path, capsys):
    """main() reuses one parser: each command, run twice in a row among the
    others, gives the bytes it gives on a freshly built parser."""
    mp = tmp_path / "map.json"
    mp.write_text(seeded_quotient_map(7))
    runs = [["list"],
            ["run", "classify", "--kind", "fork", "--delta", "1/128", "--trials", "30",
             "--seed", "1"],
            ["laakso-ratio"],
            ["laakso-ratio", "--m", "2", "--p", "3"],
            ["bn-ratio", "--n", "abc"],
            ["quotient-verify", "--map", str(mp), "--a", "3/2", "--b", "1"]]

    def outcome(i, argv, tag):
        out = tmp_path / f"{tag}{i}"
        code = main(["--out", str(out)] + argv)
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, capsys.readouterr(), files

    fresh = []
    for i, argv in enumerate(runs):
        _build_parser.cache_clear()
        fresh.append(outcome(i, argv, "fresh"))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 1, 0]
    for round_ in range(2):
        for i, argv in enumerate(runs):
            assert outcome(i, argv, f"reused{round_}-") == fresh[i]
    assert _build_parser() is _build_parser()
    # the default --m is parsed anew each time, so no list is shared
    first = _build_parser().parse_args(["laakso-ratio"]).m
    first.append(9)
    assert _build_parser().parse_args(["laakso-ratio"]).m == [1, 2, 3, 4]


def test_htree_validate_exhaustive_depth_10(tmp_path):
    # B_10 (2047 vertices) by depth orbits: no n x n matrix, well under a second
    assert main(["--out", str(tmp_path), "htree-validate", "--exhaustive-depth", "10",
                 "--sequences", "1", "--samples", "10", "--seed", "1"]) == 0
    out = json.loads(read(tmp_path, "htree-validate.json"))
    assert out["exhaustive_depth"] == 10 and out["all_ok"]
    assert [r["exhaustive_violations"] for r in out["results"]] == [0]


def test_numpy_loaded_only_where_used(tmp_path):
    # importing the CLI loads no numpy, and htree-validate, whose sampler
    # parses its read-ahead with numpy, loads no numpy.random: either would
    # add to every run's start-up time and memory
    code = ("import sys\n"
            "import mconvex.cli, mconvex.randbits\n"
            "imported = 'numpy' in sys.modules\n"
            f"mconvex.cli.main(['--out', {str(tmp_path)!r}, 'htree-validate',"
            " '--sequences', '2', '--seed', '1'])\n"
            "print(imported, 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mconvex.cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.splitlines()[-1] == "False True False"
    assert json.loads(read(tmp_path, "htree-validate.json"))["all_ok"]

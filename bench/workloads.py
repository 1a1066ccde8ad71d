"""The benchmark's workloads: op lists and input files derived from a seed,
and the certificate check for every op's output.

An op is a JSON-able dict:

    {"id": str, "kind": "cli" | "verify-metric", "argv": [...],
     "instances": int, "inputs": {file name: text}}

CLI argv entries may name input files as "{work}/<file>"; the runner
substitutes its work directory.  `op_key` identifies an op by its arguments
and the digests of its input files, so a frozen reference applies exactly
when the op it was frozen from is run again.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

DEFAULT_SEED = 1

WORKLOADS = ("laakso-dp", "b4-rigidity", "small-instances", "htree-metric")

# classifier kinds with the deltas of the acceptance suite's soundness test
CLASSIFY_DELTAS = {"midpoint": "1/32", "fork": "1/128", "3path": "1/256"}

VERIFY_DEPTH = 8          # verify_metric over enumerate_bn(8): 511 points
VERIFY_HORIZON = 64       # the epsilon schedule HTreeSpace's default depth needs


def _cli(op_id, argv, instances, inputs=None):
    return {"id": op_id, "kind": "cli", "argv": argv, "instances": instances,
            "inputs": inputs or {}}


def _seeds(workload, seed, count):
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(count)], rng


def build_ops(workload, seed):
    """The op list of one round of `workload` at `seed` (deterministic)."""
    if workload == "laakso-dp":
        # one deterministic chain per p; the seed changes nothing here
        return [_cli(f"laakso-p{p}", ["laakso-ratio", "--m", "1..4", "--p", str(p)], 4)
                for p in (2, 3)]
    if workload == "b4-rigidity":
        seeds, _ = _seeds(workload, seed, 3)
        ops = [_cli(f"b4-search-{i}", ["b4-search", "--trials", "50",
                                        "--seed", str(s)], 50)
               for i, s in enumerate(seeds[:2])]
        ops.append(_cli("distortion-gap", ["distortion-gap", "--trials", "100",
                                           "--seed", str(seeds[2])], 100))
        return ops
    if workload == "small-instances":
        seeds, rng = _seeds(workload, seed, 4)
        ops = [_cli(f"classify-{kind}",
                    ["classify", "--kind", kind, "--delta", CLASSIFY_DELTAS[kind],
                     "--trials", "300", "--seed", str(seeds[i])], 300)
               for i, kind in enumerate(sorted(CLASSIFY_DELTAS))]
        ops.append(_cli("prop21", ["prop21-check", "--trials", "50",
                                   "--seed", str(seeds[3])], 50))
        for i in range(2):
            map_text, chain_text = fold_instance(rng)
            files = {f"map{i}.json": map_text, f"chain{i}.json": chain_text}
            ops.append(_cli(f"quotient-verify-{i}",
                            ["quotient-verify", "--map", f"{{work}}/map{i}.json",
                             "--a", "1", "--b", "1"], 1, {f"map{i}.json": map_text}))
            ops.append(_cli(f"quotient-lift-{i}",
                            ["quotient-lift", "--map", f"{{work}}/map{i}.json",
                             "--chain", f"{{work}}/chain{i}.json", "--a", "1", "--b", "1"],
                            1, files))
        return ops
    if workload == "htree-metric":
        seeds, _ = _seeds(workload, seed, 2)
        return [_cli("htree-validate", ["htree-validate", "--sequences", "2",
                                        "--seed", str(seeds[0])], 2),
                {"id": "verify-metric", "kind": "verify-metric",
                 "argv": ["verify-metric", "--depth", str(VERIFY_DEPTH),
                          "--seed", str(seeds[1])],
                 "instances": 1, "inputs": {}}]
    raise ValueError(f"unknown workload {workload!r}")


def fold_instance(rng):
    """(map.json, chain.json) texts: the fold of the path P_2n onto P_n under
    a random relabeling of P_n, and the reflecting walk on the labels."""
    n = rng.randint(4, 8)
    labels = [f"y{i}" for i in range(n + 1)]
    rng.shuffle(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    src = [str(i) for i in range(2 * n + 1)]

    def space(points, coord):
        return {"points": points, "exact": True,
                "dist": [[f"{abs(coord(a) - coord(b))}/1" for b in points] for a in points]}

    mapping = {"source": space(src, int), "target": space(labels, pos.__getitem__),
               "assignment": {str(i): labels[abs(n - i)] for i in range(2 * n + 1)}}
    horizon = rng.randint(3, 6)
    kernels = {}
    for t in range(1, horizon + 1):
        kernels[str(t)] = {
            y: ({labels[1]: "1/1"} if pos[y] == 0 else
                {labels[n - 1]: "1/1"} if pos[y] == n else
                {labels[pos[y] - 1]: "1/2", labels[pos[y] + 1]: "1/2"})
            for y in labels}
    chain = {"states": labels, "t_min": 0, "t_max": horizon, "kernels": kernels,
             "initial": {labels[rng.randint(0, n)]: "1/1"}}
    return json.dumps(mapping, sort_keys=True), json.dumps(chain, sort_keys=True)


def op_key(op):
    """Arguments plus input-file digests: equal keys mean equal ops."""
    digests = " ".join(f"{name}#{hashlib.sha256(text.encode()).hexdigest()[:16]}"
                       for name, text in sorted(op["inputs"].items()))
    return " ".join(op["argv"]) + (" | " + digests if digests else "")


def workload_sizes(ops):
    return {"ops": len(ops), "instances_per_round": sum(op["instances"] for op in ops),
            "argv": [op["argv"] for op in ops]}


# ---------------------------------------------------------------------------
# certificate checks: each returns a list of problems (empty means certified)
# ---------------------------------------------------------------------------

def _expect(problems, cond, message):
    if not cond:
        problems.append(message)


def check_output(op, data):
    """Certificate fields of one op's parsed JSON output."""
    problems = []
    name = op["argv"][0]
    want = op["argv"]
    if name == "laakso-ratio":
        rows = data.get("rows", [])
        _expect(problems, [r["m"] for r in rows] == [1, 2, 3, 4], "rows m != 1..4")
        for r in rows:
            num, den = (int(x) for x in r["ratio"].split("/"))
            # the walk ratio grows linearly in m (acceptance check ratio/m >= 1/2)
            _expect(problems, Fraction(num, den) / r["m"] >= Fraction(1, 2),
                    f"ratio/m < 1/2 at m={r['m']}")
    elif name == "b4-search":
        _expect(problems, data.get("violations") == [], "rigidity floor violated")
        _expect(problems, data.get("trials") == int(want[2]), "trial count")
    elif name == "distortion-gap":
        _expect(problems, data.get("floor_holds") is True, "floor does not hold")
    elif name == "classify":
        _expect(problems, data.get("unclassified") == 0, "unclassified instances")
        _expect(problems, sum(data.get("variants", {}).values()) == int(want[6]),
                "trial count")
    elif name == "prop21-check":
        _expect(problems, data.get("failures") == 0, "transfer inequality failed")
        _expect(problems, data.get("trials") == int(want[2]), "trial count")
    elif name == "quotient-verify":
        _expect(problems, data.get("violations") == [] and data.get("is_quotient") is True,
                "not a Lipschitz quotient")
    elif name == "quotient-lift":
        problems.extend(_lift_problems(op, data))
    elif name == "htree-validate":
        _expect(problems, data.get("all_ok") is True, "triangle inequality violated")
        _expect(problems, len(data.get("results", [])) == int(want[2]), "sequence count")
    elif name == "verify-metric":
        n = 2 ** (VERIFY_DEPTH + 1) - 1
        _expect(problems, data.get("violations") == [], "metric axioms violated")
        _expect(problems, data.get("mode") == "exhaustive", "not exhaustive")
        _expect(problems, data.get("triples_checked") == n ** 3, "triple count")
    else:
        problems.append(f"no check for {name}")
    return problems


def _lift_problems(op, data):
    """Every lifted point folds onto its trajectory's endpoint, and each step
    stays within a times the target step (a = 1 here)."""
    map_name = op["argv"][2].rsplit("/", 1)[-1]
    mapping = json.loads(op["inputs"][map_name])
    fold = mapping["assignment"]
    labels = mapping["target"]["points"]
    lifts = data.get("lifts", {})
    problems = [] if lifts else ["no lifted trajectories"]
    for traj, u in lifts.items():
        states = traj.split("/")
        if fold.get(u) != states[-1]:
            problems.append(f"{traj}: f(h*) != endpoint")
        prev = lifts.get("/".join(states[:-1]))
        if len(states) > 1 and prev is not None:
            step = abs(labels.index(states[-2]) - labels.index(states[-1]))
            if abs(int(prev) - int(u)) > step:
                problems.append(f"{traj}: lifted step too long")
    return problems

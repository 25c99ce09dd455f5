"""Byte-identity oracle for every run path and CLI subcommand, and the
benchmark's contract.

Each case renders the canonical output of one run path (a CLI subcommand,
``run_unknown_d`` on a pinned branch, or ``degradation_trial``) and compares
its sha256 with a pinned digest: the run paths' from the code before the run
pipeline was unified, the other subcommands' (gen, mms solve, perturb,
report) from the code before the adversarial step took over its dry pools,
and the fixed-instance ``mc`` cases from the code that still resolved the
instance on every trial.  Any change to a report's bytes fails here.
"""

import ast
import hashlib
import importlib
import inspect
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mmsonline import (
    TypeDistribution,
    gen_random,
)
from mmsonline.cli import main
from mmsonline.core import Bundle, Instance, NormalizedInstance
from mmsonline.generators import gen_normalized_random
from mmsonline.harness import degradation_trial
from mmsonline.jsonio import (
    allocation_to_obj,
    canonical_json,
    instance_to_obj,
    report_to_obj,
)
from mmsonline.stochastic import run_known_d
from mmsonline.unknown import run_unknown_d

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _files(tmp: Path) -> dict[str, str]:
    """Instance, distribution and arrival files shared by the CLI cases."""
    small = gen_normalized_random(3, 8, 2, seed=1)
    mid = gen_normalized_random(12, 40, 3, seed=2)
    return {
        "small": _write(tmp / "small.json", instance_to_obj(small.base, small)),
        "mid": _write(tmp / "mid.json", instance_to_obj(mid.base, mid)),
        "raw": _write(tmp / "raw.json", instance_to_obj(gen_random(3, 8, 2, "uniform", seed=5))),
        "seq": _write(tmp / "seq.json", {"sequence": [0, 1, 0]}),
        "dist2": _write(tmp / "dist2.json", {"probs": ["1/2", "1/2"]}),
        "dist3": _write(tmp / "dist3.json", {"probs": ["1/2", "3/10", "1/5"]}),
    }


def _cli_stdout(capsys, args: list[str]) -> str:
    capsys.readouterr()
    assert main(args) == 0
    return capsys.readouterr().out


def _cli_file(capsys, args: list[str], out: Path) -> str:
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    return out.read_text()


def _run_text(allocation, report) -> str:
    return canonical_json({"allocation": allocation_to_obj(allocation),
                           "report": report_to_obj(report)})


def _all_half_instance(n: int, k: int) -> NormalizedInstance:
    """2n items each worth 1/2 to every type: every item is universal."""
    m = 2 * n
    inst = Instance(n, tuple(tuple(F(1, 2) for _ in range(m)) for _ in range(k)))
    witness = tuple(Bundle((2 * j, 2 * j + 1)) for j in range(n))
    return NormalizedInstance(inst, (F(1),) * k, (witness,) * k)


def _degradation_text(algorithm: str, **kwargs) -> str:
    out = degradation_trial(algorithm, gen_random(3, 8, 2, "uniform", seed=2),
                            F(6, 5), seed=3, **kwargs)
    return canonical_json({key: str(val) for key, val in out.items()})


def _cases(tmp: Path, capsys) -> dict[str, callable]:
    f = _files(tmp)
    cli = lambda *args: (lambda: _cli_stdout(capsys, list(args)))  # noqa: E731
    known = ["run", "known-d", "--instance", f["mid"], "--dist", f["dist3"], "--seed", "4"]
    unknown = ["run", "unknown-d", "--instance", f["mid"], "--dist", f["dist3"], "--seed", "4"]
    # the repeated form of the known and unknown runs above; its cases keep
    # the `run-*-trials-*` names pinned when `run` still took `--trials`
    mc_known = ["mc", "--algorithm", "known-d", "--trials", "3", "--seed", "4",
                "--instance", f["mid"], "--dist", f["dist3"]]
    mc_unknown = ["mc", "--algorithm", "unknown-d", "--trials", "3", "--seed", "4",
                  "--instance", f["mid"], "--hidden-dist", f["dist3"]]
    gen = ["--generator", "normalized-random", "--generator-params", '{"n": 12, "m": 40, "k": 3}']
    dist2 = TypeDistribution.from_probs([F(1, 2)] * 2)
    mms = ["mms", "solve", "--instance", f["raw"], "--type", "1", "--bundles", "3"]
    mc_adversarial = [
        "mc", "--algorithm", "adversarial", "--trials", "6", "--seed", "3",
        "--generator", "normalized-random", "--generator-params", '{"n": 3, "m": 8, "k": 2}',
        "--dist", '["1/2", "1/2"]']

    def report_csv() -> str:
        _cli_file(capsys, mc_adversarial, tmp / "agg.json")
        return _cli_stdout(capsys, ["report", "--aggregate", str(tmp / "agg.json"), "--format", "csv"])

    return {
        "run-adversarial-arrivals": cli(
            "run", "adversarial", "--instance", f["small"], "--arrivals", f["seq"]),
        "run-adversarial-trace": cli(
            "run", "adversarial", "--instance", f["small"], "--arrivals", f["seq"], "--trace"),
        "run-adversarial-enumerate": cli(
            "run", "adversarial", "--instance", f["small"], "--enumerate"),
        "run-adversarial-enumerate-alpha": cli(
            "run", "adversarial", "--instance", f["small"], "--enumerate", "--alpha", "2/3"),
        "run-known-d-alpha": cli(*known, "--alpha", "2/5", "--epsilon", "1/10"),
        "run-known-d-eta": cli(*known, "--eta", "1/2", "--epsilon", "1/10"),
        "run-known-d-raw-instance": cli(
            "run", "known-d", "--instance", f["raw"], "--dist", f["dist2"], "--eta", "1/2"),
        "run-known-d-trials-alpha": cli(*mc_known, "--alpha", "2/5", "--epsilon", "1/10"),
        "run-known-d-trials-eta": cli(*mc_known, "--eta", "1/2", "--epsilon", "1/10"),
        "run-unknown-d-alpha": cli(*unknown, "--alpha", "2/5", "--c", "1/20"),
        "run-unknown-d-eta": cli(*unknown, "--eta", "1/2", "--c", "1/20"),
        "run-unknown-d-trials-alpha": cli(*mc_unknown, "--alpha", "2/5", "--c", "1/20"),
        "run-unknown-d-trials-eta": cli(*mc_unknown, "--eta", "1/2", "--c", "1/20"),
        "mc-adversarial": cli(
            "mc", "--algorithm", "adversarial", "--trials", "6", "--seed", "3",
            "--generator", "normalized-random", "--generator-params", '{"n": 3, "m": 8, "k": 2}',
            "--dist", '["1/2", "1/2"]'),
        "mc-known-d": cli(
            "mc", "--algorithm", "known-d", "--trials", "5", "--seed", "11", *gen,
            "--dist", f["dist3"], "--eta", "1/2", "--epsilon", "1/10"),
        "mc-unknown-d": cli(
            "mc", "--algorithm", "unknown-d", "--trials", "4", "--seed", "9", *gen,
            "--hidden-dist", '["1/2", "3/10", "1/5"]', "--alpha", "1/3", "--c", "1/20"),
        "mc-exhaustive": cli(
            "mc", "--algorithm", "adversarial", "--trials", "0", "--seed", "1",
            "--instance", f["small"], "--arrivals", "exhaustive"),
        "mc-fixed-instance": cli(
            "mc", "--algorithm", "known-d", "--trials", "4", "--seed", "5", *gen, "--fixed-instance",
            "--dist", f["dist3"], "--eta", "1/2", "--epsilon", "1/10"),
        "mc-exhaustive-raw": cli(
            "mc", "--algorithm", "adversarial", "--trials", "0", "--seed", "2",
            "--instance", f["raw"], "--arrivals", "exhaustive"),
        "mc-csv": lambda: _cli_file(capsys, [
            "mc", "--algorithm", "known-d", "--trials", "5", "--seed", "11", *gen,
            "--dist", '["1/3", "1/3", "1/3"]', "--eta", "1/2", "--epsilon", "1/10",
            "--format", "csv"], tmp / "rows.csv"),
        "known-d-high-c": lambda: _run_text(*run_known_d(
            _all_half_instance(6, 2), dist2, [0, 1, 1, 0, 0, 1], eta=F(1, 2), epsilon=F(1, 10))),
        "unknown-degenerate": lambda: _run_text(*run_unknown_d(
            gen_normalized_random(3, 8, 2, seed=1), [1, 0, 1], eta=F(1, 2), c=F(1, 20), seed=2)),
        "unknown-learn-from-universal": lambda: _run_text(*run_unknown_d(
            _all_half_instance(12, 2), [0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0],
            alpha=F(1, 3), c=F(1, 20), seed=5)),
        "degradation-adversarial": lambda: _degradation_text("adversarial", dist=dist2),
        "degradation-known-d": lambda: _degradation_text(
            "known-d", dist=dist2, eta=F(1, 2), epsilon=F(1, 10)),
        "degradation-unknown-d": lambda: _degradation_text(
            "unknown-d", dist=dist2, alpha=F(1, 3), c=F(1, 20)),
        "gen-normalized-random": cli(
            "gen", "normalized-random", "--n", "4", "--m", "12", "--k", "3", "--seed", "7"),
        "gen-random": cli(
            "gen", "random", "--n", "3", "--m", "9", "--k", "2", "--model", "binary", "--seed", "6"),
        "gen-lower-bound": cli("gen", "lower-bound", "--k", "16", "--n", "4"),
        "mms-solve": cli(*mms),
        "mms-solve-brute-force": cli(*mms, "--brute-force"),
        "perturb": cli("perturb", "--instance", f["raw"], "--beta", "6/5", "--seed", "1"),
        "report-csv": report_csv,
    }


# sha256 of each case's canonical output, pinned before the refactor
DIGESTS = {
    "run-adversarial-arrivals":
        "055244a7910151746e38d0692a8557b6919a082b6ea5db986a9895a692e034f9",
    "run-adversarial-trace":
        "f1044f058883b2a509af9c5a2ffd363d0a37a57f2cdb4f942fdab109b1ca9d20",
    "run-adversarial-enumerate":
        "f5cd137295c71a644cd9c3a2b8cbc0666f5b0455fdda7695b097a51964d845e6",
    "run-adversarial-enumerate-alpha":
        "41a8804c8827d67d555e3b3a1df4525df3693e8bba8bdb6eb27c6f00befab70c",
    "run-known-d-alpha":
        "b36cb88ff649d020c8a3e319bc43b128a4e8c3a977d2e1564cef49cf43301ede",
    "run-known-d-eta":
        "2a73ca3780e7dd7c434812418ab04c333ccd4632a6c0346dc96641aad78a04ad",
    "run-known-d-raw-instance":
        "7d40428c3f7851be0afa6c36f1d578932ecb23e2ce471c683341162e8eecef77",
    "run-known-d-trials-alpha":
        "f1aa2c67354d339b0e5f412e9b288215bfd725bee74a0cdd37a4d08ee887e19e",
    "run-known-d-trials-eta":
        "a1512a5f8be137221352f1907c37cf068364e5eef60775df7fae72038179971b",
    "run-unknown-d-alpha":
        "533bc297e005c98027d5df3e58be776c1489e88d73e2b683d771849d4c794b88",
    "run-unknown-d-eta":
        "60b3664163cde2311db147dc5c7b373a2a6b2349d411cecdd0d13d04b09d391b",
    "run-unknown-d-trials-alpha":
        "8b2b3da98093855282163c5506d6f850088b0f8abcc84dbb09d799d1a3dc98db",
    "run-unknown-d-trials-eta":
        "8b8ed6d3c30dc2136b44415373244d0702898847f6935f5761f2796b71eebd82",
    "mc-adversarial":
        "6c488b182db40d0cb833fba891e198086f313ec31ef8fdff7c3dd72025c59f84",
    "mc-known-d":
        "f109f6b941ef9f3314f4916611580d43923055369de690b30210921087d39b9b",
    "mc-unknown-d":
        "852f8d018dc4221b40dfc9f8e2fbae013ca7ac31293b924a70238633f3f755ef",
    "mc-exhaustive":
        "30eb9ed0a345627e936e551da35b6fcbdaa87f2deee8c4a6c7fcc769bcd7baaa",
    "mc-csv":
        "3fcd066d78757ce24358271b0885803f13b0e82880521e128d3cf46cdde1580f",
    "known-d-high-c":
        "c3937a61616476b0ccdb8ae42576b2f63005cbed5b993099b4ee1019673d8cfa",
    "unknown-degenerate":
        "11acba37891dcd187044a3a0c35d4cf2087b78111866a52cc578cc6c739a7e35",
    "unknown-learn-from-universal":
        "1fcffd61d8616d186a5203d896de4de55cef6c9b98a682e93fe481b001d78b73",
    "degradation-adversarial":
        "9aedd21c2ad9f2292ff6d7cffbd7c7e790cda1cb86d9028bdc6aab86e66db51a",
    "degradation-known-d":
        "6a5e3aeebe5c04f7cc903dd77940f6c7ef0fdbdadc41548ec86adb8791996ad3",
    "degradation-unknown-d":
        "08a236f41694f549922552a04418c3e011fc44e0f36438dfe75856c07a685246",
    # the subcommands no run path covers, pinned before the adversarial step
    # took over its dry pools
    "gen-normalized-random":
        "ee5642e91c78e70f07a820824133948b5d65895f2ea35a3eb4845fdd598ada05",
    "gen-random":
        "3231ffb275dbeb3a5a94a722356361967ead795bd03f51c714cac6873b99fa73",
    # re-pinned when `gen lower-bound` began to emit the construction's
    # normalized rows beside its share partitions (the raw binary rows did not
    # load: their witness bundles are not worth 1)
    "gen-lower-bound":
        "f8d9dcef9350fc97639e3eb9c96b2dc56e61bd6790ca805a2bfc6e7a8d4b5c63",
    # re-pinned when the share solver began to prune by bundle deficits: its
    # `nodes` count went 50 -> 37 and nothing else in the output changed;
    # re-pinned again when it began to decide the optimum before its search
    # and stop that search at the first optimal leaf: `nodes` went 37 -> 23,
    # the rest unchanged; test_mms_solve_value_and_witness pins the rest
    "mms-solve":
        "147d5b23df62c62d5bbb62b73e192565f1691c8ff65b59e4e689babb532dd899",
    "mms-solve-brute-force":
        "93737936f7324dd45863ff34ed0ed34e924fdc171dc4ca58f439ef018ba47f8a",
    "perturb":
        "e22f8aa878036a0d6042804023e7d2510a84d643fd1b50e77c327ad96a92eee4",
    "report-csv":
        "7a5d1553b330ab75e5b544f775c30fe5423d1692b302979280986e86371424a0",
    # a fixed generated instance and a raw instance file, pinned before a
    # fixed instance was resolved once per experiment instead of per trial
    "mc-fixed-instance":
        "bd5cd5886d58bbf1d8a41041277c892849e0d2f52fc1600f92eb93a10accb9ce",
    "mc-exhaustive-raw":
        "f4f77e27a4508af9a50e0cd9e2cfc493b8f076556a0bffe2e6202634dc7a56c2",
}


def test_run_paths_byte_identical(tmp_path, capsys):
    cases = _cases(tmp_path, capsys)
    assert set(cases) == set(DIGESTS)
    got = {name: hashlib.sha256(render().encode()).hexdigest() for name, render in cases.items()}
    assert {name: d for name, d in got.items() if d != DIGESTS[name]} == {}


def test_mms_solve_value_and_witness(tmp_path, capsys):
    # everything in the `mms-solve` case but the solver's own `nodes` count
    out = json.loads(_cases(tmp_path, capsys)["mms-solve"]())
    assert out["value"] == "229/6"
    assert out["witness"] == [[7], [0, 1, 6], [2, 3, 4, 5]]
    assert out["exact"] is True


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_traced_functions_resolve(tracing):
    for module_name, path, _counter in tracing.TRACED:
        owner = importlib.import_module(f"mmsonline.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"mmsonline.{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner)


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None unless a pure name-and-attribute chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _bench_references(script: str) -> set[str]:
    """Each ``mmsonline.<module>.<name>...`` path a bench script imports, or
    reaches by attribute from a module it imported with ``from mmsonline import``."""
    tree = ast.parse((BENCH_DIR / script).read_text())
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mmsonline"):
            for a in node.names:
                refs.add(f"{node.module}.{a.name}")
                if node.module == "mmsonline":
                    modules[a.asname or a.name] = f"mmsonline.{a.name}"
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            refs.add(".".join([modules[chain[0]], *chain[1:]]))
    return refs


def _resolves(path: str) -> bool:
    _, module, *names = path.split(".")
    try:
        owner = importlib.import_module(f"mmsonline.{module}")
    except ImportError:
        return False
    for name in names:
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


@pytest.mark.parametrize("script", ["run.py", "pin.py"])
def test_bench_references_resolve(script):
    refs = _bench_references(script)
    assert refs, f"bench/{script} reaches no mmsonline name"
    assert sorted(ref for ref in refs if not _resolves(ref)) == []


def test_run_trial_keeps_two_positional_parameters():
    from mmsonline import harness
    params = list(inspect.signature(harness.run_trial).parameters.values())
    assert [p.name for p in params] == ["config", "trial"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

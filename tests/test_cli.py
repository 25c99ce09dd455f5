import json
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from mmsonline import jsonio
from mmsonline.cli import main
from mmsonline.core import InputError
from mmsonline.harness import McConfig


def run_cli(args):
    return main(list(args))


def test_gen_and_solve_roundtrip(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "random", "--n", "3", "--m", "8", "--k", "2",
                    "--seed", "5", "--out", str(inst)]) == 0
    out = tmp_path / "mms.json"
    assert run_cli(["mms", "solve", "--instance", str(inst), "--type", "0",
                    "--bundles", "3", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["exact"] is True
    assert len(obj["witness"]) == 3
    # brute force agrees
    out2 = tmp_path / "mms2.json"
    assert run_cli(["mms", "solve", "--instance", str(inst), "--type", "0",
                    "--bundles", "3", "--brute-force", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["value"] == obj["value"]


def test_run_adversarial_with_sequence_and_enumerate(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli(["gen", "normalized-random", "--n", "3", "--m", "8", "--k", "2",
             "--seed", "1", "--out", str(inst)])
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"sequence": [0, 1, 0]}))
    rep = tmp_path / "rep.json"
    assert run_cli(["run", "adversarial", "--instance", str(inst),
                    "--arrivals", str(seq), "--trace", "--out", str(rep)]) == 0
    obj = json.loads(rep.read_text())
    assert obj["succeededAtAlpha"] is True
    assert "trace" in obj
    rep2 = tmp_path / "worst.json"
    assert run_cli(["run", "adversarial", "--instance", str(inst),
                    "--enumerate", "--out", str(rep2)]) == 0
    worst = json.loads(rep2.read_text())
    num, den = worst["minRatio"].split("/")
    assert int(num) * 2 >= int(den)  # worst case still >= 1/2


def test_run_adversarial_enumerate_on_a_raw_instance(tmp_path):
    # a raw k = 2 instance whose second agent once found the pool exhausted
    inst = tmp_path / "inst.json"
    assert run_cli(["gen", "random", "--n", "2", "--m", "6", "--k", "2", "--model", "uniform",
                    "--seed", "971167", "--out", str(inst)]) == 0
    rep = tmp_path / "worst.json"
    assert run_cli(["run", "adversarial", "--instance", str(inst),
                    "--enumerate", "--out", str(rep)]) == 0
    num, den = json.loads(rep.read_text())["minRatio"].split("/")
    assert int(num) * 2 >= int(den)


def test_run_known_and_unknown(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli(["gen", "normalized-random", "--n", "12", "--m", "40", "--k", "3",
             "--seed", "2", "--out", str(inst)])
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"probs": ["1/3", "1/3", "1/3"]}))
    rep = tmp_path / "rep.json"
    assert run_cli(["run", "known-d", "--instance", str(inst), "--dist", str(dist),
                    "--eta", "1/2", "--epsilon", "1/10", "--seed", "4",
                    "--out", str(rep)]) == 0
    assert "minRatio" in json.loads(rep.read_text())
    rep2 = tmp_path / "rep2.json"
    assert run_cli(["run", "unknown-d", "--instance", str(inst), "--dist", str(dist),
                    "--eta", "1/2", "--c", "1/20", "--seed", "4",
                    "--out", str(rep2)]) == 0
    assert "details" in json.loads(rep2.read_text())


def test_failed_low_c_audit_exits_2_in_run_and_mc(tmp_path, capsys, monkeypatch):
    # an audit that always fails: the first open type's message, and exit code 2
    from mmsonline import stochastic
    monkeypatch.setattr(stochastic, "pow_sqrt_sum_ge", lambda *args: False)
    inst, dist = str(tmp_path / "inst.json"), str(tmp_path / "dist.json")
    # eight items per share bundle, so some type stays open after its turn
    run_cli(["gen", "normalized-random", "--n", "12", "--m", "96", "--k", "3", "--seed", "2", "--out", inst])
    Path(dist).write_text(json.dumps({"probs": ["1/3", "1/3", "1/3"]}))
    assert run_cli(["run", "known-d", "--instance", inst, "--dist", dist,
                    "--eta", "1/2", "--epsilon", "1/10", "--seed", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"invariant violation: open type \d holds \d+ high-valued items\n", out.err)
    assert run_cli(["mc", "--algorithm", "known-d", "--eta", "1/2", "--epsilon", "1/10",
                    "--dist", '["1/3", "1/3", "1/3"]', "--trials", "2", "--instance", inst]) == 2
    assert re.fullmatch(r"invariant violation: open type \d holds \d+ high-valued items; "
                        r"reproduce with master_seed=0, trial=0\n", capsys.readouterr().err)


def test_mc_and_report_roundtrip(tmp_path):
    agg = tmp_path / "agg.json"
    assert run_cli(["mc", "--algorithm", "adversarial", "--trials", "8",
                    "--seed", "3", "--generator", "normalized-random",
                    "--generator-params", '{"n": 3, "m": 8, "k": 2}',
                    "--dist", '["1/2", "1/2"]', "--out", str(agg)]) == 0
    obj = json.loads(agg.read_text())
    assert obj["successRate"] == 1.0
    csv_out = tmp_path / "rows.csv"
    assert run_cli(["report", "--aggregate", str(agg), "--format", "csv",
                    "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 9


def test_mc_generator_without_seed_parameter(tmp_path):
    # the tightness constructions are deterministic and take no seed
    agg = tmp_path / "agg.json"
    assert run_cli(["mc", "--algorithm", "adversarial", "--trials", "2",
                    "--generator", "tight-half", "--generator-params", '{"k": 2, "n": 4}',
                    "--dist", '["1/2", "1/2"]', "--out", str(agg)]) == 0
    rows = json.loads(agg.read_text())["rows"]
    assert [(r["n"], r["k"]) for r in rows] == [(4, 2), (4, 2)]


# every registry kind at small parameters: the gen flags and the matching
# generator_params, with an explicit seed where the kind takes one
REGISTRY_CASES = {
    "example1": (["--m", "6"], {"m": 6}),
    "adv-counter": (["--n", "4", "--eps", "1/32"], {"n": 4, "epsilon": "1/32"}),
    "lower-bound": (["--k", "16", "--n", "4"], {"k": 16, "n": 4}),
    "tight-half": (["--k", "3", "--n", "5", "--eps", "1/8"], {"k": 3, "n": 5, "epsilon": "1/8"}),
    "tight-pk": (["--k", "4", "--n", "20"], {"k": 4, "n": 20}),
    "random": (["--n", "3", "--m", "7", "--k", "2", "--model", "binary", "--seed", "5"],
               {"n": 3, "m": 7, "k": 2, "value_model": "binary", "seed": 5}),
    "normalized-random": (["--n", "3", "--m", "8", "--k", "2", "--seed", "4"],
                          {"n": 3, "m": 8, "k": 2, "seed": 4}),
}


@pytest.mark.parametrize("kind", sorted(REGISTRY_CASES))
def test_gen_and_mc_resolve_a_generator_alike(tmp_path, kind):
    flags, params = REGISTRY_CASES[kind]
    out = tmp_path / "g.json"
    assert run_cli(["gen", kind, *flags, "--out", str(out)]) == 0
    config = McConfig(algorithm="adversarial", trials=1, master_seed=0, generator=kind,
                      generator_params=params, fresh_instance_per_trial=False)
    assert config.fixed_instance == jsonio.load_normalized(json.loads(out.read_text()))


@pytest.mark.parametrize("kind", sorted(REGISTRY_CASES))
def test_gen_runs_every_kind_on_its_defaults(tmp_path, kind):
    out = tmp_path / "defaults.json"
    assert run_cli(["gen", kind, "--out", str(out)]) == 0
    if kind in ("adv-counter", "lower-bound"):  # their defaults are their small cases
        given = tmp_path / "given.json"
        assert run_cli(["gen", kind, *REGISTRY_CASES[kind][0], "--out", str(given)]) == 0
        assert out.read_text() == given.read_text()


def test_mc_runs_the_lower_bound_construction(tmp_path):
    agg = tmp_path / "agg.json"
    assert run_cli(["mc", "--algorithm", "adversarial", "--trials", "2",
                    "--generator", "lower-bound", "--generator-params", '{"k": 16, "n": 4}',
                    "--dist", json.dumps(["1/16"] * 16), "--out", str(agg)]) == 0
    assert [(r["n"], r["k"]) for r in json.loads(agg.read_text())["rows"]] == [(4, 16), (4, 16)]


def test_perturb_cli(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli(["gen", "random", "--n", "3", "--m", "6", "--k", "2", "--seed", "8",
             "--out", str(inst)])
    out = tmp_path / "pert.json"
    assert run_cli(["perturb", "--instance", str(inst), "--beta", "6/5",
                    "--seed", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 3 and obj["m"] == 6


def test_exit_code_input_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(["mms", "solve", "--instance", str(missing),
                    "--type", "0", "--bundles", "2"]) == 1


def _gen_instance_and_dist(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli(["gen", "normalized-random", "--n", "12", "--m", "40", "--k", "3",
             "--seed", "2", "--out", str(inst)])
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"probs": ["1/3", "1/3", "1/3"]}))
    return str(inst), str(dist)


def _assert_refused(capsys, argv, names):
    """``argv`` exits 1 with nothing on stdout and one ``error:`` line naming each of ``names``."""
    capsys.readouterr()
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert all(name in captured.err for name in names), captured.err


MC_ADV = ["mc", "--algorithm", "adversarial", "--trials", "2", "--dist", '["1/3", "1/3", "1/3"]',
          "--generator", "normalized-random"]


# INST, SMALL, DIST and BAD_WITNESS stand for files the test writes; INST is an
# instance, not an aggregate report, so ``report`` must reject it.  SMALL has
# 2^3 arrival orders, so an unchecked enumeration ends quickly; INST has 3^12,
# above the enumeration cap.  Each key of MISTYPED names a copy of INST, RAW (INST
# without its share partitions) or SEQ (INST's arrivals) with one integer field
# replaced by a value that is not a JSON integer, or, in the out-of-range case,
# by a type id outside 0..k-1.
MISTYPED = {
    "RAW_N_FRACTIONAL": ("RAW", lambda o: o.update(n=3.7)),
    "RAW_N_STRING": ("RAW", lambda o: o.update(n="abc")),
    "RAW_M_STRING": ("RAW", lambda o: o.update(m="x")),
    "INST_N_FLOAT": ("INST", lambda o: o.update(n=12.0)),
    "INST_WITNESS_ITEM_STRING": ("INST", lambda o: o["witnesses"][0][0].__setitem__(0, "x")),
    "INST_WITNESS_ITEM_FLOAT": ("INST", lambda o: o["witnesses"][0][0].__setitem__(
        0, float(o["witnesses"][0][0][0]))),
    "INST_ZERO_TYPE_STRING": ("INST", lambda o: o.update(zeroMmsTypes=["x"])),
    "INST_ZERO_TYPE_FRACTIONAL": ("INST", lambda o: o.update(zeroMmsTypes=[0.5])),
    "INST_ZERO_TYPE_OUT_OF_RANGE": ("INST", lambda o: o.update(zeroMmsTypes=[7])),
    "SEQ_FRACTIONAL": ("SEQ", lambda o: o["sequence"].__setitem__(slice(0, 2), [0.9, 1.2])),
    "SEQ_STRING": ("SEQ", lambda o: o["sequence"].__setitem__(0, "x")),
}
# usage errors, rejected before any file is read: a flag the algorithm does
# not read, conflicting or missing flags, a bad choice, a non-integer; and an
# empty law flag, which names no file rather than leaving the law unset
USAGE_ERRORS = [
    *(["run", "adversarial", "--instance", "INST", "--arrivals", "SEQ", flag, value]
      for flag, value in [("--eta", "1/2"), ("--seed", "9"), ("--dist", "DIST"),
                          ("--epsilon", "1/3"), ("--c", "1/30")]),
    ["run", "adversarial", "--instance", "SMALL", "--arrivals", "SEQ", "--enumerate"],
    ["run", "known-d", "--eta", "1/2", "--instance", "INST", "--dist", "DIST", "--c", "1/3"],
    ["run", "unknown-d", "--eta", "1/2", "--instance", "INST", "--dist", "DIST", "--epsilon", "1/4"],
    ["run", "bogus", "--instance", "INST"],
    ["mc", "--algorithm", "adversarial", "--dist", '["1/3", "1/3", "1/3"]', "--generator", "normalized-random"],
    ["gen", "random", "--n", "two"],
    ["run", "known-d", "--et", "1/2", "--instance", "INST", "--dist", "DIST"],
    ["run", "adversarial", "--inst", "SMALL", "--enumerate"],
    ["run", "known-d", "--eta", "1/2", "--instance", "INST", "--dist", "DIST", "--trials", "2"],
    ["run", "known-d", "--instance", "INST", "--dist", "", "--eta", "0"],
    ["mc", "--algorithm", "adversarial", "--trials", "2", "--instance", "INST", "--dist", ""],
]


@pytest.mark.parametrize("case", [
    ["mc", "--algorithm", "known-d", "--eta", "1/2", "--dist", '["1/3", "1/3", "1/3"]',
     "--trials", "2", "--instance", "INST"],
    ["mc", "--algorithm", "unknown-d", "--eta", "1/2", "--hidden-dist", '["1/3", "1/3", "1/3"]',
     "--trials", "2", "--instance", "INST"],
    ["run", "known-d", "--alpha", "1/0", "--instance", "INST", "--dist", "DIST"],
    ["run", "known-d", "--eta", "abc", "--instance", "INST", "--dist", "DIST"],
    ["run", "known-d", "--eta=-1/2", "--instance", "INST", "--dist", "DIST"],
    ["run", "unknown-d", "--c", "x/3", "--eta", "1/2", "--instance", "INST", "--dist", "DIST"],
    ["report", "--aggregate", "INST"],
    ["mc", "--algorithm", "adversarial", "--trials", "2", "--dist", "[1/3, 1/3, 1/3]",
     "--instance", "INST"],
    MC_ADV + ["--generator-params", "{n:3}"],
    MC_ADV + ["--generator-params", "[1, 2]"],
    MC_ADV + ["--generator-params", '{"n": 3, "m": 8, "k": 3, "size": 4}'],
    ["run", "adversarial", "--enumerate", "--instance", "BAD_WITNESS"],
    MC_ADV + ["--generator-params", '{"n": "3", "m": 8, "k": 3}'],
    MC_ADV + ["--generator-params", '{"n": 3.0, "m": 8, "k": 3}'],
    MC_ADV + ["--generator-params", '{"n": true, "m": 8, "k": 3}'],
    ["mc", "--algorithm", "adversarial", "--trials", "-3", "--dist", '["1/3", "1/3", "1/3"]',
     "--generator", "normalized-random", "--generator-params", '{"n": 3, "m": 8, "k": 3}'],
    ["mc", "--algorithm", "adversarial", "--trials", "0", "--dist", '["1/3", "1/3", "1/3"]',
     "--generator", "normalized-random", "--generator-params", '{"n": 3, "m": 8, "k": 3}'],
    ["mc", "--algorithm", "known-d", "--trials", "0", "--eta", "1/2", "--epsilon", "1/10",
     "--instance", "INST", "--dist", "DIST"],
    ["mc", "--algorithm", "known-d", "--trials", "-2", "--eta", "1/2", "--epsilon", "1/10",
     "--instance", "INST", "--dist", "DIST"],
    MC_ADV + ["--generator-params", '{"n": 0, "m": 8, "k": 3}'],
    ["gen", "normalized-random", "--n", "0", "--m", "8", "--k", "2"],
    ["run", "adversarial", "--enumerate", "--alpha=-1/2", "--instance", "SMALL"],
    ["run", "adversarial", "--enumerate", "--alpha", "0", "--instance", "SMALL"],
    ["run", "adversarial", "--enumerate", "--alpha", "5", "--instance", "SMALL"],
    ["run", "adversarial", "--enumerate", "--instance", "INST"],
    ["mc", "--algorithm", "adversarial", "--trials", "0", "--arrivals", "exhaustive",
     "--instance", "INST"],
    ["perturb", "--instance", "RAW_N_FRACTIONAL", "--beta", "6/5"],
    ["mms", "solve", "--instance", "RAW_N_STRING", "--type", "0", "--bundles", "2"],
    ["perturb", "--instance", "RAW_M_STRING", "--beta", "6/5"],
    ["run", "adversarial", "--instance", "INST_N_FLOAT", "--arrivals", "SEQ"],
    ["run", "adversarial", "--instance", "INST_WITNESS_ITEM_STRING", "--arrivals", "SEQ"],
    ["run", "adversarial", "--instance", "INST_WITNESS_ITEM_FLOAT", "--arrivals", "SEQ"],
    ["run", "adversarial", "--instance", "INST_ZERO_TYPE_STRING", "--arrivals", "SEQ"],
    ["run", "adversarial", "--instance", "INST_ZERO_TYPE_FRACTIONAL", "--arrivals", "SEQ"],
    ["run", "adversarial", "--instance", "INST_ZERO_TYPE_OUT_OF_RANGE", "--arrivals", "SEQ"],
    ["run", "adversarial", "--instance", "INST", "--arrivals", "SEQ_FRACTIONAL"],
    ["run", "adversarial", "--instance", "INST", "--arrivals", "SEQ_STRING"],
    MC_ADV + ["--generator-params", '{"n": 3, "m": 8, "k": 3}', "--parallelism", "0"],
    MC_ADV + ["--generator-params", '{"n": 3, "m": 8, "k": 3}', "--parallelism", "-2"],
    ["run", "known-d", "--eta", "1/2", "--instance", "INST", "--dist", "DIST", "--arrivals", "SEQ"],
    ["run", "unknown-d", "--eta", "1/2", "--trials", "2", "--instance", "INST", "--dist", "DIST",
     "--enumerate"],
    ["run", "known-d", "--eta", "1/2", "--instance", "INST", "--dist", "DIST", "--trace"],
    ["run", "unknown-d", "--eta", "1/2", "--instance", "INST", "--dist", "DIST", "--trace"],
    ["run", "adversarial", "--enumerate", "--trace", "--instance", "SMALL"],
    ["mms", "solve", "--instance", "INST", "--type", "3", "--bundles", "2"],
    ["run", "adversarial", "--instance", "SMALL"],
    ["run", "known-d", "--eta", "1/2", "--instance", "INST"],
    *USAGE_ERRORS,
])
def test_bad_or_missing_rational_is_input_error(tmp_path, capsys, case):
    inst, dist = _gen_instance_and_dist(tmp_path)
    obj = json.loads(Path(inst).read_text())
    obj["witnesses"][0][0] = 5  # a bare item where a bundle belongs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    small = tmp_path / "small.json"
    run_cli(["gen", "normalized-random", "--n", "3", "--m", "8", "--k", "2", "--out", str(small)])
    files = {"INST": inst, "SMALL": str(small), "DIST": dist, "BAD_WITNESS": str(bad)}
    obj = json.loads(Path(inst).read_text())
    originals = {"INST": obj, "RAW": {key: obj[key] for key in ("n", "m", "types")},
                 "SEQ": {"sequence": [0, 1, 2] * 4}}
    files["SEQ"] = str(tmp_path / "seq.json")
    Path(files["SEQ"]).write_text(json.dumps(originals["SEQ"]))
    for name, (base, mistype) in MISTYPED.items():
        copy = json.loads(json.dumps(originals[base]))
        mistype(copy)
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(copy))
    args = [files.get(a, a) for a in case]
    capsys.readouterr()
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_report_rejects_rows_without_csv_columns(tmp_path, capsys):
    agg = tmp_path / "agg.json"
    assert run_cli(["mc", "--algorithm", "adversarial", "--trials", "2",
                    "--generator", "normalized-random",
                    "--generator-params", '{"n": 3, "m": 8, "k": 2}',
                    "--dist", '["1/2", "1/2"]', "--out", str(agg)]) == 0
    obj = json.loads(agg.read_text())
    obj["rows"] = [{"trial": 0}]
    agg.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli(["report", "--aggregate", str(agg), "--format", "csv"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_adversarial_rejects_trials(tmp_path, capsys):
    inst, _ = _gen_instance_and_dist(tmp_path)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"sequence": [0] * 12}))
    capsys.readouterr()
    assert run_cli(["run", "adversarial", "--instance", inst, "--arrivals", str(seq),
                    "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--trials" in captured.err


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_is_one_line_on_stderr(tmp_path, capsys, case):
    inst, dist = _gen_instance_and_dist(tmp_path)
    small, seq = tmp_path / "small.json", tmp_path / "seq.json"
    run_cli(["gen", "normalized-random", "--n", "3", "--m", "8", "--k", "2", "--out", str(small)])
    seq.write_text(json.dumps({"sequence": [0, 1, 2] * 4}))
    files = {"INST": inst, "SMALL": str(small), "DIST": dist, "SEQ": str(seq)}
    _assert_refused(capsys, [files.get(a, a) for a in case], [])


# the McConfig fields each run never reads on a fixed instance, beside the
# generator-only generator_params and fresh_instance_per_trial
UNREAD = {
    ("adversarial", "iid"): ("hidden_dist", "eta", "epsilon", "c"),
    ("adversarial", "exhaustive"): ("dist", "hidden_dist", "eta", "epsilon", "c"),
    ("known-d", "iid"): ("hidden_dist", "c"),
    ("known-d", "exhaustive"): ("hidden_dist", "c"),
    ("unknown-d", "iid"): ("dist", "epsilon"),
    ("unknown-d", "exhaustive"): ("dist", "hidden_dist", "epsilon"),
}
UNIFORM3 = ("1/3", "1/3", "1/3")
# each optional field: a value set away from its default, and the mc flags that set it
FIELD_VALUES = {
    "dist": (UNIFORM3, ["--dist", json.dumps(UNIFORM3)]),
    "hidden_dist": (UNIFORM3, ["--hidden-dist", json.dumps(UNIFORM3)]),
    "eta": ("1/2", ["--eta", "1/2"]),
    "epsilon": ("1/10", ["--epsilon", "1/10"]),
    "c": ("1/20", ["--c", "1/20"]),
    "generator_params": ({"n": 3}, ["--generator-params", '{"n": 3}']),
    "fresh_instance_per_trial": (False, ["--fixed-instance"]),
}
# the fields each run reads, so each base config below is valid
READ = {
    ("adversarial", "iid"): ("dist",),
    ("adversarial", "exhaustive"): (),
    ("known-d", "iid"): ("dist", "eta", "epsilon"),
    ("known-d", "exhaustive"): ("dist", "eta", "epsilon"),
    ("unknown-d", "iid"): ("hidden_dist", "eta", "c"),
    ("unknown-d", "exhaustive"): ("eta", "c"),
}


@pytest.mark.parametrize("algorithm, arrivals, field", [
    (*run, field) for run, fields in UNREAD.items()
    for field in (*fields, "generator_params", "fresh_instance_per_trial")])
def test_unread_config_field_is_refused_by_name(tmp_path, capsys, algorithm, arrivals, field):
    inst, _ = _gen_instance_and_dist(tmp_path)
    base = {name: FIELD_VALUES[name][0] for name in READ[algorithm, arrivals]}
    common = dict(algorithm=algorithm, trials=0 if arrivals == "exhaustive" else 2, master_seed=0,
                  instance_obj=json.loads(Path(inst).read_text()), arrivals=arrivals)
    McConfig(**common, **base)  # valid without the unread field
    with pytest.raises(InputError, match=rf"never reads {field}$"):
        McConfig(**common, **base, **{field: FIELD_VALUES[field][0]})
    argv = ["mc", "--algorithm", algorithm, "--arrivals", arrivals, "--trials", str(common["trials"]),
            "--instance", inst]
    for name in (*READ[algorithm, arrivals], field):
        argv += FIELD_VALUES[name][1]
    _assert_refused(capsys, argv, [f"never reads {FIELD_VALUES[field][1][0]}\n"])  # the flag as typed


@pytest.mark.parametrize("argv", [
    ["run", "known-d", "--instance", "INST", "--dist", "DIST", "--alpha", "2/5", "--eta", "1/2"],
    ["run", "unknown-d", "--instance", "INST", "--dist", "DIST", "--alpha", "2/5", "--eta", "1/2"],
    ["mc", "--algorithm", "known-d", "--trials", "2", "--instance", "INST", "--dist", "DIST",
     "--alpha", "2/5", "--eta", "1/2", "--epsilon", "1/10"],
    ["mc", "--algorithm", "unknown-d", "--trials", "2", "--instance", "INST", "--hidden-dist", "DIST",
     "--alpha", "2/5", "--eta", "1/2", "--c", "1/20"],
], ids=["run-known-d", "run-unknown-d", "mc-known-d", "mc-unknown-d"])
def test_alpha_with_eta_is_refused(tmp_path, capsys, argv):
    inst, dist = _gen_instance_and_dist(tmp_path)
    _assert_refused(capsys, [{"INST": inst, "DIST": dist}.get(a, a) for a in argv], ["alpha", "eta"])


@pytest.mark.parametrize("argv", [
    ["mc", "--algorithm", "known-d", "--trials", "2", "--instance", "INST", "--dist", "DIST",
     "--epsilon", "1/10", "--alpha", ""],
    ["mc", "--algorithm", "unknown-d", "--trials", "2", "--instance", "INST", "--hidden-dist", "DIST",
     "--c", "1/20", "--eta", ""],
    ["mc", "--algorithm", "adversarial", "--trials", "2", "--instance", "INST", "--dist", "DIST", "--alpha", ""],
    ["run", "known-d", "--instance", "INST", "--dist", "DIST", "--eta", ""],
    ["run", "unknown-d", "--instance", "INST", "--dist", "DIST", "--alpha", ""],
    ["run", "adversarial", "--instance", "INST", "--arrivals", "SEQ", "--alpha", ""],
], ids=["mc-known-d-alpha", "mc-unknown-d-eta", "mc-adversarial-alpha", "run-known-d-eta",
        "run-unknown-d-alpha", "run-adversarial-alpha"])
def test_empty_rational_is_refused_not_taken_as_unset(tmp_path, capsys, argv):
    inst, dist = _gen_instance_and_dist(tmp_path)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"sequence": [0, 1, 2] * 4}))
    files = {"INST": inst, "DIST": dist, "SEQ": str(seq)}
    _assert_refused(capsys, [files.get(a, a) for a in argv], ["bad rational ''"])


@pytest.mark.parametrize("argv, message", [
    (["run", "known-d", "--instance", "INST", "--dist", "", "--eta", "0"], "cannot read JSON from : "),
    (["mc", "--algorithm", "adversarial", "--trials", "2", "--instance", "INST", "--dist", ""],
     "cannot read JSON from : "),
    (["mc", "--algorithm", "adversarial", "--trials", "2", "--instance", "", "--generator", "normalized-random",
      "--dist", "DIST"], "cannot read JSON from : "),
    (["run", "known-d", "--instance", "INST", "--dist", "[]", "--eta", "0"], "probabilities must sum to exactly 1"),
    (["mc", "--algorithm", "unknown-d", "--trials", "2", "--instance", "INST", "--hidden-dist", "[]",
      "--eta", "0", "--c", "1/20"], "probabilities must sum to exactly 1"),
    (["mc", "--algorithm", "known-d", "--arrivals", "exhaustive", "--trials", "0", "--instance", "SMALL",
      "--dist", "[]", "--eta", "0", "--epsilon", "1/10"], "probabilities must sum to exactly 1"),
], ids=["run-known-d-dist-empty", "mc-dist-empty", "mc-instance-empty", "run-known-d-dist-no-probs",
        "mc-unknown-d-hidden-dist-no-probs", "mc-known-d-exhaustive-dist-no-probs"])
def test_empty_file_or_law_is_refused_not_taken_as_unset(tmp_path, capsys, argv, message):
    inst, dist = _gen_instance_and_dist(tmp_path)
    small = tmp_path / "small.json"
    run_cli(["gen", "normalized-random", "--n", "3", "--m", "8", "--k", "2", "--out", str(small)])
    files = {"INST": inst, "SMALL": str(small), "DIST": dist}
    _assert_refused(capsys, [files.get(a, a) for a in argv], [f"error: {message}"])


@pytest.mark.parametrize("params", ["[]", "0", '""', "false", "[1]", "null"])
def test_generator_params_must_be_a_json_object(capsys, params):
    _assert_refused(capsys, ["mc", "--algorithm", "adversarial", "--trials", "2", "--generator", "lower-bound",
                             "--generator-params", params, "--dist", '["1/2", "1/2"]'],
                    ["error: generator_params for 'lower-bound' must be a JSON object\n"])


@pytest.mark.parametrize("params", ["null", "[1]"])
def test_generator_params_beside_an_instance_must_be_a_json_object(tmp_path, capsys, params):
    # a JSON null is no absent flag, so it is not taken as unset
    inst = tmp_path / "small.json"
    run_cli(["gen", "normalized-random", "--n", "3", "--m", "8", "--k", "2", "--out", str(inst)])
    _assert_refused(capsys, ["mc", "--algorithm", "adversarial", "--trials", "0", "--instance", str(inst),
                             "--generator-params", params, "--arrivals", "exhaustive"],
                    ["error: generator_params must be a JSON object\n"])


@pytest.mark.parametrize("argv, flags", [
    (["gen", "lower-bound", "--m", "5", "--eps", "1/3"], ["--m", "--eps"]),
    (["gen", "example1", "--model", "binary", "--seed", "3"], ["--model", "--seed"]),
    (["gen", "tight-half", "--k", "3", "--n", "5", "--m", "9"], ["--m"]),
    (["gen", "random", "--n", "3", "--m", "6", "--dist-out", "LAW"], ["--dist-out"]),
], ids=["lower-bound", "example1", "tight-half", "random-dist-out"])
def test_gen_refuses_a_flag_its_kind_does_not_take(tmp_path, capsys, argv, flags):
    law = tmp_path / "law.json"
    _assert_refused(capsys, [str(law) if a == "LAW" else a for a in argv], flags)
    assert not law.exists()


def _readme_synopsis() -> list[str]:
    """Each ``mmsonline`` line of README's CLI synopsis, joined with its continuation lines."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = []
    for line in readme.split("## CLI", 1)[1].split("```")[1].splitlines():
        if line.startswith("mmsonline "):
            lines.append(line)
        elif line.strip():
            lines[-1] += " " + line.strip()
    return lines


def _subcommand(line: str) -> list[str]:
    """A synopsis line's subcommand words, e.g. ``["run", "known-d"]``."""
    return list(takewhile(lambda w: re.fullmatch(r"[a-z][a-z0-9-]*", w), line.split()[1:]))


@pytest.mark.parametrize("line", _readme_synopsis(), ids=lambda line: " ".join(_subcommand(line)))
def test_readme_synopsis_flags_are_in_help(capsys, line):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main([*_subcommand(line), "--help"])
    assert exit_.value.code == 0
    shown = capsys.readouterr().out
    assert [flag for flag in re.findall(r"--[a-z][a-z-]*", line)
            if not re.search(rf"(?<![\w-]){flag}(?![\w-])", shown)] == []


@pytest.mark.parametrize("algorithm", ["known-d", "unknown-d"])
def test_run_reads_an_inline_or_a_file_dist_alike(tmp_path, capsys, algorithm):
    inst, _ = _gen_instance_and_dist(tmp_path)
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"probs": ["1/2", "3/10", "1/5"]}))
    printed = []
    for dist in ('["1/2","3/10","1/5"]', str(law)):
        capsys.readouterr()
        assert run_cli(["run", algorithm, "--instance", inst, "--dist", dist,
                        "--eta", "1/2", "--seed", "4"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and "minRatio" in printed[0]


def test_gen_lower_bound_and_tight_instances(tmp_path):
    for args in (["gen", "lower-bound", "--k", "16", "--n", "4"],
                 ["gen", "tight-half", "--k", "3", "--n", "5"],
                 ["gen", "tight-pk", "--k", "4", "--n", "20"],
                 ["gen", "adv-counter", "--n", "4", "--eps", "1/32"],
                 ["gen", "example1", "--m", "6"]):
        out = tmp_path / "g.json"
        assert run_cli(args + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] >= 2


def test_gen_tight_pk_writes_its_law(tmp_path):
    from mmsonline.generators import gen_tightness_pk
    out, law = tmp_path / "g.json", tmp_path / "d.json"
    assert run_cli(["gen", "tight-pk", "--k", "2", "--n", "4", "--out", str(out),
                    "--dist-out", str(law)]) == 0
    assert jsonio.distribution_from_obj(json.loads(law.read_text())) == gen_tightness_pk(2, 4)[1]


def test_gen_lower_bound_loads_for_a_run(tmp_path, capsys):
    # the emitted share partitions match the emitted (normalized) rows
    inst = tmp_path / "lb.json"
    assert run_cli(["gen", "lower-bound", "--k", "16", "--n", "4", "--out", str(inst)]) == 0
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"sequence": [0, 1, 2, 3]}))
    capsys.readouterr()
    assert run_cli(["run", "adversarial", "--instance", str(inst), "--arrivals", str(seq)]) == 0
    assert json.loads(capsys.readouterr().out)["minRatio"] == "1/2"


def test_mc_csv_to_stdout(capsys):
    capsys.readouterr()
    assert run_cli(["mc", "--algorithm", "adversarial", "--trials", "2", "--seed", "3",
                    "--generator", "normalized-random", "--generator-params",
                    '{"n": 3, "m": 8, "k": 2}', "--dist", '["1/2", "1/2"]', "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trial,seed,algorithm,n,m,k,alpha,minRatio,success,failureReason"
    assert len(lines) == 3


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mmsonline.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mmsonline" in proc.stdout

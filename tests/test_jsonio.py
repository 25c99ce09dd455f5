from fractions import Fraction as F

import pytest

from mmsonline import (
    InputError,
    TypeDistribution,
    gen_random,
)
from mmsonline.core import Allocation, Bundle, EMPTY_BUNDLE, as_fraction, verify_allocation
from mmsonline.generators import gen_example1, gen_normalized_random
from mmsonline.jsonio import (
    allocation_to_obj,
    canonical_json,
    distribution_from_obj,
    distribution_to_obj,
    frac_to_str,
    instance_from_obj,
    instance_to_obj,
    load_normalized,
    normalized_from_obj,
    report_to_obj,
    sequence_from_obj,
)


def test_fraction_strings():
    assert frac_to_str(F(3, 4)) == "3/4"
    assert frac_to_str(F(5)) == "5/1"
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction("7") == F(7)
    for bad in ("1/0", "a/b", "abc", "", None, 0.5, "3/", "/2"):
        with pytest.raises(InputError):
            as_fraction(bad)


def test_instance_roundtrip():
    inst = gen_random(4, 9, 3, "uniform", seed=12)
    obj = instance_to_obj(inst)
    assert obj["n"] == 4 and obj["m"] == 9 and len(obj["types"]) == 3
    assert instance_from_obj(obj) == inst
    # declared m is cross-checked
    obj["m"] = 5
    with pytest.raises(InputError):
        instance_from_obj(obj)


def test_normalized_roundtrip_with_witnesses():
    norm = gen_normalized_random(5, 15, 2, seed=3)
    obj = instance_to_obj(norm.base, norm)
    back = normalized_from_obj(obj)
    assert back == norm
    assert normalized_from_obj(instance_to_obj(norm.base)) is None


def test_load_normalized_refuses_a_partial_share_set():
    raw = {"n": 2, "types": [["1", "1", "1", "1"]]}
    assert load_normalized(raw).original_mms == (F(2),)  # solved: no share set at all
    for extra, missing in [({"mms": ["5"]}, "witnesses"), ({"witnesses": [[[0, 1], [2, 3]]]}, "mms"),
                           ({"zeroMmsTypes": [0]}, "mms and witnesses")]:
        with pytest.raises(InputError, match=f"^share partitions given without {missing}$"):
            load_normalized({**raw, **extra})


def test_distribution_roundtrip():
    d = TypeDistribution.from_probs([F(1, 5), F(1, 2), F(3, 10)])
    obj = distribution_to_obj(d)
    assert obj["probs"] == ["1/5", "1/2", "3/10"]  # original order preserved
    assert distribution_from_obj(obj) == d


def test_sequence_and_allocation_roundtrip():
    assert sequence_from_obj({"sequence": [0, 2, 1]}) == [0, 2, 1]
    alloc = Allocation(((0, 1, Bundle((2, 5))), (1, 0, EMPTY_BUNDLE)))
    assert allocation_to_obj(alloc) == {"entries": [
        {"agent": 0, "type": 1, "items": [2, 5]},
        {"agent": 1, "type": 0, "items": []},
    ]}


def test_report_obj_includes_required_fields():
    # a run of the opening two-agent trap: the second agent gets nothing
    inst, reveal = gen_example1(4)
    full, seq = reveal(Bundle((0, 1)))
    from mmsonline.solver import mms_brute_force
    from mmsonline import normalize
    norm = normalize(full, mms_brute_force)
    alloc = Allocation(((0, 0, Bundle((0, 1))), (1, 1, Bundle((2, 3)))))
    rep = verify_allocation(norm, alloc, F(1, 2))
    assert rep.min_ratio == 0  # she values only the two granted items
    obj = report_to_obj(rep)
    assert obj["minRatio"] == "0/1"
    assert obj["succeededAtAlpha"] is False
    assert obj["failureReason"] == "valueBelowAlpha"


def test_canonical_json_is_stable():
    obj = {"b": [1, 2], "a": {"y": "1/2", "x": None}}
    assert canonical_json(obj) == canonical_json({"a": {"x": None, "y": "1/2"}, "b": [1, 2]})


def test_zero_share_types_survive_the_json_round_trip():
    from mmsonline import normalize, run_adversarial
    norm = normalize(gen_random(2, 3, 2, "binary", seed=0))
    assert norm.zero_mms_types == {0}
    obj = instance_to_obj(norm.base, norm)
    assert obj["zeroMmsTypes"] == [0]
    back = normalized_from_obj(obj)
    assert back == norm
    for seq in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert run_adversarial(back, seq) == run_adversarial(norm, seq)

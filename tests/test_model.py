import json
from fractions import Fraction

import pytest

from panelot.errors import DuplicateIdError, InfeasibleQuotasError, ValidationError
from panelot.model import (
    FeatureScheme,
    Instance,
    duplicate_pool,
    load_instance,
    pool_share,
    save_instance,
)

from conftest import write_instance_csvs


def test_load_t1_from_csv(tmp_path):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,0\na3,1\na4,1\n")
    quotas.write_text("feature,value,min,max\nf,0,1,1\nf,1,1,1\n")
    inst = load_instance(agents, quotas, k=2)
    assert inst.n == 4
    assert inst.min_group_size() == 2
    assert len(inst.present_vectors()) == 2


def test_duplicate_id_rejected(tmp_path):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na1,1\n")
    quotas.write_text("feature,value,min,max\nf,0,0,1\nf,1,0,1\n")
    with pytest.raises(DuplicateIdError):
        load_instance(agents, quotas, k=1)


def test_infeasible_lower_quota_sum(tmp_path):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,0\na3,1\na4,1\n")
    quotas.write_text("feature,value,min,max\nf,0,2,2\nf,1,2,2\n")
    with pytest.raises(InfeasibleQuotasError):
        load_instance(agents, quotas, k=3)


def test_duplicate_quota_row_rejected(tmp_path):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,1\n")
    quotas.write_text("feature,value,min,max\nf,0,0,1\nf,0,0,1\nf,1,0,1\n")
    with pytest.raises(ValidationError):
        load_instance(agents, quotas, k=1)


@pytest.mark.parametrize("row", ["f,0,x,1", "f,0,1"], ids=["not-an-integer", "missing-max"])
def test_quota_bounds_must_be_integers(tmp_path, row):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,1\n")
    quotas.write_text(f"feature,value,min,max\n{row}\n")
    with pytest.raises(ValidationError, match="must be integers"):
        load_instance(agents, quotas, k=1)


def test_unknown_feature_in_quotas(tmp_path):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,1\n")
    quotas.write_text("feature,value,min,max\ng,0,0,1\n")
    with pytest.raises(ValidationError):
        load_instance(agents, quotas, k=1)


def test_blank_cell_rejected(tmp_path):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,\n")
    quotas.write_text("feature,value,min,max\nf,0,0,1\nf,1,0,1\n")
    with pytest.raises(ValidationError):
        load_instance(agents, quotas, k=1)


def test_stats_counts(t1):
    assert {v: t1.group_size(v) for v in t1.groups} == {("0",): 2, ("1",): 2}
    assert t1.min_group_size() == 2
    assert t1.n == 4


def test_stats_single_vector_pool():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = tuple((f"a{i}", ("0",)) for i in range(5))
    inst = Instance(scheme=scheme, agents=agents, k=2, quotas={("f", "0"): (2, 2)})
    assert len(inst.present_vectors()) == 1
    assert inst.min_group_size() == 5


def test_pool_shares_sum_to_one_per_feature(e2):
    for feature in e2.scheme.features:
        total = sum(pool_share(e2, feature, v) for v in e2.scheme.values[feature])
        assert total == Fraction(1)


def test_duplicate_pool_counts(t1):
    doubled = duplicate_pool(t1, 2)
    assert doubled.n == 8
    assert doubled.group_size(("0",)) == 4
    assert doubled.group_size(("1",)) == 4
    assert doubled.k == t1.k
    assert doubled.quotas == dict(t1.quotas)


def test_duplicate_pool_identity(t1):
    assert duplicate_pool(t1, 1) is t1


def test_duplicate_pool_triples_min_group(e1):
    assert duplicate_pool(e1, 3).min_group_size() == 3 * e1.min_group_size()


def test_duplicate_pool_composes(e1):
    twice_thrice = duplicate_pool(duplicate_pool(e1, 2), 3)
    six = duplicate_pool(e1, 6)
    # Identical up to agent-id relabeling: compare the vector multisets.
    assert sorted(v for _, v in twice_thrice.agents) == sorted(v for _, v in six.agents)
    assert twice_thrice.k == six.k and twice_thrice.quotas == six.quotas


def test_save_load_round_trip(tmp_path, e2):
    agents, quotas = write_instance_csvs(tmp_path, e2)
    again = load_instance(agents, quotas, k=e2.k)
    assert again.scheme == e2.scheme
    assert again.agents == e2.agents
    assert dict(again.quotas) == dict(e2.quotas)


def test_json_round_trip(e1):
    payload = json.loads(json.dumps(e1.to_json()))
    assert [(a["id"], tuple(a["vector"])) for a in payload["agents"]] == list(e1.agents)
    assert payload["scheme"]["features"] == list(e1.scheme.features)
    assert payload["scheme"]["values"] == {f: list(vals) for f, vals in e1.scheme.values.items()}
    assert {(q["feature"], q["value"]): (q["min"], q["max"]) for q in payload["quotas"]} == dict(e1.quotas)
    assert payload["k"] == e1.k


def test_default_quota_is_vacuous(t1):
    scheme = FeatureScheme(features=("f", "g"), values={"f": ("0", "1"), "g": ("x", "y")})
    agents = (("a1", ("0", "x")), ("a2", ("1", "y")), ("a3", ("0", "y")))
    inst = Instance(scheme=scheme, agents=agents, k=2, quotas={("f", "0"): (1, 2)})
    assert inst.quota("g", "x") == (0, 2)
    assert inst.quota("f", "0") == (1, 2)


def test_k_out_of_range():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("0",)), ("a2", ("1",)))
    with pytest.raises(ValidationError):
        Instance(scheme=scheme, agents=agents, k=3, quotas={})


def test_quota_bounds_validated():
    scheme = FeatureScheme(features=("f",), values={"f": ("0", "1")})
    agents = (("a1", ("0",)), ("a2", ("1",)))
    with pytest.raises(InfeasibleQuotasError):
        Instance(scheme=scheme, agents=agents, k=1, quotas={("f", "0"): (2, 1)})


def test_value_order_comes_from_quota_rows(tmp_path):
    agents = tmp_path / "agents.csv"
    quotas = tmp_path / "quotas.csv"
    agents.write_text("id,f\na1,0\na2,1\n")
    quotas.write_text("feature,value,min,max\nf,1,0,1\nf,0,0,1\n")
    inst = load_instance(agents, quotas, k=1)
    assert inst.scheme.values["f"] == ("1", "0")


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([("0", "1"), ("0", "1"), ("0", "2"), ("1",), ("0", "2")], "value '2' not admissible for feature 'g'"),
        ([("0", "1"), ("1",), ("0", "1"), ("0", "2"), ("1",)], r"vector \('1',\) has wrong length"),
    ],
)
def test_the_first_bad_vector_in_agent_order_raises(vectors, message, monkeypatch):
    # Each distinct vector is checked once, in the order its first agent
    # comes, so repeats cost nothing and the error names the first bad one.
    scheme = FeatureScheme(("f", "g"), {"f": ("0", "1"), "g": ("0", "1")})
    checked = []
    check_vector = FeatureScheme.check_vector
    monkeypatch.setattr(FeatureScheme, "check_vector",
                        lambda self, vector: checked.append(vector) or check_vector(self, vector))
    agents = tuple((f"a{i}", vector) for i, vector in enumerate(vectors))
    with pytest.raises(ValidationError, match=f"^INVALID_INPUT: {message}$"):
        Instance(scheme, agents, 1, {})
    assert checked == list(dict.fromkeys(vectors))[: len(checked)]
    assert len(checked) == len(set(checked))
    good = tuple((f"b{i}", ("0", "1") if i % 2 else ("1", "0")) for i in range(10))
    checked.clear()
    Instance(scheme, good, 2, {})
    assert checked == [("1", "0"), ("0", "1")]

import logging

import numpy as np
import pytest

from respox.config import ConfigError, GateConfig, tiny_model_config
from respox.gate import (
    GateError,
    GateMap,
    StateGradient,
    build_gate_map,
    cosine_similarity,
    derive_gate_map,
    gate_map_from_dict,
    gate_map_to_dict,
    identity_gate_map,
    load_gate_map,
    parse_state_key,
    save_gate_map,
    state_gradient,
)


def _sg(state, vector, samples=1):
    return StateGradient(state=state, vector=np.asarray(vector, dtype=np.float64), samples=samples)


# ---------------------------------------------------------------- similarity


def test_cosine_similarity_reference_values():
    assert cosine_similarity([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)
    assert cosine_similarity([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0)
    assert cosine_similarity([1.0, 1.0], [-3.0, -3.0]) == pytest.approx(-1.0)


def test_cosine_similarity_zero_vector_rejected():
    with pytest.raises(GateError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_cosine_similarity_length_mismatch_rejected():
    with pytest.raises(GateError):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


def test_similarity_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(7)
    grads = [_sg((0, u), rng.normal(size=8)) for u in range(3)]
    gm = build_gate_map(grads, n_heads=1)
    sim = np.asarray(gm.provenance["similarity"])
    np.testing.assert_allclose(sim, sim.T)
    np.testing.assert_allclose(np.diag(sim), 1.0)
    assert np.all(np.abs(sim) <= 1.0 + 1e-12)


# ---------------------------------------------------------------- clustering


def test_clustering_recovers_two_directions():
    rng = np.random.default_rng(1)
    base_a = np.array([1.0, 0.0, 0.0, 0.0])
    base_b = np.array([0.0, 0.0, 1.0, 0.0])
    grads = [
        _sg((0, 0), base_a + 0.01 * rng.normal(size=4)),
        _sg((0, 1), base_a + 0.01 * rng.normal(size=4)),
        _sg((1, 0), base_b + 0.01 * rng.normal(size=4)),
        _sg((1, 1), base_b + 0.01 * rng.normal(size=4)),
    ]
    gm = build_gate_map(grads, n_heads=2)
    assert gm.table[(0, 0)] == gm.table[(0, 1)] == 1
    assert gm.table[(1, 0)] == gm.table[(1, 1)] == 2


def test_full_head_count_keeps_states_separate():
    rng = np.random.default_rng(2)
    grads = [_sg((v, u), rng.normal(size=6)) for v in range(2) for u in range(2)]
    gm = build_gate_map(grads, n_heads=4)
    # heads numbered 1..4 in lexicographic state order
    assert [gm.table[s] for s in sorted(gm.table)] == [1, 2, 3, 4]


def test_single_head_merges_everything():
    rng = np.random.default_rng(3)
    grads = [_sg((0, u), rng.normal(size=5)) for u in range(3)]
    gm = build_gate_map(grads, n_heads=1)
    assert set(gm.table.values()) == {1}


def test_provenance_records_merge_order():
    rng = np.random.default_rng(4)
    grads = [_sg((v, u), rng.normal(size=6)) for v in range(2) for u in range(3)]
    gm = build_gate_map(grads, n_heads=2)
    merges = gm.provenance["merges"]
    assert len(merges) == 6 - 2
    merged = {tuple(state) for merge in merges for cluster in merge["clusters"] for state in cluster}
    assert merged <= {sg.state for sg in grads}
    sim = np.asarray(gm.provenance["similarity"])
    assert merges[0]["similarity"] == np.max(sim[~np.eye(6, dtype=bool)])
    assert all(len(m["clusters"]) == 2 and all(m["clusters"]) for m in merges)
    assert build_gate_map(grads, n_heads=2).provenance["merges"] == merges


def test_duplicate_states_rejected():
    grads = [_sg((0, 0), [1.0, 0.0]), _sg((0, 0), [0.0, 1.0])]
    with pytest.raises(GateError):
        build_gate_map(grads, n_heads=1)


def test_head_count_bounds_rejected():
    grads = [_sg((0, u), [1.0, float(u)]) for u in range(2)]
    with pytest.raises(GateError):
        build_gate_map(grads, n_heads=0)
    with pytest.raises(GateError):
        build_gate_map(grads, n_heads=3)


# ---------------------------------------------------------------- fixed maps


def test_identity_map_enumerates_state_space():
    gm = identity_gate_map(2, 3)
    assert gm.n_heads == 6
    assert gm.table == {
        (0, 0): 1, (0, 1): 2, (0, 2): 3,
        (1, 0): 4, (1, 1): 5, (1, 2): 6,
    }


def test_manual_map_rejects_bad_heads():
    with pytest.raises(GateError):
        GateMap(n_heads=1, table={(0, 0): 0}).validate()
    with pytest.raises(GateError):
        GateMap(n_heads=2, table={(0, 0): 3}).validate()
    # an empty manual table is refused by the run config, before any map is built
    with pytest.raises(ConfigError, match="requires manual_table"):
        GateConfig(n_heads=1, mode="manual", manual_table={})


# ---------------------------------------------------------------- lookup


def test_gate_lookup_vectorizes_table():
    gm = GateMap(n_heads=3, table={(0, 0): 1, (0, 1): 3, (0, 2): 2}).validate()
    u = np.array([0, 1, 1, 2, 0])
    np.testing.assert_array_equal(gm.lookup(0, u), [1, 3, 3, 2, 1])


def test_gate_lookup_missing_state_rejected():
    gm = GateMap(n_heads=1, table={(0, 0): 1}).validate()
    with pytest.raises(GateError):
        gm.lookup(1, np.array([0]))
    with pytest.raises(GateError):
        gm.lookup(0, np.array([0, 2]))


# ---------------------------------------------------------------- serialization


def test_json_roundtrip(tmp_path):
    gm = gate_map_from_dict({"n_heads": 2, "table": {"v=0,u=0": 1, "v=0,u=1": 2, "v=1,u=2": 2}})
    gm.provenance["note"] = "hand built"
    path = tmp_path / "gate.json"
    save_gate_map(str(path), gm)
    back = load_gate_map(str(path))
    assert back.n_heads == gm.n_heads
    assert back.table == gm.table
    assert back.provenance == gm.provenance
    # dict form is stable too
    assert gate_map_from_dict(gate_map_to_dict(gm)).table == gm.table


def test_state_key_parser():
    assert parse_state_key("v=1,u=2") == (1, 2)
    for bad in ("v0u0", "v=1", "v=a,u=0", 3, "v=00,u=0", "v= 1,u=+1", "v=0,u=-0"):
        with pytest.raises(GateError, match="bad gate-table key"):
            parse_state_key(bad)


def test_load_rejects_bad_payloads(tmp_path):
    path = tmp_path / "gate.json"
    for raw in (b"{not json", b'{"n_heads": "\xff"}'):
        path.write_bytes(raw)
        with pytest.raises(GateError, match="cannot read"):
            load_gate_map(str(path))
    with pytest.raises(GateError, match="cannot read"):
        load_gate_map(str(tmp_path))
    with pytest.raises(GateError):
        gate_map_from_dict({"table": {"v=0,u=0": 1}})  # missing n_heads
    with pytest.raises(GateError):
        gate_map_from_dict({"n_heads": 1, "table": {"nonsense": 1}})


@pytest.mark.parametrize(
    "table",
    [
        {"v=0,u=0": "x"},
        {"v=0,u=0": None},
        [["v=0,u=0", 1]],
        {"v=0,u=0": 1.9},
        {"v=0,u=0": True},
        {"v=0,u=0": "1"},
        {"v=0,u=0": 1.0},
    ],
)
def test_load_rejects_bad_table_values(table):
    with pytest.raises(GateError, match="bad gate-map payload"):
        gate_map_from_dict({"n_heads": 1, "table": table})


@pytest.mark.parametrize("n_heads", [2.5, 2.0, True, "2"])
def test_n_heads_must_be_a_json_integer_not_truncated(n_heads):
    with pytest.raises(GateError, match="bad gate-map payload: n_heads must be an integer"):
        gate_map_from_dict({"n_heads": n_heads, "table": {"v=0,u=0": 1}})


def test_check_fits_compares_head_count_and_config_hash():
    gm = GateMap(n_heads=2, table={(0, 0): 1, (0, 1): 2}, provenance={"config_hash": "a" * 64}).validate()
    model = tiny_model_config("micro", variant="gated", n_heads=2)
    assert gm.check_fits(model, "a" * 64) is gm
    assert gm.check_fits(model) is gm  # no checkpoint hash: nothing to compare
    with pytest.raises(GateError, match="gate map has 2 heads, the model has 3"):
        gm.check_fits(tiny_model_config("micro", variant="gated", n_heads=3))
    with pytest.raises(GateError, match="gate map is from another run: it was derived under aaaaaaaaaaaa"):
        gm.check_fits(model, "b" * 64)
    del gm.provenance["config_hash"]
    assert gm.check_fits(model, "b" * 64) is gm


# ---------------------------------------------------------------- derivation


def _populated_state(records):
    record = records[0]
    return int(record.gender), int(record.stages[0])


def test_state_gradient_deterministic(micro_params, micro_cfg, micro_records):
    state = _populated_state(micro_records)
    sg1 = state_gradient(micro_params, micro_cfg, micro_records, state)
    sg2 = state_gradient(micro_params, micro_cfg, micro_records, state)
    assert sg1.state == state
    assert sg1.samples >= 1
    np.testing.assert_array_equal(sg1.vector, sg2.vector)
    assert np.all(np.isfinite(sg1.vector))


def test_state_gradient_is_the_mean_of_the_per_record_gradients_bit_for_bit(micro_params, micro_cfg, micro_records):
    # each night twice, so the state with the most carrying nights has four
    pool = micro_records + micro_records[::-1]
    carriers = {}
    for r in pool:
        for u in np.unique(r.stages):
            carriers.setdefault((int(r.gender), int(u)), []).append(r)
    state, records = max(carriers.items(), key=lambda item: len(item[1]))
    assert len(records) >= 3
    per_record = [state_gradient(micro_params, micro_cfg, [r], state).vector for r in records]
    sg = state_gradient(micro_params, micro_cfg, pool, state)
    assert sg.samples == len(records)
    assert sg.vector.tobytes() == np.mean(np.stack(per_record), axis=0).tobytes()


def test_state_gradient_leaves_running_stats(micro_params, micro_cfg, micro_records):
    before = {
        name: t.data.copy() for name, t in micro_params.items() if "running_" in name
    }
    state = _populated_state(micro_records)
    state_gradient(micro_params, micro_cfg, micro_records, state)
    for name, old in before.items():
        np.testing.assert_array_equal(micro_params[name].data, old)


def test_state_gradient_unpopulated_state_rejected(micro_params, micro_cfg, micro_records):
    with pytest.raises(GateError):
        state_gradient(micro_params, micro_cfg, micro_records, (1, 9))


def test_derive_covers_space_and_repeats(micro_params, micro_cfg, micro_records):
    gm1 = derive_gate_map(micro_params, micro_cfg, micro_records, n_heads=2)
    gm2 = derive_gate_map(micro_params, micro_cfg, micro_records, n_heads=2)
    space = {(v, u) for v in range(micro_cfg.v_states) for u in range(micro_cfg.u_classes)}
    assert set(gm1.table) == space
    assert gm1.table == gm2.table
    assert gm1.provenance["mode"] == "grad-sim"


def test_derive_fills_absent_states_with_warning(micro_params, micro_cfg, micro_records, caplog):
    one_gender = [r for r in micro_records if r.gender == 0]
    assert one_gender
    with caplog.at_level(logging.WARNING, logger="respox.gate"):
        gm = derive_gate_map(micro_params, micro_cfg, one_gender, n_heads=1)
    space = {(v, u) for v in range(micro_cfg.v_states) for u in range(micro_cfg.u_classes)}
    assert set(gm.table) == space
    assert gm.provenance.get("filled_states")
    assert any("no samples" in rec.message for rec in caplog.records)


def test_derive_rejects_overwide_head_count(micro_params, micro_cfg, micro_records):
    with pytest.raises(GateError):
        derive_gate_map(micro_params, micro_cfg, micro_records, n_heads=7)


def test_gate_map_validate_rejects_out_of_range():
    gm = GateMap(n_heads=2, table={(0, 0): 5})
    with pytest.raises(GateError):
        gm.validate()

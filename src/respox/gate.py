"""Gate construction: mapping (accessible, inaccessible) state pairs to heads.

The gate decides, per second, which decoder head speaks.  Its table can be
declared by hand, set to the identity over the composite state space, or
derived from data: train a single-head backbone, average its loss gradient
over the seconds belonging to each state, and agglomeratively merge states
whose gradients point the same way (average-linkage over cosine similarity)
until the requested number of heads remains.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .config import ModelConfig
from .container import is_json_int, read_json, write_json
from .data import accessible_state
from .tensor import take

log = logging.getLogger(__name__)


class GateError(ValueError):
    """Invalid gate table, empty state subset, or degenerate similarity input."""


@dataclass
class StateGradient:
    state: tuple          # (v, u)
    vector: np.ndarray    # float64, flattened over sorted trainable parameters
    samples: int          # contributing records


@dataclass
class GateMap:
    n_heads: int
    table: dict           # (v, u) -> head index in 1..n_heads
    provenance: dict = field(default_factory=dict)

    def validate(self) -> "GateMap":
        """Heads are integers in 1..n_heads; a float or a bool is not an integer."""
        if not is_json_int(self.n_heads) or self.n_heads < 1:
            raise GateError(f"n_heads must be an integer >= 1, got {self.n_heads!r}")
        for state, head in self.table.items():
            if not (isinstance(state, tuple) and len(state) == 2):
                raise GateError(f"gate states are (v, u) pairs, got {state!r}")
            if not (is_json_int(head) and 1 <= head <= self.n_heads):
                raise GateError(f"state {state} maps to head {head!r}, not an integer in 1..{self.n_heads}")
        if not isinstance(self.provenance, dict):
            raise GateError(f"provenance must be an object, got {self.provenance!r}")
        return self

    def check_fits(self, config: ModelConfig, trained_under: str | None = None) -> "GateMap":
        """The map drives a model of `config`: the same head count, a table over exactly
        its (v, u) state space, and no other run's config hash."""
        if self.n_heads != config.n_heads:
            raise GateError(f"gate map has {self.n_heads} heads, the model has {config.n_heads}")
        space = set(state_space(config.v_states, config.u_classes))
        lacking, outside = space - self.table.keys(), self.table.keys() - space
        for states, relation in ((lacking, "lacks states of"), (outside, "has states outside")):
            if states:
                keys = " ".join(f"v={v},u={u}" for v, u in sorted(states))
                raise GateError(
                    f"gate table {relation} the model's {config.v_states} x {config.u_classes} state space: {keys}"
                )
        made_under = self.provenance.get("config_hash")
        if made_under is not None and trained_under is not None and made_under != trained_under:
            raise GateError(
                f"gate map is from another run: it was derived under {str(made_under)[:12]}..., "
                f"the checkpoint was trained under {str(trained_under)[:12]}..."
            )
        return self

    def lookup(self, v: int, u_series) -> np.ndarray:
        """s[t] = table[(v, u[t])]; unmapped pairs are an error, never invented."""
        u_arr = np.asarray(u_series)
        out = np.empty(u_arr.shape, dtype=np.int64)
        for u in np.unique(u_arr):
            key = (int(v), int(u))
            if key not in self.table:
                raise GateError(f"gate table has no entry for (v={key[0]}, u={key[1]})")
            out[u_arr == u] = self.table[key]
        return out


def flatten_grads(params: dict, names, out: np.ndarray) -> np.ndarray:
    """Write the named gradients, in order, into the float64 vector `out`; a missing one as zeros."""
    start = 0
    for name in names:
        tensor = params[name]
        view = out[start : start + tensor.size].reshape(tensor.shape)
        view[...] = 0.0 if tensor.grad is None else tensor.grad
        start += tensor.size
    return out


def state_gradient(
    params: dict,
    config: ModelConfig,
    records,
    state: tuple,
    corr_weight: float = 0.2,
) -> StateGradient:
    """Average loss gradient over the seconds of one (v, u) state.

    Runs the model in eval mode so repeated calls are deterministic and
    batch-norm running statistics stay untouched.  Each record contributes
    the gradient of the loss restricted (by timestep mask) to the state's
    seconds; the result is the mean over contributing records.
    """
    v, u = state
    names = sorted(name for name, t in params.items() if t.requires_grad)
    grads = np.empty(sum(params[name].size for name in names), dtype=np.float64)  # refilled per record
    total, samples = None, 0
    for record in records:
        if accessible_state(record) != v:
            continue
        mask = record.stages == u
        if not np.any(mask):
            continue
        x, v_in = model_mod.night_input(params, config, record)
        y = record.spo2.astype(np.float64) / 100.0
        for name in names:
            params[name].grad = None
        pred = model_mod.forward(params, config, x, v=v_in, mode="eval")
        idx = np.nonzero(mask)[0]
        loss, _ = model_mod.loss(take(pred.y_hat, idx, axis=0), y[idx], corr_weight)
        loss.backward()
        # summed in record order, then divided once: np.mean of the stack bit for bit
        flatten_grads(params, names, grads)
        total = grads.copy() if total is None else np.add(total, grads, out=total)
        samples += 1
    if total is None:
        raise GateError(f"no record carries state (v={v}, u={u})")
    return StateGradient(state=(int(v), int(u)), vector=np.divide(total, samples, out=total), samples=samples)


def cosine_similarity(g1: np.ndarray, g2: np.ndarray) -> float:
    a = np.asarray(g1, dtype=np.float64).ravel()
    b = np.asarray(g2, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise GateError(f"gradient lengths differ: {a.shape} vs {b.shape}")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise GateError("zero gradient vector has no direction; similarity undefined")
    return float(np.dot(a, b) / (na * nb))


def _similarity_matrix(gradients) -> np.ndarray:
    n = len(gradients)
    sim = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            sim[i, j] = sim[j, i] = cosine_similarity(gradients[i].vector, gradients[j].vector)
    return sim


def build_gate_map(state_gradients, n_heads: int) -> GateMap:
    """Average-linkage agglomerative merge of states down to n_heads clusters.

    Repeatedly merges the cluster pair with the highest mean pairwise cosine
    similarity; ties keep the pair containing the lowest state index.  Heads
    are numbered 1..n_heads in order of each cluster's smallest member state.
    The provenance lists each merge in order: both clusters' states and the
    pair's mean similarity.
    """
    grads = sorted(state_gradients, key=lambda sg: sg.state)
    states = [sg.state for sg in grads]
    if len(set(states)) != len(states):
        raise GateError(f"duplicate states in gradient list: {states}")
    if not 1 <= n_heads <= len(states):
        raise GateError(f"n_heads must lie in 1..{len(states)}, got {n_heads}")
    sim = _similarity_matrix(grads)

    clusters = [[i] for i in range(len(states))]
    merges = []
    while len(clusters) > n_heads:
        best = None
        best_sim = -np.inf
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                pair_sim = float(np.mean(sim[np.ix_(clusters[a], clusters[b])]))
                if pair_sim > best_sim:
                    best, best_sim = (a, b), pair_sim
        a, b = best
        pair = [[list(states[i]) for i in clusters[c]] for c in (a, b)]
        merges.append({"clusters": pair, "similarity": best_sim})
        clusters[a] = sorted(clusters[a] + clusters[b])
        del clusters[b]
        clusters.sort(key=lambda c: c[0])

    table = {}
    for head, cluster in enumerate(sorted(clusters, key=lambda c: c[0]), start=1):
        for i in cluster:
            table[states[i]] = head
    provenance = {
        "mode": "grad-sim",
        "states": [list(s) for s in states],
        "samples": [sg.samples for sg in grads],
        "similarity": sim.tolist(),
        "merges": merges,
    }
    return GateMap(n_heads=n_heads, table=table, provenance=provenance).validate()


def state_space(v_states: int, u_classes: int) -> list:
    """Every (v, u) pair, in lexicographic order."""
    return [(v, u) for v in range(v_states) for u in range(u_classes)]


def identity_gate_map(v_states: int, u_classes: int) -> GateMap:
    """One head per composite state, numbered lexicographically by (v, u)."""
    space = state_space(v_states, u_classes)
    table = {state: head for head, state in enumerate(space, start=1)}
    return GateMap(n_heads=len(space), table=table, provenance={"mode": "identity"}).validate()


def populated_states(config: ModelConfig, records) -> list:
    """The (v, u) states of the config's space that some record carries, in order."""
    space = state_space(config.v_states, config.u_classes)
    return [(v, u) for v, u in space if any(accessible_state(r) == v and np.any(r.stages == u) for r in records)]


def check_head_count(n_heads: int, populated: list) -> None:
    """Gradient similarity can merge the populated states into 1..len(populated) heads."""
    if not populated:
        raise GateError("no (v, u) state is populated by the given records")
    if n_heads > len(populated):
        raise GateError(f"n_heads={n_heads} exceeds the {len(populated)} populated states")


def derive_gate_map(
    params: dict,
    config: ModelConfig,
    records,
    n_heads: int,
    corr_weight: float = 0.2,
) -> GateMap:
    """Gradient-similarity gate map over the config's full (v, u) state space.

    States no record carries are filled from the populated state with the
    same accessible value and nearest stage (warned about, and listed in the
    provenance) so the table stays total.
    """
    populated = populated_states(config, records)
    check_head_count(n_heads, populated)
    gradients = [
        state_gradient(params, config, records, state, corr_weight=corr_weight) for state in populated
    ]
    gate_map = build_gate_map(gradients, n_heads)

    filled = {}
    for state in state_space(config.v_states, config.u_classes):
        if state in gate_map.table:
            continue
        v, u = state
        same_v = [s for s in populated if s[0] == v]
        pool = same_v if same_v else populated
        donor = min(pool, key=lambda s: (abs(s[1] - u), s[1], abs(s[0] - v), s[0]))
        log.warning(
            "state (v=%d, u=%d) has no samples; gated like (v=%d, u=%d)", v, u, donor[0], donor[1]
        )
        gate_map.table[state] = gate_map.table[donor]
        filled[state] = donor
    if filled:
        gate_map.provenance["filled_states"] = {
            f"v={s[0]},u={s[1]}": f"v={d[0]},u={d[1]}" for s, d in sorted(filled.items())
        }
    return gate_map.validate()


# ---------------------------------------------------------------- serialization


def gate_map_to_dict(gate_map: GateMap) -> dict:
    table = {f"v={v},u={u}": head for (v, u), head in sorted(gate_map.table.items())}
    return {"n_heads": gate_map.n_heads, "table": table, "provenance": gate_map.provenance}


def parse_state_key(key) -> tuple:
    """The (v, u) state of a gate-table key, in the one form gate_map_to_dict writes, "v={v},u={u}"."""
    try:
        v_part, u_part = key.split(",")
        state = int(v_part.removeprefix("v=")), int(u_part.removeprefix("u="))
    except (AttributeError, ValueError) as exc:
        raise GateError(f"bad gate-table key {key!r}") from exc
    if key != "v={},u={}".format(*state):  # one key per state: no zero padding, spaces or signs
        raise GateError(f"bad gate-table key {key!r}")
    return state


def gate_map_from_dict(payload: dict) -> GateMap:
    """The one parser of a {"n_heads": n, "table": {"v=…,u=…": head}, "provenance": {…}} gate map."""
    try:
        table = {parse_state_key(key): head for key, head in payload["table"].items()}
        return GateMap(n_heads=payload["n_heads"], table=table, provenance=payload.get("provenance", {})).validate()
    except (AttributeError, KeyError, TypeError, GateError) as exc:
        raise GateError(f"bad gate-map payload: {exc}") from exc


def save_gate_map(path, gate_map: GateMap) -> None:
    write_json(path, gate_map_to_dict(gate_map))


def load_gate_map(path) -> GateMap:
    return gate_map_from_dict(read_json(path, GateError))

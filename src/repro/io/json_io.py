"""JSON round-trip serialisation for models.

State identifiers are stringified on the way out and kept as strings on
the way in (JSON has no tuple keys); models that need richer state types
should map them before saving.  ``save_model``/``load_model`` add a
``kind`` discriminator so a file is self-describing;
``model_to_payload``/``model_from_payload`` expose the same
discriminated shape in-memory (DTMC, MDP and CTMC) for the service
layer and the repair results' canonical ``to_dict`` form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.mdp.model import DTMC, MDP


def dtmc_to_dict(chain: DTMC) -> Dict:
    """A JSON-ready dictionary capturing the full chain."""
    return {
        "states": [str(s) for s in chain.states],
        "initial_state": str(chain.initial_state),
        "transitions": {
            str(s): {str(t): p for t, p in row.items()}
            for s, row in chain.transitions.items()
        },
        "labels": {
            str(s): sorted(props)
            for s, props in chain.labels.items()
            if props
        },
        "state_rewards": {
            str(s): r for s, r in chain.state_rewards.items() if r != 0.0
        },
    }


def dtmc_from_dict(payload: Dict) -> DTMC:
    """Rebuild a chain saved by :func:`dtmc_to_dict`."""
    return DTMC(
        states=payload["states"],
        transitions=payload["transitions"],
        initial_state=payload["initial_state"],
        labels={s: set(props) for s, props in payload.get("labels", {}).items()},
        state_rewards=payload.get("state_rewards", {}),
    )


def mdp_to_dict(mdp: MDP) -> Dict:
    """A JSON-ready dictionary capturing the full MDP."""
    return {
        "states": [str(s) for s in mdp.states],
        "initial_state": str(mdp.initial_state),
        "transitions": {
            str(s): {
                str(a): {str(t): p for t, p in dist.items()}
                for a, dist in rows.items()
            }
            for s, rows in mdp.transitions.items()
        },
        "labels": {
            str(s): sorted(props) for s, props in mdp.labels.items() if props
        },
        "state_rewards": {
            str(s): r for s, r in mdp.state_rewards.items() if r != 0.0
        },
        "action_rewards": [
            {"state": str(s), "action": str(a), "reward": r}
            for (s, a), r in mdp.action_rewards.items()
        ],
    }


def mdp_from_dict(payload: Dict) -> MDP:
    """Rebuild an MDP saved by :func:`mdp_to_dict`."""
    return MDP(
        states=payload["states"],
        transitions=payload["transitions"],
        initial_state=payload["initial_state"],
        labels={s: set(props) for s, props in payload.get("labels", {}).items()},
        state_rewards=payload.get("state_rewards", {}),
        action_rewards={
            (entry["state"], entry["action"]): entry["reward"]
            for entry in payload.get("action_rewards", [])
        },
    )


def ctmc_to_dict(ctmc) -> Dict:
    """A JSON-ready dictionary capturing the full CTMC."""
    return {
        "states": [str(s) for s in ctmc.states],
        "initial_state": str(ctmc.initial_state),
        "rates": {
            str(s): {str(t): r for t, r in row.items()}
            for s, row in ctmc.rates.items()
            if row
        },
        "labels": {
            str(s): sorted(props)
            for s, props in ctmc.labels.items()
            if props
        },
    }


def ctmc_from_dict(payload: Dict):
    """Rebuild a CTMC saved by :func:`ctmc_to_dict`."""
    from repro.ctmc.model import CTMC

    return CTMC(
        states=payload["states"],
        rates=payload.get("rates", {}),
        initial_state=payload["initial_state"],
        labels={s: set(props) for s, props in payload.get("labels", {}).items()},
    )


def interval_dtmc_to_dict(interval) -> Dict:
    """A JSON-ready dictionary capturing an interval chain.

    Interval bounds serialise as two-element ``[lower, upper]`` lists.
    """
    return {
        "states": [str(s) for s in interval.states],
        "initial_state": str(interval.initial_state),
        "intervals": {
            str(s): {
                str(t): [lower, upper] for t, (lower, upper) in row.items()
            }
            for s, row in interval.intervals.items()
        },
        "labels": {
            str(s): sorted(props)
            for s, props in interval.labels.items()
            if props
        },
        "state_rewards": {
            str(s): r for s, r in interval.state_rewards.items() if r != 0.0
        },
    }


def interval_dtmc_from_dict(payload: Dict):
    """Rebuild an interval chain saved by :func:`interval_dtmc_to_dict`."""
    from repro.mdp.interval import IntervalDTMC

    return IntervalDTMC(
        states=payload["states"],
        intervals={
            s: {t: (bounds[0], bounds[1]) for t, bounds in row.items()}
            for s, row in payload["intervals"].items()
        },
        initial_state=payload["initial_state"],
        labels={s: set(props) for s, props in payload.get("labels", {}).items()},
        state_rewards=payload.get("state_rewards", {}),
    )


def interval_mdp_to_dict(interval) -> Dict:
    """A JSON-ready dictionary capturing an interval MDP."""
    return {
        "states": [str(s) for s in interval.states],
        "initial_state": str(interval.initial_state),
        "intervals": {
            str(s): {
                str(a): {
                    str(t): [lower, upper]
                    for t, (lower, upper) in row.items()
                }
                for a, row in rows.items()
            }
            for s, rows in interval.intervals.items()
        },
        "labels": {
            str(s): sorted(props)
            for s, props in interval.labels.items()
            if props
        },
    }


def interval_mdp_from_dict(payload: Dict):
    """Rebuild an interval MDP saved by :func:`interval_mdp_to_dict`."""
    from repro.mdp.interval import IntervalMDP

    return IntervalMDP(
        states=payload["states"],
        intervals={
            s: {
                a: {t: (bounds[0], bounds[1]) for t, bounds in row.items()}
                for a, row in rows.items()
            }
            for s, rows in payload["intervals"].items()
        },
        initial_state=payload["initial_state"],
        labels={s: set(props) for s, props in payload.get("labels", {}).items()},
    )


def model_to_payload(model) -> Dict:
    """The self-describing ``{"kind", "model"}`` payload of a model."""
    from repro.ctmc.model import CTMC
    from repro.mdp.interval import IntervalDTMC, IntervalMDP

    if isinstance(model, DTMC):
        return {"kind": "dtmc", "model": dtmc_to_dict(model)}
    if isinstance(model, MDP):
        return {"kind": "mdp", "model": mdp_to_dict(model)}
    if isinstance(model, CTMC):
        return {"kind": "ctmc", "model": ctmc_to_dict(model)}
    if isinstance(model, IntervalDTMC):
        return {"kind": "interval-dtmc", "model": interval_dtmc_to_dict(model)}
    if isinstance(model, IntervalMDP):
        return {"kind": "interval-mdp", "model": interval_mdp_to_dict(model)}
    raise TypeError(f"cannot serialise {type(model).__name__}")


def model_from_payload(payload: Dict):
    """Inverse of :func:`model_to_payload`."""
    if not isinstance(payload, dict):
        raise ValueError("a model payload is a JSON object")
    kind = payload.get("kind")
    if kind == "dtmc":
        return dtmc_from_dict(payload["model"])
    if kind == "mdp":
        return mdp_from_dict(payload["model"])
    if kind == "ctmc":
        return ctmc_from_dict(payload["model"])
    if kind == "interval-dtmc":
        return interval_dtmc_from_dict(payload["model"])
    if kind == "interval-mdp":
        return interval_mdp_from_dict(payload["model"])
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model, path: Union[str, Path]) -> None:
    """Write a model (DTMC, MDP or CTMC) to a self-describing JSON file."""
    payload = model_to_payload(model)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_model(path: Union[str, Path]):
    """Read a model written by :func:`save_model`."""
    return model_from_payload(json.loads(Path(path).read_text()))

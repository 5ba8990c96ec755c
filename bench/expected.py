"""Pinned expectations for the default seed (``bench/expected.json``).

Two things are pinned per scale, both written once by
``python3 -m bench --repin``:

* ``inputs_digest`` per workload — what is measured cannot change
  silently when ``repro.datagen`` does;
* for the cold workloads, the digest of a **brute-force** join of every
  dataset pair — too slow to recompute per run, so an unseen ``--seed``
  is cross-checked against ``"pbsm"`` only.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.workloads import DEFAULT_SEED, Scale

PATH = Path(__file__).with_name("expected.json")


def _pins(seed: int, scale: Scale) -> dict[str, dict[str, object]]:
    if seed != DEFAULT_SEED or not PATH.exists():
        return {}
    return json.loads(PATH.read_text()).get(scale.name, {})


def check_inputs(
    workload: str, seed: int, scale: Scale, digest: str, notes: list[str]
) -> bool:
    """Compare ``inputs_digest`` with its pin; unseen seeds only print it."""
    pin = _pins(seed, scale).get(workload)
    if pin is None:
        notes.append(f"inputs_digest {digest} (seed {seed} is not pinned)")
        return True
    ok = pin["inputs_digest"] == digest
    notes.append(
        f"inputs_digest {digest} "
        + ("matches its pin" if ok else f"DIFFERS from pin {pin['inputs_digest']}")
    )
    return ok


def brute_digests(workload: str, seed: int, scale: Scale) -> list[str] | None:
    pin = _pins(seed, scale).get(workload)
    return None if pin is None else pin.get("brute")  # type: ignore[return-value]


def write(pins: dict[str, dict[str, dict[str, object]]]) -> None:
    PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

"""Workload inputs, generated from the workload seed with the standard library only.

The files written here use the package's v1 JSON layout (sorted keys, two
space indent, trailing newline) so the CLI reads them like any artifact it
wrote itself. Bits are handled as Python ints, bit i of an n-bit string being
``(value >> (n - 1 - i)) & 1``, which keeps the checks linear and fast.
"""

from __future__ import annotations

import base64
import json
import random
from dataclasses import dataclass
from pathlib import Path

WRITING_THETA = "0.000000"
MARK_THETA = "45.000000"
PE = 0.5  # sin^2(45 - 0)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload; smoke mode shrinks each to about 10^4 bits."""

    payload_bytes: int = 0  # raw-dense
    image_side: int = 0  # pgm-sparse
    marks: int = 0
    suspects: int = 0  # owner-audit, half genuine and half unmarked


FULL = {
    "raw-dense": Sizes(payload_bytes=131072, marks=524288),
    "pgm-sparse": Sizes(image_side=256, marks=1024),
    "owner-audit": Sizes(payload_bytes=131072, marks=100000, suspects=24),
}
SMOKE = {
    "raw-dense": Sizes(payload_bytes=1024, marks=4096),
    "pgm-sparse": Sizes(image_side=32, marks=128),
    "owner-audit": Sizes(payload_bytes=1024, marks=4096, suspects=24),
}


def dump_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def mask_of(indices, bit_length: int) -> int:
    """Int with bit i set for every i in indices."""
    buf = bytearray((bit_length + 7) // 8)
    for i in indices:
        buf[i >> 3] |= 0x80 >> (i & 7)
    return bytes_to_int(buf) >> (8 * len(buf) - bit_length)


def observation_text(value: int, bit_length: int, theta: str = WRITING_THETA) -> str:
    pad = -bit_length % 8
    packed = (value << pad).to_bytes((bit_length + pad) // 8, "big")
    return dump_json(
        {
            "version": 1,
            "observation_basis_theta": theta,
            "bit_length": bit_length,
            "bits": base64.b64encode(packed).decode("ascii"),
        }
    )


def read_observation(path: Path) -> tuple[int, int, str]:
    """(bits as int, bit length, basis theta string) of an observation file."""
    document = json.loads(path.read_text())
    bit_length = document["bit_length"]
    packed = base64.b64decode(document["bits"])
    value = bytes_to_int(packed) >> (8 * len(packed) - bit_length)
    return value, bit_length, document["observation_basis_theta"]


def read_secret(path: Path) -> tuple[list[int], str]:
    document = json.loads(path.read_text())
    return document["indices"], document["mark_basis_theta"]


@dataclass(frozen=True)
class Inputs:
    """What the benchmark generated, and what it knows about it by construction."""

    bits: int  # payload (pipelines) or reference (owner-audit) bits
    bit_length: int
    files: dict  # role -> Path
    marks: int = 0
    flips: tuple = ()  # owner-audit: flipped marked bits per suspect, 0 if unmarked


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"qumark-bench:{workload}:{seed}")


def generate(workload: str, seed: int, sizes: Sizes, work: Path) -> Inputs:
    rng = _rng(workload, seed)
    if workload == "raw-dense":
        data = rng.randbytes(sizes.payload_bytes)
        path = work / "payload.bin"
        path.write_bytes(data)
        return Inputs(bytes_to_int(data), 8 * len(data), {"payload": path}, sizes.marks)
    if workload == "pgm-sparse":
        side = sizes.image_side
        pixels = rng.randbytes(side * side)
        path = work / "image.pgm"
        path.write_bytes(f"P5\n{side} {side}\n255\n".encode("ascii") + pixels)
        return Inputs(bytes_to_int(pixels), 8 * len(pixels), {"payload": path}, sizes.marks)
    if workload == "owner-audit":
        return _owner_audit(rng, sizes, work)
    raise ValueError(f"unknown workload {workload!r}")


def _owner_audit(rng: random.Random, sizes: Sizes, work: Path) -> Inputs:
    """Reference, a MAX_SAMPLE_SIZE secret and suspects whose verdicts are fixed.

    A genuine suspect flips exactly k marked bits, k within marks/1000 of
    marks/2, so its z-score against p_e = 0.5 stays below 0.64 at 10^5 marks
    (and far lower in smoke mode), well inside every rule the audit applies.
    An unmarked suspect flips none and is rejected by every rule.
    """
    bit_length = 8 * sizes.payload_bytes
    reference = bytes_to_int(rng.randbytes(sizes.payload_bytes))
    indices = sorted(rng.sample(range(bit_length), sizes.marks))
    files = {"reference": work / "reference.json", "secret": work / "secret.json"}
    files["reference"].write_text(observation_text(reference, bit_length))
    files["secret"].write_text(
        dump_json(
            {
                "version": 1,
                "indices": indices,
                "mark_basis_theta": MARK_THETA,
                "key": None,
                "expected_pe": PE,
            }
        )
    )
    spread = sizes.marks // 1000
    flips = []
    for n in range(sizes.suspects):
        k = 0
        value = reference
        if n % 2 == 0:  # genuine
            k = sizes.marks // 2 + rng.randint(-spread, spread)
            value ^= mask_of(rng.sample(indices, k), bit_length)
        flips.append(k)
        path = work / f"suspect{n:02d}.json"
        path.write_text(observation_text(value, bit_length))
        files[f"suspect{n:02d}"] = path
    return Inputs(reference, bit_length, files, sizes.marks, tuple(flips))

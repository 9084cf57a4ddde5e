"""The three workloads as ordered CLI stages, each with the checks on its output.

A pass runs every stage of a workload once, in order. Every stage gets the
same arguments and seeds on every pass, so each pass writes the same bytes
and any pass can be checked against the SHA-256 pins of the seed commit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from inputs import MARK_THETA, PE, WRITING_THETA, Inputs, mask_of, read_observation, read_secret

DEFAULT_SEED = 1
ANALYZE_TABLE = [8, 596, 2408, 15002]  # pe 0.5 against nulls 0.0, 0.4, 0.45, 0.48
OWNER_RULES = ("binom:0.99", "wilson:0.99", "fixed:0.05")
SHIFT_OFFSET = 17
AVERAGED_COPIES = 4


@dataclass
class Outcome:
    """What one stage did: exit code, captured output, wall time and peak RSS."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float | None = None


class Checker:
    """Counts operations attempted and failed; a stage and each check is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Stage:
    kind: str  # keygen, embed, observe, verify, attack or analyze
    label: str
    argv: list[str]
    check: Callable[[Outcome, Checker], None]
    artifacts: list[str] = field(default_factory=list)  # files the stage writes


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_values(stdout: str, key: str) -> list[str]:
    prefix = f"{key}: "
    return [line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix)]


def _expect_errors(c: Checker, label: str, out: Outcome, expected: list[int]) -> None:
    got = report_values(out.stdout, "errors")
    c.check(f"{label} errors line", got == [str(e) for e in expected], f"{got} != {expected}")


def _exit(c: Checker, label: str, out: Outcome, allowed: tuple[int, ...]) -> bool:
    detail = f"exit {out.code}: {out.stderr.strip()[:200]}"
    return c.check(f"{label} exit", out.code in allowed, detail)


def pipeline_stages(workload: str, inputs: Inputs, work: Path, seed: int) -> list[Stage]:
    """keygen, embed, observe, then verify the observed copy and the unmarked reference."""
    n = inputs.bit_length
    payload = str(inputs.files["payload"])
    secret, marked, ref, observed = (
        work / name for name in ("secret.json", "marked.json", "marked.ref.json", "observed.json")
    )
    pgm = workload == "pgm-sparse"
    rule = "binom:0.99" if pgm else "wilson:0.99"
    state: dict = {}

    def keygen_check(out: Outcome, c: Checker) -> None:
        if not _exit(c, "keygen", out, (0,)):
            return
        indices, theta = read_secret(secret)
        state["mask"] = mask_of(indices, n)
        c.check("secret size", len(indices) == inputs.marks, f"{len(indices)} marks")
        c.check(
            "secret indices sorted, distinct, in range",
            all(a < b for a, b in zip(indices, indices[1:])) and 0 <= indices[0] and indices[-1] < n,
        )
        c.check("secret mark basis", theta == MARK_THETA, theta)
        if pgm:
            c.check("secret marks only pixel LSBs", all(i % 8 == 7 for i in indices))

    def embed_check(out: Outcome, c: Checker) -> None:
        if not _exit(c, "embed", out, (0,)):
            return
        value, length, theta = read_observation(ref)
        c.check("reference equals payload", (value, length, theta) == (inputs.bits, n, WRITING_THETA))

    def observe_check(out: Outcome, c: Checker) -> None:
        if not _exit(c, "observe", out, (0,)) or "mask" not in state:
            return
        value, length, theta = read_observation(observed)
        c.check("observation shape", (length, theta) == (n, WRITING_THETA), f"{length} {theta}")
        diff = value ^ inputs.bits
        mask = state["mask"]
        c.check("observation equals payload off the marks", diff & ~mask == 0)
        errors = (diff & mask).bit_count()
        state["errors"] = errors
        sigma = math.sqrt(PE * (1 - PE) / inputs.marks)
        freq = errors / inputs.marks
        c.check("flip frequency within 6 sigma of p_e", abs(freq - PE) <= 6 * sigma, f"{freq:.6f}")

    def verify_check(out: Outcome, c: Checker) -> None:
        if _exit(c, "verify observed", out, (0, 1)) and "errors" in state:
            _expect_errors(c, "verify observed", out, [state["errors"]])

    def reject_check(out: Outcome, c: Checker) -> None:
        if _exit(c, "verify reference (must reject)", out, (1,)):
            _expect_errors(c, "verify reference", out, [0])

    keygen = ["keygen", "--count", str(inputs.marks), "--seed", str(seed), "--out", str(secret)]
    keygen += ["--mask-from", payload] if pgm else ["--message-len", str(n)]
    keygen += ["--writing-basis", "0", "--mark-basis", "45"]
    embed = ["embed", "--in", payload, "--secret", str(secret), "--out", str(marked)]
    embed += ["--format", "pgm"] if pgm else []
    embed += ["--seed", str(seed + 1)]
    observe = ["observe", "--in", str(marked), "--out", str(observed), "--seed", str(seed + 2)]
    verify = ["verify", "--reference", str(ref), "--secret", str(secret), "--rule", rule]
    return [
        Stage("keygen", "keygen", keygen, keygen_check, [secret.name]),
        Stage("embed", "embed", embed, embed_check, [marked.name, ref.name]),
        Stage("observe", "observe", observe, observe_check, [observed.name]),
        Stage("verify", "verify observed", verify + ["--suspect", str(observed)], verify_check),
        Stage("verify", "verify reference", verify + ["--suspect", str(ref)], reject_check),
    ]


def owner_audit_stages(inputs: Inputs, work: Path, seed: int) -> list[Stage]:
    """verify every suspect, three attacks on genuine copies, then sample-size planning."""
    n = inputs.bit_length
    files = inputs.files
    ref_secret = ["--reference", str(files["reference"]), "--secret", str(files["secret"])]
    genuine = [f"suspect{i:02d}" for i, k in enumerate(inputs.flips) if k][:AVERAGED_COPIES]
    copies = [read_observation(files[name])[0] for name in genuine]
    k0 = inputs.flips[0]
    stages = []

    for i, k in enumerate(inputs.flips):
        label = f"verify suspect{i:02d}"

        def verify_check(out: Outcome, c: Checker, label=label, k=k) -> None:
            expected = 0 if k else 1  # genuine copies accept, unmarked ones reject
            if _exit(c, label, out, (expected,)):
                _expect_errors(c, label, out, [k])

        argv = ["verify", "--suspect", str(files[f"suspect{i:02d}"]), *ref_secret,
                "--rule", OWNER_RULES[i % len(OWNER_RULES)]]
        stages.append(Stage("verify", label, argv, verify_check))

    noise_out, shift_out, avg_out = (work / f"attacked_{k}.json" for k in ("noise", "shift", "averaging"))

    def attack_check(label: str, path: Path, expected: int | None) -> Callable:
        def check(out: Outcome, c: Checker) -> None:
            if not _exit(c, label, out, (0, 1)):
                return
            before = report_values(out.stdout, "errors")[:1]
            c.check(f"{label} before errors", before == [str(k0)], f"{before} != {k0}")
            value, length, theta = read_observation(path)
            c.check(f"{label} output shape", (length, theta) == (n, WRITING_THETA))
            if expected is not None:
                c.check(f"{label} output bits", value == expected)
        return check

    a, b, c_, d = copies
    majority = (a & b & (c_ | d)) | (c_ & d & (a | b))  # ties of two against two read 0
    suspected = ((a | b | c_ | d) ^ (a & b & c_ & d)).bit_count()
    avg_check = attack_check("attack averaging", avg_out, majority)

    def averaging_check(out: Outcome, c: Checker) -> None:
        avg_check(out, c)
        got = report_values(out.stdout, "suspected_positions")
        c.check("averaging suspected positions", got == [str(suspected)], f"{got} != {suspected}")

    def analyze_check(out: Outcome, c: Checker) -> None:
        if _exit(c, "analyze", out, (0,)):
            rows = out.stdout.splitlines()[1:]
            sizes = [int(row.split()[-1]) for row in rows if row.split()]
            c.check("analyze table", sizes == ANALYZE_TABLE, f"{sizes}")

    first = str(files["suspect00"])
    stages += [
        Stage("attack", "attack noise",
              ["attack", "noise", "--in", first, "--rate", "0.1", *ref_secret,
               "--seed", str(seed + 3), "--out", str(noise_out)],
              attack_check("attack noise", noise_out, None), [noise_out.name]),
        Stage("attack", "attack shift",
              ["attack", "shift", "--in", first, "--offset", str(SHIFT_OFFSET), *ref_secret,
               "--out", str(shift_out)],
              attack_check("attack shift", shift_out, copies[0] >> SHIFT_OFFSET), [shift_out.name]),
        Stage("attack", "attack averaging",
              ["attack", "averaging", "--copies", *(str(files[g]) for g in genuine), *ref_secret,
               "--out", str(avg_out)],
              averaging_check, [avg_out.name]),
        Stage("analyze", "analyze",
              ["analyze", "--pe", "0.5", "--null", "0.0,0.4,0.45,0.48"], analyze_check),
    ]
    return stages


def stages_for(workload: str, inputs: Inputs, work: Path, seed: int) -> list[Stage]:
    if workload == "owner-audit":
        return owner_audit_stages(inputs, work, seed)
    return pipeline_stages(workload, inputs, work, seed)

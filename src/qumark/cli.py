"""Command line for the full watermarking pipeline.

Subcommands cover the whole life cycle: keygen derives a secret, embed marks
a payload, observe measures a qubit message back to classical bits, verify
renders a verdict, attack runs the adversary toolkit, analyze plans index
set sizes. Exit status is 0 for success or an accept verdict, 1 for a
reject verdict, and 2 for usage, format, or consistency errors and for any
other failure. Randomized subcommands take --seed, falling back to the
QUMARK_SEED environment variable, then to system entropy. A library
warning prints as one "warning: <text>" line on stderr.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import warnings

from . import carrier, fileformats, stats
from .attacks import averaging_attack, noise_attack, run_attack_report, shift_attack
from .keys import DerivationParams, SecretKey, generate_secret
from .qstate import Basis, RandomSource, expected_error_probability
from .watermark import ObservedMessage, WatermarkSecret, build_message, embed, observe, verify

__all__ = ["build_parser", "main"]

SEED_ENV_VAR = "QUMARK_SEED"


def _seed_from(args: argparse.Namespace) -> int | None:
    seed, source = args.seed, "--seed"
    env = os.environ.get(SEED_ENV_VAR)
    if seed is None and env:
        try:
            seed, source = int(env), SEED_ENV_VAR
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    # random.Random seeds with abs(), so -5 would silently replay 5
    if seed is not None and seed < 0:
        raise ValueError(f"{source} must be nonnegative, got {seed}")
    return seed


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_text(path: str, text: str) -> None:
    """Write text as UTF-8 over path in place, then cut a regular file's old tail.

    The end state is mode "w"'s: the same inode, symlinks followed, mode bits
    kept. Truncating a large file to zero before rewriting it can stall for
    hundreds of milliseconds (ext4 mounted with discard); overwriting its
    blocks and cutting what is left takes a few milliseconds.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    with open(os.open(path, _WRITE_FLAGS, 0o666), "wb") as handle:
        handle.write(data)
        handle.flush()
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            os.ftruncate(handle.fileno(), len(data))


def _parse_rule(token: str) -> stats.DecisionRule:
    kind, _, value = token.partition(":")
    if not value:
        raise ValueError(f"rule needs a parameter, e.g. wilson:0.99, got {token!r}")
    number = float(value)
    if kind == "fixed":
        return stats.DecisionRule.fixed(number)
    if kind == "wilson":
        return stats.DecisionRule.wilson(number)
    if kind == "binom":
        return stats.DecisionRule.exact_binomial(number)
    raise ValueError(f"unknown rule {kind!r}; use fixed:EPS, wilson:CONF, or binom:CONF")


def _rule_token(rule: stats.DecisionRule) -> str:
    if rule.kind == stats.FIXED_TOLERANCE:
        return f"fixed:{rule.tolerance:g}"
    short = "wilson" if rule.kind == stats.WILSON_INTERVAL else "binom"
    return f"{short}:{rule.confidence:g}"


def _print_report(report, rule: stats.DecisionRule) -> None:
    detail = report.decision_detail
    print(f"rule: {_rule_token(rule)}")
    print(f"marks: {report.sample_size}")
    print(f"errors: {report.error_count}")
    print(f"observed_frequency: {report.observed_frequency:.6f}")
    print(f"expected_pe: {report.expected_pe:.6f}")
    if detail.bound_low is not None:
        print(f"bound_low: {detail.bound_low:.6f}")
        print(f"bound_high: {detail.bound_high:.6f}")
    if detail.p_value is not None:
        print(f"p_value: {detail.p_value:.6g}")
    print(f"decision: {report.decision}")


def _ingest_payload(data: bytes, format_tag: str) -> carrier.CarrierPayload:
    if format_tag == "pgm":
        payload, _meta = carrier.ingest_pgm(data)
        return payload
    return carrier.ingest_raw(data)


def _default_reference_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}.ref{ext or '.json'}"


def _cmd_keygen(args: argparse.Namespace) -> int:
    mask = None
    length = args.message_len
    if args.mask_from is not None:
        payload, _meta = carrier.ingest_pgm(_read_bytes(args.mask_from))
        mask = payload.eligibility_mask
        if length is None:
            length = len(mask)
    if length is None:
        raise ValueError("--message-len is required unless --mask-from provides it")
    writing = Basis(args.writing_basis)
    mark = Basis(args.mark_basis)
    if not mark.is_dissimilar_to(writing):
        raise ValueError("--mark-basis must differ from --writing-basis")
    key = SecretKey.generate(_seed_from(args))
    params = DerivationParams(
        message_length=length, mark_count=args.count, eligibility_mask=mask
    )
    secret = generate_secret(key, params, mark)
    expected_pe = expected_error_probability(mark, writing)
    _write_text(args.out, fileformats.dump_secret(secret, expected_pe))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    if args.out == "-":
        raise ValueError("embed writes two artifacts and needs --out FILE")
    payload = _ingest_payload(_read_bytes(args.infile), args.format)
    secret, _recorded_pe = fileformats.load_secret(_read_bytes(args.secret))
    # every raw bit is eligible; an index past the end is left to embed,
    # which names the valid range
    if args.format == "pgm" and secret.indices[-1] < len(payload.bits):
        mask = payload.eligibility_mask
        ineligible = [i for i in secret.indices if mask[i] == "0"]
        if ineligible:
            raise ValueError(
                f"{len(ineligible)} secret indices lie outside the image's pixel LSBs,"
                f" the first at {ineligible[0]}; derive the secret with keygen --mask-from"
            )
    writing = Basis(args.writing_basis)
    message = build_message(payload.bits, writing)
    marked = embed(message, secret, RandomSource(_seed_from(args)), strict=args.strict)
    _write_text(args.out, fileformats.dump_quantum_message(marked))
    reference = ObservedMessage(bits=payload.bits, observation_basis=writing)
    reference_out = args.reference_out or _default_reference_path(args.out)
    _write_text(reference_out, fileformats.dump_observation(reference))
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    message = fileformats.load_quantum_message(_read_bytes(args.infile))
    basis = message.writing_basis if args.basis is None else Basis(args.basis)
    observation = observe(message, basis, RandomSource(_seed_from(args)))
    _write_text(args.out, fileformats.dump_observation(observation))
    return 0


def _load_audit(
    args: argparse.Namespace,
) -> tuple[ObservedMessage, WatermarkSecret, stats.DecisionRule]:
    """The reference, secret and decision rule that verify and every attack read."""
    reference = fileformats.load_observation(_read_bytes(args.reference))
    secret, _recorded_pe = fileformats.load_secret(_read_bytes(args.secret))
    return reference, secret, _parse_rule(args.rule)


def _cmd_verify(args: argparse.Namespace) -> int:
    suspect = fileformats.load_observation(_read_bytes(args.suspect))
    reference, secret, rule = _load_audit(args)
    report = verify(suspect, reference, secret, rule)
    _print_report(report, rule)
    return 0 if report.accepted else 1


def _run_attack(
    args: argparse.Namespace, observation: ObservedMessage, audit, attack, *lines: str
) -> int:
    """Verify before and after the attack, save the attacked copy, exit by the after verdict.

    lines, then the two reports, are printed only once the attack and both
    verifications have succeeded, so a failure leaves stdout empty.
    """
    if args.out == "-":
        raise ValueError("attack prints its reports on stdout and needs --out FILE")
    reference, secret, rule = audit
    outcome = run_attack_report(observation, reference, secret, rule, attack)
    if args.out is not None:
        _write_text(args.out, fileformats.dump_observation(outcome.attacked))
    for line in lines:
        print(line)
    print("== before ==")
    _print_report(outcome.verification_before, rule)
    print("== after ==")
    _print_report(outcome.verification_after, rule)
    return 0 if outcome.verification_after.accepted else 1


def _cmd_attack_noise(args: argparse.Namespace) -> int:
    original = fileformats.load_observation(_read_bytes(args.infile))
    audit = _load_audit(args)
    rng = RandomSource(_seed_from(args))
    return _run_attack(args, original, audit, lambda obs: noise_attack(obs, args.rate, rng))


def _cmd_attack_shift(args: argparse.Namespace) -> int:
    original = fileformats.load_observation(_read_bytes(args.infile))
    audit = _load_audit(args)
    return _run_attack(args, original, audit, lambda obs: shift_attack(obs, args.offset, args.pad))


def _cmd_attack_averaging(args: argparse.Namespace) -> int:
    copies = [fileformats.load_observation(_read_bytes(path)) for path in args.copies]
    audit = _load_audit(args)
    result = averaging_attack(copies)
    recovered = ObservedMessage(
        bits=result.recovered_bits, observation_basis=copies[0].observation_basis
    )
    suspected = f"suspected_positions: {len(result.suspected_indices)}"
    return _run_attack(args, copies[0], audit, lambda _obs: recovered, suspected)


def _cmd_analyze(args: argparse.Namespace) -> int:
    pes = [float(v) for v in args.pe.split(",") if v]
    nulls = [float(v) for v in args.null.split(",") if v]
    if not pes or not nulls:
        raise ValueError("--pe and --null need at least one value each")
    # every size is computed before the table is printed, so a failure prints none of it
    rows = [
        (pe, null_rate, stats.recommended_sample_size(pe, null_rate, args.confidence, args.power))
        for pe in pes
        for null_rate in nulls
    ]
    print(f"{'pe':>8} {'null':>8} {'confidence':>11} {'power':>8} {'min_marks':>10}")
    for pe, null_rate, size in rows:
        print(
            f"{pe:>8.4f} {null_rate:>8.4f} {args.confidence:>11.4f}"
            f" {args.power:>8.4f} {size:>10d}"
        )
    return 0


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None,
        help=f"deterministic seed (falls back to ${SEED_ENV_VAR}, then system entropy)",
    )


def _add_audit(parser: argparse.ArgumentParser, out_help: str | None = None) -> None:
    parser.add_argument("--reference", required=True, help="reference observation file")
    parser.add_argument("--secret", required=True, help="secret file")
    if out_help is not None:
        parser.add_argument("--out", default=None, help=out_help)
    parser.add_argument(
        "--rule", default="wilson:0.99",
        help="decision rule: fixed:EPS, wilson:CONF, or binom:CONF (default wilson:0.99)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qumark",
        description="Fuzzy watermarking of bit streams via conjugate-basis qubit rewrites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="derive a fresh watermark secret")
    keygen.add_argument("--message-len", type=int, default=None,
                        help="payload length in bits (inferred from --mask-from when omitted)")
    keygen.add_argument("--count", type=int, required=True, help="number of marked positions")
    keygen.add_argument("--mask-from", default=None, metavar="PGM",
                        help="PGM image whose LSB mask restricts eligible positions")
    keygen.add_argument("--writing-basis", type=float, default=0.0, metavar="DEG")
    keygen.add_argument("--mark-basis", type=float, default=45.0, metavar="DEG")
    keygen.add_argument("--out", default="-", help="secret file path (default stdout)")
    _add_seed(keygen)
    keygen.set_defaults(handler=_cmd_keygen)

    embed_cmd = sub.add_parser("embed", help="watermark a payload")
    embed_cmd.add_argument("--in", dest="infile", required=True, help="payload file ('-' for stdin)")
    embed_cmd.add_argument("--format", choices=("raw", "pgm"), default="raw")
    embed_cmd.add_argument("--secret", required=True, help="secret file from keygen")
    embed_cmd.add_argument("--writing-basis", type=float, default=0.0, metavar="DEG")
    embed_cmd.add_argument("--out", required=True, help="marked quantum message file")
    embed_cmd.add_argument("--reference-out", default=None,
                           help="reference observation file (default: OUT with .ref suffix)")
    embed_cmd.add_argument("--strict", action="store_true",
                           help="refuse index sets too small to verify reliably")
    _add_seed(embed_cmd)
    embed_cmd.set_defaults(handler=_cmd_embed)

    observe_cmd = sub.add_parser("observe", help="measure a quantum message to classical bits")
    observe_cmd.add_argument("--in", dest="infile", required=True, help="quantum message file")
    observe_cmd.add_argument("--basis", type=float, default=None, metavar="DEG",
                             help="observation basis (default: the message's writing basis)")
    observe_cmd.add_argument("--out", default="-", help="observation file path (default stdout)")
    _add_seed(observe_cmd)
    observe_cmd.set_defaults(handler=_cmd_observe)

    verify_cmd = sub.add_parser("verify", help="decide whether a suspect carries the mark")
    verify_cmd.add_argument("--suspect", required=True, help="suspect observation file")
    _add_audit(verify_cmd)
    verify_cmd.set_defaults(handler=_cmd_verify)

    attack = sub.add_parser("attack", help="run an attack and verify before/after")
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)

    noise = attack_sub.add_parser("noise", help="flip every bit with a fixed probability")
    noise.add_argument("--in", dest="infile", required=True, help="observation to attack")
    noise.add_argument("--rate", type=float, required=True, help="per-bit flip probability")
    _add_audit(noise, "write the attacked observation here")
    _add_seed(noise)
    noise.set_defaults(handler=_cmd_attack_noise)

    shift = attack_sub.add_parser("shift", help="desynchronize by shifting all bits")
    shift.add_argument("--in", dest="infile", required=True, help="observation to attack")
    shift.add_argument("--offset", type=int, required=True)
    shift.add_argument("--pad", type=int, choices=(0, 1), default=0)
    _add_audit(shift, "write the attacked observation here")
    shift.set_defaults(handler=_cmd_attack_shift)

    averaging = attack_sub.add_parser("averaging", help="collude over several releases")
    averaging.add_argument("--copies", nargs="+", required=True, metavar="OBS",
                           help="two or more observation files of the same message")
    _add_audit(averaging, "write the recovered observation here")
    averaging.set_defaults(handler=_cmd_attack_averaging)

    analyze = sub.add_parser("analyze", help="recommend index set sizes")
    analyze.add_argument("--pe", required=True,
                         help="comma-separated expected flip rates, e.g. 0.5,0.25")
    analyze.add_argument("--null", default="0.0",
                         help="comma-separated null flip rates (default 0.0, an unmarked copy)")
    analyze.add_argument("--confidence", type=float, default=0.99)
    analyze.add_argument("--power", type=float, default=0.99)
    analyze.set_defaults(handler=_cmd_analyze)

    return parser


def _show_warning(message: Warning | str, *_: object, **__: object) -> None:
    """warnings.showwarning for the command line: one line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.handler(args)
    except (ValueError, OSError) as exc:  # QumarkError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means reject, so no failure may exit with it
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
    """--seed, else QUMARK_SEED, else None; RandomSource refuses a negative one."""
    env = os.environ.get(SEED_ENV_VAR)
    if args.seed is not None or not env:
        return args.seed
    return _parse(int, env, f"{SEED_ENV_VAR} must be an integer, got {env!r}")


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT
_SLICE_CHARS = 1 << 16
# no UTF-8 text holds this byte, and no loader reads a file that starts with it
_UNFINISHED = b"\xff"


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:  # a write cut short by a size limit returns its count; the next one raises
        view = view[os.write(fd, view):]


def _write_text(path: str, text: str) -> None:
    """Write text as UTF-8 over path in place, then cut a regular file's old tail.

    The end state is mode "w"'s: the same inode, symlinks followed, mode bits
    kept. Truncating a large file to zero before rewriting it can stall for
    hundreds of milliseconds (ext4 mounted with discard); overwriting its
    blocks and cutting what is left takes a few milliseconds. The text is
    encoded 64 Ki characters at a time, so no encoded copy of the whole text
    is ever held.

    A regular file never holds the new prefix over the old tail where a
    loader could read it: its first byte is written as _UNFINISHED and set
    only once the rest is written and the tail is cut, so a process killed
    part way leaves a file that every loader refuses. A write that fails
    part way cuts the file to nothing before the error goes on.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        first = text[:1].encode("utf-8")[:1]
        length = 0
        try:
            for start in range(0, len(text), _SLICE_CHARS):
                data = text[start:start + _SLICE_CHARS].encode("utf-8")
                if regular and not start:
                    data = _UNFINISHED + data[1:]
                _write_all(fd, data)
                length += len(data)
            if regular:
                os.ftruncate(fd, length)
                os.pwrite(fd, first, 0)
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def _refuse_aliases(
    inputs: list[tuple[str, str | None]], outputs: list[tuple[str, str | None]]
) -> None:
    """Refuse, before anything is written, an output that is an input or another output.

    Each (flag, path) is compared by (st_dev, st_ino), so a symlink or a hard
    link to a file counts as that file; a path that does not exist yet is
    compared by its resolved name. '-', an omitted path and non-regular files
    such as /dev/null or a FIFO are exempt.
    """
    def identity(path: str | None) -> object:
        if path in (None, "-"):
            return None
        try:
            info = os.stat(path)
        except FileNotFoundError:
            return os.path.realpath(path)
        return (info.st_dev, info.st_ino) if stat.S_ISREG(info.st_mode) else None

    named = {identity(path): flag for flag, path in inputs}
    for flag, path in outputs:
        key = identity(path)
        if key is not None and key in named:
            raise ValueError(
                f"{flag} {path} names the same file as {named[key]}; nothing was written"
            )
        named[key] = flag


def _parse(convert: type, text: str, error: str) -> int | float:
    """convert(text) for text that argparse does not convert, or ValueError(error)."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(error) from None


def _numbers(text: str, flag: str) -> list[float]:
    error = f"{flag} must be comma-separated numbers, got {text!r}"
    return [_parse(float, value, error) for value in text.split(",") if value]


def _parse_rule(token: str) -> stats.DecisionRule:
    kind, _, value = token.partition(":")
    if not value:
        raise ValueError(f"rule needs a parameter, e.g. wilson:0.99, got {token!r}")
    number = _parse(float, value, f"rule parameter must be a number, got {token!r}")
    if kind == "fixed":
        return stats.DecisionRule.fixed(number)
    if kind == "wilson":
        return stats.DecisionRule.wilson(number)
    if kind == "binom":
        return stats.DecisionRule.exact_binomial(number)
    raise ValueError(f"unknown rule {kind!r}; use fixed:EPS, wilson:CONF, or binom:CONF")


def _rule_token(rule: stats.DecisionRule) -> str:
    """The --rule token for rule, its parameter in the shortest form that reads back exactly."""
    if rule.kind == stats.FIXED_TOLERANCE:
        return f"fixed:{rule.tolerance!r}"
    short = "wilson" if rule.kind == stats.WILSON_INTERVAL else "binom"
    return f"{short}:{rule.confidence!r}"


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


def _cmd_keygen(args: argparse.Namespace) -> int:
    _refuse_aliases([("--mask-from", args.mask_from)], [("--out", args.out)])
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
    params = DerivationParams(message_length=length, mark_count=args.count, eligibility_mask=mask)
    secret = generate_secret(key, params, mark)
    expected_pe = expected_error_probability(mark, writing)
    _write_text(args.out, fileformats.dump_secret(secret, expected_pe))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    if args.out == "-":
        raise ValueError("embed writes two artifacts and needs --out FILE")
    root, ext = os.path.splitext(args.out)
    reference_out = args.reference_out or f"{root}.ref{ext or '.json'}"
    _refuse_aliases(
        [("--in", args.infile), ("--secret", args.secret)],
        [("--out", args.out), ("--reference-out", reference_out)],
    )
    if args.format == "pgm":
        payload, _meta = carrier.ingest_pgm(_read_bytes(args.infile))
    else:
        payload = carrier.ingest_raw(_read_bytes(args.infile))
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
    _write_text(reference_out, fileformats.dump_observation(reference))
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    _refuse_aliases([("--in", args.infile)], [("--out", args.out)])
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
    args: argparse.Namespace, inputs: list, observation: ObservedMessage, audit, attack, *lines: str
) -> int:
    """Verify before and after the attack, save the attacked copy, exit by the after verdict.

    --out may name none of inputs, the (flag, path) of each attacked copy.
    lines, then the two reports, are printed only once the attack and both
    verifications have succeeded, so a failure leaves stdout empty.
    """
    if args.out == "-":
        raise ValueError("attack prints its reports on stdout and needs --out FILE")
    audited = [("--reference", args.reference), ("--secret", args.secret)]
    _refuse_aliases(inputs + audited, [("--out", args.out)])
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
    attack = lambda obs: noise_attack(obs, args.rate, rng)
    return _run_attack(args, [("--in", args.infile)], original, audit, attack)


def _cmd_attack_shift(args: argparse.Namespace) -> int:
    original = fileformats.load_observation(_read_bytes(args.infile))
    audit = _load_audit(args)
    attack = lambda obs: shift_attack(obs, args.offset, args.pad)
    return _run_attack(args, [("--in", args.infile)], original, audit, attack)


def _cmd_attack_averaging(args: argparse.Namespace) -> int:
    copies = [fileformats.load_observation(_read_bytes(path)) for path in args.copies]
    audit = _load_audit(args)
    result = averaging_attack(copies)
    recovered = ObservedMessage(
        bits=result.recovered_bits, observation_basis=copies[0].observation_basis
    )
    counts = result.disagreement_counts  # suspected_indices would list ~all marks to count them
    suspected = f"suspected_positions: {len(counts) - counts.count(0)}"
    inputs = [("--copies", path) for path in args.copies]
    return _run_attack(args, inputs, copies[0], audit, lambda _obs: recovered, suspected)


def _cmd_analyze(args: argparse.Namespace) -> int:
    pes, nulls = _numbers(args.pe, "--pe"), _numbers(args.null, "--null")
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
    default = _rule_token(stats.DEFAULT_RULE)
    parser.add_argument(
        "--rule", default=default,
        help=f"decision rule: fixed:EPS, wilson:CONF, or binom:CONF (default {default})",
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
                           help="refuse an index set whose unmarked copy the default rule accepts")
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

    analyze = sub.add_parser("analyze", help="recommend index set sizes", description=(
        "Print, per rate pair, the marks at which the exact binomial test of pe rejects a copy"
        " flipping at the null rate with probability at least --power. The test is discrete, so"
        " a larger set can fall short again: at pe 0.06 the table says 82, yet 86 to 88 marks"
        " accept an unmarked copy. embed checks the size actually chosen."))
    analyze.add_argument("--pe", required=True,
                         help="comma-separated expected flip rates, e.g. 0.5,0.25")
    analyze.add_argument("--null", default="0.0",
                         help="comma-separated null flip rates (default 0.0, an unmarked copy)")
    analyze.add_argument("--confidence", type=float, default=stats.DEFAULT_RULE.confidence)
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

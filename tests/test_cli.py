"""Tests for the command line.

A fully seeded keygen/embed/observe/verify pipeline is pinned down to the
byte level (file hashes included), so any drift in derivation, encoding, or
serialization shows up here first. Exit codes follow the contract: 0 accept
or success, 1 reject, 2 usage or format errors.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from qumark import cli
from qumark.attacks import averaging_attack
from qumark.errors import MalformedFile
from qumark.fileformats import (
    dump_observation,
    load_observation,
    load_quantum_message,
    load_secret,
)
from qumark.qstate import Basis
from qumark.stats import DecisionRule, recommended_sample_size
from qumark.watermark import ObservedMessage, verify

PAYLOAD = b"\x65"  # bits 01100101

GOLDEN_HASHES = {
    "secret.json": "d6f24962594ae38ede27a4d431bc761315edada44fa624d1845050fe67b367ce",
    "marked.json": "dff80188f391ebe18fa6e0164e309d5edf27be5856320a26378b6005731b7ccb",
    "marked.ref.json": "09bc348b784c493d9932b41328642f7061f5d59c973a45468a4112a62bcfbb9c",
    "suspect.json": "b93e6b36a3fa1939b9b720cf27dadb26d9ab037fe99ac43aedcc2a6c8066e27b",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(tmp_path, count=4, keygen_seed=7, embed_seed=11, observe_seed=4,
                 payload=PAYLOAD):
    """Seeded keygen, embed, observe; returns the artifact paths."""
    paths = {
        "payload": tmp_path / "payload.bin",
        "secret": tmp_path / "secret.json",
        "marked": tmp_path / "marked.json",
        "reference": tmp_path / "marked.ref.json",
        "suspect": tmp_path / "suspect.json",
    }
    paths["payload"].write_bytes(payload)
    assert cli.main([
        "keygen", "--message-len", str(8 * len(payload)), "--count", str(count),
        "--seed", str(keygen_seed), "--out", str(paths["secret"]),
    ]) == 0
    assert cli.main([
        "embed", "--in", str(paths["payload"]), "--secret", str(paths["secret"]),
        "--out", str(paths["marked"]), "--seed", str(embed_seed),
    ]) == 0
    assert cli.main([
        "observe", "--in", str(paths["marked"]), "--out", str(paths["suspect"]),
        "--seed", str(observe_seed),
    ]) == 0
    return paths


class TestGoldenPipeline:
    def test_keygen_artifact(self, tmp_path):
        paths = run_pipeline(tmp_path)
        document = json.loads(paths["secret"].read_text())
        assert document["version"] == 1
        assert document["indices"] == [0, 2, 6, 7]
        assert document["mark_basis_theta"] == "45.000000"
        assert document["key"] == "OLTmUuRNp/I3DZ4mDicTZVCko6bQf1wMMy+LEiQIP9I="
        assert document["expected_pe"] == 0.4999999999999999

    def test_embed_artifacts(self, tmp_path):
        paths = run_pipeline(tmp_path)
        document = json.loads(paths["marked"].read_text())
        # marked positions carry 45/135 degree states, the rest stay 0/90
        assert document["states"] == [
            "45.000000", "90.000000", "135.000000", "0.000000",
            "0.000000", "90.000000", "45.000000", "135.000000",
        ]
        reference = load_observation(paths["reference"].read_text())
        assert reference.bits == "01100101"

    def test_observation_differs_only_inside_the_index_set(self, tmp_path):
        paths = run_pipeline(tmp_path)
        suspect = load_observation(paths["suspect"].read_text())
        secret, _ = load_secret(paths["secret"].read_text())
        assert suspect.bits == "01000111"
        diffs = {i for i in range(8) if suspect.bits[i] != "01100101"[i]}
        assert diffs == {2, 6}
        assert diffs <= set(secret.indices)

    def test_artifact_hashes(self, tmp_path):
        paths = run_pipeline(tmp_path)
        for name, digest in GOLDEN_HASHES.items():
            assert sha256(tmp_path / name) == digest, name

    def test_pipeline_is_reproducible(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = run_pipeline(tmp_path / "a")
        second = run_pipeline(tmp_path / "b")
        for name in ("secret", "marked", "reference", "suspect"):
            assert first[name].read_bytes() == second[name].read_bytes()

    def test_verify_accepts_the_marked_copy(self, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        code = cli.main([
            "verify", "--suspect", str(paths["suspect"]),
            "--reference", str(paths["reference"]),
            "--secret", str(paths["secret"]), "--rule", "fixed:0.25",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "rule: fixed:0.25" in out
        assert "marks: 4" in out
        assert "errors: 2" in out
        assert "observed_frequency: 0.500000" in out
        assert "expected_pe: 0.500000" in out
        assert "bound_low: 0.250000" in out
        assert "bound_high: 0.750000" in out
        assert "decision: accept" in out

    def test_verify_rejects_the_unmarked_original(self, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        code = cli.main([
            "verify", "--suspect", str(paths["reference"]),
            "--reference", str(paths["reference"]),
            "--secret", str(paths["secret"]), "--rule", "fixed:0.25",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "errors: 0" in out
        assert "decision: reject" in out

    @pytest.mark.parametrize("rule", ["binom:0.9999999", "fixed:0.1234567"])
    def test_the_report_echoes_the_rule_it_applied(self, rule, tmp_path, capsys):
        # unrounded: not binom:1, nor fixed:0.123457
        paths = run_pipeline(tmp_path)
        cli.main([
            "verify", "--suspect", str(paths["suspect"]), "--reference", str(paths["reference"]),
            "--secret", str(paths["secret"]), "--rule", rule,
        ])
        assert capsys.readouterr().out.startswith(f"rule: {rule}\n")

    def test_a_strict_embed_is_one_the_default_rule_tells_from_an_unmarked_copy(
        self, tmp_path, capsys
    ):
        # pe 0.25: analyze plans 19 marks for binom:0.99, which rejects 0 errors
        # in 19, while wilson:0.99 would still accept them
        paths = {name: tmp_path / f"{name}.json" for name in ("secret", "marked", "reference")}
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"\x65\x00\xff\x3c")
        assert cli.main([
            "keygen", "--message-len", "32", "--count", "19", "--mark-basis", "30",
            "--seed", "7", "--out", str(paths["secret"]),
        ]) == 0
        assert cli.main([
            "embed", "--in", str(payload), "--secret", str(paths["secret"]), "--strict",
            "--out", str(paths["marked"]), "--reference-out", str(paths["reference"]),
            "--seed", "11",
        ]) == 0
        code = cli.main([
            "verify", "--suspect", str(paths["reference"]),
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
        ])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == 1
        assert "rule: binom:0.99\nmarks: 19\nerrors: 0\n" in captured.out
        assert "decision: reject" in captured.out

    def test_a_secret_edited_to_the_writing_basis_is_refused(self, tmp_path, capsys):
        # pe 0 would accept every unmarked copy
        paths = run_pipeline(tmp_path)
        document = json.loads(paths["secret"].read_text())
        document["mark_basis_theta"] = "0.000000"
        paths["secret"].write_text(json.dumps(document))
        code = cli.main([
            "verify", "--suspect", str(paths["reference"]),
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: marking basis equals the observation basis; an unmarked copy would pass\n"
        )


class TestSeeding:
    def test_environment_seed_matches_the_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        by_env = tmp_path / "env.json"
        assert cli.main(["keygen", "--message-len", "8", "--count", "4",
                         "--out", str(by_env)]) == 0
        by_flag = tmp_path / "flag.json"
        assert cli.main(["keygen", "--message-len", "8", "--count", "4",
                         "--seed", "7", "--out", str(by_flag)]) == 0
        assert by_env.read_bytes() == by_flag.read_bytes()

    def test_flag_beats_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
        overridden = tmp_path / "overridden.json"
        assert cli.main(["keygen", "--message-len", "8", "--count", "4",
                         "--seed", "7", "--out", str(overridden)]) == 0
        plain = tmp_path / "plain.json"
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        assert cli.main(["keygen", "--message-len", "8", "--count", "4",
                         "--seed", "7", "--out", str(plain)]) == 0
        assert overridden.read_bytes() == plain.read_bytes()

    def test_garbage_environment_seed_fails_loudly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "lucky")
        code = cli.main(["keygen", "--message-len", "8", "--count", "4",
                         "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_negative_seed_is_refused(self, tmp_path, monkeypatch, capsys, source):
        # random.Random seeds with abs(), so -5 would replay the run of 5
        out = tmp_path / "secret.json"
        argv = ["keygen", "--message-len", "8", "--count", "4", "--out", str(out)]
        if source == "flag":
            argv += ["--seed", "-5"]
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, "-5")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unseeded_runs_draw_fresh_keys(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert cli.main(["keygen", "--message-len", "256", "--count", "8",
                         "--out", str(first)]) == 0
        assert cli.main(["keygen", "--message-len", "256", "--count", "8",
                         "--out", str(second)]) == 0
        assert first.read_bytes() != second.read_bytes()


class TestErrorExits:
    def test_unknown_rule(self, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        code = cli.main([
            "verify", "--suspect", str(paths["suspect"]),
            "--reference", str(paths["reference"]),
            "--secret", str(paths["secret"]), "--rule", "bayes:0.5",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_rule_parameter_out_of_range(self, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        code = cli.main([
            "verify", "--suspect", str(paths["suspect"]),
            "--reference", str(paths["reference"]),
            "--secret", str(paths["secret"]), "--rule", "wilson:2",
        ])
        assert code == 2
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main([
            "verify", "--suspect", str(tmp_path / "nope.json"),
            "--reference", str(tmp_path / "nope.json"),
            "--secret", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        capsys.readouterr()

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["observe", "--in", str(bad)])
        assert code == 2
        capsys.readouterr()

    def test_keygen_needs_a_length_source(self, tmp_path, capsys):
        assert cli.main(["keygen", "--count", "4",
                         "--out", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()

    def test_keygen_refuses_similar_bases(self, tmp_path, capsys):
        assert cli.main(["keygen", "--message-len", "8", "--count", "4",
                         "--mark-basis", "0.0",
                         "--out", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()

    def test_embed_refuses_stdout(self, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        code = cli.main([
            "embed", "--in", str(paths["payload"]),
            "--secret", str(paths["secret"]), "--out", "-", "--seed", "1",
        ])
        assert code == 2
        capsys.readouterr()

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["observe", "--in", str(deep)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_secret_names_the_secret_file(self, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        paths["secret"].write_bytes(b'{"version": 1, "indices": [\x80]}')
        code = cli.main([
            "verify", "--suspect", str(paths["suspect"]),
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: secret file is not valid JSON: ")
        assert err.count("\n") == 1

    def test_unexpected_exception_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        paths = run_pipeline(tmp_path)

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "observe", broken)
        assert cli.main(["observe", "--in", str(paths["marked"])]) == 2
        assert capsys.readouterr().err == "error: unexpected RuntimeError: boom\n"

    @pytest.mark.filterwarnings("always::qumark.watermark.SmallSampleWarning")
    def test_a_library_warning_prints_one_line(self, tmp_path, capsys):
        run_pipeline(tmp_path, count=4)  # embed warns once; keygen and observe are silent
        assert capsys.readouterr().err == (
            "warning: 4 marked positions at flip rate 0.5: the default rule, exact_binomial"
            " at confidence 0.99, would accept an unmarked copy;"
            " run qumark analyze --pe 0.5 to size the index set\n"
        )

    # at 1 and 6.5 degrees the rate rounded to 4 digits, 0.0003046 and 0.01281,
    # plans 17364 and 414 marks where the exact rate plans 17365 and 413
    @pytest.mark.parametrize("mark_basis, pe_text, size", [
        ("1", "0.000304586490452", 17365), ("6.5", "0.0128149676074", 413),
    ])
    @pytest.mark.filterwarnings("always::qumark.watermark.SmallSampleWarning")
    def test_the_warning_names_the_rate_embed_checked(
        self, mark_basis, pe_text, size, tmp_path, capsys
    ):
        secret, marked = tmp_path / "secret.json", tmp_path / "marked.json"
        (tmp_path / "payload.bin").write_bytes(PAYLOAD)
        assert cli.main([
            "keygen", "--message-len", str(8 * len(PAYLOAD)), "--count", "4",
            "--mark-basis", mark_basis, "--seed", "7", "--out", str(secret),
        ]) == 0
        assert cli.main([
            "embed", "--in", str(tmp_path / "payload.bin"), "--secret", str(secret),
            "--out", str(marked), "--seed", "11",
        ]) == 0
        err = capsys.readouterr().err
        assert err.endswith(f" run qumark analyze --pe {pe_text} to size the index set\n")
        pe = json.loads(secret.read_text())["expected_pe"]
        assert recommended_sample_size(pe, 0.0, 0.99, 0.99) == size
        assert cli.main(["analyze", "--pe", pe_text]) == 0
        assert capsys.readouterr().out.split()[-1] == str(size)

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2
        capsys.readouterr()


AUDIT = ["--reference", "{reference}", "--secret", "{secret}"]

# a flag argparse takes but the library refuses, and the one line it prints
MALFORMED_FLAGS = [
    (["keygen", "--message-len", "8", "--count", "-1"],
     "mark count must be positive, got -1"),
    (["keygen", "--message-len", "0", "--count", "1"],
     "message length must be positive, got 0"),
    (["keygen", "--message-len", "8", "--count", "1", "--writing-basis", "nan"],
     "angle must be finite, got nan"),
    (["attack", "shift", "--in", "{suspect}", "--offset", "-1", *AUDIT],
     "offset must be at least 1, got -1"),
    (["attack", "noise", "--in", "{suspect}", "--rate", "nan", "--seed", "1", *AUDIT],
     "flip rate must be in [0, 1], got nan"),
    (["attack", "averaging", "--copies", "{suspect}", *AUDIT],
     "averaging needs at least two copies, got 1"),
    (["analyze", "--pe", "abc"], "--pe must be comma-separated numbers, got 'abc'"),
    (["analyze", "--pe", "0.5", "--null", "0.5,x"],
     "--null must be comma-separated numbers, got '0.5,x'"),
    (["analyze", "--pe", "-0.1"], "pe must be in (0, 1), got -0.1"),
    (["analyze", "--pe", "0.5", "--power", "nan"], "power must be in (0, 1), got nan"),
    (["analyze", "--pe", "0.5", "--confidence", "0"], "confidence must be in (0, 1), got 0.0"),
    (["verify", "--suspect", "{suspect}", *AUDIT, "--rule", "wilson:0"],
     "confidence must be in (0, 1), got 0.0"),
    (["verify", "--suspect", "{suspect}", *AUDIT, "--rule", "fixed:nan"],
     "tolerance must be in (0, 1), got nan"),
    (["verify", "--suspect", "{suspect}", *AUDIT, "--rule", "binom:abc"],
     "rule parameter must be a number, got 'binom:abc'"),
    (["verify", "--suspect", "{suspect}", *AUDIT, "--rule", "binom:0.99:x"],
     "rule parameter must be a number, got 'binom:0.99:x'"),
    (["verify", "--suspect", "{suspect}", *AUDIT, "--rule", "binom"],
     "rule needs a parameter, e.g. wilson:0.99, got 'binom'"),
]


@pytest.mark.parametrize("argv, err", MALFORMED_FLAGS,
                         ids=[f"{argv[0]}-{argv[-1]}" for argv, _ in MALFORMED_FLAGS])
def test_a_malformed_flag_exits_2_with_one_error_line(argv, err, tmp_path, capsys):
    paths = {name: str(path) for name, path in run_pipeline(tmp_path, count=8).items()}
    capsys.readouterr()
    code = cli.main([token.format(**paths) for token in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


class TestArtifactBytes:
    """The CLI reads every artifact as the bytes load_* accepts."""

    def test_secret_with_a_utf8_bom_verifies_like_load_secret(self, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        data = b"\xef\xbb\xbf" + paths["secret"].read_bytes()
        bom_secret = tmp_path / "bom-secret.json"
        bom_secret.write_bytes(data)
        secret, _ = load_secret(data)
        report = verify(
            load_observation(paths["suspect"].read_bytes()),
            load_observation(paths["reference"].read_bytes()),
            secret,
            DecisionRule.fixed(0.25),
        )
        outputs = []
        for secret_path in (paths["secret"], bom_secret):
            code = cli.main([
                "verify", "--suspect", str(paths["suspect"]),
                "--reference", str(paths["reference"]),
                "--secret", str(secret_path), "--rule", "fixed:0.25",
            ])
            assert code == (0 if report.accepted else 1)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert f"errors: {report.error_count}\n" in outputs[1]
        assert f"decision: {report.decision}\n" in outputs[1]


def keygen_to(path, count, seed=7):
    assert cli.main(["keygen", "--message-len", "256", "--count", str(count),
                     "--seed", str(seed), "--out", str(path)]) == 0
    return path.read_bytes()


class TestArtifactWriter:
    """Outputs are overwritten in place with the end state of a truncating rewrite."""

    def test_shorter_secret_over_a_longer_one_leaves_no_tail(self, tmp_path):
        fresh = keygen_to(tmp_path / "fresh.json", 4)
        target = tmp_path / "secret.json"
        longer = keygen_to(target, 64)
        assert len(longer) > len(fresh)
        assert keygen_to(target, 4) == fresh

    def test_reference_written_over_the_marked_message(self, tmp_path):
        paths = run_pipeline(tmp_path)
        earlier = tmp_path / "earlier.json"
        earlier.write_bytes(paths["marked"].read_bytes())
        assert cli.main([
            "embed", "--in", str(paths["payload"]), "--secret", str(paths["secret"]),
            "--out", str(tmp_path / "again.json"), "--reference-out", str(earlier), "--seed", "11",
        ]) == 0
        assert paths["marked"].stat().st_size > paths["reference"].stat().st_size
        assert earlier.read_bytes() == paths["reference"].read_bytes()

    def test_symlink_updates_its_target_and_stays_a_link(self, tmp_path):
        fresh = keygen_to(tmp_path / "fresh.json", 4)
        target = tmp_path / "target.json"
        target.write_bytes(b"x" * 10 * len(fresh))
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert keygen_to(link, 4) == fresh
        assert link.is_symlink()
        assert target.read_bytes() == fresh

    def test_hard_links_share_the_new_bytes(self, tmp_path):
        first = tmp_path / "first.json"
        keygen_to(first, 64)
        second = tmp_path / "second.json"
        os.link(first, second)
        assert keygen_to(second, 4) == first.read_bytes()
        assert os.path.samefile(first, second)

    def test_existing_mode_bits_survive(self, tmp_path):
        target = tmp_path / "secret.json"
        keygen_to(target, 64)
        target.chmod(0o640)
        inode = target.stat().st_ino
        keygen_to(target, 4)
        assert target.stat().st_mode & 0o777 == 0o640
        assert target.stat().st_ino == inode

    def test_a_new_file_gets_0666_less_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            keygen_to(tmp_path / "new.json", 4)
        finally:
            os.umask(old)
        assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o640

    def test_dev_null_takes_the_stream(self):
        assert cli.main(["keygen", "--message-len", "256", "--count", "4",
                         "--seed", "7", "--out", os.devnull]) == 0

    def test_writes_through_os_open_without_truncating_or_renaming(self, tmp_path, monkeypatch):
        calls = []
        real_open = os.open

        def spy_open(path, flags, *rest, **kwargs):
            calls.append(("open", os.fspath(path), flags))
            return real_open(path, flags, *rest, **kwargs)

        def refuse(name):
            def call(*args, **kwargs):
                calls.append((name,))
                raise AssertionError(f"the writer called os.{name}")
            return call

        target = tmp_path / "secret.json"
        keygen_to(target, 64)
        monkeypatch.setattr(os, "open", spy_open)
        for name in ("replace", "rename", "unlink"):
            monkeypatch.setattr(os, name, refuse(name))
        keygen_to(target, 4)
        monkeypatch.undo()
        assert [call[:2] for call in calls] == [("open", str(target))]
        flags = calls[0][2]
        assert flags & os.O_TRUNC == 0
        assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT

    # RLIMIT_FSIZE makes a write past the limit fail with EFBIG; CPython
    # ignores SIGXFSZ, so the error reaches the CLI as an OSError
    FILE_SIZE_LIMIT = 3072

    def run_limited(self, args):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import resource, sys; from qumark import cli; "
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({self.FILE_SIZE_LIMIT},) * 2); "
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        return subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=60)

    @pytest.mark.skipif(sys.platform == "win32", reason="resource is POSIX-only")
    def test_a_failed_observation_write_leaves_no_loadable_artifact(self, tmp_path):
        # seed 4's prefix over seed 3's tail used to be a well-formed observation
        # that verify accepted
        paths = run_pipeline(tmp_path, count=256, observe_seed=3, payload=bytes(range(256)) * 16)
        suspect = paths["suspect"]
        assert suspect.stat().st_size > self.FILE_SIZE_LIMIT
        done = self.run_limited(["observe", "--in", paths["marked"], "--out", suspect,
                                 "--seed", "4"])
        assert done.returncode == 2
        assert done.stderr == "error: [Errno 27] File too large\n"
        assert suspect.read_bytes() == b""
        with pytest.raises(MalformedFile):
            load_observation(suspect.read_bytes())
        assert cli.main(["verify", "--suspect", str(suspect), "--reference",
                         str(paths["reference"]), "--secret", str(paths["secret"]),
                         "--rule", "binom:0.99"]) == 2

    @pytest.mark.skipif(sys.platform == "win32", reason="resource is POSIX-only")
    def test_a_failed_message_write_leaves_no_loadable_artifact(self, tmp_path):
        paths = run_pipeline(tmp_path, count=256, payload=bytes(range(256)) * 16)
        marked = paths["marked"]
        done = self.run_limited(["embed", "--in", paths["payload"], "--secret", paths["secret"],
                                 "--out", marked, "--seed", "12"])
        assert done.returncode == 2
        assert marked.read_bytes() == b""
        with pytest.raises(MalformedFile):
            load_quantum_message(marked.read_bytes())

    # multi-byte characters at both ends and across the boundary of the
    # first two 64 Ki-character slices
    WIDE_TEXT = "é" + "a" * ((1 << 16) - 2) + "€😀" + "ß" * 10 + "\n"

    @pytest.mark.parametrize("slice_chars", [1, 3, 1 << 16])
    def test_non_ascii_text_across_slice_boundaries_is_written_as_utf8(
        self, tmp_path, monkeypatch, slice_chars
    ):
        monkeypatch.setattr(cli, "_SLICE_CHARS", slice_chars)
        expected = self.WIDE_TEXT.encode("utf-8")
        target = tmp_path / "out.json"
        target.write_bytes(b"x" * 2 * len(expected))
        cli._write_text(str(target), self.WIDE_TEXT)
        assert target.read_bytes() == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="FIFOs are POSIX-only")
    def test_a_fifo_takes_the_stream(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        cli._write_text(str(fifo), self.WIDE_TEXT)
        assert reader.communicate(timeout=60)[0] == self.WIDE_TEXT.encode("utf-8")

    # a profile hook SIGKILLs the child at a call the writer makes: after the
    # first and second slice reach the file, once every slice has (before the
    # tail is cut), once the tail is cut, and once the first byte is set
    KILL_PROBE = (
        "import os, signal, sys; from qumark import cli; "
        "target, event, nth = getattr(os, sys.argv[1]), sys.argv[2], int(sys.argv[3]); "
        "seen = []\n"
        "def profile(frame, name, arg):\n"
        "    if name == event and arg is target:\n"
        "        seen.append(arg)\n"
        "        if len(seen) == nth:\n"
        "            os.kill(os.getpid(), signal.SIGKILL)\n"
        "sys.setprofile(profile); sys.exit(cli.main(sys.argv[4:]))"
    )

    @pytest.mark.skipif(sys.platform == "win32", reason="SIGKILL is POSIX-only")
    @pytest.mark.parametrize("kill_at, complete", [
        (("write", "c_return", 1), False),
        (("write", "c_return", 2), False),
        (("ftruncate", "c_call", 1), False),
        (("pwrite", "c_call", 1), False),
        (("pwrite", "c_return", 1), True),
    ], ids=["slice-1", "slice-2", "all-slices", "tail-cut", "first-byte-set"])
    def test_a_killed_message_write_leaves_no_loadable_older_mix(self, tmp_path, kill_at,
                                                                  complete):
        def embed_args(payload, out):
            (tmp_path / "payload.bin").write_bytes(payload)
            secret = tmp_path / "secret.json"
            assert cli.main(["keygen", "--message-len", str(8 * len(payload)), "--count", "256",
                             "--seed", "7", "--out", str(secret)]) == 0
            return ["embed", "--in", str(tmp_path / "payload.bin"), "--secret", str(secret),
                    "--out", str(out), "--seed", "12"]

        marked, fresh = tmp_path / "marked.json", tmp_path / "fresh.json"
        assert cli.main(embed_args(bytes(range(256)) * 16, marked)) == 0
        older = marked.read_bytes()
        assert cli.main(embed_args(bytes(range(256)) * 8, fresh)) == 0
        new = fresh.read_bytes()
        assert len(older) > len(new) > 2 * (1 << 16)  # over two slices, under the older tail

        args = embed_args(bytes(range(256)) * 8, marked)
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", self.KILL_PROBE, *map(str, kill_at), *args],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              timeout=60)
        assert done.returncode == -signal.SIGKILL, done.stderr
        left = marked.read_bytes()
        if complete:
            assert left == new
        else:
            assert left[:1] == cli._UNFINISHED
            with pytest.raises(MalformedFile):
                load_quantum_message(left)

    def test_a_rerun_into_its_own_directory_is_byte_identical(self, tmp_path):
        def run(count, seeds):
            paths = run_pipeline(tmp_path, count, *seeds)
            attacked = tmp_path / "attacked.json"
            cli.main([
                "attack", "noise", "--in", str(paths["suspect"]), "--rate", "0.1",
                "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
                "--out", str(attacked), "--seed", str(seeds[0]),
            ])
            return {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        first = run(4, (7, 11, 4))
        for name, digest in GOLDEN_HASHES.items():
            assert hashlib.sha256(first[name]).hexdigest() == digest, name
        assert run(6, (8, 12, 5)) != first
        assert run(4, (7, 11, 4)) == first


EMBED = ["embed", "--in", "{payload}", "--secret", "{secret}", "--seed", "11"]
AUDIT_FILES = ["--reference", "{reference}", "--secret", "{secret}"]

# argv whose output is one of its inputs or its other output; {secret_link}
# is a symlink to the secret and {payload_link} a hard link to the payload
ALIASED = {
    "keygen-mask": ["keygen", "--mask-from", "{image}", "--count", "1", "--out", "{image}"],
    "embed-secret": [*EMBED, "--out", "{secret}"],
    "embed-both-outputs": [*EMBED, "--out", "{marked}", "--reference-out", "{marked}"],
    "embed-new-outputs": [*EMBED, "--out", "{new}", "--reference-out", "{new}"],
    "embed-payload": [*EMBED, "--out", "{new}", "--reference-out", "{payload}"],
    "embed-derived-reference": ["embed", "--in", "{reference}", "--secret", "{secret}",
                                "--out", "{marked}"],
    "embed-symlink": [*EMBED, "--out", "{secret_link}"],
    "embed-hard-link": [*EMBED, "--out", "{new}", "--reference-out", "{payload_link}"],
    "observe": ["observe", "--in", "{marked}", "--out", "{marked}", "--seed", "4"],
    "noise": ["attack", "noise", "--in", "{suspect}", "--rate", "0.1", "--seed", "3",
              *AUDIT_FILES, "--out", "{suspect}"],
    "shift": ["attack", "shift", "--in", "{suspect}", "--offset", "1", *AUDIT_FILES,
              "--out", "{secret}"],
    "averaging": ["attack", "averaging", "--copies", "{suspect}", "{reference}", *AUDIT_FILES,
                  "--out", "{reference}"],
}


@pytest.mark.parametrize("argv", ALIASED.values(), ids=ALIASED.keys())
def test_an_output_aliasing_an_input_or_output_exits_2_and_changes_nothing(
    argv, tmp_path, capsys
):
    paths = run_pipeline(tmp_path)
    (tmp_path / "image.pgm").write_bytes(b"P5 2 1 255\n\x00\x01")
    (tmp_path / "secret_link.json").symlink_to(paths["secret"])
    os.link(paths["payload"], tmp_path / "payload_link.bin")
    names = {name: str(path) for name, path in paths.items()}
    names.update(image=str(tmp_path / "image.pgm"), new=str(tmp_path / "new.json"),
                 secret_link=str(tmp_path / "secret_link.json"),
                 payload_link=str(tmp_path / "payload_link.bin"))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli.main([token.format(**names) for token in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "names the same file as" in captured.err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_dev_null_takes_both_embed_outputs(tmp_path):
    paths = run_pipeline(tmp_path)
    assert cli.main([
        "embed", "--in", str(paths["payload"]), "--secret", str(paths["secret"]),
        "--out", os.devnull, "--reference-out", os.devnull, "--seed", "11",
    ]) == 0


AUDIT_COMMANDS = {
    "verify": ["verify", "--suspect", "s.json"],
    "noise": ["attack", "noise", "--in", "i.json", "--rate", "0.1"],
    "shift": ["attack", "shift", "--in", "i.json", "--offset", "1"],
    "averaging": ["attack", "averaging", "--copies", "a.json", "b.json"],
}


@pytest.mark.parametrize("name", sorted(AUDIT_COMMANDS))
class TestAuditFlags:
    """verify and every attack read --reference, --secret and --rule alike."""

    def parse(self, name, *extra):
        return cli.build_parser().parse_args(AUDIT_COMMANDS[name] + list(extra))

    def test_reference_secret_and_rule(self, name):
        args = self.parse(name, "--reference", "r.json", "--secret", "k.json")
        assert (args.reference, args.secret, args.rule) == ("r.json", "k.json", "binom:0.99")
        args = self.parse(name, "--reference", "r.json", "--secret", "k.json", "--rule", "binom:0.9")
        assert args.rule == "binom:0.9"

    @pytest.mark.parametrize("missing", ["--reference", "--secret"])
    def test_reference_and_secret_are_required(self, name, missing, capsys):
        supplied = {"--reference": "r.json", "--secret": "k.json"}
        del supplied[missing]
        with pytest.raises(SystemExit) as excinfo:
            self.parse(name, *[token for pair in supplied.items() for token in pair])
        assert excinfo.value.code == 2
        assert missing in capsys.readouterr().err

    def test_out_is_an_attack_flag(self, name, capsys):
        audit = ["--reference", "r.json", "--secret", "k.json"]
        if name == "verify":
            with pytest.raises(SystemExit):
                self.parse(name, *audit, "--out", "o.json")
            capsys.readouterr()
        else:
            assert self.parse(name, *audit).out is None
            assert self.parse(name, *audit, "--out", "o.json").out == "o.json"

    def test_inputs_are_read_in_order_before_any_output(self, name, tmp_path, capsys):
        paths = run_pipeline(tmp_path)
        missing = str(tmp_path / "missing.json")
        first = [missing if token.endswith(".json") else token for token in AUDIT_COMMANDS[name]]
        audit = ["--reference", str(paths["reference"]), "--secret", str(tmp_path / "absent")]
        # the suspect or attacked copies are read first, then the reference and secret
        assert cli.main(first + audit) == 2
        assert "missing.json" in capsys.readouterr().err
        suspect = [str(paths["suspect"]) if token == missing else token for token in first]
        assert cli.main(suspect + audit) == 2
        captured = capsys.readouterr()
        assert "absent" in captured.err
        assert captured.out == ""


class TestAttackCommands:
    def _release(self, tmp_path):
        # an all-zero payload keeps the attack outcomes far from the
        # decision boundary (see the attack module tests)
        return run_pipeline(
            tmp_path, count=256, keygen_seed=21, embed_seed=22, observe_seed=23,
            payload=bytes(64),
        )

    def test_noise_at_half_rate_leaves_the_verdict(self, tmp_path, capsys):
        paths = self._release(tmp_path)
        out_path = tmp_path / "noisy.json"
        code = cli.main([
            "attack", "noise", "--in", str(paths["suspect"]), "--rate", "0.5",
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
            "--out", str(out_path), "--seed", "31",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "== before ==" in out and "== after ==" in out
        assert out.count("decision: accept") == 2
        attacked = load_observation(out_path.read_text())
        assert len(attacked) == 512

    def test_shift_breaks_verification(self, tmp_path, capsys):
        paths = self._release(tmp_path)
        code = cli.main([
            "attack", "shift", "--in", str(paths["suspect"]), "--offset", "3",
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "== before ==" in out and "== after ==" in out
        assert "decision: accept" in out
        assert "decision: reject" in out

    def test_averaging_reports_suspected_positions(self, tmp_path, capsys):
        paths = self._release(tmp_path)
        copies = []
        for i in range(4):
            copy = tmp_path / f"copy{i}.json"
            assert cli.main(["observe", "--in", str(paths["marked"]),
                             "--out", str(copy), "--seed", str(40 + i)]) == 0
            copies.append(str(copy))
        recovered = tmp_path / "recovered.json"
        code = cli.main([
            "attack", "averaging", "--copies", *copies,
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
            "--out", str(recovered),
        ])
        out = capsys.readouterr().out
        assert code == 1
        suspected = int(out.split("suspected_positions:")[1].split()[0])
        observations = [load_observation(Path(copy).read_text()) for copy in copies]
        assert suspected == len(averaging_attack(observations).suspected_indices)
        assert "decision: reject" in out
        assert load_observation(recovered.read_text()).bits.count("1") < 256

    def test_averaging_copies_unlike_the_reference_print_nothing(self, tmp_path, capsys):
        # the 8-bit copies average fine; verifying against the 512-bit
        # reference fails, and no partial report may reach stdout first
        paths = self._release(tmp_path)
        copies = []
        for i, bits in enumerate(["01100101", "01100111"]):
            copy = tmp_path / f"short{i}.json"
            copy.write_text(dump_observation(ObservedMessage(bits, Basis(0.0))))
            copies.append(str(copy))
        out_path = tmp_path / "recovered.json"
        code = cli.main([
            "attack", "averaging", "--copies", *copies, "--out", str(out_path),
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out_path.exists()

    @pytest.mark.parametrize("name", ["noise", "shift", "averaging"])
    def test_out_dash_is_refused(self, name, tmp_path, capsys):
        # the reports go to stdout, so the attacked copy may not
        paths = self._release(tmp_path)
        first = AUDIT_COMMANDS[name]
        suspect = [str(paths["suspect"]) if token.endswith(".json") else token for token in first]
        code = cli.main(suspect + [
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
            "--out", "-",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: attack prints its reports on stdout and needs --out FILE\n"

    def test_averaging_needs_two_copies(self, tmp_path, capsys):
        paths = self._release(tmp_path)
        code = cli.main([
            "attack", "averaging", "--copies", str(paths["suspect"]),
            "--reference", str(paths["reference"]), "--secret", str(paths["secret"]),
        ])
        assert code == 2
        capsys.readouterr()


# Every report a seeded audit prints, line for line. The payload is 4,096 zero
# bits with 2,048 marks; the unmarked original read through them shows 0
# errors, a mass of 2^-2048, which lies off the exact test's pmf window, while
# through a 256-mark secret its 0 errors lie inside the window.
AUDIT_ARGV = {
    "genuine": ["verify", "--suspect", "{suspect}", *AUDIT_FILES],
    "unmarked": ["verify", "--suspect", "{reference}", *AUDIT_FILES],
    "unmarked-256": ["verify", "--suspect", "{reference}", "--reference", "{reference}",
                     "--secret", "{secret256}"],
    "noise": ["attack", "noise", "--in", "{suspect}", "--rate", "0.1", "--seed", "65",
              *AUDIT_FILES, "--out", "{out}"],
    "shift": ["attack", "shift", "--in", "{suspect}", "--offset", "3", *AUDIT_FILES],
    "averaging": ["attack", "averaging", "--copies", "{copy0}", "{copy1}", "{copy2}",
                  "{copy3}", *AUDIT_FILES, "--out", "{out}"],
}

AUDIT_REPORTS = {
    "genuine binom:0.99": (0, """\
rule: binom:0.99
marks: 2048
errors: 1042
observed_frequency: 0.508789
expected_pe: 0.500000
p_value: 0.439294
decision: accept
"""),
    "genuine wilson:0.99": (0, """\
rule: wilson:0.99
marks: 2048
errors: 1042
observed_frequency: 0.508789
expected_pe: 0.500000
bound_low: 0.480352
bound_high: 0.537169
decision: accept
"""),
    "genuine fixed:0.05": (0, """\
rule: fixed:0.05
marks: 2048
errors: 1042
observed_frequency: 0.508789
expected_pe: 0.500000
bound_low: 0.458789
bound_high: 0.558789
decision: accept
"""),
    "unmarked binom:0.99": (1, """\
rule: binom:0.99
marks: 2048
errors: 0
observed_frequency: 0.000000
expected_pe: 0.500000
p_value: 0
decision: reject
"""),
    "unmarked wilson:0.99": (1, """\
rule: wilson:0.99
marks: 2048
errors: 0
observed_frequency: 0.000000
expected_pe: 0.500000
bound_low: 0.000000
bound_high: 0.003229
decision: reject
"""),
    "unmarked fixed:0.05": (1, """\
rule: fixed:0.05
marks: 2048
errors: 0
observed_frequency: 0.000000
expected_pe: 0.500000
bound_low: -0.050000
bound_high: 0.050000
decision: reject
"""),
    "unmarked-256 binom:0.99": (1, """\
rule: binom:0.99
marks: 256
errors: 0
observed_frequency: 0.000000
expected_pe: 0.500000
p_value: 1.72723e-77
decision: reject
"""),
    "unmarked-256 wilson:0.99": (1, """\
rule: wilson:0.99
marks: 256
errors: 0
observed_frequency: 0.000000
expected_pe: 0.500000
bound_low: 0.000000
bound_high: 0.025263
decision: reject
"""),
    "unmarked-256 fixed:0.05": (1, """\
rule: fixed:0.05
marks: 256
errors: 0
observed_frequency: 0.000000
expected_pe: 0.500000
bound_low: -0.050000
bound_high: 0.050000
decision: reject
"""),
    "noise": (0, """\
== before ==
rule: binom:0.99
marks: 2048
errors: 1042
observed_frequency: 0.508789
expected_pe: 0.500000
p_value: 0.439294
decision: accept
== after ==
rule: binom:0.99
marks: 2048
errors: 1023
observed_frequency: 0.499512
expected_pe: 0.500000
p_value: 0.982371
decision: accept
"""),
    "shift": (1, """\
== before ==
rule: binom:0.99
marks: 2048
errors: 1042
observed_frequency: 0.508789
expected_pe: 0.500000
p_value: 0.439294
decision: accept
== after ==
rule: binom:0.99
marks: 2048
errors: 529
observed_frequency: 0.258301
expected_pe: 0.500000
p_value: 2.45744e-110
decision: reject
"""),
    "averaging": (1, """\
suspected_positions: 1802
== before ==
rule: binom:0.99
marks: 2048
errors: 1031
observed_frequency: 0.503418
expected_pe: 0.500000
p_value: 0.77392
decision: accept
== after ==
rule: binom:0.99
marks: 2048
errors: 658
observed_frequency: 0.321289
expected_pe: 0.500000
p_value: 5.82733e-60
decision: reject
"""),
}


@pytest.fixture(scope="module")
def audit_release(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("audit")
    paths = run_pipeline(tmp_path, count=2048, keygen_seed=61, embed_seed=63,
                         observe_seed=64, payload=bytes(512))
    paths["secret256"] = tmp_path / "secret256.json"
    assert cli.main(["keygen", "--message-len", "4096", "--count", "256", "--seed", "62",
                     "--out", str(paths["secret256"])]) == 0
    for i in range(4):
        paths[f"copy{i}"] = tmp_path / f"copy{i}.json"
        assert cli.main(["observe", "--in", str(paths["marked"]),
                         "--out", str(paths[f"copy{i}"]), "--seed", str(70 + i)]) == 0
    paths["out"] = tmp_path / "attacked.json"
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("name", AUDIT_REPORTS)
def test_audit_reports_are_pinned_line_for_line(name, audit_release, capsys):
    copy, _, rule = name.partition(" ")
    argv = [token.format(**audit_release) for token in AUDIT_ARGV[copy]]
    code = cli.main(argv + (["--rule", rule] if rule else []))
    captured = capsys.readouterr()
    assert (code, captured.out) == AUDIT_REPORTS[name]
    assert captured.err == ""


class TestAnalyze:
    def test_table_lists_recommended_sizes(self, capsys):
        code = cli.main(["analyze", "--pe", "0.5", "--null", "0.0,0.2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["pe", "null", "confidence", "power", "min_marks"]
        sizes = [int(line.split()[-1]) for line in lines[1:]]
        assert sizes == [8, 59]

    def test_impossible_request_exits_with_an_error(self, capsys):
        code = cli.main(["analyze", "--pe", "0.5", "--null", "0.4999"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rates", [["--pe", "nan"], ["--pe", "0.5", "--null", "0.0,0.4999"]],
                             ids=["nan", "second-row-unachievable"])
    def test_a_failing_row_prints_no_table(self, rates, capsys):
        code = cli.main(["analyze", *rates])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_empty_rate_list(self, capsys):
        assert cli.main(["analyze", "--pe", ","]) == 2
        capsys.readouterr()


class TestMaskedKeygen:
    @staticmethod
    def _pgm(tmp_path):
        path = tmp_path / "carrier.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(range(8)))
        return path

    def test_mask_restricts_indices_to_pixel_lsbs(self, tmp_path):
        image = self._pgm(tmp_path)
        secret_path = tmp_path / "secret.json"
        assert cli.main(["keygen", "--mask-from", str(image), "--count", "4",
                         "--seed", "5", "--out", str(secret_path)]) == 0
        secret, pe = load_secret(secret_path.read_text())
        assert len(secret.indices) == 4
        assert all(i % 8 == 7 for i in secret.indices)
        assert pe == pytest.approx(0.5)

    def test_explicit_length_must_match_the_mask(self, tmp_path, capsys):
        image = self._pgm(tmp_path)
        code = cli.main(["keygen", "--mask-from", str(image), "--message-len", "32",
                        "--count", "2", "--out", str(tmp_path / "s.json")])
        assert code == 2
        capsys.readouterr()

    def test_length_mismatch_is_reported_by_the_derivation(self, tmp_path, capsys):
        image = self._pgm(tmp_path)
        out = tmp_path / "s.json"
        code = cli.main(["keygen", "--mask-from", str(image), "--message-len", "32",
                         "--count", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: mask length 64 does not match message length 32"
        ]
        assert not out.exists()

    def test_length_defaults_to_the_mask_source(self, tmp_path):
        image = self._pgm(tmp_path)
        derived, explicit = tmp_path / "derived.json", tmp_path / "explicit.json"
        for out, length in ((derived, []), (explicit, ["--message-len", "64"])):
            assert cli.main(["keygen", "--mask-from", str(image), "--count", "4",
                             "--seed", "5", "--out", str(out), *length]) == 0
        assert derived.read_bytes() == explicit.read_bytes()

    def test_masked_embed_round_trip(self, tmp_path, capsys):
        image = self._pgm(tmp_path)
        secret_path = tmp_path / "secret.json"
        marked_path = tmp_path / "marked.json"
        suspect_path = tmp_path / "suspect.json"
        assert cli.main(["keygen", "--mask-from", str(image), "--count", "4",
                         "--seed", "5", "--out", str(secret_path)]) == 0
        assert cli.main(["embed", "--in", str(image), "--format", "pgm",
                         "--secret", str(secret_path), "--out", str(marked_path),
                         "--seed", "6"]) == 0
        assert cli.main(["observe", "--in", str(marked_path),
                         "--out", str(suspect_path), "--seed", "8"]) == 0
        code = cli.main([
            "verify", "--suspect", str(suspect_path),
            "--reference", str(tmp_path / "marked.ref.json"),
            "--secret", str(secret_path), "--rule", "fixed:0.5",
        ])
        capsys.readouterr()
        assert code in (0, 1)  # four marks are too few for a stable verdict
        suspect = load_observation(suspect_path.read_text())
        reference = load_observation((tmp_path / "marked.ref.json").read_text())
        secret, _ = load_secret(secret_path.read_text())
        diffs = {i for i in range(64) if suspect.bits[i] != reference.bits[i]}
        assert diffs <= set(secret.indices)

    def test_embed_refuses_indices_outside_the_pixel_lsbs(self, tmp_path, capsys):
        # an unmasked secret would move pixels 0 1 2 3 to 64 9 2 3 or 0 1 2 131
        image = tmp_path / "carrier.pgm"
        image.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        secret_path, marked = tmp_path / "secret.json", tmp_path / "marked.json"
        assert cli.main(["keygen", "--message-len", "32", "--count", "4", "--seed", "3",
                         "--out", str(secret_path)]) == 0
        assert load_secret(secret_path.read_bytes())[0].indices == (1, 12, 15, 24)
        code = cli.main(["embed", "--in", str(image), "--format", "pgm",
                         "--secret", str(secret_path), "--out", str(marked), "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: 3 secret indices lie outside the image's pixel LSBs, the first at 1;"
            " derive the secret with keygen --mask-from"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["carrier.pgm", "secret.json"]

    def test_an_index_past_the_image_keeps_its_range_error(self, tmp_path, capsys):
        image = tmp_path / "carrier.pgm"
        image.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        secret_path = tmp_path / "secret.json"
        assert cli.main(["keygen", "--message-len", "64", "--count", "4", "--seed", "3",
                         "--out", str(secret_path)]) == 0
        # 24 is outside the pixel LSBs too, but the range error comes first
        assert load_secret(secret_path.read_bytes())[0].indices == (24, 33, 51, 57)
        code = cli.main(["embed", "--in", str(image), "--format", "pgm",
                         "--secret", str(secret_path), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: indices must lie in [0, 32), got 24..57"
        ]


class TestImportCost:
    def test_cli_import_leaves_keygen_and_wilson_modules_unloaded(self):
        # every CLI run imports qumark.cli; hashlib (and its ~4 MB _hashlib)
        # serves only index derivation and statistics only the Wilson rule
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, qumark.cli; print({'hashlib', 'statistics'} & set(sys.modules))"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "set()"

    # -S leaves out site, which may itself import some of these modules and
    # so hide them from the comparison below
    @pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
    def test_cli_import_adds_neither_dataclasses_nor_typing(self, flags):
        # every CLI run is a fresh interpreter: dataclasses pulls in inspect,
        # ast, dis and tokenize, and typing serves only annotations
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)

        def modules_after(imports):
            probe = f"import sys{imports}; print(*sorted(sys.modules))"
            done = subprocess.run([sys.executable, *flags, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=60, check=True)
            return set(done.stdout.split())

        added = modules_after(", qumark.cli") - modules_after("")
        assert "qumark.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}

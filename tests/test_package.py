"""Tests for the package surface that `import qumark` exposes.

qumark/__init__ builds its __all__ from the __all__ of each library module.
The names below are listed by hand, by the module that defines them, so a
name that drops out of a module's __all__, or one exported twice, shows up
here rather than in a caller's import.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import qumark

# the package surface before it was built from the modules' own __all__
EXPORTED_BEFORE = {
    "attacks": [
        "AttackOutcome", "AveragingResult", "averaging_attack", "noise_attack",
        "run_attack_report", "shift_attack",
    ],
    "carrier": [
        "CarrierPayload", "ImageMeta", "bits_to_bytes", "bytes_to_bits", "emit",
        "ingest_pgm", "ingest_raw",
    ],
    "errors": ["QumarkError"],
    "keys": ["DerivationParams", "SecretKey", "derive_indices", "generate_secret"],
    "qstate": [
        "ANGLE_TOLERANCE", "Basis", "RandomSource", "RebitState", "encode_bit",
        "expected_error_probability", "measure", "outcome_probability",
    ],
    "stats": [
        "DecisionOutcome", "DecisionRule", "SampleSizeSpec", "decide",
        "min_sample_size_literal", "recommended_sample_size", "relative_frequency",
    ],
    "watermark": [
        "ObservedMessage", "QuantumMessage", "SmallSampleWarning", "VerificationReport",
        "WatermarkSecret", "build_message", "classical_flip_embed", "embed", "observe",
        "verify",
    ],
}

# names the modules declared public but the hand-kept list left out
EXPORTED_SINCE = {
    "carrier": ["RAW", "PGM_LSB"],
    "fileformats": [
        "SECRET_FORMAT_VERSION", "MESSAGE_FORMAT_VERSION", "OBSERVATION_FORMAT_VERSION",
        "dump_secret", "load_secret", "dump_quantum_message", "load_quantum_message",
        "dump_observation", "load_observation",
    ],
    "keys": ["MIN_KEY_BYTES"],
    "stats": [
        "ACCEPT", "REJECT", "FIXED_TOLERANCE", "WILSON_INTERVAL", "EXACT_BINOMIAL",
        "MAX_SAMPLE_SIZE",
    ],
}


def defined_in(table):
    return {name: module for module, names in table.items() for name in names}


def test_the_old_surface_is_kept_and_the_declared_names_are_added():
    before, since = defined_in(EXPORTED_BEFORE), defined_in(EXPORTED_SINCE)
    assert len(before) == 43 and len(since) == 18
    assert set(qumark.__all__) == set(before) | set(since)


def test_no_name_is_exported_twice():
    assert len(qumark.__all__) == len(set(qumark.__all__))


def test_every_name_is_the_object_its_module_defines():
    for name, module in {**defined_in(EXPORTED_BEFORE), **defined_in(EXPORTED_SINCE)}.items():
        home = importlib.import_module(f"qumark.{module}")
        assert getattr(qumark, name) is getattr(home, name), name
        assert getattr(getattr(qumark, name), "__module__", home.__name__) == home.__name__


def top_level_names(statement):
    """The names a module-level statement binds, other than by an import."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    ]


def names_read(statement):
    """The names a statement reads: as a variable, as an attribute, or by a from-import."""
    for node in ast.walk(statement):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node.id if isinstance(node, ast.Name) else node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_top_level_name_is_read_by_the_package():
    # a private name that no package code reads is dead, or kept for tests alone;
    # a read inside the name's own definition, such as a recursive call, is not one
    defined, read_by = [], {}
    for path in sorted(Path(qumark.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in top_level_names(statement):
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((f"{path.stem}.{name}", name, statement))
            for name in names_read(statement):
                read_by.setdefault(name, []).append(statement)
    unread = [
        where
        for where, name, statement in defined
        if not any(reader is not statement for reader in read_by.get(name, []))
    ]
    assert unread == []


def test_import_leaves_the_command_line_unloaded():
    # the CLI, and the argparse it needs, load only when a program asks for them
    src = str(Path(qumark.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, qumark; print({'qumark.cli', 'argparse'} & set(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "set()"


def test_the_readme_library_example_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("accept ") for line in done.stdout.splitlines()), done.stdout

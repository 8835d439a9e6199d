"""A seeded corpus of damaged input files for the commands that score a head:
``eval``, ``baseline --method conse`` and ``analyze``.

Each file such a command reads is damaged in each of five ways (truncated,
one bit flipped, bytes appended, bytes deleted, lines shuffled) under a
fixed list of seeds, and the command is run in process on the damaged task.
Every mutant must exit 0, 3 or 4; a failure must write one ``error:`` line to
stderr, and an exception that escapes ``main`` fails the test with its
traceback. Every exit 3 must name a file the command read: a mutant can
leave a file well formed but at odds with another one (a manifest class
the descriptors lack), and then the refusal names the file in which the
disagreement is found. A flipped payload bit that stays finite is read as
data; a payload checksum would be a format change.
"""

import shutil

import numpy as np
import pytest

from icis.cli import main
from icis.data import ClassifierHead, load_classifier_head, load_ids, load_matrix
from icis.model import inject

KINDS = ("truncate", "flip", "append", "delete", "shuffle")
SEEDS = (0, 1)
HEAD = ("head.wsmat", "head.ids", "head.biases.wsmat")
FEATURES = ("features.wsmat", "features.ids")
DESCRIPTORS = ("descriptors.wsmat", "descriptors.ids")
# per command: its flags before the file flags, and the files it reads
COMMANDS = {
    "eval": (["eval"], ("manifest.txt", *HEAD, *FEATURES)),
    "conse": (["baseline", "--method", "conse"], ("manifest.txt", *HEAD, *FEATURES, *DESCRIPTORS)),
    "analyze": (["analyze", "--class", "c009"], ("manifest.txt", *HEAD, *FEATURES, *DESCRIPTORS)),
}
FILES = sorted({name for _, files in COMMANDS.values() for name in files})


@pytest.fixture(scope="module")
def task(tmp_path_factory):
    """The CLI tests' small synthetic task, its head extended by the true
    unseen rows and given biases, so that every command scores it."""
    task = tmp_path_factory.mktemp("malformed") / "task"
    assert main(["synth", "--out", str(task), "--seed", "3", "--seen", "8", "--unseen", "3", "--desc-dim", "5",
                 "--weight-dim", "6", "--samples-per-class", "3", "--feature-noise", "0.05"]) == 0
    head = inject(load_classifier_head(task / "head.wsmat"), load_ids(task / "true_unseen.ids"),
                  load_matrix(task / "true_unseen.wsmat"))
    biases = np.linspace(-0.1, 0.1, head.n_classes, dtype=np.float32)
    ClassifierHead(head.class_ids, head.weights, biases).save(task / "head.wsmat")
    return task


def _argv(command: str, task) -> list:
    flags, files = COMMANDS[command]
    argv = [*flags, "--head", str(task / "head.wsmat"), "--manifest", str(task / "manifest.txt"),
            "--features", str(task / "features.wsmat")]
    if "descriptors.wsmat" in files:
        argv += ["--descriptors", str(task / "descriptors.wsmat")]
    return argv


def _mutate(raw: bytes, kind: str, rng) -> bytes:
    if kind == "truncate":
        return raw[: rng.integers(0, len(raw))]
    if kind == "flip":
        at = rng.integers(0, len(raw))
        return raw[:at] + bytes([raw[at] ^ (1 << rng.integers(0, 8))]) + raw[at + 1 :]
    if kind == "append":
        return raw + rng.bytes(rng.integers(1, 9))
    if kind == "delete":
        at = rng.integers(0, len(raw))
        return raw[:at] + raw[at + rng.integers(1, 9) :]
    lines = raw.splitlines(keepends=True)
    rng.shuffle(lines)
    return b"".join(lines)


@pytest.mark.filterwarnings("ignore:classes without samples")
@pytest.mark.parametrize("command, name", [(c, name) for c, (_, files) in COMMANDS.items() for name in files])
def test_a_damaged_input_exits_as_documented(task, tmp_path, capsys, command, name):
    work = tmp_path / "task"
    shutil.copytree(task, work)
    argv, read = _argv(command, work), [str(work / f) for f in COMMANDS[command][1]]
    assert main(argv) == 0  # the intact task is scored
    original = (work / name).read_bytes()
    for seed in SEEDS:
        for k, kind in enumerate(KINDS):
            (work / name).write_bytes(_mutate(original, kind, np.random.default_rng([seed, k, FILES.index(name)])))
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            mutant = f"{kind} of {name}, seed {seed}: exit {code}, stderr {err!r}"
            assert code in (0, 3, 4), mutant
            if code:
                assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, mutant
            if code == 3:
                assert any(path in err for path in read), mutant

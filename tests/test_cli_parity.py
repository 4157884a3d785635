"""CLI parity: one SHA-256 per row of a table of ``alp`` invocations.

Each row runs its commands in a fresh ``python -m alp.cli`` process inside
an empty directory.  The digest covers every command's exit code, stdout
and stderr, then the name and text of every file the row wrote.  Temporary
paths are masked, and the non-deterministic ``timings`` are dropped from
every JSON report.  The digests were recorded before the CLI options took
the config field names and the commands shared one output writer, so the
table pins what a user sees, not how the code is laid out.  The
``learn-grid`` row was re-recorded when ``--grid`` with ``--dump-model``
became a usage error (exit 2), where it had silently written no dump.
The ``learn-every-flag`` row was re-recorded when a run whose objective
reaches the model's constant offset became proven optimal: its report's
``proven_optimal`` turned true, and nothing else changed.  The
``exit-4-capacity`` row was re-recorded when the ceiling began to stop the
body enumeration as soon as the planned count passed it: the message gives
a lower bound, "at least 4 encoder candidates planned", where it gave the
full count of 419.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from helpers import FIG1_TEXT, cli_subprocess_env

# Four facts: the grid has both feasible and infeasible cells.
GRID_KB = "p(a,b).\np(a,c).\np(a,d).\np(a,e).\n"

FIG1_LEARN = ("learn", "{kb}", "--gamma", "1", "--max-dec-len", "1", "--seed", "4")

# name -> (KB text, extra environment, commands, digest)
ROWS = {
    "learn": (FIG1_TEXT, {}, [FIG1_LEARN],
        "656b6486e43ef921370b5634772066b4224b596950de313597028387c7e4216e"),
    "learn-json": (FIG1_TEXT, {}, [(*FIG1_LEARN, "--json")],
        "42a0621611e8700d63948b4d7857be537097b861f6bce390a93a8ab88d01afed"),
    "learn-dump-model": (FIG1_TEXT, {}, [(*FIG1_LEARN, "--dump-model", "{tmp}/model.cop")],
        "0fb068c7b685204ca94c64cecb7cea3d76f59970f344d89c7123eadb8183d7f8"),
    "learn-out-paths": (FIG1_TEXT, {}, [(*FIG1_LEARN, "--out-model", "{tmp}/out.alp",
        "--out-latent", "{tmp}/l.facts", "--report", "{tmp}/r.json")],
        "38db7827fe40ea0fb61f9ce96d3c1ceb9ab68d9803caaeee7cc8c2f10b0afc1d"),
    "learn-every-flag": (FIG1_TEXT, {}, [(
        "learn", "{kb}", "--gamma", "3/2", "--max-enc-len", "1", "--max-dec-len", "1",
        "--max-head-vars", "1", "--allow-negation", "--no-disjunction",
        "--max-candidates", "5000", "--alpha", "50", "--beta", "80",
        "--iterations", "7", "--fail-limit", "300", "--time-limit", "60", "--seed", "3",
    )], "d54741cc4c11cba159968c09d55da28666063de70d0470e1a41787000b371ab4"),
    "learn-grid": (GRID_KB, {}, [("learn", "{kb}", "--grid", "--iterations", "30",
        "--dump-model", "{tmp}/model.cop")],
        "9d31eacdae86c4645a33241eda884b24d909a839d8c7908afaeb1c674fbba7cc"),
    "learn-log-info": (FIG1_TEXT, {"ALP_LOG": "info"}, [FIG1_LEARN],
        "0471f20ee848467cd3b52c9a0a27314e1016c81181ca083bce17146c19f8ae85"),
    "enumerate-defaults": (FIG1_TEXT, {}, [("enumerate", "{kb}")],
        "0495d007585a4b5fc8eee36c5a5e4cd6fc5a9794b84559ba0e847881d4a87045"),
    "enumerate-files-log-info": (FIG1_TEXT, {"ALP_LOG": "info"}, [(
        "enumerate", "{kb}", "--max-dec-len", "1", "--out", "{tmp}/pool.txt",
        "--tsv", "{tmp}/pool.tsv",
    )], "998cbbd39b3fd46969b14816f0ac0791def02d0ff4956e41e9326ed71e9d18c2"),
    "encode-decode-eval": (FIG1_TEXT, {}, [
        FIG1_LEARN,
        ("encode", "model.alp", "{kb}"),
        ("encode", "model.alp", "{kb}", "--out", "{tmp}/enc.facts"),
        ("decode", "model.alp", "latent.facts"),
        ("decode", "model.alp", "latent.facts", "--out", "{tmp}/dec.facts"),
        ("eval", "model.alp", "{kb}"),
        ("eval", "model.alp", "{kb}", "--json"),
    ], "c43a6b5ebf91d7e94ae93fbd109ec1610f3974e5502dec392acd9ab316dbaad7"),
    "exit-2-syntax": ("father(vader,.\n", {}, [FIG1_LEARN],
        "007255cc4b09f3d7e0b3a3fcd99c30030dc0e17b94b26c07d2f4b83ef22785ee"),
    "exit-2-missing": (FIG1_TEXT, {}, [("learn", "{tmp}/missing.facts")],
        "52f3fb8b6c6e9994061b3d3c8c726229a7239b8f9dfc6453f51ea70dabb16d7c"),
    "exit-2-gamma": (FIG1_TEXT, {}, [("learn", "{kb}", "--gamma", "-1")],
        "c371118c923e25f18512ebc1bda4c403ecdbc1978fe05b61fd642a212882871e"),
    "exit-2-usage": (FIG1_TEXT, {}, [("learn", "{kb}", "--max-dec-len", "9")],
        "a4c3eea9c7eb577e389b4122b66cbcc9d6b1ecd10f5a393c25782cf97faae57f"),
    "exit-3-infeasible": (FIG1_TEXT, {}, [("learn", "{kb}", "--gamma", "0.1",
        "--max-dec-len", "1")],
        "ef6cac5efc70e1e3b85fd47927db3004a8350046b48cefb87c670c8a0819e8c6"),
    "exit-4-capacity": (FIG1_TEXT, {}, [(*FIG1_LEARN, "--max-candidates", "3")],
        "bef382ece20218724758e53b9bc6e7e27ee764880967a355d4e597233069387d"),
    "exit-5-vocabulary": ("wookie(chewbacca).\n", {}, [
        ("decode", "{tmp}/m.alp", "{kb}"),
        ("encode", "{tmp}/m.alp", "{kb}"),
        ("eval", "{tmp}/m.alp", "{kb}"),
    ], "0b22b1a34501d7e3aeb41e581a40a0a09c80fed713956be3ec2a53e7a5d037a8"),
    "help": ("", {}, [("--help",)],
        "8ea130222bd96bcaef82635d595a0dae90bec5651a9323208d5033c6961f1a6c"),
    "help-learn": ("", {}, [("learn", "--help")],
        "739d2ecb94d43148b845beeba081960872bbd375b2469f62da05c0c534181c7a"),
    "help-enumerate": ("", {}, [("enumerate", "--help")],
        "9be294462c6f9ffc802d4d7ec89aacb3d0aeebf517dbd5e492e672026be49653"),
    "help-encode": ("", {}, [("encode", "--help")],
        "f4b56636c9c80d4cd748f359d4a7afdfbf4266e1474ff732c4f3bd27c4cb5fbc"),
    "help-decode": ("", {}, [("decode", "--help")],
        "a029a10211dcd7903c44586df57eea8eed010ba1d5a6fa916bda2f9284159a4a"),
    "help-eval": ("", {}, [("eval", "--help")],
        "405810b83c3398a24eaba30914901a1df52fc1e6133f6aaa368639a6a10af381"),
}

VOCABULARY_MODEL = (
    "#encoder\nlatent_1(X,Y) :- father(X,Y).\n"
    "#decoder\nfather(X,Y) :- latent_1(X,Y).\n"
)


def _masked(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    if text.startswith("{"):
        payload = json.loads(text)
        payload.pop("timings", None)
        text = json.dumps(payload, indent=2)
    return text


def row_digest(name: str, tmp_path) -> str:
    kb_text, extra_env, commands, _ = ROWS[name]
    tmp = str(tmp_path)
    (tmp_path / "kb.facts").write_text(kb_text, encoding="utf-8")
    (tmp_path / "m.alp").write_text(VOCABULARY_MODEL, encoding="utf-8")
    inputs = {"kb.facts", "m.alp"}
    env = {**cli_subprocess_env("1"), "COLUMNS": "80", **extra_env}
    h = hashlib.sha256()
    for command in commands:
        argv = [a.format(kb=f"{tmp}/kb.facts", tmp=tmp) for a in command]
        proc = subprocess.run(
            [sys.executable, "-m", "alp.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp,
        )
        for part in (str(proc.returncode), proc.stdout, proc.stderr):
            h.update(_masked(part, tmp).encode() + b"\0")
    for path in sorted(tmp_path.iterdir()):
        if path.name not in inputs:
            text = _masked(path.read_text(encoding="utf-8"), tmp)
            h.update(path.name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", list(ROWS))
def test_cli_outputs_pinned(name, tmp_path):
    assert row_digest(name, tmp_path) == ROWS[name][3]

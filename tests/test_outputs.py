"""Byte-identity of the CLI reports.

The sha256 of the stdout of `hopfkit verify <suite>` for every suite,
with the `generated_at` line removed and `hopf-axioms` at --degree 3,
and of `hopfkit matrix --op <op> --window 3` for every Galilei operator.
The digests pin check ids, statuses, witnesses and the printed scalars
exactly, so a change meant only to make the engine faster must leave
them as they are.  A change that alters a report on purpose updates the
digest here and says why.
"""

import hashlib

import pytest

from hopfkit.cli import SUITES, main

DIGESTS = {
    "cocycle": "ec5cba2f81547a8c5a8e22075f5dc05f48f3f7c51a4287f04d5f222201f063a9",
    "coisotropic": "2e3e2b577402fe49da93af34fe47a11fa6138e6681609a3104de7ab77cf20a4f",
    "essential-invariance": "7d7caebcee5ba332de6d2939a3d22b0c5562c0535fadf12d71cbdeaa0d3a789e",
    "functional-def": "5756362730ed22339935aeb056c452da25a399ce903facdcc9125908b6f156d9",
    "functional-lemma": "60ac2ab0062ae43db2da995aab5368b7829c3bcc8261abd4f12c2b0597a114bc",
    "homogeneous-space": "a8a266dba9c77ade98c3b9e09d0cd10480502eb81b43f33ad58778917a69b31f",
    "hopf-axioms": "d638825263bee9c9c8e85834f47eb6ddef7f817f569792c9faae8621319f4d5a",
    "ind-generic": "a07da75b991f2c9ed28d16aa753b90ddeedfe80e43a70ca730946fec5e41ec24",
    "intertwiner": "159d0e512d07e0d46eb37d3079f76ac424c5598914ed9856858a391b343b2c8d",
    "jform": "ef85b4de7e9c75ddaac128876b1e11172299774147d801c6eb73d72399576a8a",
    "mirror-right": "2f0a8ec8673577dd53d0102a497f7833822ab33d5d7b9b611a49e5bbd0040cce",
    "pairing": "4209880b207257d753cfb7d22757519b02bc16c51192f3b328eaaca8ae145c02",
    "relations": "fd49ac8cb20760180645b52b747b0421d7bf02b81681e0752f4027bb31b79081",
    "unitarity": "37745c803c5862046a8f65053e9bcac20b9ba38c233e3dfdee7e494d9badaffd",
}


def test_every_suite_is_pinned():
    assert sorted(DIGESTS) == sorted(SUITES)


MATRIX_DIGESTS = {
    "K": "9e4af06b3dbe9a3d4d825eaf8d367feabaaed414399f11958c94d073edfb77fc",
    "Kinv": "101d99bc0cbe80d3ada76ef11235ae78d59bdb9f4eaa4585e3a3703c8da2f76f",
    "B": "4c50e825a2862b5b73fd0b0f5e6a215217df1c701bef7aadab0baf996bb66125",
    "T": "d451064bd0eb7d92b88e1791463e98fb72a9efc9c49ffde0237cc2e969d5c4ad",
    "M": "4b340b5a6e94d678017ae9f6185e08c36e35fa55d839a1a9a0e161704fab4e90",
}


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_verify_stdout_digest(suite, capsys):
    argv = ["verify", suite] + (["--degree", "3"] if suite == "hopf-axioms" else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    text = "".join(line for line in out.splitlines(keepends=True)
                   if '"generated_at"' not in line)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[suite]


@pytest.mark.parametrize("op", sorted(MATRIX_DIGESTS))
def test_matrix_stdout_digest(op, capsys):
    assert main(["matrix", "--op", op, "--window", "3"]) == 0
    out = capsys.readouterr().out
    text = "".join(line for line in out.splitlines(keepends=True)
                   if '"generated_at"' not in line)
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_DIGESTS[op]

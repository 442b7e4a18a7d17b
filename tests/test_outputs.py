"""Byte-identity of the CLI reports.

The sha256 of the raw stdout of `hopfkit verify <suite>` for every
suite, with `hopf-axioms` at --degree 3, and of `hopfkit matrix --op <op>
--window 3` for every Galilei operator.  The digests pin check ids,
statuses, witnesses and the printed scalars exactly, so a change meant
only to make the engine faster must leave them as they are.  A change
that alters a report on purpose updates the digest here and says why.

The output once ended in a `generated_at` timestamp, which the digests
left out by dropping its line.  Without it the last key is followed by
no comma, so every digest changed once: each new stdout, with a comma
put back after its final `]`, hashes to the digest pinned before.
"""

import hashlib

import pytest

from hopfkit.cli import SUITES, main

DIGESTS = {
    "cocycle": "6c8a01edcebd7af3eea38a8498edcfb397ce5c7fa5eeecc6393cd538e745b74c",
    "coisotropic": "9ecc926bee248919929108d22e30a9b9e0ee48b85d8b5834352d4fb7a042496f",
    "essential-invariance": "41f8b10324c431dd587ea412c5c52a9a6943c21688984db8a6c5c3917ced01da",
    "functional-def": "fbdba76056f2dfbe8d6b5e7f7622684b38e1e0960072703948f9e9717687b974",
    "functional-lemma": "0c34c463e28df490f14c1e62eaf0eab4c6792c5502a46c24709c24a3a95469b0",
    "homogeneous-space": "dae2c5b2fcb1c8e5f94335eff2116aef55589fb9b9e9a66561d090a38929f509",
    "hopf-axioms": "39d99ff8754058394498e68584aff12aa021f3ee394318c211945c8341c0126f",
    "ind-generic": "b78ec4ea45047bc59d02d94da68f2d25e2ef8c368b2e57591f37b7506de64de3",
    "intertwiner": "339ce28c241a417b5a05cf3bf5e69f438aa8c6ca59f305cdbe85e113db77c135",
    "jform": "04d75775eea453ca1fcd59bac9aa373a7f8fad8bcbd24c4584dde2bb57e61f00",
    "mirror-right": "47556e1ba020c42efb95c6a9df2652010ba70d7dcb4866501758d6b0b54852c2",
    "pairing": "e8649db1af74377c7d6f0668911e5e514ccec48ddd0d8cd38280809692bdc782",
    "relations": "4c365c83ea14c6467bd37f2e7e291b08e3d2e41ce022d0b1ee2a08611192cc76",
    "unitarity": "dea802d3b03184aec22792748ac245211bae7fbca0aa113ac1e4ada056146f5e",
}


def test_every_suite_is_pinned():
    assert sorted(DIGESTS) == sorted(SUITES)


MATRIX_DIGESTS = {
    "K": "79ade7f9e7f92510f35da595a53482b30a9a25071586814bbc9aaba237a81045",
    "Kinv": "c9776f75b44ce35a354fa31737a5633d5ea27c7e1d1fc2df779a9751fde0dd45",
    "B": "c79b0dc3cb9910561c8564da5c09610a681b2dc6d3f5822380a656fa5c9a2199",
    "T": "da35ef68b9ef314741eb86fab0ebe9f38ffe943037e714e8fd7daddc842b0d48",
    "M": "f3e721a91ae8addf509465ef9eb0e3b2012938c8a4d0287747731785adfad5f3",
}


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_verify_stdout_digest(suite, capsys):
    argv = ["verify", suite] + (["--degree", "3"] if suite == "hopf-axioms" else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[suite]


@pytest.mark.parametrize("op", sorted(MATRIX_DIGESTS))
def test_matrix_stdout_digest(op, capsys):
    assert main(["matrix", "--op", op, "--window", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_DIGESTS[op]

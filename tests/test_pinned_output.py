"""Stdout, stderr and exit code of every subcommand and format, pinned.

Stdout is pinned by its sha256, stderr as text. The table was recorded
from the CLI as it rendered JSON with ``json.dumps(indent=2)`` and looked
curve values up by alpha, so any output byte that a renderer changes fails
here. The ``--stats`` work counters of a few runs are pinned too, without
the timing keys, so a change that claims to keep the solver's work must
keep every solve, pivot and memo hit. The ``--help`` text of the top level
and of each subcommand is pinned by its sha256 at 80 columns. After a
deliberate change to the output or the work, print new tables with
``PYTHONPATH=src python tests/test_pinned_output.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

import pytest

from hypercurv import serialize_document
from hypercurv.cli import main

from conftest import named_document, random_directed, random_oriented_unit, random_undirected

H4_PATH = Path(__file__).resolve().parent.parent / "data" / "h4.json"
# A seeded undirected document whose cold solves make degenerate primal
# pivots, which none of the documents below does.
PIVOTING_PATH = H4_PATH.with_name("pivoting_undirected.json")
# A directed document whose final lines start past 3/4.
LATE_PATH = H4_PATH.with_name("late_limit_directed.json")
# An oriented document with non-unit weights, whose ledger takes every
# not-applicable branch of the oriented checks.
WEIGHTED_PATH = H4_PATH.with_name("weighted_oriented.json")

# One seeded document per flavor, small enough to run every case in-process,
# and a directed one whose hyperedge h5 has no LLY limit (exit 3).
DOCUMENTS = {
    "undirected": lambda: random_undirected(random.Random(5), n_max=5),
    "directed": lambda: random_directed(random.Random(5), n_max=4, m_max=6),
    "oriented": lambda: random_oriented_unit(random.Random(5), n_max=5),
    "diverging": lambda: random_directed(random.Random(12), n_max=4, m_max=6),
}


def _cases():
    """(document, argv after the path) for every subcommand, format, number mode and exit code."""
    for doc in ("h4", "undirected", "directed", "oriented"):
        target = ["--edge", "h1"] if doc == "directed" else ["--pair", "x1,x2"]
        origin = ["--edge", "h1"] if doc == "directed" else ["--vertex", "x1"]
        for mode in ([], ["--float"]):
            for fmt in ("json", "csv", "table"):
                yield doc, ["distances", "--format", fmt, *mode]
                yield doc, ["curvature", "--all", "--format", fmt, *mode]
                yield doc, ["bounds", "--format", fmt, *mode]
            yield doc, ["measure", *origin, *mode]
            yield doc, ["sweep", *target, *mode]
        yield doc, ["bounds", "--strict", "--format", "csv"]
        yield doc, ["curvature", "--edge", "h99"]
    yield "diverging", ["curvature", "--all", "--format", "json"]
    yield "diverging", ["sweep", "--edge", "h5", "--float"]
    yield "oriented", ["measure", "--vertex", "x1", "--direction", "in"]
    yield "directed", ["measure", "--edge", "h1", "--side", "head", "--index", "0"]
    yield "h4", ["bounds", "--alpha", "1/3", "--format", "json"]
    yield "oriented", ["bounds", "--alpha", "1/3", "--float"]
    yield "undirected", ["curvature", "--edge", "h1", "--variant", "max", "--format", "csv"]
    yield "h4", ["sweep", "--pair", "x2,x3", "--alpha-grid", "0,1/3,1"]
    yield "pivoting", ["curvature", "--all", "--format", "json"]
    yield "pivoting", ["bounds"]
    # The ledger at alpha = 1 reads every chain at its upper end only.
    yield "oriented", ["bounds", "--alpha", "1"]
    yield "pivoting", ["bounds", "--alpha", "1"]
    yield "weighted", ["bounds"]
    yield "weighted", ["bounds", "--format", "json", "--float"]
    yield "weighted", ["bounds", "--strict", "--format", "csv"]


CASES = [f"{doc} {' '.join(argv)}" for doc, argv in _cases()]
COUNTER_CASES = [
    "h4 bounds",
    "h4 curvature --all",
    "directed bounds",
    "oriented bounds",
    "oriented curvature --all",
    "undirected curvature --all",
    "pivoting curvature --all",
    "pivoting bounds",
    "oriented bounds --alpha 1",
    "pivoting bounds --alpha 1",
    # A directed ledger reads kappa only at its alpha: at 9/10 the pieces
    # of the cold solves cover it, at 1/3 the chains are traced down.
    "late bounds --alpha 1/3",
    "late bounds --alpha 9/10",
    "weighted bounds",
]


def _write_documents(directory: Path) -> dict[str, str]:
    paths = {
        "h4": str(H4_PATH),
        "pivoting": str(PIVOTING_PATH),
        "late": str(LATE_PATH),
        "weighted": str(WEIGHTED_PATH),
    }
    for name, make in DOCUMENTS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(serialize_document(named_document(make()))))
        paths[name] = str(path)
    return paths


def _outcome(paths: dict[str, str], case: str) -> tuple[int, str, str]:
    """Exit code, sha256 of stdout and stderr of one in-process run."""
    doc, command, *flags = case.split(" ")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, paths[doc], *flags])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_documents(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("case", CASES)
def test_output_is_pinned(paths, case):
    assert _outcome(paths, case) == PINNED[case]


def _counters(paths: dict[str, str], case: str) -> tuple[int, dict]:
    """Exit code and ``--stats`` counters, timing keys dropped, of one in-process run."""
    doc, command, *flags = case.split(" ")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, paths[doc], *flags, "--stats"])
    counters = json.loads(err.getvalue())
    for timing in ("seconds", "startup_cpu_s", "render_s"):
        del counters[timing]
    return code, counters


@pytest.mark.parametrize("case", COUNTER_CASES)
def test_work_counters_are_pinned(paths, case):
    assert _counters(paths, case) == PINNED_COUNTERS[case]


HELP_CASES = ["", "validate", "distances", "measure", "curvature", "bounds", "sweep"]


def _help_digest(command: str) -> str:
    """sha256 of ``hypercurv [command] --help`` at 80 columns.

    Python 3.10 heads the option list "optional arguments:", later
    versions "options:"; the digest is taken over the later heading.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    text = out.getvalue().replace("\noptional arguments:\n", "\noptions:\n")
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", HELP_CASES)
def test_help_text_is_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert _help_digest(command) == PINNED_HELP[command]


def test_repeated_and_unit_grid_alphas_keep_their_rows(capsys):
    """A grid alpha given twice gets two rows; alpha=1 rows have no normalized value.

    It is a blank field in CSV and null in JSON.
    """
    argv = ["curvature", str(H4_PATH), "--pair", "x2,x3", "--alpha-grid", "0.5,0.5,1,1"]
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "# mode=exact\n"
        "target,alpha,kappa,normalized\n"
        '"pair x2,x3",1/2,3/4,3/2\n'
        '"pair x2,x3",1/2,3/4,3/2\n'
        '"pair x2,x3",1,0,\n'
        '"pair x2,x3",1,0,\n'
        '"pair x2,x3",3/4,,3/2\n'
    )
    assert main([*argv, "--format", "json"]) == 0
    curve = json.loads(capsys.readouterr().out)["results"][0]["curve"]
    assert [row["normalized"] for row in curve] == ["3/2", "3/2", None, None]


def test_pivoting_document_is_the_seeded_one():
    """``data/pivoting_undirected.json`` is the seeded conftest document it claims to be."""
    made = serialize_document(named_document(random_undirected(random.Random(33), n_max=7)))
    assert json.loads(PIVOTING_PATH.read_text()) == made


def test_sweep_row_of_a_limit_certified_past_three_quarters(capsys):
    """The last sweep row is the stabilization alpha, its kappa and the limit."""
    assert main(["sweep", str(LATE_PATH), "--edge", "h6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "7/8,75/544,75/68"


PINNED = {
    'h4 distances --format json': (0, '7fc21a407ec704fa08aeb07bc120cad6892e4caaf501e0c65df0630611f3a3b2', ''),
    'h4 curvature --all --format json': (0, '4d7b3de01516b5fee68bbc55d4f845c32d0f35cc93d94d765c3efe566b2945d1', ''),
    'h4 bounds --format json': (0, 'fc45306961b93ee2cfcbf857bd14ebec31a35876da02653e1406ea50186fa09b', ''),
    'h4 distances --format csv': (0, '17b03817dbcc747f774e37c323c8284e6d7b1823226ae61c101878293a876cc0', ''),
    'h4 curvature --all --format csv': (0, 'd8fa4bc3d07e315fbc0256993650faca3f760da48c5b20158afe8e85f4f4f72e', ''),
    'h4 bounds --format csv': (0, '45a4bc93da98488e68fc7115172944c3d3ce8802f7b9c3d6e80db2e3a9d07a98', ''),
    'h4 distances --format table': (0, '7cdde6e8fb8559608d3b9be0bb0377de6f504c12d3598c4ab1cd4857a806c43f', ''),
    'h4 curvature --all --format table': (0, '917705a891c85183e6b45669c27712b3c5a9899b282f230ff4df8e78994501ee', ''),
    'h4 bounds --format table': (0, '044cb6e557eb9dc5349833b0d5aa495b5a7157f3ddcb3d06495684af02339277', ''),
    'h4 measure --vertex x1': (0, 'bf490a23fd2e7c836a1742948c290ffb20c5286c72e0a3f81fed060526db1f65', ''),
    'h4 sweep --pair x1,x2': (0, '9b5ad3f8d0a1d55c6257e7642e606789e3b48d0edfb5ca4cf322ef4454773962', ''),
    'h4 distances --format json --float': (0, '98e7bad925f07e396e3e4d07dde360a596a071e93638a718f3faabedca7b4e7f', ''),
    'h4 curvature --all --format json --float': (0, 'f4235bed88a1c73af2aaf6dd35a7f157a416b93ccb2d391381b85129669f450f', ''),
    'h4 bounds --format json --float': (0, 'f7d5e4e5de1801e9e5ad81e92d2d008b7e3b0071de385b725ec6403e8d9ffec6', ''),
    'h4 distances --format csv --float': (0, '4eca109fa872605f7a721a29d86c9092e7f2634bad8d1013c638e2e6b5b1928e', ''),
    'h4 curvature --all --format csv --float': (0, '3605c5102b7d7eed303562526c7a8787d03ab617667b8459adc820da4912c815', ''),
    'h4 bounds --format csv --float': (0, '520a27a19d530fbf4b3545a13c69c4bd33222bbd4a61b3d5b08c3375649c1fe3', ''),
    'h4 distances --format table --float': (0, 'c3205ea1d6d91bf11199f8fee4d59e7b2e2f42233928ef9fadb8d6a0d4a37580', ''),
    'h4 curvature --all --format table --float': (0, 'a1357a041dcfa5c057f59feb9a89af73d87cee97b929ecc062a43b76844e41b2', ''),
    'h4 bounds --format table --float': (0, '2fa556bf8cfc33ae8cdc08571ca61a9e1ee3c5f9b89bcd88da57452ce23fff7c', ''),
    'h4 measure --vertex x1 --float': (0, 'dc1f61558d5b7e48b7a236a663f81239e72d409112e6ae7a7717f2bfa817212a', ''),
    'h4 sweep --pair x1,x2 --float': (0, '64b7de2f498e3a92f5a819d727c5f91f60e7cb2f2fcb9bdb75f36b1946ccf045', ''),
    'h4 bounds --strict --format csv': (0, '45a4bc93da98488e68fc7115172944c3d3ce8802f7b9c3d6e80db2e3a9d07a98', ''),
    'h4 curvature --edge h99': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "UnknownTarget: unknown hyperedge 'h99'\n"),
    'undirected distances --format json': (0, 'b088de0526db1c1f909c25607a3374b2afb7108a959ac53b0e6485748988e160', ''),
    'undirected curvature --all --format json': (0, 'b7c645854c407f1dcd03f719ea9f6078f1ccdccf245c9f5b45c923afe8e10412', ''),
    'undirected bounds --format json': (0, 'faaaa96ff8ff80806e565db70505257badcda21fe3ecae9f1c21c58eb6843e85', ''),
    'undirected distances --format csv': (0, 'a8121f0367a3a64b95da211c777c6813e00a7d3060cca7a00dbae676bc55cde7', ''),
    'undirected curvature --all --format csv': (0, '0d233161673e31c49d8fd9b1cec6f4d7c655d17e81f931e637405b0a0be48871', ''),
    'undirected bounds --format csv': (0, '807c70eba75ef000c74f92b65f247d4d38360acab020fb0a60cfbf3f69ee15cd', ''),
    'undirected distances --format table': (0, 'ee8e9c157c0971d7a83bedbec98a18e52f4a419abd11e16e3a165d952e6c1fe7', ''),
    'undirected curvature --all --format table': (0, '2646d578786c1ed678482c45783d93d517fc7647fcafd87f5d25c8af9a19bb04', ''),
    'undirected bounds --format table': (0, '6a2b14df2481408813e483bce6cb18cc9dc2bc76932d1d0dcdc09eecdf843f1b', ''),
    'undirected measure --vertex x1': (0, '7c80ab6dd5d1b7b7a7041d6aa8697c857c3b6d3e4e90e9daeeb16fa4f28e338a', ''),
    'undirected sweep --pair x1,x2': (0, '801999fc15dfbd14f3613fa80635dd7a61ea07b5cfb4d94c1572c6434d732f16', ''),
    'undirected distances --format json --float': (0, '705286c81df4d5d6b6afbab2e2c252fd75b35596568505bb6ba7cdb7fb1ee02b', ''),
    'undirected curvature --all --format json --float': (0, 'bf03952f35cf04fad78b281939af5e9870b3e4c9af004a8fd5e2c0b770f92d3f', ''),
    'undirected bounds --format json --float': (0, '49a922ec7fa7499070132cec145ba1b363c9287d81736e38aeeb2f636ceec0bb', ''),
    'undirected distances --format csv --float': (0, '00f5466cfd51c3212b98ce013e84e94d8f06a62b43f93da7fd961deb9976be1a', ''),
    'undirected curvature --all --format csv --float': (0, '4170edcadf7c5e74ed07725c01b92eaace6c46c455e6bb406f662079dba46e48', ''),
    'undirected bounds --format csv --float': (0, '5a404b6d2b3c343ffd11717ee21032f54c9988090a090a748d9e34845c5353bc', ''),
    'undirected distances --format table --float': (0, 'a77f42ec59bfbe3fcffc8ac97550a37c0b90cd27733bc7dc9d67f68ef3d5a228', ''),
    'undirected curvature --all --format table --float': (0, '053740138bc04e244e8ff6810ceeb236cfd46aad0d1ffd9cbdb3a4a5261d2747', ''),
    'undirected bounds --format table --float': (0, '7df42b51437381f25934793c9e27af3b0d7dea744ab9857d802ffa5b7a5babee', ''),
    'undirected measure --vertex x1 --float': (0, 'd29b48dd9771b3bd23b2de9f0c0c6b885a74fff4408506afb26d23a1954785c1', ''),
    'undirected sweep --pair x1,x2 --float': (0, '69765a63c944c4383e6decb2704d21de4797c285f28a215b88959fab4605fc7d', ''),
    'undirected bounds --strict --format csv': (1, '807c70eba75ef000c74f92b65f247d4d38360acab020fb0a60cfbf3f69ee15cd', ''),
    'undirected curvature --edge h99': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "UnknownTarget: unknown hyperedge 'h99'\n"),
    'directed distances --format json': (0, 'b79059e3761517531d0b3d75cb52cae0a64aedca01dea0ef08a5fecaa990588f', ''),
    'directed curvature --all --format json': (0, 'b39f56d2e1f2f4705eeb3b1868e807a4be95a7efb083ae9b2c1239ba25df41aa', ''),
    'directed bounds --format json': (0, '5013e3e04a4547228656025625103658a9c2ad7a183bd51021d2eba7e90bcef0', ''),
    'directed distances --format csv': (0, '98305b724f14fd99054aa013c8b3dc414594046d7fd56aec91e8005a15356477', ''),
    'directed curvature --all --format csv': (0, 'd7f5f0799ecf9b9d38527ff659e3d27274337d023252a26dec3da4705fa9fa52', ''),
    'directed bounds --format csv': (0, '483afb4086a47fe07e9f5d10d3028f4c89b5deb25c4b0b732eb55e22f74b0298', ''),
    'directed distances --format table': (0, '2e872f006fd5b9450addc58e1054284d18a11afecaa3699b8edb62e470ab4f88', ''),
    'directed curvature --all --format table': (0, '98ac76409215abe56d3e61db25a0677d95387290439df9c250f8c023ed95e5f0', ''),
    'directed bounds --format table': (0, '5253125fec66dd0ac73aeca7189481597581aa3a5f19e3b9e4dfbc341bfa17c8', ''),
    'directed measure --edge h1': (0, 'ac69df9db0858570c9bb179bd742b2b4f1abf47e4236036e79ee81ab8f439f40', ''),
    'directed sweep --edge h1': (0, '4d95535222c186dcf260ba650c56f681f83c31d247c8624f6a17370418e75dfa', ''),
    'directed distances --format json --float': (0, 'c8fd3a530f3e7e3158d2e9f261872d2e6248d2b4d6dd20e63465823f6fc74726', ''),
    'directed curvature --all --format json --float': (0, '10f8d5d9cf7c0d7b3c733a9fa8c07d1c9e39bdd4ca391648da52a59b0a955af9', ''),
    'directed bounds --format json --float': (0, 'faf8b6cb5e986575fa70ec2370ca638c61968532b4e505c1c925c899262283ae', ''),
    'directed distances --format csv --float': (0, 'f8ca2ea26b00e18ce9570f55c40d3c1ae22f30d2d4f518f14b3ef82db1bdcd89', ''),
    'directed curvature --all --format csv --float': (0, '15dfdb8838029015ea9a194e182b529c0aa2f9c03bdb9a28816b18cdad22e37d', ''),
    'directed bounds --format csv --float': (0, '94fb3f80a755a380dacaeba085086bec8159493d8f3b5088589c90c60da2555f', ''),
    'directed distances --format table --float': (0, 'e060cbe0ea7c280ddfcc363bde9319e4fc3d3755214a7df5bb6f2921e0f422fb', ''),
    'directed curvature --all --format table --float': (0, 'bed5091d2a8aa55447fa309625318b1e644a7a96fa21b69457aec1c69e0d1eae', ''),
    'directed bounds --format table --float': (0, 'd6503482a38ae9c47744eb90331a65e8d3c227c29dc19966d391d66c17915f35', ''),
    'directed measure --edge h1 --float': (0, 'f7cf9bb5432b95e990f533487e4fac588e9aaa2f343793f283761359402bd75c', ''),
    'directed sweep --edge h1 --float': (0, '9f1b04b77e7b767c3605832fabf00662f738fe15360c0f9d1f485f40a1df8c9e', ''),
    'directed bounds --strict --format csv': (1, '483afb4086a47fe07e9f5d10d3028f4c89b5deb25c4b0b732eb55e22f74b0298', ''),
    'directed curvature --edge h99': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "UnknownTarget: unknown hyperedge 'h99'\n"),
    'oriented distances --format json': (0, 'd834ceb61386752c392e55feba45c17a64cd315373efc7381f81693a23c6be6b', ''),
    'oriented curvature --all --format json': (0, 'b7b9852fe152471eba3566f592fafdfd63e96b6b02b06917e3ed95ed7d9289af', ''),
    'oriented bounds --format json': (0, '562259efc5af573c6aa9ce3135dd1cfedcf608d2c16deaa5ac0ab27eb6aa0421', ''),
    'oriented distances --format csv': (0, 'fde9972acd5e6621b67b23fdcb88e37f5d73d6d5250ddc05de2ef5136d7e9fd5', ''),
    'oriented curvature --all --format csv': (0, '49cbb9ec32a77c71e08e09f04c3080db925a7f2c29fca4aba285fb08afeec40d', ''),
    'oriented bounds --format csv': (0, '66845c450abd6bab9d4aa0524d81378269099dc593df6315361b93747fce13b5', ''),
    'oriented distances --format table': (0, '7fa9fd3c471b5db610608a89ffe80aca8fdbd67ccd8953c14cdcc27ba5772869', ''),
    'oriented curvature --all --format table': (0, '6a634a7dba3daffbd109d01cf568ddd56351e76a15ee1e263fa5e354a6b271f8', ''),
    'oriented bounds --format table': (0, 'fa0073f6a9efd4bd9219f951c5740ec66bf8f78c857ac81a395149ba09b07b30', ''),
    'oriented measure --vertex x1': (0, 'fd82410e8831826b03fcb37bca2bad3312d38634d147f572e98244ae1f85f3f3', ''),
    'oriented sweep --pair x1,x2': (0, 'e2d8d777b7b9b39a3db9c3fb605248e46692071436b579a5f36f4a4a4eec5f05', ''),
    'oriented distances --format json --float': (0, 'be65bd9f0f37a72bdeb8b67231e137b04aa18541f14a2abd64580064b33bf9a6', ''),
    'oriented curvature --all --format json --float': (0, 'e83a4a93380bf753cf4c9d0313657a95c2ba577135aca77b7e1be321eb180237', ''),
    'oriented bounds --format json --float': (0, 'ae166ea855c9d783e9ccd3c7951aa8f171189be339ef511e84c977d2f8940922', ''),
    'oriented distances --format csv --float': (0, 'bc867399e62fa5bdf6eb0fb63f06146f16f60187c2cf40a3c959ac655add293d', ''),
    'oriented curvature --all --format csv --float': (0, '5ee0017e98c7f3a4cb133429f16abf1d2fa880e250bb1710244e11656ca5e8bb', ''),
    'oriented bounds --format csv --float': (0, 'e6d3568e90f8606ed56009b5fd53b38f77b111db8219789ee7753aa12e832579', ''),
    'oriented distances --format table --float': (0, 'ab0e123db1453b5a6ee5d3fc248a047616091ff0ba7e57b134bbfba5af973a5d', ''),
    'oriented curvature --all --format table --float': (0, '0a2e0ca4420ecede80182a20eeadf9ea626aecf823d31bb7dbb77e6da6c5dee4', ''),
    'oriented bounds --format table --float': (0, '9097cb9c2e49e5284c29f5a935cb7ce57fb59f002c3c89a9110b2c81a4d6bc43', ''),
    'oriented measure --vertex x1 --float': (0, '3e7bc7341fe9d0e5fb2664a524ec2e1dad0b99e5557a96fd7f90d8efd3fd883c', ''),
    'oriented sweep --pair x1,x2 --float': (0, '5535e6a62cbc02a2dd3c251bbe2ab0cc0de3039490a5a7c7c78af209242cba49', ''),
    'oriented bounds --strict --format csv': (1, '66845c450abd6bab9d4aa0524d81378269099dc593df6315361b93747fce13b5', ''),
    'oriented curvature --edge h99': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "UnknownTarget: unknown hyperedge 'h99'\n"),
    'diverging curvature --all --format json': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "NoStabilization: target edge h5 has curvature -3/2 at alpha=1; the normalized curve decreases without bound\n"),
    'diverging sweep --edge h5 --float': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "NoStabilization: target edge h5 has curvature -3/2 at alpha=1; the normalized curve decreases without bound\n"),
    'oriented measure --vertex x1 --direction in': (0, 'fd82410e8831826b03fcb37bca2bad3312d38634d147f572e98244ae1f85f3f3', ''),
    'directed measure --edge h1 --side head --index 0': (0, '41752de4c5124c96f319abffdf1206baec3e2cee136e692c2f0b31018fc8101f', ''),
    'h4 bounds --alpha 1/3 --format json': (0, '9186b25cfb6422b9fedf5d538c06f576233c03356c910ac5a00c5cfe3fcd5f49', ''),
    'oriented bounds --alpha 1/3 --float': (0, '3fdc24d76ae06046cf87cfc1d19850931f549e36d12a2a9f8576399ce4c60c45', ''),
    'undirected curvature --edge h1 --variant max --format csv': (0, 'b8d1c378235b08eab842817ece12db150027cd2cc63c3125d40426920b24ac6a', ''),
    'h4 sweep --pair x2,x3 --alpha-grid 0,1/3,1': (0, 'aa157c884c2eb3dca39c3f2a88b8a31897b5b73e96ffd90fa86ccbf82a6bcc1d', ''),
    'pivoting curvature --all --format json': (0, 'bd99438183477fe6db5148aa806e1168b0b6f338eb411c0a3d6a86faac7f2c66', ''),
    'pivoting bounds': (0, '72bf2d266a8826ba9abd4c4e0d797f536ff47b16a6b9d4ba5d84af184f213728', ''),
    'oriented bounds --alpha 1': (0, '3bc8fc41326cdb2dc33e66d0585976589d11a238a6b74849b565c1f55446c503', ''),
    'pivoting bounds --alpha 1': (0, 'f377c1332b261cb7e3f6549a8044d901c97c9d6ec344ba40f1b5f9120c01dafb', ''),
    'weighted bounds': (0, 'dcf32202e73a51fed40d14cb9b6a18e477a3f37c72176ee3529205b3e8a66990', ''),
    'weighted bounds --format json --float': (0, '377bdb715ab57b9f9277528037d526de4f4f8edddd80695601b5eea95b3f8376', ''),
    'weighted bounds --strict --format csv': (1, '8e4d01954fe1d92369995f4e6ae5c5689f6582a4f560e3e7ed6c8346007b718e', ''),
}

PINNED_COUNTERS = {
    'h4 bounds': (0, {'solves': 6, 'solve_hits': 10, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 8, 'measure_hits': 8, 'limits': 6, 'limit_hits': 4}),
    'h4 curvature --all': (0, {'solves': 6, 'solve_hits': 4, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 8, 'measure_hits': 8, 'limits': 8, 'limit_hits': 0}),
    'directed bounds': (0, {'solves': 4, 'solve_hits': 0, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 16, 'measure_hits': 4, 'limits': 0, 'limit_hits': 0}),
    'oriented bounds': (0, {'solves': 11, 'solve_hits': 69, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 14, 'measure_hits': 51, 'limits': 32, 'limit_hits': 24}),
    'oriented curvature --all': (0, {'solves': 11, 'solve_hits': 23, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 14, 'measure_hits': 15, 'limits': 34, 'limit_hits': 0}),
    'undirected curvature --all': (0, {'solves': 10, 'solve_hits': 10, 'pivots': 1, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 10, 'measure_hits': 15, 'limits': 16, 'limit_hits': 0}),
    'pivoting curvature --all': (0, {'solves': 21, 'solve_hits': 20, 'pivots': 16, 'degenerate_pivots': 3, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 14, 'measure_hits': 35, 'limits': 29, 'limit_hits': 0}),
    'pivoting bounds': (0, {'solves': 21, 'solve_hits': 41, 'pivots': 16, 'degenerate_pivots': 3, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 14, 'measure_hits': 35, 'limits': 21, 'limit_hits': 17}),
    'oriented bounds --alpha 1': (0, {'solves': 11, 'solve_hits': 69, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 14, 'measure_hits': 51, 'limits': 32, 'limit_hits': 24}),
    'pivoting bounds --alpha 1': (0, {'solves': 21, 'solve_hits': 41, 'pivots': 16, 'degenerate_pivots': 3, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 14, 'measure_hits': 35, 'limits': 21, 'limit_hits': 17}),
    'late bounds --alpha 1/3': (0, {'solves': 7, 'solve_hits': 0, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 7, 'dual_pivots': 7, 'measures': 24, 'measure_hits': 12, 'limits': 0, 'limit_hits': 0}),
    'late bounds --alpha 9/10': (0, {'solves': 7, 'solve_hits': 0, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 24, 'measure_hits': 12, 'limits': 0, 'limit_hits': 0}),
    'weighted bounds': (0, {'solves': 11, 'solve_hits': 59, 'pivots': 0, 'degenerate_pivots': 0, 'traced_pieces': 0, 'dual_pivots': 0, 'measures': 12, 'measure_hits': 29, 'limits': 26, 'limit_hits': 0}),
}

PINNED_HELP = {
    '': 'e61e7b1a311811998c71f49df96bbc0dceede20ecd7cc8ea7f4c8dc8dd2e565a',
    'validate': '5d5464151e9e5e47808767e1e78dc540e7199c2a27d1982d75677a97c4386fa1',
    'distances': 'b020f833b6591451253e2254c79578da96401fffa55b8f8def2c6b5c6e2444e9',
    'measure': '7ae8af015a6837a9f1cd36151d8e00d362bbad309a906b6729a97d2abb813d56',
    'curvature': '3b1587ec445d50273b8bb9a91c3a4653c83f8290ee8e3c8b44b5be22b5ca624d',
    'bounds': '483ec90af25817cf041b8477cb76db3a1ea2346bb80346986ea01e63fc427900',
    'sweep': 'd60a0a0b86bd3f5fd1b37299647670f7beae5ea28d77c49dc6ae52cc5798fd8a',
}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = _write_documents(Path(tmp))
        print("PINNED = {")
        for case in CASES:
            print(f"    {case!r}: {_outcome(found, case)!r},")
        print("}")
        print("PINNED_COUNTERS = {")
        for case in COUNTER_CASES:
            print(f"    {case!r}: {_counters(found, case)!r},")
        print("}")
    os.environ["COLUMNS"] = "80"
    print("PINNED_HELP = {")
    for command in HELP_CASES:
        print(f"    {command!r}: {_help_digest(command)!r},")
    print("}")

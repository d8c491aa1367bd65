"""Golden digests: the artifact bytes of default marriage runs, pinned.

Each analysis runs on the built-in marriage data with the default config
over seeds 0-2 (macro-classes cut at k=5), and the sha256 of every result,
model, macro and deviations JSON, and of the sweep's stability JSON, must
match the committed digest.  One small ``report`` run (two seeds on a 3x3
map) pins the bytes of ``report.json`` and ``report.csv``, ``macro``
on seed 0 of each analysis (k=4) pins the bytes of ``dendrogram.json``,
and ``ingest``, ``tables`` and ``pies`` (the wife's category crossed with
kmca-ind seed 0) pin the bytes of the remaining JSON writers.  Seed 0 of
each analysis with ``--macro 5 --render both`` pins the SVG and text maps,
and the wife's pies the pie SVG; ``render`` of those stored results pins
the other ``--labels`` choices (without a cut) and ``--cell-size 57`` (with
it), and a kmca run on a string of 5 units pins both of its maps.  A small
fixed survey CSV pins the CSV
reader: ``ingest`` infers it, and again with a schema that bins one column
and leaves two out; ``pies --external`` crosses one of its columns with a
kmca-ind map trained on it.
``WIDE_GOLDEN`` pins a kdisj run wide enough that every modality step
searches more than ``som.DISTANCE_BLOCK`` elements on its own: a seeded
uniform survey of 1,200 individuals and 10 questions of 6 answers on an
8x8 map (64 x 1,200 components), 400 steps, cut at k=4.  A kmca-ind run
on the same survey and map pins quantization-error passes over 1,200
individuals, more rows than one distance block holds.
``GRAM_GOLDEN`` pins the kdisj models and results of the ``GOLDEN`` runs
with the Gram table forced on (``som.DISTANCE_BLOCK`` at 1): the table
sums each individual-space block in coefficient form, so their last bits
are the table's own, while every other kdisj file keeps its ``GOLDEN``
bytes (``test_analyses.py`` checks both).
``STDOUT_GOLDEN`` pins what the commands print: the ``--json`` summary and
the ``wrote`` lines (the out dir made relative) of ``ingest``, ``tables``,
each trainer over two seeds cut at k=3 with both maps, ``macro``, ``pies``
and ``render`` on the stored kdisj seed-0 result (their out dir left to
default to the result's), and the small ``report``.
A change that moves a digest on purpose re-issues the table and says why
in CHANGES.md.  To print the current digests as tables:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from conftest import uniform_survey_csv
from somcat import som
from somcat.cli import main

ALGORITHMS = ("kmca", "kmca-ind", "kdisj")
SEEDS = 3
KINDS = ("result", "model", "macro", "deviations")
REPORT_ARGV = [
    "report", "--data", "builtin:marriages", "--seeds", "2", "--workers", "1",
    "--grid", "3x3", "--iters", "250", "--render", "both",
]
REPORT_FILES = ("marriages.report.json", "marriages.report.csv")
DENDROGRAM_K = 4
PIES_VARIABLE = "wife"
LABEL_CHOICES = ("modalities", "modalities+counts", "none")
# 24 answers with padded cells and a fractional age; the schema bins age,
# relabels color in its own order and leaves size and note out.
SURVEY_CSV = "id,age,color,size,note\n" + "".join(
    f"p{i:02d},{18 + (i * 7) % 61}{'.5' if i % 6 == 1 else ''},"
    f"{' ' if i % 5 == 0 else ''}{('red', 'blue', 'green')[i * 5 % 3]},"
    f"{('small', 'large')[i * i % 3 % 2]},n{i % 4}\n"
    for i in range(24)
)
SURVEY_SCHEMA = {"variables": [
    {"name": "age", "modalities": ["young", "mid", "old"], "breaks": [30, 50]},
    {"name": "color", "modalities": ["green", "red", "blue"]},
]}
EXTERNAL_COLUMN = "color"
WIDE_SURVEY = {"seed": 16, "n": 1200, "questions": 10, "answers": 6}
WIDE_ALGORITHMS = ("kdisj", "kmca-ind")
WIDE_ARGV = ["--grid", "8x8", "--iters", "400", "--macro", "4", "--render", "none",
             "--workers", "1"]
STDOUT_TRAIN = ["--seeds", "2", "--workers", "1", "--iters", "300", "--macro", "3",
                "--render", "both"]

GOLDEN = {
    "marriages.kmca.0.result.json": "b310a69ca5bfc13b2c64746bebc52a588b8db89502c1b03ef50ab389c5cc1b20",
    "marriages.kmca.0.model.json": "9877405b497d2c5c6ab0c60840bb55f723ce9cb4408a9112f6a6a105f6e08677",
    "marriages.kmca.0.macro.json": "f684fd56edaeff22630231a5d6c7a1582bb7b7b12f3726fb4d5fbd631c5aa912",
    "marriages.kmca.1.result.json": "0857fdf275f5c898a7f7c3c3e03438b36d04bdd2e894231fe0bc5a0f6c8d7081",
    "marriages.kmca.1.model.json": "f3915d6ccfbd58175d5f652bab3b6da2e52e05b69e68dc5e2d4bdacc44f4b6c3",
    "marriages.kmca.1.macro.json": "59797c11e9e2ae22165ffef7358d7068f9b31baa67617f5359c0ad0bc677d928",
    "marriages.kmca.2.result.json": "31f399a969c0262c5a44061a4b0095efb3fce2845b848b19265c5c8addf88f6f",
    "marriages.kmca.2.model.json": "b1563e45b15b36edb1b5b03a04b36322833821995af5d12a2cea1ca809afa0b8",
    "marriages.kmca.2.macro.json": "c61fa91bd585c99fafb6574fcaf1ceb68fb0c8b9545b390c5f42d29115c5a123",
    "marriages.kmca.stability.json": "edbf37c195554ebc762db02a1b266df033e8acd0a06ec6f7ca6e4f0eb37a2005",
    "marriages.kmca-ind.0.result.json": "b80fd1edf2ba2bfd0f21dc3b1b3d654a635a4fc45656e5b75419a097645a04d4",
    "marriages.kmca-ind.0.model.json": "029097404128c881a20e3998fa2643e87001bbfe311cd21a34027c85f3d6c644",
    "marriages.kmca-ind.0.macro.json": "59cba41751181539ead05000c4a31d657d1ef9fb743cef68b42f8244c88c1081",
    "marriages.kmca-ind.0.deviations.json": "8caf570e727525bfbf8b78b560bb4202487254bbb29af492f658fd091d643a5e",
    "marriages.kmca-ind.1.result.json": "c4eb1dd2e056d7819a77adb26131050284ff75fe1bd4e592b7618d55e328d822",
    "marriages.kmca-ind.1.model.json": "08bc96c0b2d2b84070ef9cb4388c69edea2cb6b070f633e40690ba5474e4fd01",
    "marriages.kmca-ind.1.macro.json": "94758100fdd99e4467e83d0ed7e71790c83b7f1bcb79f1bef4ea810b4e38c660",
    "marriages.kmca-ind.1.deviations.json": "4978b6437e5b96faf5d51ac531ce9a6b373183db19787e24e2468290196bd384",
    "marriages.kmca-ind.2.result.json": "5806c79a8b495b3b3a594586cda2a1cb4024da40109169ac0d95af43aa55ac51",
    "marriages.kmca-ind.2.model.json": "2fbfa5778f06b3bd82f74a708d70af8302d73a5a16f506d31355e0fc09757fd1",
    "marriages.kmca-ind.2.macro.json": "339c39b382a6163972698584d23a91d807a002f683bece0770d9deaf94086f0a",
    "marriages.kmca-ind.2.deviations.json": "adfb73ccf12ee8cada45541de64501db0f1f979e24cb0cb7198ee26badfc3c03",
    "marriages.kmca-ind.stability.json": "b4dc271d0eb2d36280b08bfc4c39bf7758aaf5c99443fb63287010544919f503",
    "marriages.kdisj.0.result.json": "abd8b3fc7814faf82d4eaf813176cef3d45c168a048ed505cf5af5ef79ba7f1a",
    "marriages.kdisj.0.model.json": "7a1006f3e2b8fb6e5e970687e8d5c5b9ac33cd509141ae8b0ebcf073ebe2e7cc",
    "marriages.kdisj.0.macro.json": "35d384107dd2cac0ef175a1ddd445207d2ef787394a2ae6af0dcf621f9105087",
    "marriages.kdisj.0.deviations.json": "89ef02346cb1b72ddd3f785289d4f43291a9ceaa11892b3e6fcf121266287fa2",
    "marriages.kdisj.1.result.json": "c941d4b70a0eb2554eba08d5cda3fa0d53ad387623cd1748ccfe3d8917f73ce5",
    "marriages.kdisj.1.model.json": "dbdce7a997221832070f143c9cec7fa5b941c304e076d96fda78bdeede893601",
    "marriages.kdisj.1.macro.json": "00599b0ba1a9cda2f48d899ce46c7a5f7bb7a68b50a619238875745725743fff",
    "marriages.kdisj.1.deviations.json": "30962128b5ef7e7c0f389548d95bfd2ed56ae51b5a90786e9ec8b4ddd7d8fd33",
    "marriages.kdisj.2.result.json": "3ad16a5457af7d4ee089b0e485839ee6d54c089afda5530ba35b736fe03a0a3e",
    "marriages.kdisj.2.model.json": "a06beb41583e4710b834ee44c3c59faf8d9964390169b950051bd64a6b390f1d",
    "marriages.kdisj.2.macro.json": "413a1bba6b14d3db52488b149dd62711ea20e7630331fbed68401706b69929fc",
    "marriages.kdisj.2.deviations.json": "acbc2273b16b624a3802e8a460985aff758c8eed4c600d77d7d5461f6295ec1b",
    "marriages.kdisj.stability.json": "13ad88223157a3e12147c7abccdc663294d60f77bcb415258b16f44aef0c17b5",
    "marriages.report.json": "65d86921d780b19fbcdbbc1c399ff18747d54fe3458de5d0ab0e701ceca29677",
    "marriages.report.csv": "2029497ff4b2cb97a7c5afbecde8347f3650aa8c8e51eb0707f78ae63ff865ab",
}

DENDROGRAM_GOLDEN = {
    "marriages.kmca.0.dendrogram.json": "9e98c5e4abe9a79c18f2744a4a07e0a5039639a2ac4ddcb97e2c9f211cebe689",
    "marriages.kmca-ind.0.dendrogram.json": "e7ce2e3436bcb325e954ba1a094e2079487e4cc3ba57de6fd627204a8ac2cbee",
    "marriages.kdisj.0.dendrogram.json": "8361ce3a8bef3940808c8f56ed85de93f5c44a9ad9ed78130ad6366a6280befe",
}

DATA_GOLDEN = {
    "marriages.dataset.json": "2b27d40a7f43416c0f28c6daba1964b06a76ec55a75e2549a5a3a1a777d9699c",
    "marriages.tables.json": "ebe7d18142167ef4fedafccdbb8451be8a198da1d515833e7ff95d9673cc9830",
    "marriages.kmca-ind.0.pies.wife.json": "44ab64058beb14c318876202dac9b74d63a095b6c69ab3e73b594c777319670b",
}

RENDER_GOLDEN = {
    "marriages.kmca.0.svg": "afcc0672c9179f64d3c6b3dc6817624589fa832ef4f837c0842bdf3435a54ce2",
    "marriages.kmca.0.txt": "21955b3ada8cc475fefc3164c13a6fffbc570dd9935f3f401fb99b55202aecd2",
    "marriages.kmca-ind.0.svg": "a3cdde01456359dc510758c62f165894b3b085cfedb929dd216868fcc32553ec",
    "marriages.kmca-ind.0.txt": "a5a98a574698ba625ef38a2de20e621c21065840186df4c2cf8fddc823f10e42",
    "marriages.kdisj.0.svg": "5c7222353055ca346e1d748f1daa470ee555020f04ec90b80081450ad2107844",
    "marriages.kdisj.0.txt": "7a36e7fa64b1747ef4b6093e5a84f39e4827db4f137f794d61fd72257481bf10",
    "marriages.kmca-ind.0.pies.wife.svg": "494b3fc55f50c0937008d9bd8043bc5ab22bbbaa3e80790694a1ee7a3e0afeeb",
}

RENDER_OPTION_GOLDEN = {
    "modalities/marriages.kmca.0.svg": "b8dad7a61963ae6e229da5062010bdecc85f1d5fd67845620225c55fdbc8ef3d",
    "modalities/marriages.kmca-ind.0.svg": "e33b0d4728ed87e05e242ee9fb6c6af4ae411c09cd331649ac6e199f8c007880",
    "modalities/marriages.kdisj.0.svg": "372da069a904c9ce3c08e14e31c04512f9d4f0f8b5b67615fa3edbabce7968e4",
    "modalities+counts/marriages.kmca.0.svg": "b8dad7a61963ae6e229da5062010bdecc85f1d5fd67845620225c55fdbc8ef3d",
    "modalities+counts/marriages.kmca-ind.0.svg": "9394471ca4c8c2c9600f2df611ef7daf32bffd565329e1b41ced8b506a56f280",
    "modalities+counts/marriages.kdisj.0.svg": "d912c66d775299f78ae9dce390ce6a5b0e80b6690446f51b2725f71b21b5d65a",
    "none/marriages.kmca.0.svg": "39a112a36abb0ab0eb1b47c25257b42b83e5ef548f34676eaa6bd65ea91b39d2",
    "none/marriages.kmca-ind.0.svg": "39a112a36abb0ab0eb1b47c25257b42b83e5ef548f34676eaa6bd65ea91b39d2",
    "none/marriages.kdisj.0.svg": "39a112a36abb0ab0eb1b47c25257b42b83e5ef548f34676eaa6bd65ea91b39d2",
    "cell-57/marriages.kmca-ind.0.svg": "93f024fb898481775a759fb21f247cf8088ce65bd9b338773e3005a546adc1ca",
    "string-5/marriages.kmca.0.svg": "7906f8a1e41406f031ae373a125dd8fb2033d74dd4673a867a0e7094613f6790",
    "string-5/marriages.kmca.0.txt": "8937d064367ede72f8fe888982d64ef5e8750a4b16495c91be2b920054a18808",
}

CSV_GOLDEN = {
    "survey.dataset.json": "05472d75e3120470421d39e14f06fadc9d4ffbd5b6fed46e79a9eeb54e361493",
    "survey-schema.dataset.json": "f91ced59b650638a5b48a6ab064e1d16dd934e03674030387597d310acc8b89a",
    "survey.kmca-ind.0.pies.color.json": "af8194a634a76f9e894999b3b6e4997580d366a7976eaf30b3786f01b5d6faea",
    "survey.kmca-ind.0.pies.color.svg": "1a07f3238af2514c7bf84089c25ddced0b672abd208189e324b7da327592d069",
}

WIDE_GOLDEN = {
    "wide.kdisj.0.result.json": "d0c6a92dd61a7a0caac647088b3cfbbb4e92bc7a155e2b886a11871e5ba35266",
    "wide.kdisj.0.model.json": "6aaa779fdf32d142da95f62c9233430f3c8327608ded82c27be832277d20a0aa",
    "wide.kdisj.0.macro.json": "b24efd1e82d47536e062961380e60fbb09ba90de9ce7d431ca4f4d39db4aae5a",
    "wide.kdisj.0.deviations.json": "92a7ebdc7bd458452d6f4ab41776c4936c98b4021363f890068232c09a01e33d",
    "wide.kmca-ind.0.result.json": "5258c1dbbd518b7b5009d16278c0778df29bf47b7f1928a8dcc4b4e03273f993",
    "wide.kmca-ind.0.model.json": "fb52ccf571c59dfcdc3cc8039d6df69df1d6a77359d7aa134404c05e0402f393",
    "wide.kmca-ind.0.macro.json": "22a22ad44e69cf1531a3c23d31cff3a6d192e4ce22265b39c1cbc4e7349be2d8",
    "wide.kmca-ind.0.deviations.json": "b3a1fd0d22093f028db5a33e3874c30846d4d579e548eebf01d639f95f8efba5",
}

GRAM_GOLDEN = {
    "marriages.kdisj.0.result.json": "74b487dedb422d7b1d47c90800366f5070ddd6a1c2a7e84ef2c3def4b6f9b322",
    "marriages.kdisj.0.model.json": "679ece0e8bf784e4410a3feb634932534c4cbde089207a1c7dc63deede6d2938",
    "marriages.kdisj.1.result.json": "0a98b2e0b1bca5fa0f163079da06845559d38327e26b14cf18c998559cfd31ae",
    "marriages.kdisj.1.model.json": "a3ca827efd0a2a1b12916dcae1b4f5ced826f03a58122534c0ee7d7649fe36d8",
    "marriages.kdisj.2.result.json": "9c668e7d34e68c15b67921d44014d747a6e2d03944a9540fe7e5d4a7bee56bb8",
    "marriages.kdisj.2.model.json": "4765275aadd87d808c503edff8593b34d26ead29e631ed52e96ba650397181ea",
}

STDOUT_GOLDEN = {
    "ingest": "edd1df5320d229bf2a11a0325f8d0094925abbff496b873f934708251aa53a8d",
    "ingest --json": "3676f8290feb8a918701fb5dee6090633a1eeb7ea5a2353a60ec30046f002320",
    "tables": "60af66a66443e749c09c82316d7e6f4dd58059dd5be21d0df30ec1e41e98822f",
    "tables --json": "f9d7b8ef6ccddcecf67a616869e0f4b00a9e978e93bf1a4f9bf898db144d0c55",
    "kmca": "421658bfad8c3a56d403b9dd5976d90c551d369130f0f8785a2856068e511675",
    "kmca --json": "98345a66e34fa62c9a311d6c02a34fb58441ae334f397f04d9fd7f61aa886fcf",
    "kmca-ind": "170fa0b40b572cfbb3ff7c0cbcc4e56086af0151f29d63f933585150c694aaaa",
    "kmca-ind --json": "6977fb8edf479c2d06dcca1f162e370040c5c6b30a17a54716ac5c888bdf6a40",
    "kdisj": "5acbdcd7003c4e3d5c5f218b5ddaac97fbabceb9924a70c23ed497b18ab96a19",
    "kdisj --json": "07a4cf26f88240e6cff5ab7c30df0a7058d0bcceb6511081ccc6376b3810af40",
    "macro": "e72b303bc866cf709bacdf644155226a70b04a1f29736371296558d42cc0345f",
    "macro --json": "db0604cbc70f66e816ad544176723df6ee1471302df6493a4de14fe5871328c0",
    "pies": "d9097cd0c65de4143adcc46d0af441525419a6ddd806eb4ac4045776dba7c1d8",
    "pies --json": "4d07029021faa43fa7e65dd704ca9a754a3bb38ade322948ba5a7f2f695285b1",
    "render": "69496acc76d901766cb72f99236628a2182073faa67aeac8f01e8fda6c9ed152",
    "render --json": "a35148e4649784b612295bb22ea78dbd461478414831c2c10841d94a4a3896b2",
    "report": "51dd23dd9259bd39d73d5529f05e6988aeb1e780466ee09600a73187ca5bd345",
    "report --json": "c2222e9c971af1aa632d7bd6778c8a1e350f74390e762f85e92860d50072f672",
}


def _run(argv: list[str], outdir: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(outdir)])
    if code != 0:
        raise RuntimeError(f"{argv[0]} run exited with {code}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(algorithm: str, outdir: Path) -> dict[str, str]:
    """Run one analysis over the golden seeds; sha256 of each pinned file."""
    _run([
        algorithm, "--data", "builtin:marriages", "--seeds", str(SEEDS),
        "--workers", "1", "--macro", "5", "--render", "none",
    ], outdir)
    names = [
        f"marriages.{algorithm}.{seed}.{kind}.json"
        for seed in range(SEEDS)
        for kind in KINDS
    ]
    names.append(f"marriages.{algorithm}.stability.json")
    return {
        name: _sha256(outdir / name)
        for name in names
        if (outdir / name).exists()
    }


def report_digests(outdir: Path) -> dict[str, str]:
    """Run the small report; sha256 of its JSON and CSV."""
    _run(REPORT_ARGV, outdir)
    return {name: _sha256(outdir / name) for name in REPORT_FILES}


def dendrogram_digests(outdir: Path) -> dict[str, str]:
    """Train seed 0 of each analysis, run ``macro`` on its stored result;
    sha256 of each dendrogram."""
    out = {}
    for algorithm in ALGORITHMS:
        base = f"marriages.{algorithm}.0"
        _run([algorithm, "--data", "builtin:marriages", "--render", "none"], outdir)
        _run(["macro", "--result", str(outdir / f"{base}.result.json"),
              "--macro", str(DENDROGRAM_K), "--render", "none"], outdir)
        out[f"{base}.dendrogram.json"] = _sha256(outdir / f"{base}.dendrogram.json")
    return out


def data_digests(outdir: Path) -> dict[str, str]:
    """Run ``ingest``, ``tables`` and ``pies`` on the marriage data; sha256
    of each JSON they write."""
    data = ["--data", "builtin:marriages"]
    _run(["ingest", *data], outdir)
    _run(["tables", *data], outdir)
    _run(["kmca-ind", *data, "--render", "none"], outdir)
    _run(["pies", *data, "--result", str(outdir / "marriages.kmca-ind.0.result.json"),
          "--variable", PIES_VARIABLE, "--render", "none"], outdir)
    return {name: _sha256(outdir / name) for name in DATA_GOLDEN}


def render_digests(outdir: Path) -> dict[str, str]:
    """Seed 0 of each analysis with ``--macro 5 --render both``, then the
    wife's pies on kmca-ind; sha256 of each map and pie drawing."""
    data = ["--data", "builtin:marriages"]
    for algorithm in ALGORITHMS:
        _run([algorithm, *data, "--macro", "5", "--render", "both"], outdir)
    _run(["pies", *data, "--result", str(outdir / "marriages.kmca-ind.0.result.json"),
          "--variable", PIES_VARIABLE], outdir)
    return {name: _sha256(outdir / name) for name in RENDER_GOLDEN}


def render_option_digests(outdir: Path) -> dict[str, str]:
    """Seed 0 of each analysis cut at k=5, redrawn by ``render`` under each
    other ``--labels`` choice without the cut and at ``--cell-size 57`` with
    it, then ``kmca --string 5 --macro 3 --render both``; sha256 of each
    drawing, named by its output subdirectory."""
    data = ["--data", "builtin:marriages"]
    for algorithm in ALGORITHMS:
        _run([algorithm, *data, "--macro", "5", "--render", "none"], outdir)
        result = str(outdir / f"marriages.{algorithm}.0.result.json")
        for labels in LABEL_CHOICES:
            _run(["render", "--result", result, "--labels", labels], outdir / labels)
    base = outdir / "marriages.kmca-ind.0"
    _run(["render", "--result", f"{base}.result.json", "--macro-file",
          f"{base}.macro.json", "--cell-size", "57"], outdir / "cell-57")
    _run(["kmca", *data, "--string", "5", "--macro", "3", "--render", "both"],
         outdir / "string-5")
    return {name: _sha256(outdir / name) for name in RENDER_OPTION_GOLDEN}


def csv_digests(outdir: Path) -> dict[str, str]:
    """``ingest`` of the survey CSV, inferred and with the schema, and
    ``pies --external`` on one of its columns; sha256 of each file."""
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "survey.csv"
    csv_path.write_text(SURVEY_CSV, encoding="utf-8")
    schema_path = outdir / "survey.schema.json"
    schema_path.write_text(json.dumps(SURVEY_SCHEMA), encoding="utf-8")
    data = ["--data", str(csv_path)]
    _run(["ingest", *data], outdir)
    _run(["ingest", *data, "--schema", str(schema_path), "--name", "survey-schema"],
         outdir)
    _run(["kmca-ind", *data, "--grid", "3x3", "--render", "none"], outdir)
    _run(["pies", "--result", str(outdir / "survey.kmca-ind.0.result.json"),
          "--external", str(csv_path), "--column", EXTERNAL_COLUMN], outdir)
    return {name: _sha256(outdir / name) for name in CSV_GOLDEN}


def wide_digests(algorithm: str, outdir: Path) -> dict[str, str]:
    """``algorithm`` on the wide seeded survey; sha256 of each pinned file."""
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "wide.csv"
    csv_path.write_text(uniform_survey_csv(**WIDE_SURVEY), encoding="utf-8")
    _run([algorithm, *WIDE_ARGV, "--data", str(csv_path)], outdir)
    names = [f"wide.{algorithm}.0.{kind}.json" for kind in KINDS]
    return {name: _sha256(outdir / name) for name in names}


def stdout_digests(outdir: Path) -> dict[str, str]:
    """Each command once with ``--json`` and once without; sha256 of its
    stdout, with ``outdir`` cut from the front of every path it prints."""
    data = ["--data", "builtin:marriages"]
    out = ["--out", str(outdir)]
    kdisj = str(outdir / "marriages.kdisj.0")
    commands = {
        "ingest": ["ingest", *data, *out],
        "tables": ["tables", *data, *out],
        **{algorithm: [algorithm, *data, *STDOUT_TRAIN, *out] for algorithm in ALGORITHMS},
        "macro": ["macro", "--result", f"{kdisj}.result.json", "--macro", "4",
                  "--render", "both"],
        "pies": ["pies", *data, "--result", f"{kdisj}.result.json",
                 "--variable", PIES_VARIABLE],
        "render": ["render", "--result", f"{kdisj}.result.json", "--macro-file",
                   f"{kdisj}.macro.json", "--render", "both"],
        "report": [*REPORT_ARGV, *out],
    }
    got = {}
    for label, argv in commands.items():
        for flags in ([], ["--json"]):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, *flags])
            if code != 0:
                raise RuntimeError(f"{label} run exited with {code}")
            text = stdout.getvalue().replace(f"{outdir}{os.sep}", "")
            got[" ".join([label, *flags])] = hashlib.sha256(text.encode()).hexdigest()
    return got


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_artifact_bytes_match_golden_digests(algorithm, tmp_path):
    got = digests(algorithm, tmp_path)
    want = {k: v for k, v in GOLDEN.items() if f".{algorithm}." in k}
    assert got == want


def test_report_bytes_match_golden_digests(tmp_path):
    got = report_digests(tmp_path)
    want = {k: v for k, v in GOLDEN.items() if k in REPORT_FILES}
    assert got == want


def test_dendrogram_bytes_match_golden_digests(tmp_path):
    assert dendrogram_digests(tmp_path) == DENDROGRAM_GOLDEN


def test_data_tables_and_pies_bytes_match_golden_digests(tmp_path):
    assert data_digests(tmp_path) == DATA_GOLDEN


def test_svg_and_text_bytes_match_golden_digests(tmp_path):
    assert render_digests(tmp_path) == RENDER_GOLDEN


def test_render_option_bytes_match_golden_digests(tmp_path):
    assert render_option_digests(tmp_path) == RENDER_OPTION_GOLDEN


def test_csv_ingest_and_external_pies_bytes_match_golden_digests(tmp_path):
    assert csv_digests(tmp_path) == CSV_GOLDEN


def test_wide_kdisj_bytes_match_golden_digests(tmp_path):
    want = {k: v for k, v in WIDE_GOLDEN.items() if ".kdisj." in k}
    assert wide_digests("kdisj", tmp_path) == want


def test_wide_kmca_ind_bytes_match_golden_digests(tmp_path):
    want = {k: v for k, v in WIDE_GOLDEN.items() if ".kmca-ind." in k}
    assert wide_digests("kmca-ind", tmp_path) == want


def test_command_stdout_matches_golden_digests(tmp_path):
    assert stdout_digests(tmp_path) == STDOUT_GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for algorithm in ALGORITHMS:
            table.update(digests(algorithm, Path(tmp) / algorithm))
        table.update(report_digests(Path(tmp) / "report"))
        dendrograms = dendrogram_digests(Path(tmp) / "dendrogram")
        data = data_digests(Path(tmp) / "data")
        renders = render_digests(Path(tmp) / "render")
        options = render_option_digests(Path(tmp) / "options")
        csvs = csv_digests(Path(tmp) / "csv")
        wides = {}
        for algorithm in WIDE_ALGORITHMS:
            wides.update(wide_digests(algorithm, Path(tmp) / "wide"))
        stdouts = stdout_digests(Path(tmp) / "stdout")
        with mock.patch.object(som, "DISTANCE_BLOCK", 1):
            forced = digests("kdisj", Path(tmp) / "gram")
        grams = {k: v for k, v in forced.items() if k.endswith((".model.json", ".result.json"))}
    for title, digests_by_name in (
        ("GOLDEN", table), ("DENDROGRAM_GOLDEN", dendrograms), ("DATA_GOLDEN", data),
        ("RENDER_GOLDEN", renders), ("RENDER_OPTION_GOLDEN", options),
        ("CSV_GOLDEN", csvs), ("WIDE_GOLDEN", wides), ("GRAM_GOLDEN", grams),
        ("STDOUT_GOLDEN", stdouts),
    ):
        print(f"{title} = {{")
        for name, digest in digests_by_name.items():
            print(f'    "{name}": "{digest}",')
        print("}")

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
and the wife's pies the pie SVG.  A small fixed survey CSV pins the CSV
reader: ``ingest`` infers it, and again with a schema that bins one column
and leaves two out; ``pies --external`` crosses one of its columns with a
kmca-ind map trained on it.
A change that moves a digest on purpose re-issues the table and says why
in CHANGES.md.  To print the current digests as tables:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

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

GOLDEN = {
    "marriages.kmca.0.result.json": "c0b5cfd3c3408ef9eea568214d2502e108bba10df397fc6399e112cadac04f18",
    "marriages.kmca.0.model.json": "45d23eb2fae72e02d8229b30ff9615b91db8c3e8d5118f1abfe0c738d908c6f9",
    "marriages.kmca.0.macro.json": "f684fd56edaeff22630231a5d6c7a1582bb7b7b12f3726fb4d5fbd631c5aa912",
    "marriages.kmca.1.result.json": "b62f80ae33556dc6cb581d45b161511c932c305166412c4dca72d8efe9c09201",
    "marriages.kmca.1.model.json": "5497e17e9cb186e445a3e536fab6da8c478f01ba463528a6deb73d3506f739f9",
    "marriages.kmca.1.macro.json": "59797c11e9e2ae22165ffef7358d7068f9b31baa67617f5359c0ad0bc677d928",
    "marriages.kmca.2.result.json": "92298a88b62d62147756ccca2bee2da5e79267300fe5b432e6592658363df856",
    "marriages.kmca.2.model.json": "c7abe2cfdc09be489726895465ebf64752a8571c83387f73bd3f22fbfaf3d4d2",
    "marriages.kmca.2.macro.json": "c61fa91bd585c99fafb6574fcaf1ceb68fb0c8b9545b390c5f42d29115c5a123",
    "marriages.kmca.stability.json": "edbf37c195554ebc762db02a1b266df033e8acd0a06ec6f7ca6e4f0eb37a2005",
    "marriages.kmca-ind.0.result.json": "0cb93113046242ced8fb98a5c0c2be3cf2a79621c98ec8c6eaceb6931e19a2e3",
    "marriages.kmca-ind.0.model.json": "5a09c0999146e80549363eec6e077df2a330efd61c7f73b8941e5646342c2460",
    "marriages.kmca-ind.0.macro.json": "59cba41751181539ead05000c4a31d657d1ef9fb743cef68b42f8244c88c1081",
    "marriages.kmca-ind.0.deviations.json": "8caf570e727525bfbf8b78b560bb4202487254bbb29af492f658fd091d643a5e",
    "marriages.kmca-ind.1.result.json": "b4ef7811952de63d4ba02079847064f86e16e180c36cd73ee48e2850bd4bf391",
    "marriages.kmca-ind.1.model.json": "39498a32b3e54b52fbe2f699f04ffc271c3c313b081d297bece44cf170eef0cd",
    "marriages.kmca-ind.1.macro.json": "94758100fdd99e4467e83d0ed7e71790c83b7f1bcb79f1bef4ea810b4e38c660",
    "marriages.kmca-ind.1.deviations.json": "4978b6437e5b96faf5d51ac531ce9a6b373183db19787e24e2468290196bd384",
    "marriages.kmca-ind.2.result.json": "364797839bb8b062bc776bbe737ecac9391c201ebe91eb9760f92609e7ae3c67",
    "marriages.kmca-ind.2.model.json": "f31e12f12cdfa0e20482870c0ec8359ad327a030e5654fa00d8e9f0e4bb50556",
    "marriages.kmca-ind.2.macro.json": "339c39b382a6163972698584d23a91d807a002f683bece0770d9deaf94086f0a",
    "marriages.kmca-ind.2.deviations.json": "adfb73ccf12ee8cada45541de64501db0f1f979e24cb0cb7198ee26badfc3c03",
    "marriages.kmca-ind.stability.json": "b4dc271d0eb2d36280b08bfc4c39bf7758aaf5c99443fb63287010544919f503",
    "marriages.kdisj.0.result.json": "83f37602419db15f00294a8d1d1abb5158122d365466fcf5da8fb10c6524cc58",
    "marriages.kdisj.0.model.json": "baa3b00fff2ef5eaea754378e3bf45cdcedb2e4e0c67669761fffd1de8fae809",
    "marriages.kdisj.0.macro.json": "35d384107dd2cac0ef175a1ddd445207d2ef787394a2ae6af0dcf621f9105087",
    "marriages.kdisj.0.deviations.json": "89ef02346cb1b72ddd3f785289d4f43291a9ceaa11892b3e6fcf121266287fa2",
    "marriages.kdisj.1.result.json": "2220066d206e72635205c88996acecf13ca240a17d7d5db42babd399b1610a22",
    "marriages.kdisj.1.model.json": "01f615d48c2d9a50b90f9a9ef477107bd4b899d68b117ea64b207bc89095cfea",
    "marriages.kdisj.1.macro.json": "00599b0ba1a9cda2f48d899ce46c7a5f7bb7a68b50a619238875745725743fff",
    "marriages.kdisj.1.deviations.json": "30962128b5ef7e7c0f389548d95bfd2ed56ae51b5a90786e9ec8b4ddd7d8fd33",
    "marriages.kdisj.2.result.json": "e0956f1906d504348563964493f1160054a83655810b0985d3a6d80c6a64bb67",
    "marriages.kdisj.2.model.json": "7b33c1c37db48ebf94e5285524922ce90bcbfa9f41f7711dfe0d1fa94acd62c1",
    "marriages.kdisj.2.macro.json": "413a1bba6b14d3db52488b149dd62711ea20e7630331fbed68401706b69929fc",
    "marriages.kdisj.2.deviations.json": "acbc2273b16b624a3802e8a460985aff758c8eed4c600d77d7d5461f6295ec1b",
    "marriages.kdisj.stability.json": "13ad88223157a3e12147c7abccdc663294d60f77bcb415258b16f44aef0c17b5",
    "marriages.report.json": "66a9f08fefdcf9d66249434a426c26344f4d1901f73f30c227b32a4ceb772e78",
    "marriages.report.csv": "34ccd835e3274caea0f64329c9f711bc121b50f709244949b371d10d31d34230",
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

CSV_GOLDEN = {
    "survey.dataset.json": "05472d75e3120470421d39e14f06fadc9d4ffbd5b6fed46e79a9eeb54e361493",
    "survey-schema.dataset.json": "f91ced59b650638a5b48a6ab064e1d16dd934e03674030387597d310acc8b89a",
    "survey.kmca-ind.0.pies.color.json": "af8194a634a76f9e894999b3b6e4997580d366a7976eaf30b3786f01b5d6faea",
    "survey.kmca-ind.0.pies.color.svg": "1a07f3238af2514c7bf84089c25ddced0b672abd208189e324b7da327592d069",
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


def test_csv_ingest_and_external_pies_bytes_match_golden_digests(tmp_path):
    assert csv_digests(tmp_path) == CSV_GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for algorithm in ALGORITHMS:
            table.update(digests(algorithm, Path(tmp) / algorithm))
        table.update(report_digests(Path(tmp) / "report"))
        dendrograms = dendrogram_digests(Path(tmp) / "dendrogram")
        data = data_digests(Path(tmp) / "data")
        renders = render_digests(Path(tmp) / "render")
        csvs = csv_digests(Path(tmp) / "csv")
    for title, digests_by_name in (
        ("GOLDEN", table), ("DENDROGRAM_GOLDEN", dendrograms), ("DATA_GOLDEN", data),
        ("RENDER_GOLDEN", renders), ("CSV_GOLDEN", csvs),
    ):
        print(f"{title} = {{")
        for name, digest in digests_by_name.items():
            print(f'    "{name}": "{digest}",')
        print("}")

"""Every file `benchmarks/dump_outputs.py` writes must match its committed
sha256 digest, so a refactor that changes any CLI output byte fails here.

After an intended output change, regenerate the manifest with

    PYTHONPATH=src python3 benchmarks/dump_outputs.py DIR
    (cd DIR && find . -type f | sort | sed 's|^\\./||' | xargs sha256sum) \\
        > tests/golden/outputs.sha256
"""
import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "outputs.sha256"


def _load_dump():
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", ROOT / "benchmarks" / "dump_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dumped_outputs_match_manifest(tmp_path):
    _load_dump().main(tmp_path)
    want = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        want[name] = digest
    got = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file()
    }
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"{len(changed)} outputs differ, first: {changed[:5]}"

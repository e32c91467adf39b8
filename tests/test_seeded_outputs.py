"""The benchmark's seed-1 inputs give the same outputs, bit for bit.

perfbench/gen.py plans the inputs of each benchmark workload.  For the
two decide workloads, each planned document is written to a file and
run through `credalbox decide <file> --json` in process; the exit code
and the printed report of every document, in plan order, go into one
sha256.  For stats-tools, the Clopper-Pearson endpoints of its `cp`
specs go into another.  A change meant to leave every output alone
leaves these digests alone.  A change that moves an output on purpose
updates the digests here and records the old and new digests in
CHANGES.md.
"""

import hashlib
import json

import pytest

from credalbox import SampleCount, cli, clopper_pearson
from support import seeded_pool

DECIDE_DIGESTS = {
    "explore-wide": "13e81507f4dca222af1adf1dc2a916b24b798d82d171b079030ad09f336e66cc",
    "refclass-chain": "9ec50416123baa63bc95cc9594b31cb298aae8226d11f47c53813aa496b33210",
}
CP_DIGEST = "02e288e25d6861710b34b63afa334585ed6ec7553614afa8b314957367a5d8da"


@pytest.mark.parametrize("workload", sorted(DECIDE_DIGESTS))
def test_decide_reports(workload, tmp_path, capsys):
    digest = hashlib.sha256()
    for k, doc in enumerate(seeded_pool(workload)):
        path = tmp_path / f"doc-{k:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["decide", str(path), "--json"])
        digest.update(f"{code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == DECIDE_DIGESTS[workload]


def test_clopper_pearson_endpoints():
    digest = hashlib.sha256()
    specs = [op for op in seeded_pool("stats-tools") if op["kind"] == "cp"]
    assert len(specs) == 48
    for op in specs:
        iv = clopper_pearson(SampleCount(op["k"], op["n"]), op["c"])
        digest.update(f"{iv.lo!r} {iv.hi!r}\n".encode())
    assert digest.hexdigest() == CP_DIGEST

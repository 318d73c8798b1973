"""Golden outputs: the sha256 of every file one fixed pipeline writes.

One tiny seeded corpus goes through ``train-codebook``, a ``build-index``
for every mode x region strategy x ``--raw-regional``, a ``search`` of each
index with each pooling (a subset also re-ranked, one with a finite
``--sp-max-dist``, one build and search with ``--attention-min``),
``evaluate`` of every ranking and ``analyze-relevance``.  Each output's
sha256 must equal its row of ``golden_sha256.txt``.  Text outputs are
hashed without their provenance header (the ``#`` lines), which names
paths and the tool version.

A change that moves an output on purpose regenerates the table with
``PYTHONPATH=src python tests/regen_golden.py`` and says why.  OpenBLAS
picks its kernels at run time, so on another CPU a float32 product may
round differently: the certified nearest-neighbour labels stay exact, but
a score printed from a BLAS product may not.  The table's header records
the numpy and OpenBLAS versions and the OpenBLAS core it was made with,
and a mismatch reports them next to the current ones.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import os
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np

from ramk import cli
from ramk.index import POOL_AVG, POOL_MAX
from ramk.kernels import ALL_MODES

TABLE = Path(__file__).with_name("golden_sha256.txt")
STRATEGIES = ("whole", "detector:0.4", "rmac:2", "topk:2")
# Searches that are also re-ranked: the normalized detector:0.4 index of every mode, max pooling.
RERANKED = ("detector:0.4", False, POOL_MAX)
RERANK = ("--sp-depth", "4", "--sp-iters", "40")


def _run(*argv) -> None:
    code = cli.main([str(arg) for arg in argv])
    assert code == 0, f"ramk {' '.join(map(str, argv))} exited {code}"


def _digest(path: Path) -> str:
    """sha256 of a binary output whole, of a text output without its ``#`` header lines."""
    data = path.read_bytes()
    if path.suffix == ".txt":
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"#"))
    return hashlib.sha256(data).hexdigest()


def golden_outputs(root: Path) -> dict[str, str]:
    """Run the pipeline in the empty directory ``root``; each output's name and sha256.
    The ~300 commands share one argument parser: building it is half their time."""
    with mock.patch.object(cli, "_build_parser", functools.cache(cli._build_parser)):
        return _pipeline(root)


def _pipeline(root: Path) -> dict[str, str]:
    data, codebook = root / "data", root / "codebook.dtrc"
    manifest = data / "manifest.txt"
    _run("gen-synthetic", "--out", data, "--seed", "11", "--landmarks", "3", "--images-per-landmark", "3",
         "--planted", "8", "--clutter", "12", "--dim", "12")
    _run("train-codebook", "--manifest", manifest, "--c", "16", "--max-iters", "8", "--seed", "2",
         "--out", codebook)
    outputs = {"codebook": codebook}

    def search(name: str, index: Path, *flags) -> None:
        ranking, metrics = root / f"{len(outputs)}.txt", root / f"{len(outputs)}.metrics.txt"
        _run("search", "--index", index, "--queries", data / "queries.txt", "--manifest", manifest,
             *flags, "--out", ranking)
        _run("evaluate", "--results", ranking, "--manifest", manifest, "--out", metrics)
        outputs[f"ranking {name}"], outputs[f"metrics {name}"] = ranking, metrics

    for mode, strategy, raw in product(ALL_MODES, STRATEGIES, (False, True)):
        name = f"{mode} {strategy}" + (" raw" if raw else "")
        index = outputs[f"index {name}"] = root / f"{len(outputs)}.dtri"
        _run("build-index", "--manifest", manifest, "--codebook", codebook, "--mode", mode,
             "--regions", strategy, *(["--raw-regional"] if raw else []), "--out", index)
        for pooling in (POOL_MAX, POOL_AVG):
            search(f"{name} {pooling}", index, "--pooling", pooling)
            if (strategy, raw, pooling) == RERANKED:
                search(f"{name} {pooling} sp", index, "--pooling", pooling, "--sp", *RERANK)
    index = outputs["index asmk-star detector:0.4 attention"] = root / "attention.dtri"
    _run("build-index", "--manifest", manifest, "--codebook", codebook, "--mode", "asmk-star",
         "--regions", "detector:0.4", "--attention-min", "100", "--out", index)
    search("asmk-star detector:0.4 attention max sp-max-dist", index, "--attention-min", "100", "--sp",
           *RERANK, "--sp-max-dist", "2")

    pairs = root / "pairs.txt"
    pairs.write_text("L000_I000 L000_I001\nL000_I000 L001_I000\nL001_I002 L001_I001\nL002_I000 L002_I002\n")
    relevance = outputs["relevance"] = root / "relevance.txt"
    _run("analyze-relevance", "--manifest", manifest, "--pairs", pairs, "--sp-iters", "40", "--out", relevance)
    return {name: _digest(path) for name, path in outputs.items()}


# OpenBLAS's configuration string, which names the core it picked at run time.
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")


def environment() -> list[str]:
    """The numpy version and the OpenBLAS build and run-time core, as table header lines."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    config = f"{blas['name']} {blas['version']}"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        symbol = next((getattr(lib, name) for name in _BLAS_CONFIG if hasattr(lib, name)), None)
        if symbol is not None:
            symbol.restype = ctypes.c_char_p
            config = symbol().decode()
    return [f"# numpy {np.__version__}", f"# blas {' '.join(config.split())}"]


def read_table() -> tuple[list[str], dict[str, str]]:
    header, rows = [], {}
    for line in TABLE.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            digest, name = line.split("  ", 1)
            rows[name] = digest
    return header, rows


def format_table(digests: dict[str, str]) -> str:
    return "\n".join(environment() + [f"{digest}  {name}" for name, digest in digests.items()]) + "\n"


def test_outputs_match_the_golden_table(tmp_path):
    header, expected = read_table()
    got = golden_outputs(tmp_path)
    names = list(got) + [name for name in expected if name not in got]
    changed = [name for name in names if expected.get(name) != got.get(name)]
    assert not changed, (
        f"{len(changed)} of {len(got)} outputs differ from {TABLE.name}:\n  " + "\n  ".join(changed)
        + "\ntable made with:\n  " + "\n  ".join(header)
        + "\nthis run:\n  " + "\n  ".join(environment())
    )

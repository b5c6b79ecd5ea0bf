"""Peak memory of the streamed artifacts and the blocked shell draws.

tracemalloc sees numpy's buffers as well as Python objects. `CHUNK_ROWS` is
patched small, so each test writes many chunks and draws many blocks quickly.
"""

import tracemalloc

import numpy as np

import simlabel.dataset
from conftest import make_sample, random_instance
from simlabel.dataset import atomic_write_chunks
from simlabel.kernel import RangeTable
from simlabel.matcher import SimilarityParams, calibrate, contributors_to_json_chunks, match_batch
from simlabel.model import LinearModel
from simlabel.probe import probability_grid, score_shell, shell_to_csv_text, similarity_shell

NAMES = [f"f{j}" for j in range(12)]
RANGES = RangeTable(ranges=dict.fromkeys(NAMES, 4.0), bounds=dict.fromkeys(NAMES, (-2.0, 2.0)))
BASE = make_sample("base", {name: 0.25 * j - 1.0 for j, name in enumerate(NAMES)})


def peak_bytes(work) -> int:
    """The most memory traced at once while work() runs, above what was traced when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_shell_csv_and_sidecar_are_written_in_less_memory_than_their_size(tmp_path, monkeypatch):
    monkeypatch.setattr(simlabel.dataset, "CHUNK_ROWS", 64)
    model = LinearModel(weights=dict.fromkeys(NAMES, 0.5), intercept=0.0, l1=0.0, l2=0.0,
                        feature_means=dict.fromkeys(NAMES, 0.0), feature_scales=dict.fromkeys(NAMES, 1.0))
    shell = score_shell(model, similarity_shell(BASE, NAMES[:3], RANGES, d=0.9, n=4000, seed=3))
    grid = probability_grid(model, BASE, "f0", "f1", (-2.0, 2.0, 120), (-2.0, 2.0, 120))
    _, labeled, unlabeled, ranges = random_instance(np.random.default_rng(5), 30, 3000)
    matches = match_batch(unlabeled, labeled, ranges, SimilarityParams(d=0.3, c=0.2))
    # the files the CLI writes, through the calls it makes
    for path, chunks in ((tmp_path / "shell.csv", lambda: shell_to_csv_text(shell, NAMES)),
                         (tmp_path / "contributors.json", lambda: contributors_to_json_chunks(matches)),
                         (tmp_path / "grid.csv", grid.to_csv_text)):
        peak = peak_bytes(lambda: atomic_write_chunks(path, chunks()))
        size = path.stat().st_size
        assert size > 300_000, path.name  # dozens of chunks, so a whole copy of the file would show
        assert peak < size, path.name


def test_shell_draws_peak_with_a_block_not_with_the_shell(monkeypatch):
    monkeypatch.setattr(simlabel.dataset, "CHUNK_ROWS", 512)
    peaks = [peak_bytes(lambda: similarity_shell(BASE, NAMES[:1], RANGES, d=0.9, n=blocks * 512, seed=7))
             for blocks in (1, 16)]
    # the (n, 1) values and (n,) similarities grow 16-fold; a block's temporaries do not
    assert peaks[1] < 4 * peaks[0], peaks


def test_calibrate_holds_the_labeled_pairs_in_one_array():
    _, labeled, unlabeled, ranges = random_instance(np.random.default_rng(9), 600, 10)
    pairs_bytes = 8 * len(labeled) * (len(labeled) - 1) // 2
    peak = peak_bytes(lambda: calibrate(labeled, unlabeled, ranges))
    # the pairs are filled into one array and sorted in place; a list of pieces or a sorted copy doubles them
    assert peak < 1.5 * pairs_bytes, peak / pairs_bytes

"""Golden traces: the sha256 of trace.csv for every variant on two small
problems. A change that keeps the numbers keeps these hashes; a change
that means to alter them updates the table and says why in CHANGES.md.

The shapes are small enough (dim <= 60, 30 iterations) that the hashes do
not depend on the BLAS thread count. The quadratic uses an odd number of
sketch rows and the logistic regression an even number, so both median
branches of the point query are pinned.
"""

import dataclasses
import hashlib

import pytest

from sketchgrad.simulation import ProblemSpec, RunConfig, run, write_trace

BASE = {
    "quadratic": RunConfig(
        problem=ProblemSpec(kind="quadratic", dim=60, condition_number=10.0, noise_std=1.0),
        alpha=0.05,
        horizon=30,
        n_workers=4,
        k=4,
        p_factor=4,
        rows=5,
        cols=20,
        batch_size=4,
        seed=3,
    ),
    "logreg": RunConfig(
        problem=ProblemSpec(kind="logreg", dim=60, n_samples=240, n_classes=6),
        alpha=0.05,
        horizon=30,
        n_workers=5,
        k=5,
        p_factor=3,
        rows=4,
        cols=16,
        batch_size=8,
        partition_mode="label_skew",
        skew_param=0.2,
        seed=11,
    ),
}

GOLDEN = {
    ("logreg", "pa"): "99c9af2b11fc0c7043c0bcecf43b9884ce9eacd49bb723f17b45243fd128cc96",
    ("logreg", "ga"): "4921f2b106983284d78664f016199dc609f56f093171d0b38d343f16dc8ca672",
    ("logreg", "sketched_sgd"): "08d380f6a9b9a11341a518580510f74d684245cb78e9fc3f4d32a9e8a0a2b8fe",
    ("logreg", "dense_amsgrad"): "51fcaba05402a1004e43a10d9907c8069bc11259eb0f7c73f8974c10a938537b",
    ("logreg", "dense_sgd"): "d08c22bb237f22ff1195e522f9378b67681ae99bb85199d1c4a75e186d0d2f02",
    ("quadratic", "pa"): "7776cacbda94c8ab903c3deffc2954ffe98edcc91ef2dc8803eaa1540ed40dc1",
    ("quadratic", "ga"): "42a0d883a4b5065a46e31adc7f5c2040c26e27a1b670334db71a803c917a932f",
    ("quadratic", "sketched_sgd"): "eb6b4173928e5f18eb22ad8fedeb345bbc54f07bd674df09f8ca9f35aef4678f",
    ("quadratic", "dense_amsgrad"): "d6aee42fd253aeeab6e9d88b820ad134dcdda2fc324dac5eddfa67dcbcddf766",
    ("quadratic", "dense_sgd"): "ab61f5f23692b36d70118f24496638c54a0935b28b450b26402d1a9d9bb9615f",
}


@pytest.mark.parametrize("problem,variant", sorted(GOLDEN))
def test_trace_matches_golden_hash(tmp_path, problem, variant):
    path = tmp_path / "trace.csv"
    config = dataclasses.replace(BASE[problem], variant=variant)
    write_trace(run(config)[1], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(problem, variant)]

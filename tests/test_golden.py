"""Golden traces: the sha256 of trace.csv for every variant on two small
problems and on two at the paper's 60k scale. A change that keeps the
numbers keeps these hashes; a change that means to alter them updates the
table and says why in CHANGES.md.

The small shapes (dim <= 60, 30 iterations) give hashes that do not depend
on the BLAS thread count. The quadratic uses an odd number of sketch rows
and the logistic regression an even number, so both median branches of the
point query are pinned. The 60k shapes reach what the small ones never do:
all three split logistic regression products and the noise the helper
thread draws ahead. One more 60k entry runs logistic regression's dense
AMSGrad for 8 iterations, not 3: at iterations 7 and 8 thousands of its
full-batch probabilities are subnormal, and the run's products take
them lifted, against the features its problem stores lowered
(simulation.LIFT). One more runs dense SGD at batch_size 8: its workers'
logits products (8 x 6000 x 10 multiply-adds each) take OpenBLAS's
small-matrix kernel, where a row of logits has other bits than in the
full-batch product, so they must not reuse evaluate's probabilities
(simulation.GEMM_MIN_MACS); its hash was recorded before any reuse
existed. Their hashes hold at one BLAS thread, so they are computed in a
subprocess with OPENBLAS_NUM_THREADS=1.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from sketchgrad import simulation
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

# at alpha 5 dense AMSGrad drives the logits far apart: 3.8 % of the final
# full-batch probabilities are subnormal, where rounding is most fragile
BASE["logreg_subnormal"] = dataclasses.replace(BASE["logreg"], alpha=5.0)

GOLDEN = {
    ("logreg", "pa"): "99c9af2b11fc0c7043c0bcecf43b9884ce9eacd49bb723f17b45243fd128cc96",
    ("logreg", "ga"): "4921f2b106983284d78664f016199dc609f56f093171d0b38d343f16dc8ca672",
    ("logreg", "sketched_sgd"): "08d380f6a9b9a11341a518580510f74d684245cb78e9fc3f4d32a9e8a0a2b8fe",
    ("logreg", "dense_amsgrad"): "51fcaba05402a1004e43a10d9907c8069bc11259eb0f7c73f8974c10a938537b",
    ("logreg", "dense_sgd"): "d08c22bb237f22ff1195e522f9378b67681ae99bb85199d1c4a75e186d0d2f02",
    ("logreg_subnormal", "dense_amsgrad"): "e48aa6ef256d68dd8083404f0a483c6d992fc689f471ffda250da0f267cd612c",
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


def test_subnormal_trace_keeps_its_hash_on_the_lifted_route(monkeypatch, tmp_path):
    # with the size gate at 0, the run's problem stores its features lowered
    # and every product of dense AMSGrad at alpha 5 runs lifted, its
    # subnormal probabilities among them
    scales = []
    gradients = simulation.logreg_gradients

    def recording(features, labels, x, batches, out, pool=None, residuals=None, scale=1.0):
        scales.append(scale)
        return gradients(features, labels, x, batches, out, pool, residuals, scale)

    monkeypatch.setattr(simulation, "SPLIT_BYTES", 0)
    monkeypatch.setattr(simulation, "logreg_gradients", recording)
    test_trace_matches_golden_hash(tmp_path, "logreg_subnormal", "dense_amsgrad")
    assert scales == [simulation.LIFT] * BASE["logreg_subnormal"].horizon


# the `small` preset, 8 workers, a few iterations
PAPER_SCALE_CODE = """
import dataclasses, hashlib, json, os, sys, tempfile
from sketchgrad.simulation import ProblemSpec, RunConfig, run, write_trace

base = dict(n_workers=8, rows=5, cols=400, k=500, p_factor=4)
configs = {
    "quadratic": RunConfig(problem=ProblemSpec(kind="quadratic", dim=60000, noise_std=1.0),
                           horizon=4, **base),
    "logreg": RunConfig(problem=ProblemSpec(kind="logreg", dim=60000, n_samples=2000,
                                            n_classes=10), horizon=3, **base),
}
runs = {f"{problem} {variant}": dataclasses.replace(config, variant=variant)
        for problem, config in configs.items() for variant in sys.argv[1:]}
# by iteration 7 dense AMSGrad drives thousands of the full-batch
# probabilities below the smallest normal float64
runs["logreg dense_amsgrad horizon 8"] = dataclasses.replace(
    configs["logreg"], variant="dense_amsgrad", horizon=8)
# a worker's logits product under OpenBLAS's small-matrix cutoff
runs["logreg dense_sgd batch 8"] = dataclasses.replace(
    configs["logreg"], variant="dense_sgd", batch_size=8)
hashes = {}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trace.csv")
    for name, config in runs.items():
        write_trace(run(config)[1], path)
        with open(path, "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(hashes))
"""

PAPER_SCALE_GOLDEN = {
    "quadratic dense_amsgrad": "1098310d19b0052835a7e836a8f31395103ae5cb686085c53f4aa29639755c83",
    "quadratic dense_sgd": "d197f16490c2e9eacca58a2c357176776a1d7b46cefb1a54daf4c90557fd14fd",
    "quadratic ga": "d330602d947a524d36275f8e3d875f52a668095293d1efe145e70e034ed3afd8",
    "quadratic pa": "066588f45f9bd204f816321ea409ab2a1ca8775d26e77bd5a6901dd231d6965a",
    "quadratic sketched_sgd": "e169ebe668ec125c770b7c88da3aa10653cc35aebadf914002a65af74f6df5c4",
    "logreg dense_amsgrad": "6aa6667415ecfb46581746311dff6a8708ccf7de79dd35ae153bc31f380c90ea",
    "logreg dense_amsgrad horizon 8": "723ecdf8596aab9a760a93430ac26cadff001f00facfdd086ccec093aa6c7c50",
    "logreg dense_sgd": "71bf2bb66be8c855cb66dae2d57f4e619c63bd5006ce661a454b7e36e54da4e7",
    "logreg dense_sgd batch 8": "10edfbdf86deeb7eb252f52a72ac115cb5b252fb0d2aef63d05ccec779be1be5",
    "logreg ga": "99d1e36526d10b0639287b7e4318a4bd303495718081ec425811e416b4f96759",
    "logreg pa": "ab6c1aaa63e63c8b4690a629198ce897a2ec7d2e27305386d309a3cbfc055f0f",
    "logreg sketched_sgd": "5efced20522f54f1f4620a5eac4d5c4d43a21613da80a478ec2990f1861e49b0",
}


def test_paper_scale_traces_match_golden_hashes_at_one_blas_thread():
    import sketchgrad

    src = os.path.dirname(os.path.dirname(os.path.abspath(sketchgrad.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    variants = sorted({variant for _, variant in GOLDEN})
    done = subprocess.run([sys.executable, "-c", PAPER_SCALE_CODE, *variants], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == PAPER_SCALE_GOLDEN

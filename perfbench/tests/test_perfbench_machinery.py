"""Tests for the benchmark's own machinery: self time, percentiles, wrappers.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import inspect
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import softdss  # noqa: E402
from measure import percentile  # noqa: E402
from spans import LAYERS, Tracer, install, self_times  # noqa: E402


def test_self_time_nested_and_back_to_back_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),      # child of root
        ("b", 3.0, 6.0, 0),      # back-to-back with a
        ("g", 1.5, 2.5, 1),      # nested inside a, not a direct child of root
        ("a", 7.0, 8.0, 0),      # a second span of the same name
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 2.0 - 3.0 - 1.0)
    assert got["a"] == pytest.approx((2.0 - 1.0) + 1.0)
    assert got["b"] == pytest.approx(3.0)
    assert got["g"] == pytest.approx(1.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        ("p", 0.0, 4.0, -1),
        ("c", 1.0, 3.0, 0),
        ("c", 2.0, 5.0, 0),  # overlaps the first child and outlives the parent
    ]
    assert self_times(spans)["p"] == pytest.approx(1.0)


@pytest.mark.parametrize("n, q", [(19, 50), (100, 99), (1009, 99.9)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(n, q):
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(n), q)


def test_percentile_accepts_exactly_ten_beyond():
    assert percentile(range(20), 50) == 9
    assert percentile(range(1000), 99) == 989


def _softdss_attributes():
    """Every (owner, name) -> object binding in softdss modules and their classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "softdss" or mod_name.startswith("softdss.")):
            continue
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("softdss"):
                for cattr, cvalue in vars(value).items():
                    out[(f"{value.__module__}.{value.__qualname__}", cattr)] = cvalue
    return out


def test_install_then_remove_restores_every_softdss_attribute():
    before = _softdss_attributes()
    tracer = Tracer()
    patches = install(tracer)
    try:
        # the wrapper sits where each caller looks the function up
        assert softdss.anfis.lse_batch is not before[("softdss.anfis", "lse_batch")]
        assert softdss.linalg.lse_batch is softdss.anfis.lse_batch
        assert softdss.modelio.forward_batch is softdss.anfis.forward_batch
        assert (softdss.fuzzy.GaussianMF.__dict__["gradient"]
                is not before[("softdss.fuzzy.GaussianMF", "gradient")])
        assert len(patches.replaced) >= len(LAYERS)
    finally:
        patches.remove()
    after = _softdss_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_wrappers_see_internal_calls_with_their_parents():
    tracer = Tracer()
    patches = install(tracer)
    try:
        data = softdss.tace.normalize(softdss.tace.generate(3, 60))
        tree = softdss.cart.grow(data.x, data.y, min_leaf=5)
        softdss.cart.prune_sequence(tree, data.x, data.y, folds=2, seed=0, min_leaf=5)
    finally:
        patches.remove()
    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert names.count("cart.grow") == 3  # the tree plus one per fold
    prune_idx = names.index("cart.prune_sequence")
    inner = [s for s in spans if s[0] == "cart.grow" and s[3] == prune_idx]
    assert len(inner) == 2
    assert tracer.ladder_len and tracer.grow_leaves

from collections import Counter
from types import SimpleNamespace

import pytest

from ctsr import grid
from ctsr.model import ModelConfig
from ctsr.pipeline import gen_synthetic
from ctsr.tensor import NonFiniteError

BASE = ModelConfig(feature_depth=1, conv_layers=1, filters=(2, 2, 1), kernel=3, scale=2,
                   epochs=5, batch_size=4, patch_hw=4)


@pytest.fixture(scope="module")
def volumes():
    vols = [(f"scan{i}", gen_synthetic("spheres", (16, 16, 16), seed=i)) for i in range(3)]
    return vols[:2], vols[2:]


def _fake_train(calls):
    """A stand-in for ``model.train`` that records each config it trains
    and reports a PSNR made of its n and k."""

    def train(cfg, train_pairs, val_pairs):
        calls.append(cfg)
        assert train_pairs and val_pairs
        return None, SimpleNamespace(val_psnrs=[10.0 * cfg.feature_depth + cfg.kernel])

    return train


def _key(n, k):
    return f"n={n};l=1;f=(2,2,1);k={k};r=2"


def test_journaled_results_are_ranked_with_fresh_ones_and_not_retrained(volumes,
                                                                        monkeypatch):
    calls = []
    monkeypatch.setattr(grid, "train", _fake_train(calls))
    space = grid.GridSpace([1, 3], [1], [(2, 2, 1)], [1, 3])
    done = {
        _key(1, 1): (40.0, ""),
        _key(3, 3): (None, "NonFiniteError: diverged"),
        "n=9;l=1;f=(2,2,1);k=1;r=2": (99.0, ""),  # another sweep's, not in this space
    }
    fresh = []
    ranked = grid.grid_search(space, BASE, *volumes, epoch_budget=2, done=done,
                              on_result=fresh.append)
    assert sorted(cfg.key() for cfg in calls) == [_key(1, 3), _key(3, 1)]
    assert {cfg.epochs for cfg in calls} == {2}
    assert sorted(r.config.key() for r in fresh) == [_key(1, 3), _key(3, 1)]
    assert [(r.config.key(), r.val_psnr, r.error) for r in ranked] == [
        (_key(1, 1), 40.0, None),
        (_key(3, 1), 31.0, None),
        (_key(1, 3), 13.0, None),
        (_key(3, 3), None, "NonFiniteError: diverged"),
    ]


def test_pair_cache_builds_pairs_once_per_volume_and_window_depth(volumes, monkeypatch):
    calls = []
    built = Counter()
    real_make_pairs = grid.make_pairs

    def counting_make_pairs(vol, cfg, sid):
        built[sid, cfg.feature_depth] += 1
        return real_make_pairs(vol, cfg, sid)

    monkeypatch.setattr(grid, "train", _fake_train(calls))
    monkeypatch.setattr(grid, "make_pairs", counting_make_pairs)
    space = grid.GridSpace([1, 3], [1], [(2, 2, 1), (3, 3, 1)], [1, 3, 5])
    grid.grid_search(space, BASE, *volumes, epoch_budget=1)
    assert len(calls) == 12
    assert built == {(sid, n): 1 for sid in ("scan0", "scan1", "scan2") for n in (1, 3)}


def test_a_value_error_fails_only_its_combination(volumes, monkeypatch):
    calls = []
    fake = _fake_train(calls)

    def train(cfg, train_pairs, val_pairs):
        if cfg.kernel == 3:
            raise NonFiniteError("diverged")
        return fake(cfg, train_pairs, val_pairs)

    monkeypatch.setattr(grid, "train", train)
    # a 16-slice volume has no 17-slice window: make_pairs raises a ValueError
    space = grid.GridSpace([1, 17], [1], [(2, 2, 1)], [1, 3])
    ranked = grid.grid_search(space, BASE, *volumes, epoch_budget=1)
    assert [(r.config.key(), r.error) for r in ranked] == [
        (_key(1, 1), None),
        # failures by key, and "n=17;" sorts before "n=1;"
        (_key(17, 1), "ValueError: volume depth 16 < window depth 17"),
        (_key(17, 3), "ValueError: volume depth 16 < window depth 17"),
        (_key(1, 3), "NonFiniteError: diverged"),
    ]
    assert [cfg.key() for cfg in calls] == [_key(1, 1)]


def test_a_value_error_from_train_aborts_the_sweep_unrecorded(volumes, monkeypatch):
    # only pairing's ValueError fails a combination; from train it is a defect
    def train(cfg, train_pairs, val_pairs):
        raise ValueError("a defect")

    monkeypatch.setattr(grid, "train", train)
    fresh = []
    space = grid.GridSpace([1], [1], [(2, 2, 1)], [1, 3])
    with pytest.raises(ValueError, match="a defect"):
        grid.grid_search(space, BASE, *volumes, epoch_budget=1, on_result=fresh.append)
    assert fresh == []


def test_rank_results_orders_inf_first_ties_by_key_and_failures_last():
    def result(k, psnr, error=None):
        return grid.GridResult(ModelConfig(kernel=k), psnr, error)

    ranked = grid.rank_results([
        result(9, None, "ValueError: b"),
        result(7, 20.0),
        result(5, 0.0),
        result(3, None, "NonFiniteError: a"),
        result(11, float("inf")),
        result(1, 20.0),
        result(13, 25.5),
    ])
    assert [(r.config.kernel, r.val_psnr) for r in ranked] == [
        (11, float("inf")), (13, 25.5), (1, 20.0), (7, 20.0), (5, 0.0), (3, None), (9, None),
    ]

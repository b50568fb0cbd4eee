"""Fuzzed inputs for every file reader of the CLI.

Each reader gets a valid file with a few byte flips, insertions and
truncations applied.  It must either load or raise a ValueError subclass,
and the CLI command that reads the file must then exit with a documented
code, 2 (config) or 3 (data) when the reader failed, never with a
traceback.  A checkpoint that loads is not run: its config may ask for any
scale or depth.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctsr.cli import JOURNAL_HEADER, _csv_text, _journal_settings, _read_journal, main
from ctsr.config import load_run_config
from ctsr.model import ModelConfig, build_model, deserialize_params, serialize_params
from ctsr.pipeline import gen_synthetic
from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import Volume, deserialize_volume, save_volume, serialize_volume

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def mutated(draw, base: bytes):
    """``base`` after one to three byte flips, insertions or truncations;
    half the edit positions fall in the first 64 bytes, where the headers
    are."""
    buf = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "truncate"]))
        end = len(buf) if kind == "insert" else len(buf) - 1
        if end < 0:
            continue
        at = draw(st.one_of(st.integers(0, min(end, 63)), st.integers(0, end)))
        if kind == "flip":
            buf[at] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            buf[at:at] = draw(st.binary(min_size=1, max_size=8))
        else:
            del buf[at:]
    return bytes(buf)


def _loads(reader, *args, **kwargs) -> bool:
    """Whether ``reader`` loads; a failure must be a ValueError subclass."""
    try:
        reader(*args, **kwargs)
    except ValueError:
        return False
    return True


def _volume(dims, seed) -> Volume:
    return Volume(Tensor(uniform_init(list(dims), 0.0, 1.0, Rng(seed))))


def _exit_code(argv, capsys) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0 or err.startswith("error: ")
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid volume, checkpoint, run config and grid journal, and the HR
    volumes the grid config trains on.  Each test writes in a directory of
    its own, which holds no .svol file at its top level."""
    d = tmp_path_factory.mktemp("fuzz")
    for sub in ("volume", "checkpoint", "config", "grid", "hr"):
        (d / sub).mkdir()
    hr = d / "hr"
    for i in range(4):
        save_volume(gen_synthetic("spheres", (16, 16, 16), seed=i), hr / f"scan{i}.svol")
    cfg = ModelConfig(feature_depth=3, conv_layers=1, filters=(2, 2, 1), kernel=3, scale=2,
                      epochs=1, batch_size=4, patch_hw=6)
    options = (
        f"feature_depth = 3\nconv_layers = 1\nfilters = 2,2,1\nkernel = 3\nscale = 2\n"
        f"epochs = 1\nbatch_size = 4\npatch_hw = 6\nlr = 1e-3\nseed = 0\n"
    )
    grid_cfg = d / "grid" / "grid.cfg"
    grid_cfg.write_text(
        f"data_dir = {hr}\nout_dir = {d / 'grid' / 'run'}\n{options}grid_epochs = 1\n"
    )
    journal = _csv_text([
        JOURNAL_HEADER,
        [cfg.key(), _journal_settings(cfg, 1), 12.5, ""],
        ["n=5;l=1;f=(2,2,1);k=3;r=2", _journal_settings(cfg, 1), "", "RuntimeError: a, b"],
    ]).encode()
    return {
        "dir": d,
        "hr": hr,
        "volume": serialize_volume(_volume((3, 12, 12), 9)),
        "checkpoint": serialize_params(build_model(cfg, Rng(1))),
        # a train config whose data directory does not exist, and none of
        # whose parents holds a volume, so that one that loads fails fast
        # with a data error instead of training
        "config": f"data_dir = {d / 'config' / 'none'}\nout_dir = {d / 'run'}\n{options}".encode(),
        "grid_cfg": grid_cfg,
        "settings": _journal_settings(cfg, 1),
        "journal": journal,
    }


@FUZZ
@given(data=st.data())
def test_volume_reader(files, data, capsys):
    d = files["dir"] / "volume"
    buf = data.draw(mutated(files["volume"]))
    (d / "fuzz.svol").write_bytes(buf)
    (d / "ref.svol").write_bytes(files["volume"])
    loads = _loads(deserialize_volume, buf)
    code = _exit_code(
        ["evaluate", "--hr", str(d / "ref.svol"), "--method", f"m={d / 'fuzz.svol'}",
         "--out", str(d / "report")],
        capsys,
    )
    assert code in ((0, 3) if loads else (3,))


@FUZZ
@given(data=st.data())
def test_checkpoint_reader(files, data, capsys):
    d = files["dir"] / "checkpoint"
    buf = data.draw(mutated(files["checkpoint"]))
    (d / "fuzz.ckpt").write_bytes(buf)
    if not _loads(deserialize_params, buf):
        save_volume(_volume((3, 6, 6), 2), d / "lr.svol")
        argv = ["infer", str(d / "fuzz.ckpt"), str(d / "lr.svol"), "--out", str(d / "sr.svol")]
        assert _exit_code(argv, capsys) == 3


@FUZZ
@given(data=st.data(), grid=st.booleans())
def test_config_reader(files, data, grid, capsys):
    path = files["dir"] / "config" / "fuzz.cfg"
    path.write_bytes(data.draw(mutated(files["config"])))
    loads = _loads(load_run_config, path, grid=grid)
    code = _exit_code(["gridsearch" if grid else "train", "--config", str(path)], capsys)
    # a config that loads names a data directory that does not exist
    assert code == (3 if loads else 2)


@settings(FUZZ, max_examples=25)
@given(data=st.data())
def test_journal_reader(files, data, capsys):
    path = files["dir"] / "grid" / "run" / "gridsearch_journal.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data.draw(mutated(files["journal"])))
    loads = _loads(_read_journal, path, files["settings"])
    code = _exit_code(["gridsearch", "--config", str(files["grid_cfg"])], capsys)
    assert code in ((0,) if loads else (3,))

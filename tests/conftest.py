"""Session set-up shared by every test module.

The acceptance module runs last.  It trains and evaluates models for
minutes, while every other module takes seconds; run first, the fast
modules report even when a run is cut short.  The order within each module
is kept.

The acceptance checkpoints come from a 500-episode training run.  It starts
in a spawned process as soon as collection ends, so it overlaps the rest of
the suite, and the `checkpoints` fixture waits for it.  It starts only when
a collected test uses that fixture and ACCSIM_ACCEPTANCE_CACHE does not
already hold both checkpoints; with the cache set, the run trains into it.
"""

import multiprocessing
import os
import shutil
import tempfile
import traceback
from pathlib import Path

import pytest

from accsim.harness import train
from accsim.scenario import load_builtin

CHECKPOINT_FILES = ("acc_agent.ckpt", "ttc_agent.ckpt")
TRAIN_TIMEOUT_S = 3600
_training: dict = {}  # "out", and "process" and "scratch" once started


def _train_checkpoints(out: str, error_log: str) -> None:
    """The acceptance training run; on failure its traceback goes to
    `error_log` and the process exits with code 1."""
    try:
        train(load_builtin("onramp"), system="saint", episodes=500, seed=0,
              out_dir=out, checkpoint_every=500)
    except BaseException:
        Path(error_log).write_text(traceback.format_exc())
        raise SystemExit(1)


def _start_training() -> None:
    """Point `_training` at the checkpoint directory and, unless the cache
    already holds both checkpoints, start training into it."""
    cache = os.environ.get("ACCSIM_ACCEPTANCE_CACHE")
    if cache and all((Path(cache) / name).exists()
                     for name in CHECKPOINT_FILES):
        _training["out"] = Path(cache)
        return
    scratch = Path(tempfile.mkdtemp(prefix="accsim-acceptance-"))
    out = Path(cache) if cache else scratch / "saint"
    out.mkdir(parents=True, exist_ok=True)
    process = multiprocessing.get_context("spawn").Process(
        target=_train_checkpoints,
        args=(str(out), str(scratch / "train_error.txt")), daemon=True)
    process.start()
    _training.update(out=out, process=process, scratch=scratch)


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def pytest_collection_finish(session):
    if any("checkpoints" in getattr(item, "fixturenames", ())
           for item in session.items):
        _start_training()


def pytest_sessionfinish(session):
    process = _training.get("process")
    if process is not None:
        if process.is_alive():
            process.terminate()
        process.join()
    if "scratch" in _training:
        shutil.rmtree(_training["scratch"], ignore_errors=True)


@pytest.fixture(scope="session")
def checkpoints():
    """Trained adaptive-stack checkpoints on the on-ramp scenario."""
    process = _training.get("process")
    if process is not None:
        process.join(TRAIN_TIMEOUT_S)
        if process.is_alive():
            process.terminate()
            process.join()
            pytest.fail(f"acceptance training did not finish within "
                        f"{TRAIN_TIMEOUT_S} s", pytrace=False)
        if process.exitcode != 0:
            log = _training["scratch"] / "train_error.txt"
            detail = (log.read_text() if log.exists()
                      else "it left no traceback")
            pytest.fail(f"acceptance training exited with code "
                        f"{process.exitcode}:\n{detail}", pytrace=False)
    return _training["out"]

"""repro.train — run orchestration for the training lifecycle.

* :mod:`repro.train.spec`   — :class:`TrainSpec`, the JSON-round-trip run
  manifest (scale + dataset ref + model knobs + phases + cadences).
* :mod:`repro.train.loop`   — the epoch/step engine
  (:class:`TrainLoop`) and its batch sources; ``Pix2PixTrainer``
  delegates here.
* :mod:`repro.train.runner` — :class:`Runner`: run directories, exact
  resume, eval hooks, checkpoint publishing.
* :mod:`repro.train.checkpoint` — full train-state capture (weights +
  Adam moments + BN stats + rng streams + cursor).
* :mod:`repro.train.sweep`  — fan specs across worker processes with
  deterministic per-run seeds.
* :mod:`repro.train.status` — stdlib-only run-directory progress
  reading (``repro train status`` imports nothing numpy-heavy).

Heavy submodules load lazily: ``import repro.train.status`` (or the CLI
status command) pulls in no numpy.
"""

from __future__ import annotations

_LAZY = {
    "TrainSpec": ("repro.train.spec", "TrainSpec"),
    "describe_scale": ("repro.train.spec", "describe_scale"),
    "FinetuneSpec": ("repro.train.spec", "FinetuneSpec"),
    "EvalSpec": ("repro.train.spec", "EvalSpec"),
    "TrainLoop": ("repro.train.loop", "TrainLoop"),
    "TrainHistory": ("repro.train.loop", "TrainHistory"),
    "BatchSource": ("repro.train.loop", "BatchSource"),
    "LoaderSource": ("repro.train.loop", "LoaderSource"),
    "ShuffledDatasetSource": ("repro.train.loop", "ShuffledDatasetSource"),
    "StopTraining": ("repro.train.loop", "StopTraining"),
    "Runner": ("repro.train.runner", "Runner"),
    "RunResult": ("repro.train.runner", "RunResult"),
    "NonFiniteError": ("repro.train.runner", "NonFiniteError"),
    "TrainCursor": ("repro.train.checkpoint", "TrainCursor"),
    "save_train_state": ("repro.train.checkpoint", "save_train_state"),
    "load_train_state": ("repro.train.checkpoint", "load_train_state"),
    "run_sweep": ("repro.train.sweep", "run_sweep"),
    "prepare_specs": ("repro.train.sweep", "prepare_specs"),
    "load_sweep_file": ("repro.train.sweep", "load_sweep_file"),
    "read_run_status": ("repro.train.status", "read_run_status"),
    "format_run_status": ("repro.train.status", "format_run_status"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.train' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

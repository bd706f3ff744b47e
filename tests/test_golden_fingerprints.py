"""Absolute golden values: engine fingerprints and the paper's running example.

Most identity tests in the suite are *relative* (one worker equals
four, a resumed run equals an uninterrupted one), so a semantic drift
that moves every mode equally would pass them all.  This module pins
absolute values instead:

* SHA-256 engine fingerprints of three small runs, one per registered
  stream scenario, each at ``workers`` 1 and 2 - thread churn with
  timestamps, the offline optimum and a checkpoint interrupt/resume;
  hot-object drift with timestamps and the optimum off; phase change
  under an imposed window with ``epoch_every`` and the window-aware
  mechanisms;
* the paper's running example (Fig. 1 / Fig. 3): optimal components
  ``['O2', 'O3', 'T2']`` and final stamp ``<T2:3, O2:3, O3:3>``;
* checkpoint directories written by earlier releases
  (``tests/data/legacy_checkpoints``).  Two come from a release whose
  kernels pickled a since-removed backend helper: the timestamped one
  must be refused with a clean error naming the shard file, the
  untimestamped one must resume to its pinned fingerprint.  The windowed
  one (an imposed window with ``epoch_every``, interrupted after one
  chunk) was written by the engine's since-removed one-event-at-a-time
  loop, the only loop that ever ran imposed windows before; it must
  resume under the single run-batched loop to its pinned fingerprint.

Re-blessing.  A golden value may change only on purpose - a deliberate
change to the numbers a run computes, never a refactor.  To re-bless:

1. run ``PYTHONPATH=src python tests/test_golden_fingerprints.py``, which
   prints the current fingerprint of every case;
2. paste the printed values over :data:`GOLDEN` and
   :data:`LEGACY_FINGERPRINTS`;
3. record the old and new values and the reason in ``CHANGES.md``.

If the legacy checkpoint fixtures ever stop loading for a reason other
than the removed backend helper, that is a checkpoint-compatibility
break: bump the checkpoint format instead of re-generating them.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.computation.workloads import paper_example_trace
from repro.engine import EngineConfig, EngineInterrupted, run_engine
from repro.exceptions import EngineError
from repro.offline import optimal_components_for_computation

_SHAPE = dict(
    num_threads=16, num_objects=16, density=0.3, num_events=3000, num_shards=4
)

#: The pinned runs, by case name.
CASES = {
    "churn": EngineConfig(
        scenario="thread-churn", chunk_size=250, timestamps=True, **_SHAPE
    ),
    "drift": EngineConfig(
        scenario="hot-object-drift",
        chunk_size=400,
        timestamps=True,
        include_offline=False,
        **_SHAPE,
    ),
    "phase": EngineConfig(
        scenario="phase-change",
        chunk_size=400,
        window=300,
        epoch_every=350,
        mechanisms=("popularity", "adaptive-popularity", "epoch-hybrid"),
        **_SHAPE,
    ),
}

#: SHA-256 fingerprints of :data:`CASES` (identical at every worker count).
GOLDEN = {
    "churn": "145f1e7b621b07bd88b1e44afb4a10359c47ea229c4553ac59cd69240382ef85",
    "drift": "b440b79977d583e29781615da75f1c737f3015bd9a073664097289fad3fbc459",
    "phase": "4c399cc8718a8450b98f064e705f2f71254289a59a05feafd8b931693a60f783",
}

LEGACY_DIR = Path(__file__).parent / "data" / "legacy_checkpoints"


_LEGACY_SHAPE = dict(
    num_threads=8, num_objects=8, density=0.3, num_events=600, num_shards=2,
    chunk_size=100,
)

#: The configurations the legacy checkpoint directories were written by,
#: keyed by directory name.
LEGACY_CONFIGS = {
    "timestamped": EngineConfig(
        scenario="thread-churn", mechanisms=("naive", "popularity"),
        timestamps=True, **_LEGACY_SHAPE,
    ),
    "untimestamped": EngineConfig(
        scenario="thread-churn", mechanisms=("naive", "popularity"),
        **_LEGACY_SHAPE,
    ),
    "windowed": EngineConfig(
        scenario="phase-change",
        window=60,
        epoch_every=70,
        mechanisms=("popularity", "adaptive-popularity", "epoch-hybrid"),
        **_LEGACY_SHAPE,
    ),
}

#: Uninterrupted fingerprints of :data:`LEGACY_CONFIGS`.
LEGACY_FINGERPRINTS = {
    "timestamped": "c1e5274c5a51cd6a78e88df11ffca5823a78422a0a0b7f1b8c0ffb9751cb438e",
    "untimestamped": "9832ebcc6ffeedba66d8cf0d4b25e509cae0d439301f5fa6106063730c978811",
    "windowed": "4fc966475a4233292983cb91a58c19df00a2c895c945c48a508ace50e41140b1",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_fingerprint_is_golden(case, workers):
    config = dataclasses.replace(CASES[case], workers=workers)
    assert run_engine(config).fingerprint() == GOLDEN[case]


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_churn_resumes_to_golden(tmp_path, workers):
    config = dataclasses.replace(
        CASES["churn"], checkpoint_dir=str(tmp_path / "ckpt"), workers=workers
    )
    with pytest.raises(EngineInterrupted):
        run_engine(dataclasses.replace(config, max_chunks_per_shard=1))
    assert run_engine(config).fingerprint() == GOLDEN["churn"]


def test_paper_running_example():
    trace = paper_example_trace()
    result = optimal_components_for_computation(trace)
    assert sorted(map(str, result.cover)) == ["O2", "O3", "T2"]
    stamped = result.protocol().timestamp_computation(trace)
    final = stamped.timestamp(list(trace)[-1])
    assert str(final) == "<T2:3, O2:3, O3:3>"


class TestLegacyCheckpoints:
    @staticmethod
    def _copy(kind, tmp_path):
        target = tmp_path / kind
        shutil.copytree(LEGACY_DIR / kind, target)
        return target

    @staticmethod
    def _contents(directory):
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    @staticmethod
    def _config(kind, directory):
        return dataclasses.replace(
            LEGACY_CONFIGS[kind], checkpoint_dir=str(directory)
        )

    def test_untimestamped_legacy_checkpoint_resumes(self, tmp_path):
        directory = self._copy("untimestamped", tmp_path)
        config = self._config("untimestamped", directory)
        fingerprint = run_engine(config).fingerprint()
        assert fingerprint == LEGACY_FINGERPRINTS["untimestamped"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_windowed_legacy_checkpoint_resumes(self, tmp_path, workers):
        directory = self._copy("windowed", tmp_path)
        config = dataclasses.replace(
            self._config("windowed", directory), workers=workers
        )
        fingerprint = run_engine(config).fingerprint()
        assert fingerprint == LEGACY_FINGERPRINTS["windowed"]

    def test_timestamped_legacy_checkpoint_is_refused(self, tmp_path):
        directory = self._copy("timestamped", tmp_path)
        before = self._contents(directory)
        config = self._config("timestamped", directory)
        with pytest.raises(EngineError) as excinfo:
            run_engine(config)
        assert str(directory / "shard-1.pickle") in str(excinfo.value)
        assert "engine clean" in str(excinfo.value)
        # Nothing was written: no partial state mixes old and new results.
        assert self._contents(directory) == before

    def test_cleaned_legacy_directory_recomputes(self, tmp_path, capsys):
        directory = self._copy("timestamped", tmp_path)
        assert main(["engine", "clean", str(directory), "--max-age", "0"]) == 0
        config = self._config("timestamped", directory)
        fingerprint = run_engine(config).fingerprint()
        assert fingerprint == LEGACY_FINGERPRINTS["timestamped"]


def _print_current_values() -> None:
    """Print every golden value as the current code computes it."""
    print("GOLDEN = {")
    for case in sorted(CASES):
        print(f'    "{case}": "{run_engine(CASES[case]).fingerprint()}",')
    print("}")
    print("LEGACY_FINGERPRINTS = {")
    for kind in sorted(LEGACY_CONFIGS):
        fingerprint = run_engine(LEGACY_CONFIGS[kind]).fingerprint()
        print(f'    "{kind}": "{fingerprint}",')
    print("}")


if __name__ == "__main__":
    _print_current_values()

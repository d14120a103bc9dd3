"""One content key: every digest ``repro`` keys a result by is
:func:`repro.util.memo.content_key`, and it depends on content alone.

The cross-interpreter test computes the keys that leave a process (the
preset cluster and compiler fingerprints, the tape of every app's
one-step program, a batch job digest, a pass certificate and the
experiment disk-cache stem) in fresh interpreters under three hash
seeds; they must agree.  The unit cases pin the encoding's edges.
"""

import dataclasses
import enum
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.util.memo import content_key

_SRC = Path(__file__).resolve().parents[2] / "src"

_KEYS_SCRIPT = """
import json
from repro.apps import ALL_APPS, get_app
from repro.harness.parallel import cache_key
from repro.ir.analyze import certified_optimize
from repro.ir.batch import BatchJob, compile_tape, shared_batch_backend
from repro.machine import cte_arm
from repro.machine.presets import MACHINES
from repro.toolchain import COMPILERS

keys = {f"cluster/{p.name}": p.build().fingerprint.hex() for p in MACHINES}
keys.update({f"compiler/{label}": profile.fingerprint.hex()
             for label, profile in COMPILERS.items()})
cluster = cte_arm()
for name in sorted(ALL_APPS):
    app = get_app(name)
    n_nodes = max(32, app.min_nodes(cluster))
    program = app.program(app.mapping(cluster, n_nodes), steps=1)
    keys[f"tape/{name}"] = compile_tape(program).digest.hex()
app = get_app("nemo")
mapping = app.mapping(cluster, 32)
program = app.program(mapping, steps=1)
job = BatchJob(program, cluster, 32, mapping=mapping,
               overrides={"comm_scale": 0.5, "rate_scale": 2.0})
keys["job/nemo"] = shared_batch_backend()._prepare(job).digest.hex()
keys["certificate/nemo"] = certified_optimize(program)[1].digest
keys["cache/fig1_fpu"] = cache_key("fig1_fpu")
print(json.dumps(keys))
"""


def _keys(seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(_SRC))
    return subprocess.Popen([sys.executable, "-c", _KEYS_SCRIPT], env=env,
                            stdout=subprocess.PIPE, text=True)


def test_keys_agree_across_hash_seeds():
    from repro.apps import ALL_APPS
    from repro.machine.presets import MACHINES
    from repro.toolchain import COMPILERS

    runs = [_keys(seed) for seed in ("1", "2", "3")]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0, 0]
    keys = [json.loads(out.splitlines()[-1]) for out in outputs]
    assert keys[0] == keys[1] == keys[2]
    kinds = [name.split("/")[0] for name in keys[0]]
    assert kinds.count("cluster") == len(list(MACHINES)) == 4
    assert kinds.count("compiler") == len(COMPILERS) == 8
    assert kinds.count("tape") == len(ALL_APPS) == 5
    # distinct content, distinct keys
    assert len(set(keys[0].values())) == len(keys[0])


class _Colour(enum.Enum):
    RED = 1
    CRIMSON = 1  # an alias is its canonical member


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    y: float
    label: str = dataclasses.field(default="", compare=False)


class _Pair(NamedTuple):
    n: int
    s: str


def _double(x):
    return 2 * x


def test_rejects_what_it_cannot_encode():
    with pytest.raises(TypeError, match="cannot encode"):
        content_key(object())
    with pytest.raises(TypeError, match="cannot encode"):
        content_key(_Point(1.0, object()))
    with pytest.raises(TypeError, match="object array"):
        content_key(np.array([object()]))
    with pytest.raises(TypeError, match="cannot encode"):
        content_key(lambda: None)
    with pytest.raises(TypeError, match="cannot encode"):
        content_key(_double.__call__)
    with pytest.raises(TypeError, match="cannot encode"):
        content_key(np.int64(3))


def test_tells_apart_what_repr_or_concatenation_would_not():
    assert content_key(0.0) != content_key(-0.0)
    assert content_key(("ab", "c")) != content_key(("a", "bc"))
    assert content_key((1, 2)) != content_key([1, 2])
    assert content_key(True) != content_key(1)
    assert content_key("1") != content_key(1) != content_key(1.0)
    assert content_key(b"x") != content_key("x")
    assert content_key(np.zeros(2, np.float64)) \
        != content_key(np.zeros(2, np.float32))
    assert content_key(np.zeros((2, 3))) != content_key(np.zeros((3, 2)))
    assert content_key(np.zeros(0)) != content_key(np.zeros((0, 1)))
    assert content_key(Fraction(1, 3)) != content_key(1 / 3)
    assert content_key({"a": 1}) != content_key({"a": 1.0})


def test_sets_and_mappings_ignore_insertion_order():
    words = [f"w{i}" for i in range(40)]
    assert content_key(set(words)) == content_key(set(reversed(words)))
    assert content_key(frozenset(words)) == content_key(set(words))
    forward = {w: i for i, w in enumerate(words)}
    backward = {w: forward[w] for w in reversed(words)}
    assert list(forward) != list(backward)
    assert content_key(forward) == content_key(backward)


def test_equal_objects_get_equal_keys():
    assert _Point(1.0, 2.0, "a") == _Point(1.0, 2.0, "b")
    assert content_key(_Point(1.0, 2.0, "a")) \
        == content_key(_Point(1.0, 2.0, "b"))
    assert content_key(_Point(1.0, 2.0)) != content_key(_Point(2.0, 1.0))
    assert content_key(_Colour.CRIMSON) == content_key(_Colour.RED)
    assert content_key(np.float64(0.5)) == content_key(0.5)
    grid = np.arange(12).reshape(3, 4)
    assert content_key(grid.T) == content_key(np.ascontiguousarray(grid.T))
    assert content_key(_double) == content_key(_double)
    assert content_key(_Pair(1, "a")) == content_key((1, "a"))


def test_a_shared_sub_object_encodes_like_a_copy():
    p = _Point(1.0, 2.0)
    assert content_key((p, p)) == content_key((p, _Point(1.0, 2.0)))

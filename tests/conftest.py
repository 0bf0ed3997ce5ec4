import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; kernels at fp64 can exceed hypothesis' per-example deadline.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("tier1")

from minitrain.data import write_cifar_binary
from synthetic import make_synthetic_dataset


@pytest.fixture(scope="session")
def synth_data_dir(tmp_path_factory):
    """Directory with synthetic train/test files in the binary batch format."""
    d = tmp_path_factory.mktemp("synthdata")
    write_cifar_binary(make_synthetic_dataset(per_class=40, seed=0), d / "data_batch_1.bin")
    write_cifar_binary(make_synthetic_dataset(per_class=15, seed=99), d / "test_batch.bin")
    return d

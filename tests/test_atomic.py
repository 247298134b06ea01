"""Artifact writers replace their target whole or leave it as it was."""

import os

import pytest

from pkwbench.atomic import _atomic_write
from pkwbench.dataset import LabeledSample, write_labels_csv
from pkwbench.geometry import PkwFixed, PkwSample, derive, write_params


def test_completed_write_replaces_the_target(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with _atomic_write(path, newline="") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_new_file_gets_the_mode_bits_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.bin"
    plain.write_bytes(b"x")
    with _atomic_write(tmp_path / "atomic.bin", "wb") as fh:
        fh.write(b"x")
    assert (tmp_path / "atomic.bin").stat().st_mode == plain.stat().st_mode


def _labels_failing_on_the_third():
    good = LabeledSample(geometry_id="g000000", Q=0.01, c_D=0.5, source="synthetic")
    return [good, good, None]


def _params_failing_on_the_second():
    fixed = PkwFixed()
    sample = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    yield "g000000", fixed, sample, derive(fixed, sample)
    raise RuntimeError("design source failed")


@pytest.mark.parametrize("existing", [None, b"previous artifact\n"])
@pytest.mark.parametrize("write, error", [
    (lambda path: write_labels_csv(path, _labels_failing_on_the_third()), AttributeError),
    (lambda path: write_params(path, _params_failing_on_the_second()), RuntimeError),
])
def test_writer_raising_mid_write_leaves_no_partial_file(tmp_path, write, error, existing):
    path = tmp_path / "artifact.csv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(error):
        write(path)
    if existing is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == ["artifact.csv"]
        assert path.read_bytes() == existing

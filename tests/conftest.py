import numpy as np
import pytest

from eivreg import io_cli


@pytest.fixture
def dataset_csv(tmp_path):
    """Write a dataset as the CSV ``eivreg fit`` reads, losslessly (%.17g),
    with the x1_*/x2_* header that p and r are inferred from; returns its path."""

    def write(data, name="data.csv"):
        names = [f"x1_{k + 1}" for k in range(data.p)] + [f"x2_{k + 1}" for k in range(data.r)]
        path = tmp_path / name
        np.savetxt(path, data.x.T, fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="")
        return str(path)

    return write


@pytest.fixture(params=["exact", "repr"])
def float_writer(request, monkeypatch):
    """Run a test on the report's long-double float writer, where the long
    double here rounds exactly, and with every float left to ``float.__repr__``."""
    if request.param == "exact" and not io_cli._EXACT_LONGDOUBLE:
        pytest.skip("the long double of this platform does not round exactly")
    monkeypatch.setattr(io_cli, "_EXACT_LONGDOUBLE", request.param == "exact")
    return request.param

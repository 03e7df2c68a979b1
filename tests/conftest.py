import numpy as np
import pytest


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

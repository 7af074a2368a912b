"""Shared fixtures: representative weight matrices and calibration data.

Session-scoped so the expensive objects (correlated calibration sets,
quantized layers) are built once per test run.
"""

from __future__ import annotations

import http.client
from urllib.parse import urlparse

import numpy as np
import pytest

from repro.quant import MicroScopiQConfig, quantize_matrix


def make_outlier_matrix(
    d_out: int = 48,
    d_in: int = 256,
    outlier_rate: float = 0.012,
    adjacent_rows: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """Gaussian weights + planted outliers incl. adjacent pairs."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.02, (d_out, d_in))
    mask = rng.random(w.shape) < outlier_rate
    w[mask] *= rng.uniform(4.0, 8.0, int(mask.sum()))
    for r in range(0, min(adjacent_rows * 4, d_out), 4):
        c = int(rng.integers(0, d_in - 1))
        w[r, c], w[r, c + 1] = 0.15, -0.14
    return w


@pytest.fixture(scope="session")
def weights() -> np.ndarray:
    return make_outlier_matrix()


@pytest.fixture(scope="session")
def calib() -> np.ndarray:
    """Correlated calibration inputs (Hessian far from identity)."""
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 1.0, (256, 256))
    cov = a @ a.T / 256
    return rng.multivariate_normal(np.zeros(256), cov, size=128)


@pytest.fixture(scope="session")
def packed_w2(weights, calib):
    return quantize_matrix(weights, calib, MicroScopiQConfig(inlier_bits=2))


@pytest.fixture(scope="session")
def packed_w4(weights, calib):
    return quantize_matrix(weights, calib, MicroScopiQConfig(inlier_bits=4))


def send_with_length(url: str, method: str, path: str, length: str) -> int:
    """Send a bodiless request with a hand-set ``Content-Length`` header and
    return the reply's status (a handler stuck reading raises a timeout)."""
    parsed = urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=5)
    try:
        conn.putrequest(method, path)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        return conn.getresponse().status
    finally:
        conn.close()

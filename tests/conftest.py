import hashlib
import json

import numpy as np
import pytest

from fsml.data import CORPUS_DIGEST, ParcelSample, manifest_path


def parcel(days, channels, parcel_id="p0", lon=0.0, lat=0.0, region="R1", label="x",
           split="train"):
    """A ParcelSample from its days and, per group, its day-major rows (a
    [T, C] table or a list of T rows)."""
    return ParcelSample(
        parcel_id,
        np.asarray(days, dtype=np.intp),
        {g: np.asarray(rows, dtype=np.float64) for g, rows in channels.items()},
        lon, lat, region, label, split,
    )


def rewrite_corpus(path, text):
    """Replace a saved corpus's records by ``text`` and record the new bytes'
    digest in its manifest, as a hand edit that keeps the pair consistent."""
    path.write_text(text)
    mpath = manifest_path(path)
    manifest = json.loads(mpath.read_text())
    manifest[CORPUS_DIGEST] = hashlib.sha256(path.read_bytes()).hexdigest()
    mpath.write_text(json.dumps(manifest))


def array_digest(*arrays):
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def rel_error(approx, exact):
    """Norm-based relative error between two arrays."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(approx - exact) / denom


def finite_diff(f, arrays, h=1e-5):
    """Central finite differences of scalar f(arrays) w.r.t. every entry.

    Mutates entries in place during probing and restores them; ``f`` must
    re-read the arrays on every call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(arrays)
            flat[i] = orig - h
            fm = f(arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, tol, floor=1e-6):
    """Relative check with an absolute floor for genuinely-zero gradients."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.linalg.norm(analytic - numeric)
    scale = max(np.linalg.norm(numeric), np.linalg.norm(analytic), floor)
    assert diff <= tol * scale, f"gradient mismatch: {diff} > {tol} * {scale}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pad_batch(batch, length):
    """Pad a packed (values, days, mask) batch to ``length`` steps the way
    ``pack_batch`` pads short series: zero values, day 1, False mask."""
    values, days, mask = batch
    extra = length - values.shape[1]
    return (
        np.pad(values, ((0, 0), (0, extra), (0, 0))),
        np.pad(days, ((0, 0), (0, extra)), constant_values=1),
        np.pad(mask, ((0, 0), (0, extra))),
    )

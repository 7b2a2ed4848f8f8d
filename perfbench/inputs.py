"""Inputs the benchmark generates itself, and digests of every input.

The ingest stream is the benchmark's own: evifuse only ever sees the CSV
text. Everything here is a pure function of its arguments, so the same
pool index always yields the same bytes; ``reference.json`` records their
digests.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

SENSOR_DIMS = (260, 346)  # (height, width): DAVIS346
STREAM_US = 1_000_000
STREAM_EVENTS = 1_000_000
NOISE_SHARE = 0.2
STAMP_QUANTUM_US = 10  # coarse stamps give long runs of equal timestamps
EDGES = 6
BURSTS = 400


def ingest_columns(pool_index):
    """(t_us, x, y, p) int64 columns of one synthetic DAVIS346 stream.

    Moving bar edges fire in bursts (a Dirichlet split of the edge events
    over Poisson-placed bursts) on top of uniform background noise.
    Polarity is in {0, 1}, as DAVIS recordings write it. Rows are sorted
    by time with a stable sort.
    """
    h, w = SENSOR_DIMS
    rng = np.random.default_rng([0x1E57, pool_index])
    n_noise = int(STREAM_EVENTS * NOISE_SHARE)
    n_edge = STREAM_EVENTS - n_noise

    burst_t = np.sort(rng.uniform(0, STREAM_US, BURSTS))
    burst_n = rng.multinomial(n_edge, rng.dirichlet(np.full(BURSTS, 0.5)))
    burst = np.repeat(np.arange(BURSTS), burst_n)
    t = burst_t[burst] + rng.exponential(1500.0, n_edge)

    edge = rng.integers(0, EDGES, n_edge)
    x0 = rng.uniform(0, w, EDGES)
    y0 = rng.uniform(0, h, EDGES)
    vx = rng.uniform(-300, 300, EDGES) / 1e6  # px per us
    vy = rng.uniform(-200, 200, EDGES) / 1e6
    angle = rng.uniform(0, np.pi, EDGES)
    length = rng.uniform(30, 120, EDGES)
    along = (rng.uniform(-0.5, 0.5, n_edge) * length[edge])
    cx = np.mod(x0[edge] + vx[edge] * t, w)
    cy = np.mod(y0[edge] + vy[edge] * t, h)
    ex = cx + along * np.cos(angle[edge]) + rng.normal(0, 0.7, n_edge)
    ey = cy + along * np.sin(angle[edge]) + rng.normal(0, 0.7, n_edge)
    leading = rng.uniform(size=EDGES)
    ep = (rng.uniform(size=n_edge) < 0.3 + 0.4 * leading[edge]).astype(np.int64)

    t_all = np.concatenate([t, rng.uniform(0, STREAM_US, n_noise)])
    x_all = np.concatenate([np.rint(ex), rng.integers(0, w, n_noise)])
    y_all = np.concatenate([np.rint(ey), rng.integers(0, h, n_noise)])
    p_all = np.concatenate([ep, rng.integers(0, 2, n_noise)])

    t_all = np.clip(t_all, 0, STREAM_US - 1).astype(np.int64)
    t_all -= t_all % STAMP_QUANTUM_US
    x_all = np.clip(x_all, 0, w - 1).astype(np.int64)
    y_all = np.clip(y_all, 0, h - 1).astype(np.int64)
    order = np.argsort(t_all, kind="stable")
    return t_all[order], x_all[order], y_all[order], p_all[order]


def ingest_csv(columns):
    """CSV text of the columns, one ``t_us,x,y,p`` line per event."""
    rows = np.stack(columns, axis=1).tolist()
    header = f"# t_us,x,y,p  synthetic DAVIS346 {SENSOR_DIMS[1]}x{SENSOR_DIMS[0]}\n"
    return header + "".join("%d,%d,%d,%d\n" % tuple(r) for r in rows)


def sha256(*parts):
    """Hex digest over byte strings and arrays (dtype and shape included)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, str)):
            h.update(part.encode() if isinstance(part, str) else part)
        else:
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def event_columns(events):
    """int64 (t_us, x, y, p) columns of a program event collection.

    Accepts an object with column attributes or a sequence of per-event
    records, so the digest does not depend on the event representation.
    """
    names = ("t_us", "x", "y", "p")
    if all(isinstance(getattr(events, n, None), np.ndarray) for n in names):
        return tuple(np.asarray(getattr(events, n), dtype=np.int64) for n in names)
    n = len(events)
    return tuple(
        np.fromiter((getattr(e, name) for e in events), dtype=np.int64, count=n)
        for name in names
    )


def scene_digests(scene):
    """Digests of one synth_scene result: image, labels and events."""
    return {
        "image": sha256(np.asarray(scene.image.data)),
        "labels": sha256(np.asarray(scene.labels.data)),
        "events": sha256(*event_columns(scene.events)),
    }


def write_ingest_csv(pool_index, path):
    """Write stream ``pool_index`` to ``path`` atomically."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(ingest_csv(ingest_columns(pool_index)))
    os.replace(tmp, path)


if __name__ == "__main__":
    # python3 perfbench/inputs.py POOL_INDEX OUT_PATH
    write_ingest_csv(int(sys.argv[1]), sys.argv[2])

"""Builder of hand-constructed recordings used across the suite.

It lives outside ``conftest.py`` because ``perfbench/tests`` has a conftest of
its own, and two modules named ``conftest`` cannot both be imported by name."""

import numpy as np

from graphokit.ink import InkRecording, Task


def make_recording(x, y, t=None, pen=None, rate=130.0, task=Task.OTHER,
                   **channels):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if t is None:
        t = np.arange(n) / rate
    if pen is None:
        pen = np.ones(n, dtype=np.int8)
    return InkRecording(x, y, np.asarray(t, dtype=float),
                        np.asarray(pen, dtype=np.int8),
                        task=task, **channels)

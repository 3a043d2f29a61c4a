"""A fixed reference kernel that measures how fast the machine is right now.

On a shared VM the speed of one core drifts. On the 2-vCPU KVM guest
(Xeon, Sapphire Rapids class host) this benchmark was sized on, speed
switched between regimes about 35% apart, each lasting tens of seconds.
Raw throughput of ten 30 s runs spread by 14-29% (quartile distance over
median); once scaled by this kernel, it was 3-8%.

The kernel is timed before and after every measured call, and the call's
seconds are scaled to the speed at which the kernel takes REFERENCE_S. It is
an LSTM forward and backward pass in plain numpy with the decoder's shapes
(batch 16, 12 steps, input 96, hidden 128). So it mixes small matmuls,
elementwise ops and interpreter overhead the way a textvae step does. It uses
no textvae code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time that defines "reference speed": the fast regime of a 2-vCPU
# KVM guest on a Xeon (Sapphire Rapids) host, one BLAS thread
REFERENCE_S = 0.030

_H, _I, _B, _T, _REPS = 128, 96, 16, 12, 5
_rng = np.random.default_rng(0)
_W = 0.1 * _rng.standard_normal((4 * _H, _I + _H))
_XS = _rng.standard_normal((_T, _I, _B))


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _lstm_forward_backward() -> None:
    h = np.zeros((_H, _B))
    c = np.zeros((_H, _B))
    cache = []
    for t in range(_T):
        xh = np.concatenate([_XS[t], h])
        g = _W @ xh
        i, f, o = _sigmoid(g[:_H]), _sigmoid(g[_H:2 * _H]), _sigmoid(g[2 * _H:3 * _H])
        u = np.tanh(g[3 * _H:])
        c_next = f * c + i * u
        cache.append((xh, i, f, o, u, c, c_next))
        h, c = o * np.tanh(c_next), c_next
    dw = np.zeros_like(_W)
    dh = np.ones((_H, _B))
    dc = np.zeros((_H, _B))
    for xh, i, f, o, u, c_prev, c_next in reversed(cache):
        tc = np.tanh(c_next)
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di, du, df = dc * u, dc * i, dc * c_prev
        dc = dc * f
        dg = np.concatenate([di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), du * (1 - u * u)])
        dw += dg @ xh.T
        dh = (_W.T @ dg)[_I:]


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _lstm_forward_backward()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the kernel between calls and turns each call's seconds into reference seconds.

    Call ``factor()`` right after each measured call: the kernel times just
    before and just after the call are averaged, and the call's seconds times
    the returned factor are its seconds at reference speed.
    """

    def __init__(self):
        self.samples = [kernel_seconds()]

    def factor(self) -> float:
        self.samples.append(kernel_seconds())
        return REFERENCE_S / (0.5 * (self.samples[-2] + self.samples[-1]))

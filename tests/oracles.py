"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (nested loops, straight-line numpy) and
stays independent of the library code paths it checks.
"""

import numpy as np


def conv2d_loops(x, w, b=None, stride=1, pad=0):
    """Six-nested-loop cross-correlation."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[ni, ci, oy * stride + ky, ox * stride + kx] * w[co, ci, ky, kx]
                    out[ni, co, oy, ox] = acc
            if b is not None:
                out[ni, co] += b[co]
    return out


def maxpool2d_loops(x, k, stride):
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    win = x[ni, ci, oy * stride : oy * stride + k, ox * stride : ox * stride + k]
                    out[ni, ci, oy, ox] = win.max()
    return out


def maxpool2d_grad_loops(x, g, k, stride):
    """Route each window's upstream gradient to its first row-major argmax."""
    n, c, h, w = x.shape
    ho, wo = g.shape[2], g.shape[3]
    gx = np.zeros((n, c, h, w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    best = None
                    for ky in range(k):
                        for kx in range(k):
                            y, xx = oy * stride + ky, ox * stride + kx
                            if best is None or x[ni, ci, y, xx] > x[ni, ci, best[0], best[1]]:
                                best = (y, xx)
                    gx[ni, ci, best[0], best[1]] += g[ni, ci, oy, ox]
    return gx


def global_maxpool_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            out[ni, ci] = x[ni, ci].max()
    return out


def linear_loops(x, w, b=None):
    n, d = x.shape
    k = w.shape[0]
    out = np.zeros((n, k), dtype=np.float64)
    for ni in range(n):
        for ki in range(k):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[ki, di]
            out[ni, ki] = acc + (b[ki] if b is not None else 0.0)
    return out


def extract_patches_loops(images, count, rng):
    """One 3x3 patch per loop iteration, drawn in the library's RNG order."""
    n, c, h, w = images.shape
    idx = rng.integers(0, n, size=count)
    ys = rng.integers(0, h - 2, size=count)
    xs = rng.integers(0, w - 2, size=count)
    patches = np.empty((count, c * 9), dtype=np.float64)
    for i in range(count):
        patches[i] = images[idx[i], :, ys[i] : ys[i] + 3, xs[i] : xs[i] + 3].reshape(-1)
    return patches


def sam_two_step_reference(w, grad_fn, lr, rho, momentum, decay, v):
    """One sharpness-aware update on a flat parameter vector.

    grad_fn(w) -> gradient vector. Returns (w_next, v_next).
    """
    g = grad_fn(w)
    norm = np.sqrt((g * g).sum())
    if rho > 0 and norm > 0:
        g = grad_fn(w + rho * g / norm)
    g = g + 2.0 * decay * w
    v = momentum * v + g
    return w - lr * v, v


def softmax_ce_grad(w, x, y, alpha, k):
    """d/dW of mean smoothed cross-entropy for logits = x @ W.T."""
    logits = x @ w.T
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    t = np.full((len(y), k), alpha / k)
    t[np.arange(len(y)), y] += 1 - alpha
    return (p - t).T @ x / len(y)


def reptile_reference(w0, tasks, lr, beta, rounds, inner_steps, batch_size, alpha, k):
    """Independent trajectory of the 2-task interpolation procedure.

    Plain SGD inner updates on a linear softmax model, batches drawn with the
    same per-epoch seeding rule as the library's iterator, then
    w += beta * mean(adapted - w) per round. Returns the weight history.
    """
    w = w0.copy()
    history = [w.copy()]
    for rnd in range(rounds):
        adapted = []
        for t, (xs, ys) in enumerate(tasks):
            wt = w.copy()
            steps = 0
            sub_epoch = 0
            while steps < inner_steps:
                idx = np.arange(len(ys))
                np.random.default_rng([1000 + t, rnd * 1000 + sub_epoch]).shuffle(idx)
                for s in range(0, len(ys), batch_size):
                    if steps >= inner_steps:
                        break
                    bi = idx[s : s + batch_size]
                    wt = wt - lr * softmax_ce_grad(wt, xs[bi], ys[bi], alpha, k)
                    steps += 1
                sub_epoch += 1
            adapted.append(wt)
        w = w + beta * (np.mean(adapted, axis=0) - w)
        history.append(w.copy())
    return history

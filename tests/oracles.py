"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (nested loops, straight-line numpy) and
stays independent of the library code paths it checks.
"""

import math

import numpy as np


def conv2d_loops(x, w, pad=0):
    """Six-nested-loop stride-1 cross-correlation, without bias."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    ho = h + 2 * pad - kh + 1
    wo = wd + 2 * pad - kw + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[ni, ci, oy + ky, ox + kx] * w[co, ci, ky, kx]
                    out[ni, co, oy, ox] = acc
    return out


def conv2d_input_grad_loops(g, w, x_shape, pad=0):
    """Input gradient of ``conv2d_loops``: each output gradient
    flows back to every input its window read, weighted by the kernel tap."""
    n, cin, h, wd = x_shape
    cout, _, kh, kw = w.shape
    gxp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(g.shape[2]):
                for ox in range(g.shape[3]):
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                gxp[ni, ci, oy + ky, ox + kx] += g[ni, co, oy, ox] * w[co, ci, ky, kx]
    return gxp[:, :, pad : pad + h, pad : pad + wd]


def im2col_padded(x, k, pad):
    """[N,C,H,W] -> columns [C·k·k, N·Ho·Wo] for a k x k kernel, through a
    zero-padded [C,N,H+2p,W+2p] copy, one short row of Wo values per tap,
    channel, image and output row: the lowering the library's flat shifted
    copies must reproduce bit for bit."""
    n, c, h, w = x.shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, n, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, :, i : i + ho, j : j + wo]
    return cols.reshape(c * k * k, n * ho * wo)


def col2im_padded(cols, x_shape, k, pad):
    """Adjoint of ``im2col_padded``: sum the columns tap by tap, row-major, into a
    zeroed padded [N,C,H+2p,W+2p] buffer and crop it to ``x_shape``."""
    n, c, h, w = x_shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    cols6 = cols.reshape(c, k, k, n, ho, wo)
    gxp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + ho, j : j + wo] += cols6[:, i, j]
    return gxp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3)


def maxpool2d_loops(x):
    """2 x 2 windows, stride 2."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(h // 2):
                for ox in range(w // 2):
                    out[ni, ci, oy, ox] = x[ni, ci, 2 * oy : 2 * oy + 2, 2 * ox : 2 * ox + 2].max()
    return out


def maxpool2d_grad_loops(x, g):
    """Route each 2 x 2 window's upstream gradient to its first row-major argmax."""
    n, c, h, w = x.shape
    gx = np.zeros((n, c, h, w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(h // 2):
                for ox in range(w // 2):
                    best = None
                    for ky in range(2):
                        for kx in range(2):
                            y, xx = 2 * oy + ky, 2 * ox + kx
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


def linear_loops(x, w, b):
    n, d = x.shape
    k = w.shape[0]
    out = np.zeros((n, k), dtype=np.float64)
    for ni in range(n):
        for ki in range(k):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[ki, di]
            out[ni, ki] = acc + b[ki]
    return out


def batchnorm2d_loops(x, gamma, beta, running_mean, running_var, mode, momentum=0.1, eps=1e-5):
    """Channel by channel, value by value.

    Returns (out, running_mean, running_var): the normalized output and the
    running statistics after the call, which train mode folds the biased batch
    statistics into and eval mode leaves as they were.
    """
    n, c, h, w = x.shape
    out = np.zeros((n, c, h, w), dtype=np.float64)
    rm = np.array(running_mean, dtype=np.float64)
    rv = np.array(running_var, dtype=np.float64)
    for ci in range(c):
        vals = [x[ni, ci, yi, xi] for ni in range(n) for yi in range(h) for xi in range(w)]
        if mode == "train":
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / len(vals)
            rm[ci] += momentum * (mean - rm[ci])
            rv[ci] += momentum * (var - rv[ci])
        else:
            mean, var = rm[ci], rv[ci]
        inv_std = 1.0 / math.sqrt(var + eps)
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    out[ni, ci, yi, xi] = gamma[ci] * (x[ni, ci, yi, xi] - mean) * inv_std + beta[ci]
    return out, rm, rv


def relu_loops(x):
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.empty_like(flat)
    for i, v in enumerate(flat):
        out[i] = v if v > 0 else 0.0
    return out.reshape(np.shape(x))


def celu_loops(x, alpha):
    """Elementwise: v for v >= 0, alpha * (exp(v / alpha) - 1) otherwise."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.empty_like(flat)
    for i, v in enumerate(flat):
        out[i] = v if v >= 0 else alpha * math.expm1(v / alpha)
    return out.reshape(np.shape(x))


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


def augment_loops(batch, rng, pad=4):
    """Reflect-pad, then crop and flip one image per loop iteration, drawn in the library's RNG order."""
    n, c, h, w = batch.shape
    padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    out = np.empty_like(batch)
    for i in range(n):
        oy, ox = offs[i]
        img = padded[i, :, oy : oy + h, ox : ox + w]
        out[i] = img[:, :, ::-1] if flips[i] else img
    return out


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

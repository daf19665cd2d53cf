"""Scalar-loop reference implementations shared by the layer tests and the
acceptance suite. These never call into logcad.tensor ops."""

import math

import numpy as np


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def lstm_cell_oracle(p, x, h, c):
    # gate g owns column block g of the fused weights (order i, f, g, o)
    hidden = h.size
    h2 = np.zeros(hidden)
    c2 = np.zeros(hidden)
    for j in range(hidden):
        pre = {}
        for block, g in enumerate("ifgo"):
            col = block * hidden + j
            s = p.b.data[col]
            for k in range(x.size):
                s += x[k] * p.wx.data[k, col]
            for k in range(hidden):
                s += h[k] * p.wh.data[k, col]
            pre[g] = s
        i_g = sigmoid(pre["i"])
        f_g = sigmoid(pre["f"])
        g_g = math.tanh(pre["g"])
        o_g = sigmoid(pre["o"])
        c2[j] = f_g * c[j] + i_g * g_g
        h2[j] = o_g * math.tanh(c2[j])
    return h2, c2


def attention_oracle(p, states, s):
    # states (T, enc), s (dec,)
    t = states.shape[0]
    q = np.zeros(p.u_s.shape[1])
    for a in range(q.size):
        q[a] = sum(s[k] * p.u_s.data[k, a] for k in range(s.size))
    scores = np.zeros(t)
    for i in range(t):
        ph = np.zeros(p.u_h.shape[1])
        for a in range(ph.size):
            ph[a] = sum(states[i, k] * p.u_h.data[k, a] for k in range(states.shape[1]))
        scores[i] = float(np.dot(ph, q))
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    d = np.zeros(states.shape[1])
    for i in range(t):
        d += alpha[i] * states[i]
    return d, alpha


def gate_oracle(p, s, f):
    fs = np.concatenate([f, s])
    # w_zr holds W_z in its first s.size columns and W_r in the rest
    zr = np.array([sigmoid(float(fs @ p.w_zr.data[:, j]) + p.b_zr.data[j])
                   for j in range(s.size + f.size)])
    z, r = zr[:s.size], zr[s.size:]
    rf_s = np.concatenate([r * f, s])
    cand = np.array([math.tanh(float(rf_s @ p.w_s.data[:, j]) + p.b_s.data[j])
                     for j in range(s.size)])
    return (1.0 - z) * s + z * cand


def masknet_oracle(p, states, x_trg):
    # states (T, enc), x_trg (W,)
    t = states.shape[0]
    mapped = np.stack([np.tanh(states[i] @ p.w_ff.data + p.b_ff.data) for i in range(t)])
    mean = mapped.sum(axis=0) / t
    m = np.array([sigmoid(float(mean @ p.w_m.data[:, j]) + p.b_m.data[j])
                  for j in range(x_trg.size)])
    return x_trg * m


def char_cnn_oracle(p, words):
    text = "_".join(words)
    max_w = max(w for w, _, _ in p.banks)
    width = max(len(text), max_w)
    ids = p.alphabet.encode(text, width)
    embs = p.emb.data[ids]
    outs = []
    for w, kernel, bias in p.banks:
        vals = []
        for t in range(max(len(text) - w + 1, 1)):
            window = embs[t : t + w].reshape(-1)
            vals.append(window @ kernel.data + bias.data)
        outs.append(np.max(np.stack(vals), axis=0))
    return np.concatenate(outs)
